"""Tests for the command-line runner: grids, exits, determinism, outputs."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import infoconc.cli as cli
import infoconc.numerics
from infoconc.cli import UsageError, main, parse_grid
from infoconc.distributions import _MAX_COUNT


def read_json_no_meta(path):
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("meta", None)
    return payload


def read_csv_rows(path):
    """The CSV rows as dicts of header name to cell text."""
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), r.split(","))) for r in rows]


class TestGridParsing:
    def test_range_inclusive(self):
        grid = parse_grid("0:8:0.5")
        assert len(grid) == 17
        assert grid[0] == 0.0 and grid[-1] == 8.0

    def test_range_endpoint_tolerance(self):
        # 0.1 steps accumulate representation error; the endpoint must
        # still be included
        grid = parse_grid("0:1:0.1")
        assert len(grid) == 11
        assert abs(grid[-1] - 1.0) < 1e-12

    def test_comma_list(self):
        assert parse_grid("16,64,256") == [16.0, 64.0, 256.0]

    def test_single_value(self):
        assert parse_grid("2.5") == [2.5]

    def test_aep_length_grid(self, tmp_path, capsys):
        # run_trajectories holds the one integer-length rule; the config
        # echoes the lengths it ran, as ints
        js = tmp_path / "aep.json"
        argv = ["aep", "--model", "laplace", "--samples", "100",
                "--out-json", str(js)]
        assert main([*argv, "--n-grid", "1.5,2"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: trajectory lengths must be integers >= 1")
        assert not js.exists()
        assert main([*argv, "--n-grid", "2:6:2"]) == 0
        n_grid = read_json_no_meta(js)["config"]["n_grid"]
        assert n_grid == [2, 4, 6] and all(type(n) is int for n in n_grid)

    @pytest.mark.parametrize("bad", ["1:2", "1:2:0", "2:1:0.5", "a:b:c",
                                     "1:2:3:4", ",", "abc", "nan", "1,nan",
                                     "0,inf", "0:inf:1", "0.5,0.25", "1,1"])
    def test_bad_grids(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)

    def test_range_is_counted_before_it_is_built(self):
        # 0:1e12:1 would build a trillion floats before any check
        assert len(parse_grid("0:65535:1")) == 2 ** 16
        for text, count in (("0:65536:1", 65537), ("0:1e12:1", 10**12 + 1)):
            with pytest.raises(UsageError, match=f"{count} points, more than 65536"):
                parse_grid(text)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "experiment" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_model(self, capsys):
        assert main(["tail"]) == 1
        assert "--model" in capsys.readouterr().err

    def test_gamma_without_p(self, capsys):
        assert main(["tail", "--model", "gamma", "--samples", "100"]) == 1

    def test_unknown_family(self, capsys):
        assert main(["tail", "--model", "cauchy", "--samples", "100"]) == 1

    @pytest.mark.parametrize("argv", [
        ["tail", "--samples", "100"],
        ["tail", "--samples", "100", "--dim", "3"],
        ["lyapunov", "--p-grid", "1:3:1"],
        ["aep", "--samples", "100", "--n-grid", "2,4"],
    ], ids=["tail", "tail_dim3", "lyapunov", "aep"])
    def test_unknown_bare_name(self, argv, tmp_path, capsys):
        # the spec builders, not the CLI, reject a name that is no family
        csv, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert main([*argv, "--model", "weibull", "--out-csv", str(csv),
                     "--out-json", str(js)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'weibull'" in err
        assert not csv.exists() and not js.exists()

    def test_bad_model_json(self, capsys):
        assert main(["tail", "--model", '{"family": nope}']) == 1

    def test_bad_model_spec(self, capsys):
        assert main(["tail", "--model", '{"family": "gamma", "params": {"p": 0.5}}',
                     "--samples", "100"]) == 1

    def test_missing_model_file(self, capsys):
        assert main(["tail", "--model-file", "/nonexistent/spec.json"]) == 1

    def test_bad_grid(self, capsys):
        assert main(["tail", "--model", "gaussian", "--t-grid", "8:0:1",
                     "--samples", "100"]) == 1

    @pytest.mark.parametrize("argv", [
        ["tail", "--samples", "100"],
        ["lyapunov", "--p-grid", "1:3:1"],
        ["aep", "--samples", "100", "--n-grid", "2,4"],
    ])
    def test_model_and_model_file_are_exclusive(self, argv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"family": "laplace"}')
        assert main([*argv, "--model", "exponential",
                     "--model-file", str(path)]) == 1
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("model, dim", [("exponential", "0"),
                                            ("gaussian", "-2")])
    def test_dim_below_one(self, model, dim, tmp_path, capsys):
        js = tmp_path / "out.json"
        assert main(["tail", "--model", model, "--dim", dim, "--samples", "100",
                     "--t-grid", "0:1:1", "--out-json", str(js)]) == 1
        assert capsys.readouterr().err.startswith("error: --dim")
        assert not js.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["lyapunov", "--model", "exponential", "--dim", "5",
          "--p-grid", "1:3:1"], "unrecognized arguments: --dim"),
        (["aep", "--model", "laplace", "--rho", "0.9", "--samples", "100",
          "--n-grid", "2,4"], "--rho"),
        (["order_p", "--model", "exponential", "--p", "3"], "--p"),
        (["tail", "--model-file", "@spec", "--dim", "4", "--samples", "100",
          "--t-grid", "0:1:1"], "--dim"),
    ], ids=["dim_on_density", "rho_on_laplace", "p_on_exponential",
            "dim_with_model_file"])
    def test_unread_model_flag(self, argv, flag, tmp_path, capsys):
        # a flag the chosen model does not read is refused, not dropped
        spec = tmp_path / "spec.json"
        spec.write_text('{"family": "exponential"}')
        csv = tmp_path / "out.csv"
        argv = [str(spec) if a == "@spec" else a for a in argv]
        assert main([*argv, "--out-csv", str(csv)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not csv.exists()

    def test_model_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 184)))
        assert main(["tail", "--model-file", str(path), "--samples", "100",
                     "--t-grid", "0:1:1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    def test_gaussian_spec_dim_below_one(self, capsys):
        assert main(["tail", "--model",
                     '{"family": "gaussian", "params": {"dim": -2}}',
                     "--samples", "100"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["aep", "--model", '{"process": "gauss_ar1", "params": {"rho": "x"}}'],
        ["aep", "--model", '{"process": "gauss_ar1", "params": [1]}'],
        ["aep", "--model", '{"process": "iid"}'],
        ["tail", "--model", '{"family": "product", "params": {"component": '
         '{"family": "exponential"}, "copies": "x"}}'],
        ["tail", "--model", '{"family": "product", "params": {"components": 3}}'],
        ["tail", "--model", '{"family": "ball_uniform", "params": {}}'],
        ["tail", "--model", '{"family": "affine", "params": {"base": '
         '{"family": "exponential"}}}'],
        ["tail", "--model", '{"family": "gaussian", "params": '
         '{"cov_factor": [[1, 0], [1]]}}'],
        ["tail", "--model", '{"family": ["x"]}'],
        ["lyapunov", "--model", '{"family": "gamma", "params": {"p": "x"}}'],
        ["tail", "--model", '{"family": "gaussian", "params": {"dim": 2.7}}'],
        ["tail", "--model", '{"family": "ball_uniform", "params": {"dim": 2.5}}'],
        ["tail", "--model", '{"family": "product", "params": {"component": '
         '{"family": "exponential"}, "copies": 2.5}}'],
        ["tail", "--model", '{"family": "product", "params": {"component": '
         '{"family": "exponential"}, "copies": true}}'],
        ["tail", "--model", '{"family": "gaussian", "params": {"mean": 5}}'],
        ["tail", "--model", '{"family": "gaussian", "params": {"cov_factor": 2}}'],
        ["tail", "--model", '{"family": "gaussian", "params": {}}'],
    ], ids=["ar1_rho_type", "ar1_params_list", "iid_no_base", "copies_type",
            "components_type", "ball_no_dim", "affine_no_matrix",
            "ragged_cov_factor", "family_type", "gamma_p_type",
            "gaussian_dim_fraction", "ball_dim_fraction", "copies_fraction",
            "copies_bool", "gaussian_scalar_mean", "gaussian_scalar_factor",
            "gaussian_no_dim"])
    def test_malformed_spec(self, argv, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        extra = {"aep": ["--samples", "10", "--n-grid", "2,4"],
                 "tail": ["--samples", "10"], "lyapunov": []}[argv[0]]
        assert main([*argv, *extra, "--out-csv", str(csv)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not csv.exists()

    # log Gamma of dim/2 + 1 is past the largest double: a numeric error of
    # a well-formed spec, not a malformed one
    @pytest.mark.parametrize("argv", [
        ["tail", "--model",
         '{"family": "ball_uniform", "params": {"dim": 1e308}}'],
    ], ids=["ball_huge_dim"])
    def test_log_gamma_overflow(self, argv, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main([*argv, "--samples", "10", "--out-csv", str(csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "log_gamma overflows" in err
        assert "malformed" not in err
        assert not csv.exists()

    # a gaussian scale whose square underflows or overflows is well formed:
    # its entropy is log sigma plus a constant, and the run ends as any other
    @pytest.mark.parametrize("argv", [
        ["tail", "--model", '{"family":"gaussian1d","params":{"sigma":1e-200}}'],
        ["aep", "--model", '{"family":"gaussian1d","params":{"sigma":1e200}}',
         "--n-grid", "4,16"],
        ["aep", "--model", "gauss_ar1", "--sd", "1e-200", "--n-grid", "4,16"],
        ["aep", "--model", "gauss_ar1", "--sd", "1e200", "--n-grid", "4,16"],
    ], ids=["tail_sigma_tiny", "aep_sigma_huge", "ar1_sd_tiny", "ar1_sd_huge"])
    def test_extreme_gaussian_scale_runs(self, argv, capsys):
        assert main([*argv, "--samples", "100"]) == 0
        assert capsys.readouterr().err == ""

    # a gamma order past 1e10 is refused before log Gamma of it is taken
    @pytest.mark.parametrize("p", ["1e308", "2e10"],
                             ids=["gamma_huge_p", "gamma_past_limit"])
    def test_gamma_shape_limit(self, p, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["tail", "--model", "gamma", "--p", p, "--samples", "10",
                     "--out-csv", str(csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma shape p must be at most 1e+10")
        assert not csv.exists()

    # a non-finite 1-D, gaussian or process parameter is refused, by name,
    # where the model is built
    @pytest.mark.parametrize("argv,message", [
        (["tail", "--model",
          '{"family":"gaussian","params":{"dim":2,"mean":[0,NaN]}}',
          "--t-grid", "0:2:1"], "gaussian mean must be finite"),
        (["tail", "--model", '{"family":"uniform","params":{"a":-Infinity,"b":0}}',
          "--t-grid", "0:2:1"], "uniform a must be finite"),
        (["aep", "--model", '{"family":"gaussian1d","params":{"mu":NaN}}',
          "--n-grid", "4,16"], "gaussian1d mu must be finite"),
        (["aep", "--model", "gauss_ar1", "--sd", "nan", "--n-grid", "4,16"],
         "innovation sd must be finite"),
    ], ids=["gaussian_nan_mean", "uniform_infinite_end", "aep_nan_mu",
            "aep_nan_sd"])
    def test_non_finite_deviations_are_errors(self, argv, message, tmp_path,
                                              capsys):
        csv, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert main([*argv, "--samples", "1000", "--seed", "1",
                     "--out-csv", str(csv), "--out-json", str(js)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error:") and "HOLDS" not in out.out
        assert message in out.err
        assert not csv.exists() and not js.exists()

    # a count whose float64 array numpy cannot size (past 2^60 - 1) is
    # refused by name before any array is made, not left to numpy's
    # ValueError or to a wrapping int64 cast; the fourth length parses as
    # the float 2^63.  A model dimension or copies count past the same
    # bound is refused where the model is built, as it was written, an
    # integer too large for a float too.  A count numpy can size but no
    # memory can back ends in its MemoryError as an error line: every count
    # here is at least 2^56, whose 2^59 bytes lie past any address space,
    # so the allocation fails at once
    @pytest.mark.parametrize("argv,message", [
        (["tail", "--model", "exponential", "--samples", str(10**19)],
         f"sample count must lie in [1, {_MAX_COUNT}], got {10**19}"),
        (["aep", "--model", "exponential", "--samples", str(10**19)],
         f"trial count must lie in [2, {_MAX_COUNT}], got {10**19}"),
        (["aep", "--model", "laplace", "--samples", "10",
          "--n-grid", "16,1e19"],
         f"trajectory length must lie in [1, {_MAX_COUNT}], got {10**19}"),
        (["aep", "--model", "laplace", "--samples", "10",
          "--n-grid", f"16,{2**63 - 1}"],
         f"trajectory length must lie in [1, {_MAX_COUNT}], got {2**63}"),
        (["tail", "--model", "exponential", "--samples", str(2**62)],
         f"sample count must lie in [1, {_MAX_COUNT}], got {2**62}"),
        (["aep", "--model", "exponential", "--samples", str(2**61),
          "--n-grid", "2,4"],
         f"trial count must lie in [2, {_MAX_COUNT}], got {2**61}"),
        (["aep", "--model", "exponential", "--samples", str(2**59),
          "--n-grid", "2,4,8,16"],
         f"trial count times grid lengths must lie in [1, {_MAX_COUNT}], "
         f"got {2**61}"),
        (["tail", "--model", "exponential", "--samples", str(2**59)],
         "Unable to allocate"),
        (["aep", "--model", "exponential", "--samples", str(2**57),
          "--n-grid", "2,4"], "Unable to allocate"),
        (["tail", "--model", "gaussian", "--dim", str(2**60),
          "--samples", "10"],
         f"gaussian dimension must lie in [1, {_MAX_COUNT}], got {2**60}"),
        (["tail", "--model", '{"family": "gaussian", "params": {"dim": 1e300}}',
          "--samples", "10"],
         f"gaussian dimension must lie in [1, {_MAX_COUNT}], got 1e+300"),
        (["tail", "--model", "gaussian", "--dim", str(10**400),
          "--samples", "10"],
         f"gaussian dimension must lie in [1, {_MAX_COUNT}], got {10**400}"),
        (["tail", "--model", '{"family": "product", "params": {"component": '
          '{"family": "laplace"}, "copies": 1e300}}', "--samples", "10"],
         f"product copies must lie in [1, {_MAX_COUNT}], got 1e+300"),
    ], ids=["tail_samples", "aep_samples", "aep_length", "aep_length_rounds_up",
            "tail_samples_past_array", "aep_samples_past_array",
            "aep_trials_times_grid", "tail_samples_no_memory",
            "aep_trials_no_memory", "gaussian_dim_past_count",
            "gaussian_dim_float_past_count", "gaussian_dim_past_float",
            "copies_past_count"])
    def test_sizes_past_int64_are_errors(self, argv, message, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out-csv", str(csv)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not csv.exists()

    @pytest.mark.parametrize("argv", [
        ["tail", "--model", "exponential", "--t-grid", "0,nan,1"],
        ["tail", "--model", "exponential", "--t-grid", "0,1,inf"],
        ["mgf", "--model", "exponential", "--alpha-grid", "0,nan,0.5"],
        ["mgf", "--model", "exponential", "--alpha-grid", "0,0.5,inf"],
        ["mgf", "--model", "exponential", "--alpha-grid", "0.5,0.25"],
        ["entropy_power", "--model", "exponential", "--s-grid", "0.5,nan"],
        ["entropy_power", "--model", "exponential", "--s-grid", "0.5,inf"],
        ["entropy_power", "--model", "exponential", "--s-grid", "1,0.5"],
        ["quantile_density", "--model", "exponential",
         "--t-grid", "0.1,nan,0.5,0.9"],
        ["lyapunov", "--model", "exponential", "--p-grid", "1,nan,3"],
        ["aep", "--model", "exponential", "--n-grid", "2,nan,8"],
        ["aep", "--model", "exponential", "--n-grid", "2,8,inf"],
        ["aep", "--model", "exponential", "--s-grid", "0.5,nan"],
        ["aep", "--model", "exponential", "--s-grid", "0.5,inf"],
        ["aep", "--model", "exponential", "--s-grid", "1,0.5"],
    ])
    def test_grid_must_be_finite_and_increasing(self, argv, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        samples = [] if argv[0] in ("quantile_density", "lyapunov") \
            else ["--samples", "100"]
        assert main([*argv, *samples, "--out-csv", str(csv)]) == 1
        assert capsys.readouterr().err.startswith("error: bad grid")
        assert not csv.exists()


class TestTailCommand:
    def test_happy_path(self, tmp_path, capsys):
        csv = tmp_path / "tail.csv"
        rc = main(["tail", "--model", "gaussian", "--dim", "4",
                   "--samples", "20000", "--seed", "42",
                   "--t-grid", "0:2:0.5", "--out-csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("t,threshold_nats,exceedances,value")
        assert "VIOLATED" not in csv.read_text()
        assert "HOLDS" in capsys.readouterr().out

    def test_json_summary_fields(self, tmp_path):
        out = tmp_path / "tail.json"
        rc = main(["tail", "--model", "exponential", "--dim", "2",
                   "--samples", "5000", "--seed", "1",
                   "--t-grid", "0:1:0.5", "--out-json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "tail"
        assert payload["config"]["samples"] == 5000
        assert payload["config"]["seed"] == 1
        assert len(payload["results"]) == 3
        names = {b["name"] for b in payload["bounds"]}
        assert names == {"information_tail_exp", "information_tail_gaussian"}
        assert "statement" in payload["bounds"][0]
        assert payload["verdict_counts"]["VIOLATED"] == 0
        assert "timestamp" in payload["meta"]

    def test_deterministic_outputs(self, tmp_path):
        argsets = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            rc = main(["tail", "--model", "gaussian", "--dim", "3",
                       "--samples", "10000", "--seed", "7",
                       "--t-grid", "0:2:1",
                       "--out-csv", str(csv), "--out-json", str(js)])
            assert rc == 0
            argsets.append((csv.read_bytes(), read_json_no_meta(js)))
        assert argsets[0][0] == argsets[1][0]
        assert argsets[0][1] == argsets[1][1]

    def test_worker_invariance(self, tmp_path):
        outs = []
        for tag, workers in (("w1", "1"), ("w3", "3")):
            csv = tmp_path / f"{tag}.csv"
            rc = main(["tail", "--model", "gaussian", "--dim", "2",
                       "--samples", "150000", "--seed", "7",
                       "--workers", workers,
                       "--t-grid", "0:2:1", "--out-csv", str(csv)])
            assert rc == 0
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

    def test_trillion_dimensional_gaussian_runs(self, tmp_path, capsys):
        # the model is one run of 10^12 gaussian1d columns and its deviation
        # one Gamma(5e11) draw: nothing is sized by the dimension
        csv = tmp_path / "tail.csv"
        assert main(["tail", "--model", "gaussian", "--dim", str(10**12),
                     "--samples", "1000", "--out-csv", str(csv)]) == 0
        assert "VIOLATED" not in csv.read_text()
        assert "VIOLATED=0" in capsys.readouterr().out

    def test_per_coordinate_bounds_take_s_sqrt_n(self, tmp_path):
        # the bounds take t in units of sqrt(n), so a per-coordinate s is
        # t = s sqrt(n) = 4 s at n = 16, and the window t <= 2 sqrt(n) ends
        # at s = 2
        csv = tmp_path / "pc.csv"
        assert main(["tail", "--model", "exponential", "--dim", "16",
                     "--samples", "2000", "--t-grid", "0.5,2,3",
                     "--scaling", "per_coordinate", "--out-csv", str(csv)]) == 0
        rows = read_csv_rows(csv)
        for row in rows:
            t = 4.0 * float(row["t"])
            gauss = cli.bounds.gaussian_tail_bound(t, 16)
            assert float(row["exp_bound"]) == cli.bounds.exp_tail_bound(t).value
            assert float(row["gauss_bound"]) == gauss.value
            assert row["gauss_in_window"] == str(gauss.in_window).lower()
        assert [r["gauss_in_window"] for r in rows] == ["true", "true", "false"]
        assert float(rows[1]["gauss_bound"]) == 3.0 * math.exp(-4.0)

    def test_model_file(self, tmp_path):
        spec = {"family": "product",
                "params": {"component": {"family": "gamma", "params": {"p": 2.0}},
                           "copies": 2}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        csv = tmp_path / "out.csv"
        rc = main(["tail", "--model-file", str(path), "--samples", "5000",
                   "--seed", "3", "--t-grid", "0:1:1", "--out-csv", str(csv)])
        assert rc == 0
        assert len(csv.read_text().splitlines()) == 3

    def test_violation_exits_two(self, tmp_path, monkeypatch):
        # squeeze the exponential-form bound to an impossible level so the
        # comparison machinery reports VIOLATED
        monkeypatch.setattr(cli.bounds, "exp_tail_bound",
                            lambda t: cli.bounds.Bound(1e-12))
        rc = main(["tail", "--model", "gaussian", "--dim", "2",
                   "--samples", "5000", "--seed", "5", "--t-grid", "0:1:0.5"])
        assert rc == 2


class TestOtherBatchCommands:
    def test_mgf(self, tmp_path):
        csv = tmp_path / "mgf.csv"
        rc = main(["mgf", "--model", "gaussian", "--dim", "16",
                   "--samples", "20000", "--seed", "11",
                   "--alpha-grid", "0:1:0.25", "--out-csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == ("alpha,value,std_error,ci_low,ci_high,bound,"
                            "in_window,verdict")
        # alpha = 0 row is exact
        first = lines[1].split(",")
        assert float(first[1]) == 1.0 and first[-1] == "HOLDS"

    def test_mgf_seed_high_word_is_not_the_stream(self, tmp_path):
        # seed 2^32 and (seed 0, stream 1) name different streams
        high, stream = tmp_path / "seed_high.csv", tmp_path / "stream_1.csv"
        for flags, csv in ((["--seed", "4294967296"], high),
                           (["--seed", "0", "--stream", "1"], stream)):
            assert main(["mgf", "--model", "exponential", "--samples", "1000",
                         *flags, "--out-csv", str(csv)]) == 0
        assert high.read_bytes() != stream.read_bytes()

    def test_mgf_one_sided_negative_alpha(self, tmp_path):
        # e^(a y) <= e^(|a| |y|), so a negative one-sided alpha is compared
        # with the bound at |alpha|
        csv = tmp_path / "mgf.csv"
        rc = main(["mgf", "--model", "exponential", "--samples", "100",
                   "--form", "one_sided", "--alpha-grid=-0.5,0.5",
                   "--out-csv", str(csv)])
        assert rc == 0
        header, *rows = csv.read_text().splitlines()
        assert len(rows) == 2
        neg, pos = (dict(zip(header.split(","), r.split(","))) for r in rows)
        assert float(neg["alpha"]) == -0.5 and float(pos["alpha"]) == 0.5
        assert neg["bound"] == pos["bound"]
        assert neg["in_window"] == pos["in_window"]

    def test_variance(self, tmp_path):
        csv = tmp_path / "var.csv"
        rc = main(["variance", "--model", "exponential", "--dim", "10",
                   "--samples", "30000", "--seed", "2", "--out-csv", str(csv)])
        assert rc == 0
        header, row = csv.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["n"] == "10"
        assert abs(float(cols["cap"]) - 480.0 / math.e) < 1e-9
        assert abs(float(cols["variance"]) - 10.0) < 1.0
        assert cols["verdict"] == "HOLDS"

    def test_entropy_power(self, tmp_path):
        csv = tmp_path / "band.csv"
        rc = main(["entropy_power", "--model", "gaussian", "--dim", "64",
                   "--samples", "20000", "--seed", "9",
                   "--s-grid", "1", "--out-csv", str(csv)])
        assert rc == 0
        header, row = csv.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["verdict"] == "HOLDS"
        assert abs(float(cols["floor_bound"]) - (1.0 - 3.0 * math.exp(-4.0))) < 1e-12

    def test_entropy_power_vacuous_and_out_of_window_rows(self, tmp_path):
        csv = tmp_path / "band.csv"
        rc = main(["entropy_power", "--model", "gaussian", "--dim", "4",
                   "--samples", "20000", "--seed", "7",
                   "--s-grid", "0.1,2,2.5", "--out-csv", str(csv)])
        assert rc == 0
        low, edge, wide = read_csv_rows(csv)
        # at s = 0.1 and n = 4 the floor 1 - 3 e^(-s^2 n/16) is negative:
        # a vacuous lower bound certifies nothing
        assert abs(float(low["floor_bound"]) + 1.9925093671923801) < 1e-15
        assert (low["in_window"], low["vacuous"], low["verdict"]) == \
            ("true", "true", "INCONCLUSIVE")
        assert edge["in_window"] == "true"
        assert wide["in_window"] == "false"

    @pytest.mark.parametrize("argv", [
        ["--model", "exponential", "--alpha-grid", "100"],
        ["--model", "exponential", "--alpha-grid", "200"],
        ["--model", "gaussian", "--dim", "4096", "--alpha-grid", "14"],
    ], ids=["mean_square_overflows", "mean_overflows", "bound_overflows"])
    def test_mgf_overflow_is_a_row(self, argv, tmp_path, capsys):
        csv = tmp_path / "mgf.csv"
        assert main(["mgf", *argv, "--samples", "1000", "--seed", "1",
                     "--out-csv", str(csv)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (row,) = read_csv_rows(csv)
        # 3 e^(4 alpha^2) is past the largest double at alpha >= 13.3, and
        # an infinite bound certifies nothing
        assert row["bound"] == "inf"
        assert not math.isnan(float(row["std_error"]))
        assert row["verdict"] == "INCONCLUSIVE"
        assert "HOLDS=0 INCONCLUSIVE=1" in out

    def test_mgf_of_one_draw_is_an_error(self, tmp_path, capsys):
        csv, js = tmp_path / "mgf.csv", tmp_path / "mgf.json"
        assert main(["mgf", "--model", "gaussian", "--samples", "1",
                     "--out-csv", str(csv), "--out-json", str(js)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "two draws" in err
        assert not csv.exists() and not js.exists()


class TestDensityCommands:
    def test_lyapunov_exponential_flat(self, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        rc = main(["lyapunov", "--model", "exponential",
                   "--kind", "normalized", "--p-grid", "1:5:0.5",
                   "--out-csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst concave defect" in out
        lines = csv.read_text().splitlines()
        assert lines[0] == "p,log_value,quad_error,defect,verdict"
        assert len(lines) == 10
        # normalized curve of the exponential is identically zero
        for line in lines[1:]:
            assert abs(float(line.split(",")[1])) < 1e-7

    def test_lyapunov_raw_direction(self, tmp_path):
        rc = main(["lyapunov", "--model", "gamma", "--p", "2",
                   "--kind", "raw", "--p-grid", "1:6:1"])
        assert rc == 0

    def test_order_p_gamma(self, tmp_path, capsys):
        csv = tmp_path / "caps.csv"
        rc = main(["order_p", "--model", "gamma", "--p", "5",
                   "--out-csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "var_log" in out
        lines = csv.read_text().splitlines()
        assert lines[0] == "cap_name,cap_value,observed,margin,verdict"
        assert len(lines) == 5
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # trigamma cap is an equality for the gamma family
        assert abs(float(rows["trigamma"][3])) < 1e-7
        assert rows["trigamma"][4] == "HOLDS"

    def test_quantile_density(self, tmp_path):
        csv = tmp_path / "qd.csv"
        rc = main(["quantile_density", "--model", "exponential",
                   "--t-grid", "0.1:0.9:0.1", "--out-csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,value,concavity_defect,verdict"
        assert len(lines) == 10
        # I(t) = 1 - t for the exponential
        mid = lines[5].split(",")
        assert abs(float(mid[1]) - (1.0 - float(mid[0]))) < 1e-9


    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--model", "gamma", "--p", "2", "--kind", "raw",
         "--p-grid", "1:6:1"],
        ["order_p", "--model", "gamma", "--p", "5"],
    ], ids=["lyapunov", "order_p"])
    def test_unconverged_quadrature_is_inconclusive(self, argv, tmp_path,
                                                    monkeypatch):
        # one step of the node rule leaves no step to compare it with, so
        # no quadrature point converges
        monkeypatch.setattr(infoconc.numerics, "MAX_LEVELS", 1)
        js = tmp_path / "out.json"
        assert main(argv + ["--out-json", str(js)]) == 0
        counts = read_json_no_meta(js)["verdict_counts"]
        assert counts["HOLDS"] == 0 and counts["VIOLATED"] == 0
        assert counts["INCONCLUSIVE"] > 0

    def test_unconverged_order_spoils_the_three_chords_through_it(
            self, tmp_path, monkeypatch):
        real = cli.moment_curve

        def order_4_unconverged(*args):
            curve = real(*args)
            converged = curve.converged.copy()
            converged[3] = False
            return dataclasses.replace(curve, converged=converged)

        monkeypatch.setattr(cli, "moment_curve", order_4_unconverged)
        js = tmp_path / "out.json"
        assert main(["lyapunov", "--model", "exponential", "--p-grid", "1:8:1",
                     "--out-json", str(js)]) == 0
        verdicts = [r["verdict"] for r in read_json_no_meta(js)["results"]]
        # the chords centred at orders 3, 4 and 5 use order 4
        assert verdicts == ["", "HOLDS", "INCONCLUSIVE", "INCONCLUSIVE",
                            "INCONCLUSIVE", "HOLDS", "HOLDS", ""]

    def test_one_unconverged_integral_spoils_every_order_p_row(
            self, tmp_path, monkeypatch):
        real = cli.order_p_variance_check

        def log_square_unconverged(density):
            report = real(density)
            return dataclasses.replace(
                report, converged=np.array([True, True, True, False]))

        monkeypatch.setattr(cli, "order_p_variance_check", log_square_unconverged)
        js = tmp_path / "out.json"
        assert main(["order_p", "--model", "gamma", "--p", "5",
                     "--out-json", str(js)]) == 0
        assert read_json_no_meta(js)["verdict_counts"] == {
            "HOLDS": 0, "INCONCLUSIVE": 4, "VIOLATED": 0}

    @pytest.mark.parametrize("grid", ["0.2,0.4", "0.5,0.3,0.4,0.9"])
    def test_quantile_density_rejects_bad_grid(self, grid, tmp_path, capsys):
        # too few levels, and levels out of order
        csv = tmp_path / "qd.csv"
        rc = main(["quantile_density", "--model", "exponential",
                   "--t-grid", grid, "--out-csv", str(csv)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not csv.exists()


class TestAepCommand:
    def test_gauss_ar1(self, tmp_path, capsys):
        csv = tmp_path / "aep.csv"
        js = tmp_path / "aep.json"
        rc = main(["aep", "--model", "gauss_ar1", "--rho", "0.5",
                   "--samples", "500", "--seed", "21",
                   "--n-grid", "4,16", "--s-grid", "0.5",
                   "--out-csv", str(csv), "--out-json", str(js)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,s,exceedances,value")
        payload = json.loads(js.read_text())
        assert payload["config"]["process"]["process"] == "gauss_ar1"
        meds = payload["config"]["sup_deviation_medians"]
        assert len(meds) == 2 and meds[0] > meds[1]
        assert "sup-deviation medians" in capsys.readouterr().out

    def test_vacuous_and_informative_rows(self, tmp_path):
        csv = tmp_path / "aep.csv"
        rc = main(["aep", "--model", "gauss_ar1", "--rho", "0.5",
                   "--samples", "2000", "--seed", "14", "--n-grid", "16,256",
                   "--s-grid", "0.5", "--out-csv", str(csv)])
        assert rc == 0
        small, large = read_csv_rows(csv)
        # at n = 16 the bound 3 e^(-s^2 n/16) exceeds one: tagged vacuous,
        # and an upper bound above every probability still holds
        assert float(small["bound"]) > 1.0
        assert (small["in_window"], small["vacuous"], small["verdict"]) == \
            ("true", "true", "HOLDS")
        assert abs(float(large["bound"]) - 3.0 * math.exp(-4.0)) < 1e-15
        assert (large["vacuous"], large["verdict"]) == ("false", "HOLDS")
        assert float(large["ci_low"]) <= float(large["bound"])

    def test_iid_base(self, tmp_path):
        rc = main(["aep", "--model", "exponential", "--samples", "200",
                   "--seed", "2", "--n-grid", "2,8", "--s-grid", "1"])
        assert rc == 0

    def test_process_spec_json(self, tmp_path):
        spec = json.dumps({"process": "gauss_ar1",
                           "params": {"rho": 0.25, "sd": 2.0}})
        rc = main(["aep", "--model", spec, "--samples", "200",
                   "--seed", "2", "--n-grid", "2,8"])
        assert rc == 0

    def test_worker_invariance(self, tmp_path):
        outs = []
        for workers in ("1", "2"):
            csv = tmp_path / f"aep{workers}.csv"
            rc = main(["aep", "--model", "gauss_ar1", "--samples", "1500",
                       "--seed", "3", "--n-grid", "4,8", "--workers", workers,
                       "--out-csv", str(csv)])
            assert rc == 0
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

    def test_non_object_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("3")
        assert main(["aep", "--model-file", str(path), "--samples", "100",
                     "--n-grid", "2,4"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_gauss_ar1_defaults_agree(self, tmp_path):
        # the bare name takes the --rho/--sd defaults, a spec without
        # params the same values
        path = tmp_path / "spec.json"
        path.write_text('{"process": "gauss_ar1"}')
        processes = []
        for flags in (["--model", "gauss_ar1"], ["--model-file", str(path)]):
            js = tmp_path / "aep.json"
            assert main(["aep", *flags, "--samples", "100", "--seed", "1",
                         "--n-grid", "2,4", "--out-json", str(js)]) == 0
            processes.append(json.loads(js.read_text())["config"]["process"])
        assert processes[0] == processes[1]

    def test_bad_rho(self, capsys):
        assert main(["aep", "--model", "gauss_ar1", "--rho", "1.5",
                     "--samples", "100", "--n-grid", "2,4"]) == 1


# the bounds the experiments certify, in catalog order
CATALOG_NAMES = [
    "information_tail_exp",
    "information_tail_gaussian",
    "per_coordinate_tail",
    "order_p_var_ratio",
    "order_p_var_cp",
    "order_p_var_log_trigamma",
    "order_p_var_log_simple",
    "information_mgf_nd",
    "entropy_power_band",
    "information_variance_nd",
]


class TestListBounds:
    def test_prints_catalog(self, capsys):
        assert main(["list-bounds"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # two lines per entry, the name leading the first
        assert [line.split()[0] for line in lines[::2]] == CATALOG_NAMES
        assert len(lines) == 2 * len(CATALOG_NAMES)
        assert "3*exp(4*alpha^2)" in out

    def test_json_export(self, tmp_path):
        path = tmp_path / "bounds.json"
        assert main(["list-bounds", "--out-json", str(path)]) == 0
        entries = json.loads(path.read_text())
        assert [e["name"] for e in entries] == CATALOG_NAMES
        assert all(set(e) == {"name", "formula", "validity", "statement"}
                   for e in entries)

    def test_out_csv_is_a_usage_error(self, tmp_path, capsys):
        # the catalog is no table of rows: the flag used to be accepted and
        # ignored
        path = tmp_path / "bounds.csv"
        assert main(["list-bounds", "--out-csv", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not path.exists()


_ON_DEMAND = ("scipy.integrate", "scipy.linalg", "scipy.optimize",
              "scipy.special")


def _fresh_process(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on this path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _main_code(argv: list) -> str:
    return f"import infoconc.cli\nassert infoconc.cli.main({argv!r}) == 0"


def _scipy_loaded_after(code: str) -> list:
    """The modules of _ON_DEMAND loaded once ``code`` ran in a new process."""
    out = _fresh_process(code + "\nimport json, sys\nprint(json.dumps(sorted("
                         f"m for m in {_ON_DEMAND!r} if m in sys.modules)))")
    return json.loads(out.splitlines()[-1])


def test_import_leaves_quadpack_and_brent_unloaded():
    # scipy.special and scipy.linalg add about 0.3 s to every start, more
    # than numpy, and scipy.integrate and scipy.optimize more again; only the
    # scalar quadrature and root wrappers, which no command calls, import
    # it, so no run loads any
    assert _scipy_loaded_after("import infoconc.cli") == []
    three = json.dumps({"family": "product", "params": {"components": [
        {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
        {"family": "half_normal"}, {"family": "gamma", "params": {"p": 3.0}}]}})
    for argv in (["aep", "--model", "laplace", "--samples", "2000",
                  "--workers", "2"],
                 ["tail", "--model", "exponential", "--samples", "2000"],
                 # a mean alone is an identity map: nothing to factor
                 ["tail", "--model", json.dumps(
                     {"family": "gaussian", "params": {"mean": [0.5, 0.5]}}),
                  "--samples", "2000"],
                 # gamma's entropy takes digamma from numerics, and no
                 # column here is drawn through its quantile
                 ["tail", "--model", "gamma", "--p", "2", "--dim", "16",
                  "--samples", "2000"],
                 ["mgf", "--model", three, "--samples", "2000"],
                 ["aep", "--model", "gamma", "--p", "2", "--samples", "2000"],
                 ["list-bounds"]):
        assert _scipy_loaded_after(_main_code(argv)) == [], argv


@pytest.mark.parametrize("spec, loaded", [
    ({"family": "gamma", "params": {"p": 2.0}}, []),
    # a matrix is inverted once by numpy: the affine path loads no scipy
    ({"family": "affine", "params": {"base": {"family": "exponential"},
                                     "matrix": [[2.0]]}}, []),
], ids=["gamma2", "affine"])
def test_models_import_what_they_use_when_built(spec, loaded):
    # each import runs while the model is built on the calling thread, none
    # in the sampling pool: sampling on two workers loads nothing further
    # numpy loads numpy.random on first use, whichever thread that is
    code = ("import sys\n"
            "import numpy.random\n"
            "from infoconc import distributions, infotools\n"
            f"model = distributions.model_from_spec({spec!r})\n"
            "before = sorted(sys.modules)\n"
            "infotools.sample_information(model, 2 * infotools.BLOCK_SIZE,\n"
            "    distributions.RngStream(3), workers=2)\n"
            "assert sorted(sys.modules) == before")
    assert _scipy_loaded_after(code) == loaded


# each Monte Carlo experiment, aep and the quantile densities once; the
# exact checks and the pool-thread quantile draws have their own tests below
_SWEEP = (["tail", "--model", "gaussian", "--dim", "4", "--samples", "2000"],
          ["mgf", "--model", "gamma", "--p", "2", "--samples", "2000"],
          ["variance", "--model", "half_normal", "--samples", "2000"],
          ["entropy_power", "--model", "laplace", "--samples", "2000"],
          ["aep", "--model", "gauss_ar1", "--samples", "200"],
          ["quantile_density", "--model", "gaussian"],
          ["quantile_density", "--model", "half_normal"],
          ["quantile_density", "--model", "gamma", "--p", "5"],
          ["list-bounds"])


# a finder ahead of every other that refuses each scipy module, as if scipy
# were not installed
_REFUSE_SCIPY = """import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, RefuseScipy())
"""


def test_every_experiment_runs_on_numpy_alone():
    # numpy is the only runtime dependency: every experiment, the exact
    # checks and a custom density's quantiles and draws run with scipy
    # refused
    argvs = [*_SWEEP, ["lyapunov", "--model", "gamma", "--p", "2"],
             ["order_p", "--model", "gamma", "--p", "2"]]
    code = "\n".join([
        _REFUSE_SCIPY, "import math", "import numpy as np",
        "from infoconc import cli, distributions",
        *(f"assert cli.main({argv!r}) == 0" for argv in argvs),
        "d = distributions.from_log_density('logistic',",
        "    lambda x: -x - 2.0 * np.logaddexp(0.0, -x), (-math.inf, math.inf))",
        "assert np.all(np.isfinite(d.quantile([0.001, 0.5, 0.999])))",
        "x = d.sample(distributions.RngStream(5).generator(), 4096)",
        "assert x.shape == (4096,) and np.all(np.isfinite(x))",
        "import scipy"])
    with pytest.raises(subprocess.CalledProcessError) as refused:
        _fresh_process(code)
    # the last line alone failed: scipy was refused, and nothing before
    # it needed scipy
    assert refused.value.stderr.rstrip().endswith(
        "ModuleNotFoundError: No module named 'scipy'")


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    name = lambda requirement: re.match(r"[A-Za-z0-9_.-]+", requirement)[0]
    assert [name(r) for r in project["dependencies"]] == ["numpy"]
    assert "scipy" in {name(r) for r in project["optional-dependencies"]["test"]}


@pytest.mark.parametrize("family", ["gamma", "gaussian1d", "half_normal"])
def test_first_quantile_call_loads_scipy_special(family):
    # the quantiles once imported scipy.special on their first call; the
    # normal's is AS241 and gamma's Newton steps on numerics.log_gamma_tail,
    # so the first call now loads no scipy module
    params = {"p": 2.0} if family == "gamma" else {}
    code = ("from infoconc import distributions\n"
            "d = distributions.density_from_spec("
            f"{{'family': {family!r}, 'params': {params!r}}})\n"
            "d.quantile(0.5)")
    assert _scipy_loaded_after(code) == []


@pytest.mark.parametrize("code, loaded", [
    (_main_code(["lyapunov", "--model", "exponential"]), []),
    (_main_code(["lyapunov", "--model", "gamma", "--p", "2",
                 "--kind", "normalized"]), []),
    ("import math\nimport numpy as np\n"
     "from infoconc.distributions import from_log_density\n"
     "from infoconc.lyapunov import quantile_density_concavity\n"
     "d = from_log_density('logistic',\n"
     "    lambda x: -x - 2.0 * np.logaddexp(0.0, -x), (-math.inf, math.inf))\n"
     "quantile_density_concavity(d, [0.1, 0.3, 0.5, 0.7, 0.9])", []),
    # trigamma, once scipy's polygamma, is pure Python like digamma
    (_main_code(["order_p", "--model", "gamma", "--p", "2"]), []),
], ids=["lyapunov_exponential", "lyapunov_gamma2_normalized",
        "custom_logistic", "order_p_gamma2"])
def test_exact_checks_load_scipy_special_only_for_trigamma(code, loaded):
    # moment curves, variance checks and custom densities reduce their node
    # sets with numerics.logsumexp, which is numpy alone
    assert _scipy_loaded_after(code) == loaded


def test_lazy_quantile_import_on_pool_threads_keeps_worker_invariance():
    # a whole gaussian1d model draws through its quantile, so in a fresh
    # process four pool threads, switching every microsecond, reach its
    # first call together; no import is left for them to race on, and the
    # deviations are the one-worker run's bytes
    code = ("import sys\n"
            "sys.setswitchinterval(1e-6)\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from conftest import WholeModel\n"
            "from infoconc import distributions, infotools\n"
            "model = WholeModel(distributions.model_from_spec(\n"
            "    {'family': 'gaussian1d', 'params': {'mu': 1.0, 'sigma': 2.0}}))\n"
            "runs = [infotools.sample_information(\n"
            "            model, 4 * infotools.BLOCK_SIZE - 5,\n"
            "            distributions.RngStream(4), workers=w)\n"
            "        for w in (4, 1)]\n"
            "assert runs[0].deviations.tobytes() == runs[1].deviations.tobytes()")
    assert _scipy_loaded_after(code) == []


def test_parser_is_reused_with_fresh_defaults(tmp_path):
    # main keeps one parser per process: flags given to one call must not
    # become the defaults of the next
    base = ["tail", "--model", "exponential", "--samples", "3000",
            "--t-grid", "0:2:1"]
    assert main([*base, "--confidence", "0.99", "--workers", "2"]) == 0
    outputs = []
    for tag in ("in_process", "fresh"):
        files = ["--out-csv", str(tmp_path / f"{tag}.csv"),
                 "--out-json", str(tmp_path / f"{tag}.json")]
        if tag == "in_process":
            assert main(base + files) == 0
        else:
            _fresh_process(f"import infoconc.cli\n"
                           f"assert infoconc.cli.main({base + files!r}) == 0")
        outputs.append(((tmp_path / f"{tag}.csv").read_bytes(),
                        read_json_no_meta(tmp_path / f"{tag}.json")))
    assert outputs[0] == outputs[1]
    config = outputs[0][1]["config"]
    assert config["confidence"] == 0.999
