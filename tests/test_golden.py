"""Pinned output digests of fixed CLI configurations and custom densities.

Each configuration runs ``cli.main`` in-process and hashes, in order, the
exit code, stdout, the CSV bytes and the JSON report re-serialized with
sorted keys after dropping its time-dependent ``meta`` block.  Each custom
density, which no command builds, is pinned by a library digest of its
``from_log_density`` results.  A refactor
that is meant to keep behaviour must leave every digest unchanged; a change
that moves output bytes on purpose updates the digests and says which
configurations moved and why.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 on x86-64.  Other
versions may round the last bits of special functions and linear algebra
differently, and the normal quantile runs in numpy's long double, which is
float64 on some platforms, so a mismatch there is not by itself a defect.
"""
import hashlib
import json
import math

import numpy as np
import pytest
import scipy

from infoconc.cli import main, parse_grid
from infoconc.distributions import RngStream, from_log_density
from infoconc.lyapunov import quantile_density_concavity

DIGEST_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

GAMMA2_X2 = {"family": "product",
             "params": {"component": {"family": "gamma", "params": {"p": 2.0}},
                        "copies": 2}}
MIXED = {"family": "product", "params": {"components": [
    {"family": "exponential"},
    {"family": "gaussian1d", "params": {"mu": 1.0, "sigma": 2.0}},
    {"family": "laplace"},
    {"family": "uniform", "params": {"a": -1.0, "b": 2.0}},
]}}
COV3 = {"family": "gaussian",
        "params": {"dim": 3, "cov_factor": [[1.0, 0.0, 0.0],
                                            [0.5, 1.0, 0.0],
                                            [0.0, -0.5, 2.0]]}}
AFFINE = {"family": "affine",
          "params": {"base": {"family": "product",
                              "params": {"component": {"family": "exponential"},
                                         "copies": 2}},
                     "matrix": [[2.0, 0.0], [1.0, 1.0]], "shift": [0.5, -1.0]}}
MIXED_GAMMA = {"family": "product", "params": {"components": [
    *MIXED["params"]["components"], {"family": "gamma", "params": {"p": 3.0}}]}}
BALL = {"family": "ball_uniform", "params": {"dim": 3, "radius": 2.0}}
IID_LAPLACE = {"process": "iid", "base": {"family": "laplace"}}
AR1 = {"process": "gauss_ar1", "params": {"rho": 0.25, "sd": 2.0}}

# name -> (argv, JSON written to the file named by the "@model" argument or
# None)
CASES = {
    "list_bounds": (["list-bounds"], None),
    "tail_gaussian": (["tail", "--model", "gaussian", "--dim", "4",
                       "--samples", "3000", "--seed", "1",
                       "--t-grid", "0:2:0.5"], None),
    "tail_exp_per_coordinate": (["tail", "--model", "exponential", "--dim", "3",
                                 "--samples", "2000", "--seed", "2",
                                 "--t-grid", "0:1:0.25",
                                 "--scaling", "per_coordinate"], None),
    "tail_gamma_file": (["tail", "--model-file", "@model", "--samples", "2000",
                         "--seed", "3", "--t-grid", "0:2:1"], GAMMA2_X2),
    "tail_ball": (["tail", "--model", json.dumps(BALL), "--samples", "2000",
                   "--seed", "4", "--t-grid", "0:1:0.5"], None),
    "tail_workers2": (["tail", "--model", "laplace", "--dim", "2",
                       "--samples", "70000", "--seed", "5", "--workers", "2",
                       "--t-grid", "0:2:1"], None),
    "mgf_gaussian": (["mgf", "--model", "gaussian", "--dim", "16",
                      "--samples", "2000", "--seed", "6",
                      "--alpha-grid", "0:1:0.25"], None),
    "mgf_one_sided": (["mgf", "--model", "exponential", "--dim", "2",
                       "--samples", "2000", "--seed", "7",
                       "--alpha-grid", "0:0.5:0.25", "--form", "one_sided"],
                      None),
    "mgf_mixed_components": (["mgf", "--model", json.dumps(MIXED),
                              "--samples", "2000", "--seed", "8",
                              "--alpha-grid", "0,0.25,0.5"], None),
    "variance_exp": (["variance", "--model", "exponential", "--dim", "10",
                      "--samples", "3000", "--seed", "9"], None),
    "variance_cov_factor": (["variance", "--model", json.dumps(COV3),
                             "--samples", "3000", "--seed", "10"], None),
    "entropy_power_gaussian": (["entropy_power", "--model", "gaussian",
                                "--dim", "64", "--samples", "2000",
                                "--seed", "11", "--s-grid", "0.5,1"], None),
    "entropy_power_affine": (["entropy_power", "--model", json.dumps(AFFINE),
                              "--samples", "2000", "--seed", "12",
                              "--s-grid", "1,2"], None),
    "quantile_density_exp": (["quantile_density", "--model", "exponential",
                              "--t-grid", "0.1:0.9:0.1"], None),
    "quantile_density_gamma": (["quantile_density", "--model", "gamma",
                                "--p", "3", "--t-grid", "0.05,0.3,0.6,0.95"],
                               None),
    # every branch of the normal quantile: central, near tail and far tail
    # (a level within 1.4e-11 of 0 or 1)
    "quantile_density_gaussian": (["quantile_density", "--model", "gaussian",
                                   "--t-grid", "1e-12,0.01,0.3,0.5,0.9,"
                                   "0.999999,0.999999999999"], None),
    "quantile_density_half_normal": (["quantile_density", "--model",
                                      "half_normal", "--t-grid",
                                      "1e-12,0.1,0.5,0.85,0.9,0.999,"
                                      "0.999999999999"], None),
    "lyapunov_exp_normalized": (["lyapunov", "--model", "exponential",
                                 "--kind", "normalized", "--p-grid", "1:5:0.5"],
                                None),
    "lyapunov_gamma_raw": (["lyapunov", "--model", "gamma", "--p", "2",
                            "--kind", "raw", "--p-grid", "1:6:1"], None),
    "lyapunov_half_normal_hat": (["lyapunov", "--model", "half_normal",
                                  "--kind", "hat", "--p-grid", "0.5:3:0.5"],
                                 None),
    "order_p_gamma": (["order_p", "--model", "gamma", "--p", "5"], None),
    # p = 1: only the ratio and trigamma caps have a window holding p
    "order_p_exponential": (["order_p", "--model", "exponential"], None),
    "aep_gauss_ar1": (["aep", "--model", "gauss_ar1", "--rho", "0.5",
                       "--samples", "500", "--seed", "13",
                       "--n-grid", "4,16", "--s-grid", "0.5"], None),
    "aep_iid_exponential": (["aep", "--model", "exponential",
                             "--samples", "300", "--seed", "14",
                             "--n-grid", "2,8", "--s-grid", "0.5,1"], None),
    "aep_iid_json_workers2": (["aep", "--model", json.dumps(IID_LAPLACE),
                               "--samples", "2100", "--seed", "15",
                               "--workers", "2", "--n-grid", "4,8"], None),
    "aep_process_file": (["aep", "--model-file", "@model", "--samples", "400",
                          "--seed", "16", "--n-grid", "2,8,32"], AR1),
    # rows past a validity window: t = 3 > 2 sqrt(1), s = 3 > 2, s = 2.5 > 2
    "tail_gaussian_past_window": (["tail", "--model", "gaussian",
                                   "--samples", "2000", "--seed", "17",
                                   "--t-grid", "0:3:1"], None),
    "entropy_power_past_window": (["entropy_power", "--model", "exponential",
                                   "--dim", "2", "--samples", "2000",
                                   "--seed", "18", "--s-grid", "1,3"], None),
    # four law columns drawn as one Gamma(3, 1), the gamma(3) column
    # sampled and evaluated, over two blocks
    "tail_mixed_gamma": (["tail", "--model", json.dumps(MIXED_GAMMA),
                          "--samples", "70000", "--seed", "20",
                          "--workers", "2", "--t-grid", "0:2:0.5"], None),
    # gamma(2) has no information law, so every step is drawn
    "aep_iid_gamma2": (["aep", "--model", "gamma", "--p", "2",
                        "--samples", "300", "--seed", "19", "--n-grid", "2,8",
                        "--s-grid", "0.5,2.5"], None),
}

# SHA-256 of each case, taken with DIGEST_VERSIONS
DIGESTS = {
    "aep_gauss_ar1":
        "35865e247f481a2baa7fa19f789baa2910f663cf24a564c89e9338116a873096",
    "aep_iid_exponential":
        "6ab68160264becb810b890bba4e5b04b5e7a5e1abc2bd78c3996222eec0a32e0",
    "aep_iid_gamma2":
        "dff1d3bc29fd53b699a051acb5078e61225ddfdf66b65d8493497c7a7b1be310",
    "aep_iid_json_workers2":
        "b8c47ec8adfb683264b45097cee70a98df92a2e600a35196931471817ca1e3c3",
    "aep_process_file":
        "02d8e2a7f9340d9e53db5e1b7f515459b82f5e3107b9ee24568a8fee960fd870",
    "entropy_power_affine":
        "9eef1b15a02cc8405b8292038a538d376b96e30523b6c806988699acf904715b",
    "entropy_power_gaussian":
        "2a49e2b709410d5b974ff7e071dc3da0735803eec90776f1df89ffb1cd007d11",
    "entropy_power_past_window":
        "3954931fc6ee3045760ecf04a51e3d3066283f61ad56be52da378de5a2c0439e",
    "list_bounds":
        "89dce6cb65bbb93671f23fa6eb381e218fa9d8c539a721c5799e355cce2be0e8",
    "lyapunov_exp_normalized":
        "365933dc7424fb1c0c41063eaa452c3a5272538fe8791a49b6415327e9bcd58f",
    "lyapunov_gamma_raw":
        "c6ff049c07cf7fed5cf82b9b2968c8111b4f34110ba3fc41aaf3f90a067fdf9d",
    "lyapunov_half_normal_hat":
        "b7e2f2b244763579acbdcf8cb58e05846725e0f8a42082e24d2ad6621d2881ce",
    "mgf_gaussian":
        "6d3455fec52b54f5c1a255edd8e5e4db4ebd34a2c8d3b2fd6c1c9b75a194521e",
    "mgf_mixed_components":
        "943c9adc9e78c689617eecacf924f370860b2fff7028712218c1f3a256b128f2",
    "mgf_one_sided":
        "21c1799c8d4b29b436007bd1ea46fef2bcd1b41991b924d2e7229fdfdc1e3d0c",
    "order_p_exponential":
        "dfb2e92d334650a69bc8ee4fc54ac9349fc2a628cedd8c75c52c9037be8a2f14",
    "order_p_gamma":
        "fba58440dc991294045744537ed618f6034e1e2d4e3e7f4dc39af24bd02d85b2",
    "quantile_density_exp":
        "e9c83a28ec77aa1795d281f69993c35946881ef242ae70653e012b576b8826c4",
    "quantile_density_gamma":
        "b799230c40fc7e94c01d181ad9c8ac27f52d840ab15f38824b4bb591db0ab21b",
    "quantile_density_gaussian":
        "8fe680583212ad468ef475ef5b6ac45ddc61df1183b0b499937ee51899ba35d2",
    "quantile_density_half_normal":
        "d566acc09e9831c937b200a1b77cb5835f88c4e447e6272de1bcb93361a09daf",
    "tail_ball":
        "af0954841fa9a4673338079cc92e6a21bf6642540dec77ce1ffa6fe9d0c66aa5",
    "tail_exp_per_coordinate":
        "dbc8e32c83568b95a1b3f82dae81569b30e2f035b9484fa001700272b76c7f97",
    "tail_gamma_file":
        "51430446af1b5a8aa793413555fdf3c09f3d7495708e0bcf5a76efad06f0f6b5",
    "tail_gaussian":
        "8da2917a459c81cd3f31d7b75e53ef43e23f1f4d0b7f3513933f710fa663f3b1",
    "tail_gaussian_past_window":
        "2431c41daeb2f3af8f258c7ceadf6e6127d01dc7e7902add9b8550ffa00c15cf",
    "tail_mixed_gamma":
        "76c7fb8f1f1d9c1214780d293cb5446b8d6ea168428e33891a0dea2bcddf551c",
    "tail_workers2":
        "7aaa3511bcaad6c4a7eff4f29b4f2e3a143a880e596542d0e1d5c6ab009ef21f",
    "variance_cov_factor":
        "02ff13df8eda6792a11c4e25f60818cea2fd8c240c1633999a83b8fc81d83f45",
    "variance_exp":
        "05eaf2b06f20675716a75fe73cf6a98f54652164d6317b6d9dfe7f57762a347b",
}


def run_digest(argv, model_json, tmp_path, capsys) -> str:
    csv, js = tmp_path / "out.csv", tmp_path / "out.json"
    if model_json is not None:
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(model_json))
        argv = [str(spec) if a == "@model" else a for a in argv]
    capsys.readouterr()
    argv = argv + ["--out-json", str(js)]
    if argv[0] != "list-bounds":
        argv += ["--out-csv", str(csv)]
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(js.read_text())
    if isinstance(report, dict):
        report.pop("meta", None)
    h = hashlib.sha256()
    h.update(f"{code}\n".encode())
    h.update(out.encode())
    h.update(csv.read_bytes() if csv.exists() else b"")
    h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path, capsys):
    argv, model_json = CASES[name]
    got = run_digest(argv, model_json, tmp_path, capsys)
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert got == DIGESTS[name], (
        f"{name}: output bytes moved (digests taken with {DIGEST_VERSIONS}, "
        f"running {versions})")


def logistic(x):
    z = (x - 0.1) / 1.05
    return -z - 2.0 * np.logaddexp(0.0, -z)


def gumbel_min(x):
    z = (x + 0.2) / 0.95
    with np.errstate(over="ignore"):
        return z - np.exp(z)


# the benchmark's custom log-densities, each at one fixed loc and scale
CUSTOM = {"logistic": logistic, "gumbel_min": gumbel_min}

# SHA-256 of each custom density, taken with DIGEST_VERSIONS
CUSTOM_DIGESTS = {
    "gumbel_min":
        "9c6b2969184d5fbb0b8eceda0a27e1e8f72789ec26941e15b79eb776c689489c",
    "logistic":
        "787c668d0a94b75defa26e4f02d07c57df7159a0b2d1248e4575461126a2896d",
}


def custom_density_digest(name: str) -> str:
    """Entropy and mode, the quantiles at 0.05:0.95:0.05, their quantile
    density's concavity report and 4096 rejection draws, hashed in order."""
    density = from_log_density(name, CUSTOM[name], (-math.inf, math.inf))
    levels = parse_grid("0.05:0.95:0.05")
    report = quantile_density_concavity(density, levels)
    h = hashlib.sha256()
    h.update(f"{report.name} {report.direction} {report.ok}\n".encode())
    for part in (density.entropy, density.mode, density.quantile(levels),
                 report.worst_defect, report.worst_at, report.tol,
                 report.grid, report.values, report.defects,
                 density.sample(RngStream(5).generator(0), 4096)):
        h.update(np.asarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CUSTOM))
def test_custom_density_digest(name):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert custom_density_digest(name) == CUSTOM_DIGESTS[name], (
        f"{name}: custom density bytes moved (digests taken with "
        f"{DIGEST_VERSIONS}, running {versions})")
