"""infoconc benchmark: wall time, draw throughput, memory and set-up time.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload mc_zoo --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``mc_zoo`` samples seven n-dimensional models
and certifies tails, exponential moments, the variance and the
entropy-power band; ``exact_quad`` runs only quadrature and root finding;
``aep_long`` simulates long trajectories of two stationary processes.

Each workload runs in a fresh worker process, so its peak resident memory is
its own.  Set-up time (process start to the first timed op: importing
numpy, scipy and infoconc and building the CLI parser) is the median over
that process and SETUP_PROBES more that stop after set-up.  The worker
repeats passes over the workload's ops for ``--seconds`` and reports every
pass; ``wall_s`` is their median and ``mdraws_per_s`` the draws of one pass
(see workloads.py) over ``wall_s``.

``--trace 1`` runs half the time untraced and half with spans and counts
recorded around each layer's public functions, prints the per-layer figures
instead of the end-to-end ones and writes the spans to
``.bench_trace/<workload>-seed<seed>.json``.

Every op's output is checked (see workloads.py); an op that raises, exits
nonzero, fails its check or changes its output bytes between passes is a
failure, and ``error_rate`` is failures over ops attempted.

Output: a table of every figure with its unit and the environment, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is nonzero, with no JSON line, when the program cannot be run at all.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0        # the whole run, probes included
WORKLOADS = ("mc_zoo", "exact_quad", "aep_long")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("mdraws_per_s", "Mdraw/s"),
              ("peak_rss_mb", "MB")]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the library's own pool supplies the parallelism (two threads); BLAS
    # threads on top of it would oversubscribe the two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, timeout: float) -> dict:
    """Run worker.py and return the JSON object on its last output line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--t0", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "infoconc" / "cli.py").is_file():
        print(f"error: no infoconc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    def probes(count: int) -> list:
        return [_worker(["--probe"], remaining())["setup_s"]
                for _ in range(count)]

    try:
        # probes before and after the workload sample the machine's load at
        # both ends of the run
        setups = probes(SETUP_PROBES // 2)
        res = _worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out-dir", str(ROOT)],
                      remaining())
        setups += [res["setup_s"]] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in res["passes"]]
    wall = statistics.median(walls)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "mdraws_per_s": res["draws_per_pass"] / wall / 1e6,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    error_rate = res["failed"] / res["attempted"]

    env = res["environment"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}")
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls)
          + " s;  setup samples: " + " ".join(f"{s:.3f}" for s in setups)
          + " s;  draws per pass " + str(res["draws_per_pass"]))
    for name, unit in END_TO_END:
        print(f"  {name:<48} {end_to_end[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<48} {error_rate:>14.6g} ratio  "
          f"({res['failed']} of {res['attempted']} ops)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")

    if args.trace:
        import tracing
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = res["per_layer"]
        for name, value in metrics.items():
            note = "  (computed, not measured)" if name.endswith("_bytes") else ""
            print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")
        print(f"spans written to .bench_trace/{args.workload}-seed"
              f"{args.seed}.json")
    else:
        units = dict(END_TO_END)
        metrics = end_to_end
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
