"""Run one workload in a process of its own and print its measurements.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the
parent's monotonic clock reading as ``--t0``, so set-up time counts from
just before the process was spawned.  With ``--probe`` the process stops
once set-up is done.  The last line of standard output is one JSON object.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import infoconc.cli
import tracing
import workloads

MIN_PASSES = 3           # untraced run: median of at least three passes
MIN_TRACE_PASSES = 2     # traced run: at least two untraced and two traced


def _digest(out: workloads.Outcome) -> str:
    """Hash of everything an op must reproduce exactly (JSON "meta" dropped)."""
    h = hashlib.sha256(out.csv)
    h.update(json.dumps(out.report, sort_keys=True).encode())
    h.update(repr(out.result).encode())
    return h.hexdigest()


class Runner:
    """Runs ops, checks each output and tallies failures."""

    def __init__(self, ops: list, outdir: Path):
        self.ops = ops
        self.outdir = outdir
        self.main = infoconc.cli.main
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def run_op(self, op: workloads.Op, workers=None) -> tuple:
        """(seconds, outcome); the op alone is timed, not the check."""
        if op.argv is not None:
            argv = list(op.argv)
            if workers is not None:
                argv[argv.index("--workers") + 1] = str(workers)
            csv = self.outdir / f"{op.name}.csv"
            js = self.outdir / f"{op.name}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.main(argv + ["--out-csv", str(csv),
                                         "--out-json", str(js)])
                seconds = time.perf_counter() - start
            out = workloads.Outcome(code)
            if code == 0:
                out.csv = csv.read_bytes()
                out.report = json.loads(js.read_text())
                out.report.pop("meta", None)
            return seconds, out
        start = time.perf_counter()
        result = op.call()
        return time.perf_counter() - start, workloads.Outcome(0, result=result)

    def attempt(self, op: workloads.Op, workers=None) -> float:
        """Run and check one op; return its time (0 when it raised)."""
        self.attempted += 1
        try:
            seconds, out = self.run_op(op, workers)
            error = op.check(out)
        except Exception as exc:  # raising, or output the check cannot read
            self.failures.append(f"{op.name}: raised {exc!r}")
            return 0.0
        digest = _digest(out)
        first = self.digests.setdefault(op.name, digest)
        if error is None and digest != first:
            error = ("output bytes differ from the first pass" if workers is None
                     else f"output with --workers {workers} differs from "
                          f"--workers {workloads.WORKERS}")
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        return seconds

    def run_pass(self, tracer=None) -> dict:
        cpu0 = _cpu_seconds()
        wall = 0.0
        for op in self.ops:
            if tracer is not None:
                tracer.label = op.model
            wall += self.attempt(op)
        return {"wall_s": wall, "cpu_s": _cpu_seconds() - cpu0}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _passes(runner: Runner, seconds: float, minimum: int,
            tracer=None) -> list:
    """At least ``minimum`` passes, then more while one more is expected to
    end within ``seconds`` of the start."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < minimum or (time.perf_counter() - start)
           * (len(passes) + 1) / len(passes) <= seconds):
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(runner.run_pass(tracer))
    return passes


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args()
    infoconc.cli.build_parser()
    result = {"setup_s": time.monotonic() - args.t0}
    if args.probe:
        print(json.dumps(result))
        return 0

    ops = workloads.WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(dir=args.out_dir,
                                     prefix=".bench_run-") as tmp:
        runner = Runner(ops, Path(tmp))
        if args.trace:
            untraced = _passes(runner, args.seconds / 2, MIN_TRACE_PASSES)
            tracer = tracing.Tracer()
            runner.main = tracer.wrap("cli.main", infoconc.cli.main)
            tracer.install()
            try:
                traced = _passes(runner, args.seconds / 2, MIN_TRACE_PASSES,
                                 tracer)
            finally:
                tracer.uninstall()
                runner.main = infoconc.cli.main
        else:
            untraced = _passes(runner, args.seconds, MIN_PASSES)
        check_op = workloads.WORKERS_CHECK.get(args.workload)
        if check_op is not None:
            runner.attempt(next(op for op in ops if op.name == check_op),
                           workers=1)

    result.update(
        passes=untraced,
        draws_per_pass=sum(op.draws for op in ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:20],
        environment=_environment(),
    )
    if args.trace:
        layers = tracing.per_layer(tracer, list(range(len(traced))),
                                   workloads.WORKERS)
        median = tracing.median
        layers["process.cpu_s"] = median(p["cpu_s"] for p in untraced)
        layers["process.cpu_per_wall"] = median(
            p["cpu_s"] / p["wall_s"] for p in untraced if p["wall_s"] > 0)
        layers["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - median(p["wall_s"] for p in untraced))
        layers["error_rate"] = len(runner.failures) / runner.attempted
        result["per_layer"] = {name: layers[name]
                               for name, _, _ in tracing.PER_LAYER}
        trace_dir = args.out_dir / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"span_fields": ["id", "parent", "name", "start",
                                        "end", "pass"],
                        "spans": tracer.spans,
                        "counts": [[p, n, v] for (p, n), v
                                   in sorted(tracer.counts.items())]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
