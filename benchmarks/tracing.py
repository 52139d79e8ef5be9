"""In-memory spans and counts around the calls into each infoconc layer.

``Tracer.install`` rebinds every public function in ``TRACED`` at each name
an infoconc module (a caller) holds for it, so the library runs unchanged
underneath; ``Tracer.uninstall`` puts the originals back.  The model and
density objects handed into the library are wrapped in proxies that time
their sampling and density calls and read the Philox counter around each
sampled block.

A span is (id, parent id, name, start, end, pass).  A span opened in a
worker thread of the library's pool has no open span in its own thread and
takes the innermost span open in the installing thread as its parent: the
sampler call that started the pool.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# "module.function" of every traced function; the span has the same name
TRACED = [
    "numerics.integrate", "numerics.log_integral",
    "numerics.find_root_increasing",
    "distributions.model_from_spec", "distributions.from_log_density",
    "infotools.sample_information", "infotools.empirical_tail",
    "infotools.empirical_mgf", "infotools.deviation_variance",
    "infotools.entropy_power_band",
    "lyapunov.moment_curve", "lyapunov.order_p_variance_check",
    "lyapunov.quantile_density_concavity",
    "aep.run_trajectories", "bounds.compare",
    "serialize.write_csv", "serialize.dump_json",
]
# (module, class, method) of traced methods; the span is "module.method"
TRACED_METHODS = [
    ("aep", "TrajectoryReport", "exceedance_table"),
    ("aep", "TrajectoryReport", "sup_deviation_medians"),
]

ZOO_MODELS = ["gauss64", "exp64", "gamma2x16", "gausscov16", "affine_exp16",
              "ball16", "mixprod8"]

# (name, unit, better) of every figure the traced run reports.  The last
# part of a name says how it is reduced from the spans, see per_layer.
PER_LAYER = (
    [(f"distributions.{what}.{m}.ms_per_block", "ms", "lower")
     for m in ZOO_MODELS for what in ("sample", "log_density")]
    + [(f"distributions.sample.{m}.uniforms_per_coord", "count", "lower")
       for m in ZOO_MODELS]
    + [
        ("distributions.model_from_spec.s", "s", "lower"),
        ("distributions.sample.laplace_1d.ms_per_block", "ms", "lower"),
        ("distributions.log_pdf.laplace_1d.ms_per_block", "ms", "lower"),
        ("distributions.from_log_density.s", "s", "lower"),
        ("distributions.quantile.calls", "count", "lower"),
        ("distributions.quantile.ms_per_call", "ms", "lower"),
        ("distributions.log_pdf.calls", "count", "lower"),
        ("infotools.sample_information.s", "s", "lower"),
        ("infotools.sample_information.blocks", "count", "lower"),
        ("infotools.sample_information.draws", "count", "higher"),
        ("infotools.sample_information.pool_utilization", "ratio", "higher"),
        ("infotools.empirical_tail.s", "s", "lower"),
        ("infotools.empirical_mgf.s", "s", "lower"),
        ("infotools.deviation_variance.s", "s", "lower"),
        ("infotools.entropy_power_band.s", "s", "lower"),
        ("infotools.batch_bytes", "B", "lower"),
        ("numerics.integrate.calls", "count", "lower"),
        ("numerics.integrate.evals", "count", "lower"),
        ("numerics.integrate.s", "s", "lower"),
        ("numerics.integrate.nonconverged", "count", "lower"),
        ("numerics.log_integral.calls", "count", "lower"),
        ("numerics.log_integral.s", "s", "lower"),
        ("numerics.find_root_increasing.calls", "count", "lower"),
        ("numerics.find_root_increasing.s", "s", "lower"),
        ("lyapunov.moment_curve.s", "s", "lower"),
        ("lyapunov.moment_curve.orders", "count", "higher"),
        ("lyapunov.order_p_variance_check.s", "s", "lower"),
        ("lyapunov.quantile_density_concavity.s", "s", "lower"),
        ("aep.run_trajectories.s", "s", "lower"),
        ("aep.run_trajectories.steps", "count", "higher"),
        ("aep.block_bytes", "B", "lower"),
        ("aep.exceedance_table.s", "s", "lower"),
        ("aep.sup_deviation_medians.s", "s", "lower"),
        ("bounds.compare.calls", "count", "lower"),
        ("bounds.compare.s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("serialize.write_csv.s", "s", "lower"),
        ("serialize.dump_json.s", "s", "lower"),
        ("serialize.bytes_written", "B", "lower"),
        # filled in by the worker from its pass records
        ("process.cpu_s", "s", "lower"),
        ("process.cpu_per_wall", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return float(values[mid] if len(values) % 2 else
                 0.5 * (values[mid - 1] + values[mid]))


def _philox_outputs(gen: np.random.Generator) -> int:
    """64-bit outputs drawn so far from a fresh Philox view (4 per counter)."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4


class Tracer:
    def __init__(self):
        self.spans = []                 # (id, parent, name, start, end, pass)
        self.counts = defaultdict(int)  # (pass, name) -> count
        self.maxima = {}                # name -> largest value seen
        self.pass_index = 0
        self.label = ""                 # model label of the running op
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = []
        self._saved = []

    # -- spans and counts --------------------------------------------------

    def start(self, name: str) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._root[-1] if self._root else 0)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        sid, parent, name, start = token
        self.spans.append((sid, parent, name, start, end, self.pass_index))

    def add(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[(self.pass_index, name)] += k

    def peak(self, name: str, value: int) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn: Callable, before=None,
             after=None) -> Callable:
        """``fn`` inside a span; ``before`` may rewrite the arguments and
        ``after(result, arguments)`` records counts and may wrap the result."""
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            token = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if after is not None:
                result = after(result, sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    # -- installing into the library ------------------------------------

    def install(self) -> None:
        """Rebind the traced functions at every name infoconc holds them."""
        self._local.stack = self._root
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "infoconc" or n.startswith("infoconc.")]
        for name in TRACED:
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"infoconc.{mod}"), fn)
            before, after = hooks.get(name, (None, None))
            self._rebind(modules, original,
                         self.wrap(name, original, before, after))
        iid = importlib.import_module("infoconc.aep").IIDProcess
        self._rebind(modules, iid,
                     lambda base: iid(TracedDensity(base, self)))
        for mod, cls_name, meth in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"infoconc.{mod}"), cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{mod}.{meth}", original))

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _hooks(self) -> dict:
        def integrate_after(res, a):
            self.add("numerics.integrate.evals", res.evaluations)
            self.add("numerics.integrate.nonconverged", int(not res.converged))
            return res

        def sample_before(args, kwargs):
            return (TracedModel(args[0], self.label, self), *args[1:]), kwargs

        def sample_after(batch, a):
            block = importlib.import_module("infoconc.infotools").BLOCK_SIZE
            m = int(a["m"])
            self.add("infotools.sample_information.draws", m)
            self.add("infotools.sample_information.blocks", -(-m // block))
            self.peak("infotools.batch_bytes", 8 * m)   # computed: m float64
            return batch

        def trajectories_after(report, a):
            trial_block = importlib.import_module("infoconc.aep").TRIAL_BLOCK
            n_max = int(max(a["n_grid"]))
            self.add("aep.run_trajectories.steps", int(a["trials"]) * n_max)
            # computed: one block's step array and its cumulative sum
            self.peak("aep.block_bytes", trial_block * n_max * 8 * 2)
            return report

        def curve_after(curve, a):
            self.add("lyapunov.moment_curve.orders", len(curve.grid))
            return curve

        def written(result, a):
            self.add("serialize.bytes_written", os.path.getsize(a["path"]))
            return result

        def custom_before(args, kwargs):
            name, log_f, *rest = args

            def counted(x):
                self.add("distributions.log_pdf.calls")
                return log_f(x)

            return (name, counted, *rest), kwargs

        return {
            "numerics.integrate": (None, integrate_after),
            "infotools.sample_information": (sample_before, sample_after),
            "aep.run_trajectories": (None, trajectories_after),
            "lyapunov.moment_curve": (None, curve_after),
            "serialize.write_csv": (None, written),
            "serialize.dump_json": (None, written),
            "distributions.from_log_density": (
                custom_before, lambda density, a: TracedDensity(density, self)),
        }


class _Proxy:
    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _timed(self, name: str, fn: Callable, *args):
        token = self._tracer.start(name)
        try:
            return fn(*args)
        finally:
            self._tracer.end(token)


class TracedModel(_Proxy):
    """An n-dimensional model whose blocks are timed and counted."""

    def __init__(self, inner, label: str, tracer: Tracer):
        super().__init__(inner, tracer)
        self._label = label

    def sample(self, gen, size):
        before = _philox_outputs(gen)
        x = self._timed(f"distributions.sample.{self._label}",
                        self._inner.sample, gen, size)
        used = _philox_outputs(gen) - before
        self._tracer.add(f"distributions.sample.{self._label}.uniforms", used)
        self._tracer.add(f"distributions.sample.{self._label}.coords",
                         int(size) * int(self._inner.dim))
        return x

    def log_density(self, x):
        return self._timed(f"distributions.log_density.{self._label}",
                           self._inner.log_density, x)


class TracedDensity(_Proxy):
    """A 1-D density whose sampler, density and quantile are timed."""

    def sample(self, gen, size):
        return self._timed(f"distributions.sample.{self._inner.name}_1d",
                           self._inner.sample, gen, size)

    def log_pdf(self, x):
        return self._timed(f"distributions.log_pdf.{self._inner.name}_1d",
                           self._inner.log_pdf, x)

    def quantile(self, t):
        return self._timed("distributions.quantile", self._inner.quantile, t)


# ---------------------------------------------------------------------------
# reduction of spans and counts to the per-layer figures
# ---------------------------------------------------------------------------

def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class _Spans:
    def __init__(self, spans: list):
        self.by_id = {s[0]: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)
            self.children[s[1]].append(s)

    def _outermost(self, span) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == span[2]:
                return False
            parent = self.by_id.get(parent[1])
        return True

    def named(self, name: str, pass_index: int) -> list:
        return [s for s in self.by_name[name] if s[5] == pass_index]

    def seconds(self, name: str, pass_index: int) -> float:
        """Time inside ``name``; a recursive call is counted once."""
        return sum(s[4] - s[3] for s in self.named(name, pass_index)
                   if self._outermost(s))

    def self_seconds(self, name: str, pass_index: int) -> float:
        """Time inside ``name`` that none of its child spans covers."""
        return sum((s[4] - s[3])
                   - _covered([(c[3], c[4]) for c in self.children[s[0]]],
                              s[3], s[4])
                   for s in self.named(name, pass_index))

    def child_busy(self, name: str, pass_index: int) -> tuple:
        """(summed child-span time, summed span time) of ``name``."""
        busy = wall = 0.0
        for s in self.named(name, pass_index):
            busy += sum(c[4] - c[3] for c in self.children[s[0]])
            wall += s[4] - s[3]
        return busy, wall


def per_layer(tracer: Tracer, passes: list, workers: int) -> dict:
    """Every PER_LAYER figure the spans and counts give, over traced passes.

    Times and counts are medians of per-pass values; per-block and per-call
    times are medians over all such spans; a figure whose layer was not
    called is 0.
    """
    spans = _Spans(tracer.spans)
    counted = {name for _, name in tracer.counts}
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, figure = name.rpartition(".")
        if name in counted:
            out[name] = median(tracer.counts[(p, name)] for p in passes)
        elif name in tracer.maxima:
            out[name] = tracer.maxima[name]
        elif figure == "s":
            out[name] = median(spans.seconds(span, p) for p in passes)
        elif figure == "self_s":
            out[name] = median(spans.self_seconds(span, p) for p in passes)
        elif figure == "calls":
            out[name] = median(len(spans.named(span, p)) for p in passes)
        elif figure in ("ms_per_block", "ms_per_call"):
            out[name] = 1e3 * median(s[4] - s[3] for s in spans.by_name[span])
        elif figure == "uniforms_per_coord":
            used, coords = (sum(tracer.counts[(p, f"{span}.{what}")]
                                for p in passes)
                            for what in ("uniforms", "coords"))
            out[name] = used / coords if coords else 0.0
        elif figure == "pool_utilization":
            busy, wall = map(sum, zip(*(spans.child_busy(span, p)
                                        for p in passes)))
            out[name] = busy / (workers * wall) if wall else 0.0
        else:
            out[name] = 0
    return out
