"""Per-layer tracing of growthlab from outside the library.

A ``Tracer`` replaces public functions of the growthlab modules (the
layers) by wrappers for the duration of a ``with tracer.installed():``
block.  A function is replaced at every module attribute it is reached
through, so names imported by value (``diagnostics.argmin_tilted``,
``prox.argmin_ball``, ``cli.run_diagnostics``, the re-exports in
``growthlab/__init__``) are traced like the defining module's own.

Most wrappers record a span (name, start, end, parent span, job index)
in memory; self time is a span's duration minus the time its child spans
cover.  The very hot ``core`` helpers only count calls, because a span
per call would cost more than the work.  Some wrappers also read the
returned value to count work the library already reports, such as
``TiltedSolveResult.evaluations`` or ``TrackingResult.iterations``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SPANS = {
    "minimize": ("argmin_ball", "argmin_tilted", "argmin_perturbed"),
    "diagnostics": (
        "run_diagnostics",
        "estimate_growth",
        "estimate_tilt_constant",
        "estimate_loja_constant",
        "sample_subdifferential_graph",
        "lipschitz_probe",
        "convex_probe",
    ),
    "prox": ("prox_step",),
    "tracking": (
        "solve_tracking",
        "solve_state",
        "solve_adjoint",
        "solve_linearized",
        "ssc_estimate",
        "perturbation_sweep",
    ),
    "cli": ("main",),
}
COUNTS = {"core": ("as_vector", "pairing")}

# Names imported by value that the wrapping must reach.
BY_VALUE = (
    ("diagnostics", "argmin_tilted"),
    ("prox", "argmin_ball"),
    ("cli", "run_diagnostics"),
)


class Tracer:
    """Spans and counters for one traced pass over a job list."""

    def __init__(self) -> None:
        # [span id, parent id, job index, name, start, end]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.job: Optional[int] = None
        self.job_kind = ""
        self._stack: List[int] = []
        self._grid_sizes: Dict[tuple, int] = {}
        self._tilts_seen: set = set()
        self._ball_grid = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.job, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks on returned values -------------------------------------------

    def _after_argmin_ball(self, args, kwargs, result) -> None:
        region, cfg = args[1], args[2]
        key = (region.center.tobytes(), region.radius, cfg.grid_points_per_axis)
        grid = self._grid_sizes.get(key)
        if grid is None:
            grid = len(self._ball_grid(region, cfg.grid_points_per_axis))
            self._grid_sizes[key] = grid
        self.counts["minimize.grid_points"] += grid
        self.counts["minimize.polish_evals"] += result.evaluations - grid
        self.counts["minimize.minimizers"] += len(result.minimizers)

    def _after_argmin_tilted(self, args, kwargs, result) -> None:
        import numpy as np

        f, xi = args[0], args[1]
        key = (self.job, id(f), np.asarray(xi, dtype=float).tobytes())
        fresh = key not in self._tilts_seen
        self._tilts_seen.add(key)
        self.counts["minimize.distinct_tilts"] += fresh
        if self.job_kind == "diagnose":
            self.counts["minimize.argmin_tilted.calls_diagnose"] += 1
            self.counts["minimize.distinct_tilts_diagnose"] += fresh

    def _after_solve_tracking(self, args, kwargs, result) -> None:
        self.counts["tracking.spg_iterations"] += result.iterations

    def _after_sweep(self, args, kwargs, result) -> None:
        self.counts["tracking.sweep_samples"] += len(result.samples)
        self.counts["tracking.sweep_failed"] += sum(
            1 for s in result.samples if s.error or not s.converged
        )

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace the traced functions in every loaded growthlab module."""
        import growthlab  # noqa: F401  (loads every layer)

        self._ball_grid = importlib.import_module("growthlab.minimize").ball_grid
        hooks = {
            "minimize.argmin_ball": self._after_argmin_ball,
            "minimize.argmin_tilted": self._after_argmin_tilted,
            "tracking.solve_tracking": self._after_solve_tracking,
            "tracking.perturbation_sweep": self._after_sweep,
        }
        wrappers: Dict[int, Callable] = {}
        for layers, make in ((SPANS, "span"), (COUNTS, "count")):
            for layer, names in layers.items():
                module = importlib.import_module("growthlab." + layer)
                for fname in names:
                    fn = getattr(module, fname)
                    name = f"{layer}.{fname}"
                    wrappers[id(fn)] = (
                        self._span(name, fn, hooks.get(name))
                        if make == "span"
                        else self._count(name, fn)
                    )
        patched: List[Tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items()
                   if n == "growthlab" or n.startswith("growthlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            for layer, fname in BY_VALUE:
                module = importlib.import_module("growthlab." + layer)
                if id(getattr(module, fname)) in wrappers:
                    raise RuntimeError(f"growthlab.{layer}.{fname} was not wrapped")
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - child[sid]
        return dict(totals)

    def deterministic_counts(self) -> Dict[str, int]:
        return dict(sorted(self.counts.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracers: List[Tracer], const_err_max: float, output_bytes_per_job: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, self times averaged over the traced passes.

    Counts come from the first pass; the caller checks that every pass
    counted the same.  A ratio with no calls behind it reads 0.
    """
    counts = tracers[0].counts
    selfs: Dict[str, float] = defaultdict(float)
    for t in tracers:
        for name, s in t.self_times().items():
            selfs[name] += s / len(tracers)

    out: Dict[str, Tuple[float, str]] = {}
    for layer, names in COUNTS.items():
        for fname in names:
            out[f"{layer}.{fname}.calls"] = (counts[f"{layer}.{fname}.calls"], "count")
    out["minimize.argmin_ball.calls"] = (counts["minimize.argmin_ball.calls"], "count")
    out["minimize.argmin_ball.s"] = (selfs.get("minimize.argmin_ball", 0.0), "s")
    for fname in ("argmin_tilted", "argmin_perturbed"):
        out[f"minimize.{fname}.calls"] = (counts[f"minimize.{fname}.calls"], "count")
    out["minimize.grid_points"] = (counts["minimize.grid_points"], "count")
    out["minimize.polish_evals"] = (counts["minimize.polish_evals"], "count")
    out["minimize.minimizers_per_solve"] = (
        _ratio(counts["minimize.minimizers"], counts["minimize.argmin_ball.calls"]), "ratio")
    out["minimize.distinct_tilt_ratio"] = (
        _ratio(counts["minimize.distinct_tilts"], counts["minimize.argmin_tilted.calls"]),
        "ratio")
    out["minimize.distinct_tilt_ratio_diagnose"] = (
        _ratio(counts["minimize.distinct_tilts_diagnose"],
               counts["minimize.argmin_tilted.calls_diagnose"]), "ratio")
    for fname in SPANS["diagnostics"]:
        out[f"diagnostics.{fname}.s"] = (selfs.get(f"diagnostics.{fname}", 0.0), "s")
    out["diagnostics.const_rel_err_max"] = (const_err_max, "ratio")
    out["prox.prox_step.calls"] = (counts["prox.prox_step.calls"], "count")
    out["prox.prox_step.s"] = (selfs.get("prox.prox_step", 0.0), "s")
    for fname in ("solve_tracking", "solve_state", "solve_adjoint", "solve_linearized"):
        out[f"tracking.{fname}.calls"] = (counts[f"tracking.{fname}.calls"], "count")
        out[f"tracking.{fname}.s"] = (selfs.get(f"tracking.{fname}", 0.0), "s")
    out["tracking.spg_iterations"] = (counts["tracking.spg_iterations"], "count")
    for fname in ("ssc_estimate", "perturbation_sweep"):
        out[f"tracking.{fname}.s"] = (selfs.get(f"tracking.{fname}", 0.0), "s")
    out["tracking.sweep_failed_ratio"] = (
        _ratio(counts["tracking.sweep_failed"], counts["tracking.sweep_samples"]), "ratio")
    out["cli.main.s"] = (selfs.get("cli.main", 0.0), "s")
    out["cli.output_bytes"] = (output_bytes_per_job, "B/job")
    out["trace.spans"] = (len(tracers[0].spans), "count")
    return out
