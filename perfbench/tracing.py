"""Per-layer counters and timers, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of each
kerndisc module.  A module-level function is replaced in every kerndisc
module that bound it by name (``from .discrepancy import
periodic_error`` makes a second reference), so calls through any import
path are seen.  Times are inclusive: ``kernels.pair_mean.s`` contains the
factor evaluations it makes, and ``discrepancy.periodic_error.s`` the
``pair_mean`` call inside it.  Counts include every caller, for example
the ``periodic_error`` call that closes each descent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

FACTOR_FAMILIES = ("exp", "mq", "gauss", "trunc")

# (name, unit) of every per-layer metric, in print order
METRICS = (
    [("sampling.doubles", "count"), ("sampling.s", "s"), ("sampling.doubles_per_s", "1/s"),
     ("kernels.pair_mean.calls", "count"), ("kernels.pair_mean.s", "s"),
     ("kernels.pair_mean.ns_per_pair_dim", "ns")]
    + [(f"kernels.factor.{fam}.ns_per_element", "ns") for fam in FACTOR_FAMILIES]
    + [("kernels.transport.s", "s"),
       ("kernels.kernel_mapped.s", "s"), ("kernels.kernel_mapped.pairs", "count"),
       ("discrepancy.periodic_error.calls", "count"), ("discrepancy.periodic_error.s", "s"),
       ("discrepancy.physical_mc.calls", "count"), ("discrepancy.physical_mc.s", "s"),
       ("discrepancy.physical_mc.sample_pairs", "count"),
       ("lattice.enumerate.calls", "count"), ("lattice.enumerate.terms", "count"),
       ("lattice.enumerate.s", "s"), ("lattice.enumerate.us_per_term", "us"),
       ("optimize.descent.s", "s"), ("optimize.descent.iterations", "count"),
       ("optimize.descent.fun_evals", "count"), ("optimize.descent.grad_evals", "count"),
       ("optimize.descent.stalled", "count"),
       ("optimize.cond1.calls", "count"), ("optimize.cond1.s", "s"),
       ("optimize.cond1.iterations", "count"), ("optimize.cond1.fg_evals", "count"),
       ("optimize.cond1_retry.attempts", "count"), ("optimize.cond1_retry.kept", "count")]
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class Tracer:
    """Accumulates per-layer sums while its wrappers are installed."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []
        self._cond1_depth = 0
        self._optimize_calls: list[list] = []  # solve_cond1 results per open call

    # installation ------------------------------------------------------

    def _replace(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap_function(self, modules, home, name: str, make) -> None:
        original = getattr(home, name)
        wrapper = functools.wraps(original)(make(original))
        for module in modules:
            if module.__dict__.get(name) is original:
                self._replace(module, name, wrapper)

    def _wrap_method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._replace(cls, name, functools.wraps(original)(make(original)))

    def install(self) -> None:
        """Wrap the layer entry points of the imported kerndisc package."""
        import kerndisc
        from kerndisc import cli, discrepancy, kernels, lattice, optimize, rkhs, sampling

        modules = (kerndisc, cli, discrepancy, kernels, lattice, optimize, rkhs, sampling)
        span = self._span
        self._wrap_method(sampling.MT19937, "__init__", span("sampling"))
        self._wrap_method(sampling.MT19937, "random", span(
            "sampling", lambda out, gen, n: {"sampling.doubles": n}))
        self._wrap_method(kernels.Kernel, "pair_mean", span(
            "kernels.pair_mean",
            lambda out, kernel, y: {"kernels.pair_mean.pair_dims": np.size(y) * len(y)}))
        family = lambda kernel, t: f"kernels.factor.{kernel.family}"  # noqa: E731
        elements = lambda out, kernel, t: {family(kernel, t) + ".elements": np.size(t)}  # noqa: E731
        self._wrap_method(kernels.PeriodicKernel, "factor", span(family, elements))
        self._wrap_method(kernels.PeriodicKernel, "factor_prime", span(family, elements))
        self._wrap_method(kernels.TransportMap, "apply", span("kernels.transport"))
        self._wrap_method(kernels.TransportedKernel, "kernel_mapped", span(
            "kernels.kernel_mapped",
            lambda out, kernel, u, v: {"kernels.kernel_mapped.pairs": len(u) * len(v)}))
        self._wrap_function(modules, discrepancy, "periodic_error",
                            span("discrepancy.periodic_error"))
        self._wrap_function(modules, discrepancy, "physical_error",
                            lambda f: self._physical_mc(f, discrepancy.MonteCarlo))
        self._wrap_function(modules, lattice, "enumerate_decreasing", span(
            "lattice.enumerate",
            lambda out, profile, count: {"lattice.enumerate.terms": count}))
        self._wrap_function(modules, optimize, "descend_physical", span(
            "optimize.descent",
            lambda out, *args, **kwargs: {"optimize.descent.iterations": out[2].iterations,
                                          "optimize.descent.stalled":
                                              out[2].stopped_by == "stalled"}))
        self._wrap_function(modules, optimize, "build_objective", self._objective)
        self._wrap_function(modules, optimize, "solve_cond1", self._solve_cond1)
        self._wrap_function(modules, optimize, "cond1_gradient", self._cond1_gradient)
        self._wrap_function(modules, optimize, "optimize_points",
                            lambda f: self._optimize_points(f, kernels.PeriodicKernel))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # wrappers ----------------------------------------------------------

    def _span(self, key, count=None):
        """Wrapper factory: time and calls under ``key`` (a name, or a
        function of the call's arguments), plus ``count(result, *args)``."""
        sums = self.sums

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                name = key(*args) if callable(key) else key
                sums[name + ".s"] += time.perf_counter() - t0
                sums[name + ".calls"] += 1
                if count is not None:
                    for counter, amount in count(out, *args, **kwargs).items():
                        sums[counter] += amount
                return out
            return wrapper
        return make

    def _physical_mc(self, original, monte_carlo):
        timed = self._span(
            "discrepancy.physical_mc",
            lambda out, kernel, points, mc: {"discrepancy.physical_mc.sample_pairs":
                                             mc.samples * points.n})(original)

        def wrapper(kernel, points, integrals="exact"):
            if isinstance(integrals, monte_carlo):
                return timed(kernel, points, integrals)
            return original(kernel, points, integrals)
        return wrapper

    def _objective(self, original):
        sums = self.sums

        def counted(fn, key):
            def wrapper(y):
                sums[key] += 1
                return fn(y)
            return wrapper

        def wrapper(*args, **kwargs):
            obj = original(*args, **kwargs)
            obj.fun = counted(obj.fun, "optimize.descent.fun_evals")
            obj.grad = counted(obj.grad, "optimize.descent.grad_evals")
            return obj
        return wrapper

    def _solve_cond1(self, original):
        timed = self._span("optimize.cond1",
                           lambda out, *args, **kwargs: {"optimize.cond1.iterations":
                                                         out.iterations})(original)

        def wrapper(*args, **kwargs):
            self._cond1_depth += 1
            try:
                result = timed(*args, **kwargs)
            finally:
                self._cond1_depth -= 1
            if self._optimize_calls:
                self._optimize_calls[-1].append(result)
            return result
        return wrapper

    def _cond1_gradient(self, original):
        def wrapper(*args, **kwargs):
            if self._cond1_depth:
                self.sums["optimize.cond1.fg_evals"] += 1
            return original(*args, **kwargs)
        return wrapper

    def _optimize_points(self, original, periodic_kernel):
        # For a periodic kernel every solve_cond1 call after the first
        # refine is the "retry from the raw start" fallback; it is kept
        # when its points are the ones returned.
        def wrapper(kernel, *args, **kwargs):
            self._optimize_calls.append([])
            try:
                points, report, info = original(kernel, *args, **kwargs)
            finally:
                solves = self._optimize_calls.pop()
            if isinstance(kernel, periodic_kernel) and len(solves) > 1:
                self.sums["optimize.cond1_retry.attempts"] += len(solves) - 1
                self.sums["optimize.cond1_retry.kept"] += any(
                    points is s.points for s in solves[1:])
            return points, report, info
        return wrapper

    # read-out ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per round of the workload."""
        s = defaultdict(float, {key: value / rounds for key, value in self.sums.items()})
        values = {key: s[key] for key, _ in METRICS}
        values["sampling.doubles_per_s"] = _ratio(s["sampling.doubles"], s["sampling.s"])
        values["kernels.pair_mean.ns_per_pair_dim"] = _ratio(
            s["kernels.pair_mean.s"], s["kernels.pair_mean.pair_dims"], 1e9)
        for fam in FACTOR_FAMILIES:
            key = f"kernels.factor.{fam}"
            values[key + ".ns_per_element"] = _ratio(s[key + ".s"], s[key + ".elements"], 1e9)
        values["lattice.enumerate.us_per_term"] = _ratio(
            s["lattice.enumerate.s"], s["lattice.enumerate.terms"], 1e6)
        return {key: {"value": values[key], "unit": unit} for key, unit in METRICS}
