"""The benchmark's tracer (perfbench/tracing.py) still finds every method
and function it wraps, sees the layers run, and puts every original back.

The tracer replaces class attributes through ``cls.__dict__[name]`` and
reads ``kernel.family``, so a renamed or inherited method breaks every
traced benchmark run; this runs one small command of each workload kind
under it.
"""

import importlib.util
from pathlib import Path

import kerndisc
from kerndisc import cli, discrepancy, kernels, lattice, optimize, rkhs, sampling

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OWNERS = (kerndisc, cli, discrepancy, kernels, lattice, optimize, rkhs, sampling,
          sampling.MT19937, kernels.Kernel, kernels.PeriodicKernel, kernels.TransportMap,
          kernels.TransportedKernel)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_run_and_uninstall(capsys):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.periodic_error is not before[1]["periodic_error"]
        assert cli.main(["table", "--kernel", "per-mq", "--N", "16", "--D", "2",
                         "--threads", "1"]) == 0
        # the per-mq Gram mean alone, through its log-series route, is seen
        # as Kernel.pair_mean
        assert tracer.metrics(rounds=1)["kernels.pair_mean.calls"]["value"] == 1
        assert cli.main(["table", "--kernel", "tra-gauss", "--N", "16", "--D", "2",
                         "--threads", "1", "--mc-samples", "1024"]) == 0
        assert cli.main(["points", "--kernel", "per-exp", "--mode", "optimized",
                         "--N", "8", "--D", "1", "--max-iters", "20"]) == 0
        # the optimized cell's lattice candidate builds its factor table
        # through the scalar PeriodicKernel.factor
        lattice_metrics = tracer.metrics(rounds=1)
        assert lattice_metrics["kernels.factor.exp.ns_per_element"]["value"] > 0
        # no pipeline path reaches enumerate_decreasing or solve_cond1, so
        # both are called through their module attributes to check the hooks
        profile = kernels.PeriodicKernel("mq", 2).profile
        terms = lattice.enumerate_decreasing(profile, 9)
        problem = optimize.Cond1Problem.from_indices([t.index for t in terms[1:]], 2)
        optimize.solve_cond1(problem, sampling.uniform_points(3, 8, 2),
                             optimize.OptimizerConfig(max_iterations=20))
        lattice_metrics = tracer.metrics(rounds=1)
        assert lattice_metrics["lattice.enumerate.calls"]["value"] == 1
        assert lattice_metrics["lattice.enumerate.terms"]["value"] == 9
        assert lattice_metrics["optimize.cond1.calls"]["value"] == 1
        # the per-gauss descent takes the log-series route, and the tracer
        # still counts its evaluations through the objective's grad
        assert cli.main(["points", "--kernel", "per-gauss", "--mode", "optimized",
                         "--N", "8", "--D", "2", "--max-iters", "20"]) == 0
        grad_evals = tracer.metrics(rounds=1)["optimize.descent.grad_evals"]["value"]
        assert grad_evals > lattice_metrics["optimize.descent.grad_evals"]["value"]
        # the one pipeline path through the scalar factor, which the
        # tracer files under kernel.family
        assert cli.main(["slice", "--kernel", "per-trunc", "--D", "1",
                         "--resolution", "16"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for owner, snapshot in zip(OWNERS, before):
        assert all(vars(owner).get(name) is value for name, value in snapshot.items()), owner
    metrics = {name: entry["value"] for name, entry in tracer.metrics(rounds=1).items()}
    assert metrics["discrepancy.periodic_error.calls"] >= 2
    assert metrics["discrepancy.physical_mc.calls"] == 1
    assert metrics["kernels.factor.trunc.ns_per_element"] > 0
    for name in ("sampling.doubles", "kernels.pair_mean.calls", "kernels.transport.s",
                 "kernels.kernel_mapped.pairs", "optimize.descent.iterations",
                 "optimize.descent.grad_evals", "optimize.cond1.calls"):
        assert metrics[name] > 0, name
