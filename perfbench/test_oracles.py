"""The oracles accept kerndisc's outputs and reject perturbed ones.

    python3 -m pytest -q perfbench/test_oracles.py

Each value check must reject the program's own value scaled by 1.01.
The random-point law is a statistical test over a whole table; its
resolution is a few standard errors of a mean over 48 cells (about 15%
of E^2), so it is shown to reject a 25% perturbation instead, and the
1% perturbation is left to the per-cell checks on the same cells.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import kerndisc as kd  # noqa: E402
from kerndisc.discrepancy import MonteCarlo  # noqa: E402
from kerndisc.optimize import OptimizerConfig  # noqa: E402

BOX = {1: 4096, 2: 128}
BASE = 0


def program_random(family, n, d, base=BASE):
    pts = kd.uniform_points(oracles.cell_seed(base, n, d), n, d)
    return kd.periodic_error(kd.PeriodicKernel(family, d), pts).value


@pytest.mark.parametrize("seed", [0, 1, 5489, 12345, 2**32 - 1])
def test_regenerated_points_are_the_package_stream(seed):
    ours = oracles.regenerate_points(seed, 33, 3)
    assert np.array_equal(ours, kd.uniform_points(seed, 33, 3).coords)


@pytest.mark.parametrize("family", oracles.PER_FAMILIES)
@pytest.mark.parametrize("n,d", [(16, 1), (64, 2), (32, 8)])
def test_random_cell_own_evaluation(family, n, d):
    e = program_random(family, n, d)
    assert oracles.check_random_cell(family, BASE, n, d, e, 2**20, BOX) == []
    assert oracles.check_random_cell(family, BASE, n, d, 1.01 * e, 2**20, BOX)


@pytest.mark.parametrize("family", ["mq", "gauss"])
@pytest.mark.parametrize("n,d", [(64, 1), (512, 2)])
def test_fourier_bracket_alone_rejects_one_percent(family, n, d):
    # own_limit = 0 leaves the bracket as the only check; it is tight
    # for the geometrically decaying coefficients of mq and gauss
    e = program_random(family, n, d)
    assert oracles.check_random_cell(family, BASE, n, d, e, 0, BOX) == []
    found = oracles.check_random_cell(family, BASE, n, d, 1.01 * e, 0, BOX)
    assert found and "Fourier bracket" in found[0]


def test_random_law():
    values = {(n, d): program_random("exp", n, d)
              for n in oracles.N_GRID for d in oracles.D_GRID if n * d <= 4096}
    found, mean, se = oracles.check_random_law("exp", values)
    assert found == [], (mean, se)
    scaled = {cell: 1.25 * e for cell, e in values.items()}
    assert oracles.check_random_law("exp", scaled)[0]


def test_asymptotic_checks():
    for family in ("exp", "mq", "gauss", "trunc"):
        for n, d in [(16, 1), (16, 2), (512, 2), (16, 128)]:
            values = {(n, d): kd.asymptotic_error(kd.PeriodicKernel(family, d), n).value}
            assert oracles.check_asymptotic(family, values) == []
    # D <= 2: the brute-force sort rejects 1%
    e = kd.asymptotic_error(kd.PeriodicKernel("exp", 2), 16).value
    found = oracles.check_asymptotic("exp", {(16, 2): 1.01 * e})
    assert any("brute-force" in line for line in found)
    # D > 2: the 3-decimal table rejects 1% of a value above 0.15
    e = kd.asymptotic_error(kd.PeriodicKernel("exp", 128), 16).value
    assert oracles.check_asymptotic("exp", {(16, 128): 1.01 * e})


@pytest.mark.parametrize("family,n,d", [("exp", 16, 1), ("mq", 16, 2), ("trunc", 16, 2)])
def test_optimized_cell(family, n, d):
    seed = oracles.cell_seed(BASE, n, d)
    points, report, _ = kd.optimize_points(kd.PeriodicKernel(family, d), n, seed,
                                           OptimizerConfig(max_iterations=300))
    e, y = report.value, points.coords
    assert oracles.check_optimized(family, n, d, seed, e, y) == []
    assert any("own evaluation" in line
               for line in oracles.check_optimized(family, n, d, seed, 1.01 * e, y))
    start = program_random(family, n, d)
    found = oracles.check_optimized(family, n, d, seed, start, y)
    assert any("random start" in line for line in found)
    if family == "exp" and d == 1:
        found = oracles.check_optimized(family, n, d, seed, 1.03 * e, y)
        assert any("equispaced" in line for line in found)


def test_tra_gauss_cell():
    n, d = 16, 4
    seed = oracles.cell_seed(BASE, n, d)
    mc_seed = (seed + 101) % 2**32
    pts = kd.uniform_points(seed, n, d)
    report = kd.physical_error(kd.TransportedKernel("gauss", d), pts,
                               MonteCarlo(2**16, mc_seed))
    e = report.value
    found, z = oracles.check_tra_gauss(n, d, seed, e, 2**16, mc_seed)
    assert found == [] and abs(z) < oracles.Z_LIMIT
    found, _ = oracles.check_tra_gauss(n, d, seed, 1.01 * e, 2**16, mc_seed)
    assert any("replayed" in line for line in found)
    # a bias of 6 standard errors fails the closed form
    shifted = math.sqrt(e * e + 6.0 * report.metadata["se_squared"])
    found, _ = oracles.check_tra_gauss(n, d, seed, shifted, 2**16, mc_seed)
    assert any("closed form" in line for line in found)


def test_tracer_reports_every_layer_metric_and_uninstalls():
    import json

    from kerndisc import cli, discrepancy, kernels
    from tracing import METRICS, Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in METRICS]
    originals = (cli.periodic_error, kernels.Kernel.pair_mean, discrepancy.physical_error)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.periodic_error is not originals[0]
        assert cli.main(["table", "--kernel", "per-mq", "--N", "16,32", "--D", "1,2",
                         "--threads", "1", "--out", "-"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.periodic_error, kernels.Kernel.pair_mean,
            discrepancy.physical_error) == originals
    metrics = tracer.metrics(rounds=1)
    assert set(metrics) == {name for name, _ in METRICS}
    assert metrics["discrepancy.periodic_error.calls"]["value"] == 4
    assert metrics["kernels.pair_mean.calls"]["value"] == 4
    assert metrics["sampling.doubles"]["value"] == 16 + 32 + 32 + 64
    assert metrics["kernels.factor.mq.ns_per_element"]["value"] > 0
