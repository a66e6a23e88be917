import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerndisc.kernels import coefficient_profile
from kerndisc.lattice import (CoefficientProfile, LatticeIndex, asymptotic_discrepancy,
                              enumerate_decreasing, partial_sum, tail_mass)

FAMILY_DIMS = [(fam, d) for fam in ("exp", "mq", "gauss", "trunc") for d in (1, 2, 3)]


def brute_force_top(profile, count, box):
    """Dense enumeration over the box with the same deterministic order.

    Each coefficient multiplies its factors in ascending order, the one
    order that gives every permutation and sign flip of an index the same
    float."""
    r = {k: profile.r(k) for k in range(-box, box + 1)}
    vals = []
    for alpha in itertools.product(range(-box, box + 1), repeat=profile.dim):
        c = math.prod(sorted(r[a] for a in alpha))
        if c > 0.0:
            entries = tuple((d, v) for d, v in enumerate(alpha) if v)
            vals.append((-c, len(entries), entries))
    vals.sort()
    return [(-negc, entries) for negc, _, entries in vals[:count]]


def test_count_one_is_zero_index():
    for fam, d in FAMILY_DIMS:
        terms = enumerate_decreasing(coefficient_profile(fam, d), 1)
        assert len(terms) == 1
        assert terms[0].index.is_zero
        assert terms[0].coefficient == 1.0


def test_gaussian_d2_tiers():
    # brute-force derived: 1 @ 1, 4 @ 1/4, 4 @ 1/16, 4 @ 4^-4
    terms = enumerate_decreasing(coefficient_profile("gauss", 2), 13)
    coeffs = [t.coefficient for t in terms]
    assert coeffs == [1.0] + [0.25] * 4 + [0.0625] * 4 + [0.00390625] * 4
    tier1 = {t.index.dense() for t in terms[1:5]}
    assert tier1 == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    tier2 = {t.index.dense() for t in terms[5:9]}
    assert tier2 == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_multiquadric_d2_tiers():
    terms = enumerate_decreasing(coefficient_profile("mq", 2), 17)
    coeffs = [round(t.coefficient, 15) for t in terms]
    assert coeffs == [1.0] + [0.2] * 4 + [0.04] * 8 + [0.008] * 4
    # ties at 0.04 put the single-entry indices (+-2, 0), (0, +-2) first
    nnz = [len(t.index.entries) for t in terms[5:13]]
    assert nnz == [1, 1, 1, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("fam,dim", FAMILY_DIMS + [
    (fam, 4) for fam in ("exp", "mq", "gauss", "trunc")])
def test_brute_force_equivalence(fam, dim):
    profile = coefficient_profile(fam, dim)
    count = {1: 60, 2: 200, 3: 100, 4: 100}[dim]
    # the slow-decay profiles reach far along the axes; boxes sized to
    # strictly contain the top-count set (checked below)
    box = {1: 70, 2: 40, 3: 17, 4: 10}[dim]
    terms = enumerate_decreasing(profile, count)
    # the chosen box must strictly contain the top-count set
    assert max(abs(v) for t in terms for _, v in t.index.entries) <= box - 2
    mine = [(t.coefficient, t.index.entries) for t in terms]
    assert mine == brute_force_top(profile, count, box)


@pytest.mark.parametrize("fam,dim", FAMILY_DIMS)
def test_enumeration_order_and_uniqueness(fam, dim):
    terms = enumerate_decreasing(coefficient_profile(fam, dim), 150)
    coeffs = [t.coefficient for t in terms]
    assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))
    assert len({t.index for t in terms}) == len(terms)
    assert terms[0].index.is_zero and terms[0].coefficient == 1.0


@pytest.mark.parametrize("fam,dim", FAMILY_DIMS)
def test_sign_symmetry(fam, dim):
    profile = coefficient_profile(fam, dim)
    terms = enumerate_decreasing(profile, 80)
    by_index = {t.index: t.coefficient for t in terms}
    for t in terms:
        neg = t.index.negated()
        if neg in by_index:
            assert by_index[neg] == t.coefficient
        assert profile.coefficient(neg) == t.coefficient


def test_coefficient_invariant_under_permutation_and_sign():
    # a product in dimension order would give per-gauss D = 3 (1, 1, 2) and
    # (2, 1, 1) values one ulp apart
    gauss = coefficient_profile("gauss", 3)
    assert (gauss.coefficient(LatticeIndex.make(3, {0: 1, 1: 1, 2: 2}))
            == gauss.coefficient(LatticeIndex.make(3, {0: 2, 1: 1, 2: 1})))
    for fam in ("exp", "mq", "gauss", "trunc"):
        for dim in (3, 4):
            profile = coefficient_profile(fam, dim)
            for t in enumerate_decreasing(profile, 700):
                for perm in set(itertools.permutations(t.index.dense())):
                    for signs in itertools.product((-1, 1), repeat=dim):
                        alpha = dict(enumerate(s * v for s, v in zip(signs, perm)))
                        c = profile.coefficient(LatticeIndex.make(dim, alpha))
                        assert c == t.coefficient, (fam, dim, t.index, alpha)


def test_tensor_identity_box_sums():
    # sum of rho over a box factorizes into per-dimension sums
    for fam in ("exp", "mq", "gauss", "trunc"):
        profile = coefficient_profile(fam, 3)
        box = 6
        dense = 0.0
        for alpha in itertools.product(range(-box, box + 1), repeat=3):
            dense += math.prod(profile.r(a) for a in alpha)
        one_d = sum(profile.r(k) for k in range(-box, box + 1))
        assert dense == pytest.approx(one_d**3, rel=1e-12)


@pytest.mark.parametrize("fam,dim", FAMILY_DIMS)
def test_tail_plus_partial_is_total(fam, dim):
    profile = coefficient_profile(fam, dim)
    for n in (1, 7, 64):
        total = tail_mass(profile, n) + partial_sum(profile, n)
        assert total == pytest.approx(profile.total(), rel=1e-10)


def test_tail_mass_exponential_d1():
    # oracle: dense sum over |k| <= 20000 against the closed-form total
    profile = coefficient_profile("exp", 1)
    tau = math.sqrt(12.0)
    c = 4.0 * math.pi**2 / tau**2
    ks = np.arange(1, 20001)
    dense_total = 1.0 + 2.0 * np.sum(1.0 / (1.0 + c * ks**2))
    assert dense_total == pytest.approx(profile.per_dim_total, abs=1e-4)
    top16 = 1.0 + 2.0 * np.sum(1.0 / (1.0 + c * ks[:7] ** 2)) + 1.0 / (1.0 + c * 64.0)
    assert partial_sum(profile, 16) == pytest.approx(top16, rel=1e-14)
    assert tail_mass(profile, 16) == pytest.approx(0.0760664, abs=2e-7)


def test_tail_mass_gaussian_d1_tiny():
    # dominated by the unselected +-8 term 2^-64
    tail = tail_mass(coefficient_profile("gauss", 1), 16)
    assert tail == pytest.approx(2.0**-64, rel=1e-4)


def test_tail_mass_monotone_to_zero():
    profile = coefficient_profile("mq", 2)
    tails = [tail_mass(profile, n) for n in (1, 4, 16, 64, 256, 1024)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-9


def test_asymptotic_anchor_cells():
    cases = [
        ("exp", 1, 16, 0.069), ("exp", 2, 16, 0.143), ("exp", 1, 64, 0.017),
        ("mq", 2, 16, 0.081), ("mq", 1, 16, 0.004), ("gauss", 2, 16, 0.018),
    ]
    for fam, dim, n, ref in cases:
        v = asymptotic_discrepancy(coefficient_profile(fam, dim), n)
        assert abs(v - ref) <= 0.0015, (fam, dim, n, v)


def test_asymptotic_matches_tail_definition():
    profile = coefficient_profile("exp", 2)
    for n in (16, 100):
        assert asymptotic_discrepancy(profile, n) == math.sqrt(tail_mass(profile, n) / n)


def test_rejects_bad_count():
    profile = coefficient_profile("exp", 1)
    with pytest.raises(ValueError):
        enumerate_decreasing(profile, 0)


def test_rejects_asymmetric_profile():
    bad = CoefficientProfile(1, lambda k: 1.0 / (1 + k + 2 * k * k) if k else 1.0, 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        enumerate_decreasing(bad, 4)


def test_rejects_increasing_profile():
    bad = CoefficientProfile(1, lambda k: 1.0 if k == 0 else 0.1 + 0.05 * (abs(k) % 6), 2.0)
    with pytest.raises(ValueError, match="increasing"):
        enumerate_decreasing(bad, 4)


def test_rejects_profile_above_one():
    bad = CoefficientProfile(1, lambda k: 1.0 if k == 0 else 1.5, 2.0)
    with pytest.raises(ValueError, match="outside"):
        enumerate_decreasing(bad, 4)


def test_latticeindex_basics():
    idx = LatticeIndex.make(4, {2: -3, 0: 1})
    assert idx.dense() == (1, 0, -3, 0)
    assert idx.value(2) == -3 and idx.value(1) == 0
    assert LatticeIndex.make(4, {0: 1, 2: -3}) == idx
    with pytest.raises(ValueError):
        LatticeIndex.make(2, {5: 1})
    assert LatticeIndex.make(3, {1: 0}).is_zero


def test_zero_coefficient_indices_excluded():
    # trunc D=1 zeros out even frequencies; they never appear while
    # nonzero coefficients remain
    terms = enumerate_decreasing(coefficient_profile("trunc", 1), 21)
    for t in terms[1:]:
        k = t.index.dense()[0]
        assert k % 2 != 0
        assert t.coefficient > 0.0


def test_zero_padding_when_support_exhausted():
    # gauss D=1 has only 65 nonzero coefficients at double precision;
    # larger requests are padded with zero-coefficient indices and sums
    # are unaffected
    profile = coefficient_profile("gauss", 1)
    terms = enumerate_decreasing(profile, 100)
    assert len(terms) == 100
    assert sum(1 for t in terms if t.coefficient > 0) == 65
    assert partial_sum(profile, 100) == pytest.approx(profile.total(), rel=1e-15)
    assert tail_mass(profile, 100) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["exp", "mq", "gauss", "trunc"]), st.integers(1, 4),
       st.integers(1, 40))
def test_property_order_and_first_term(fam, dim, count):
    terms = enumerate_decreasing(coefficient_profile(fam, dim), count)
    assert len(terms) == count
    coeffs = [t.coefficient for t in terms]
    assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))
    assert coeffs[0] == 1.0 and terms[0].index.is_zero


@pytest.mark.parametrize("fam", ["exp", "mq", "gauss", "trunc"])
@pytest.mark.parametrize("dim", [1, 2, 4, 16, 128])
def test_partial_sum_matches_enumerated_sum(fam, dim):
    # orbit counting against the listed signed indices; enumeration order
    # is fixed, so the first n of the 512 listed terms are the top n
    profile = coefficient_profile(fam, dim)
    coeffs = [t.coefficient for t in enumerate_decreasing(profile, 512)]
    for n in (1, 16, 257, 512):
        assert partial_sum(profile, n) == pytest.approx(math.fsum(coeffs[:n]), rel=1e-13)


def test_partial_sum_mq_l1_shells_closed_form():
    # per-mq: rho(alpha) = q^|alpha|_1, and the L1 shell |alpha|_1 = m holds
    # sum_s 2^s C(D, s) C(m - 1, s - 1) indices
    dim = 128
    profile = coefficient_profile("mq", dim)
    q = profile.r(1)
    shells = [sum(2**s * math.comb(dim, s) * math.comb(m - 1, s - 1)
                  for s in range(1, m + 1)) for m in (1, 2, 3)]
    n = 1 + sum(shells)
    assert n == 2_829_313
    ref = math.fsum([1.0] + [c * q**m for c, m in zip(shells, (1, 2, 3))])
    assert partial_sum(profile, n) == pytest.approx(ref, rel=1e-15)
    # one index into the next shell adds exactly one q^4
    assert partial_sum(profile, n + 1) == pytest.approx(ref + q**4, rel=1e-15)


@pytest.mark.parametrize("fam", ["exp", "mq", "gauss", "trunc"])
@pytest.mark.parametrize("dim", [1, 2])
def test_partial_sum_brute_force_box_sort(fam, dim):
    profile = coefficient_profile(fam, dim)
    box = 2000 if dim == 1 else 300
    r = np.array([profile.r(k) for k in range(-box, box + 1)])
    rho = np.sort(r if dim == 1 else np.outer(r, r).ravel())[::-1]
    env = profile.envelope or profile.r
    for n in (1, 16, 257, 512):
        # every index outside the box has a coefficient <= env(box + 1)
        assert rho[n - 1] >= env(box + 1)
        assert partial_sum(profile, n) == pytest.approx(math.fsum(rho[:n]), rel=1e-14)
