import numpy as np
import pytest

from intprob import Frame, IntervalSystem, MassFunction
from intprob.belief import plausibility_values, random_mass, singleton_totals
from intprob.geometry import credal_vertices
from intprob.intervals import contains, from_belief
from intprob.transforms import (
    DegenerateBetaError,
    Distribution,
    ZeroSingletonMassError,
    beta,
    beta_of_mass,
    cardinality_profile,
    intersection_probability,
    pignistic,
    pra_pl_interval,
    relative_belief,
    relative_plausibility,
    relative_uncertainty,
    sudano,
    varsigma,
)


def test_distribution_rejects_non_finite():
    frame = Frame(("a", "b"))
    nan, inf = float("nan"), float("inf")
    for values, proper in (([nan, 1.0], True), ([inf, -inf], False)):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution(frame, values, proper=proper)


def test_beta_values(interval_example, ternary_mass):
    assert beta(interval_example).value == pytest.approx(1 / 12, abs=1e-12)
    assert beta(from_belief(ternary_mass)).value == pytest.approx(4 / 9, abs=1e-12)


def test_beta_degenerate(frame_xyz):
    sys = IntervalSystem(
        frame_xyz, {"x": 0.2, "y": 0.3, "z": 0.5}, {"x": 0.2, "y": 0.3, "z": 0.5}
    )
    b = beta(sys)
    assert b.degenerate
    assert intersection_probability(sys).values == pytest.approx([0.2, 0.3, 0.5])


def test_intersection_probability_interval_example(interval_example):
    p = intersection_probability(interval_example)
    assert p.values == pytest.approx([0.25, 0.45, 0.3], abs=1e-12)
    assert contains(interval_example, p)


def test_intersection_probability_contour_mass(contour_mass):
    p = intersection_probability(from_belief(contour_mass))
    assert p.values == pytest.approx([0.388, 0.247, 0.365], abs=1e-3)


def test_relative_uncertainty(interval_example, contour_mass):
    r = relative_uncertainty(interval_example)
    assert r.values == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    r2 = relative_uncertainty(from_belief(contour_mass))
    assert r2.values == pytest.approx([0.7 / 1.7, 0.6 / 1.7, 0.4 / 1.7], abs=1e-12)


def test_two_forms_agree():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        sys = from_belief(m)
        b = beta(sys).value
        lower = np.array(sys.lower_vector())
        upper = np.array(sys.upper_vector())
        form_beta = lower + b * (upper - lower)
        form_r = lower + (1 - lower.sum()) * relative_uncertainty(sys).values
        p = intersection_probability(sys)
        assert p.values == pytest.approx(form_beta, abs=1e-9)
        assert p.values == pytest.approx(form_r, abs=1e-9)
        assert contains(sys, p)


def test_varsigma(contour_mass):
    vs = varsigma(contour_mass)
    assert vs.pseudo
    f = contour_mass.frame
    expected = {
        f.subset(["x"]): 0.388,
        f.subset(["y"]): 0.247,
        f.subset(["z"]): 0.365,
        f.subset(["x", "y"]): -0.071,
        f.subset(["x", "z"]): -0.106,
        f.subset(["y", "z"]): -0.123,
        f.full: 0.3,
    }
    for mask, value in expected.items():
        assert vs.mass(mask) == pytest.approx(value, abs=1e-3)
    p = intersection_probability(from_belief(contour_mass))
    assert vs.singleton_values() == pytest.approx(p.values, abs=1e-9)
    non_singleton = sum(v for a, v in vs.masses.items() if bin(a).count("1") > 1)
    assert non_singleton == pytest.approx(0.0, abs=1e-9)


def test_varsigma_bayesian_passthrough(frame_xyz):
    m = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    assert varsigma(m) is m


def test_varsigma_contour():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        b = beta_of_mass(m).value
        pl = plausibility_values(m)
        pl_vs = plausibility_values(varsigma(m))
        for i in range(n):
            expected = b * m.mass(1 << i) + (1 - b) * pl[1 << i]
            assert pl_vs[1 << i] == pytest.approx(expected, abs=1e-9)


def test_pignistic(ternary_mass, frame_xyz):
    assert pignistic(ternary_mass).values == pytest.approx(
        [0.2 + 0.05, 0.1 + 0.05 + 0.1, 0.3 + 0.1] + np.full(3, 1 / 30), abs=1e-9
    )
    vacuous = MassFunction(frame_xyz, {frame_xyz.full: 1.0})
    assert pignistic(vacuous).values == pytest.approx(np.full(3, 1 / 3))
    # barycentre of the credal polytope, counting coincident vertices
    import itertools

    from intprob.geometry import permutation_vertices

    mean = np.mean(permutation_vertices(ternary_mass), axis=0)
    assert pignistic(ternary_mass).values == pytest.approx(mean, abs=1e-9)


def test_relative_belief_and_plausibility(ternary_mass, frame_xyz):
    assert relative_belief(ternary_mass).values == pytest.approx(
        [1 / 3, 1 / 6, 1 / 2], abs=1e-12
    )
    assert relative_plausibility(ternary_mass).values == pytest.approx(
        [4 / 15, 1 / 3, 2 / 5], abs=1e-12
    )
    no_singletons = MassFunction(frame_xyz, {3: 0.5, 6: 0.5})
    with pytest.raises(ZeroSingletonMassError):
        relative_belief(no_singletons)


def test_sudano(contour_mass, frame_xyz):
    assert sudano(contour_mass, "PrNPl").values == pytest.approx(
        relative_plausibility(contour_mass).values
    )
    assert sudano(contour_mass, "PraPl").value("x") == pytest.approx(0.38, abs=1e-9)
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    for which in ("PrPl", "PrBel", "PrNPl", "PraPl"):
        assert sudano(bayes, which).values == pytest.approx([0.2, 0.3, 0.5])
    # PrBel needs singleton mass inside every focal element
    bad = MassFunction(frame_xyz, {1: 0.5, 6: 0.5})
    with pytest.raises(ValueError):
        sudano(bad, "PrBel")
    with pytest.raises(ValueError):
        sudano(contour_mass, "NoSuch")


def test_prapl_interval_overshoots_zero_width(interval_example):
    p = pra_pl_interval(interval_example)
    assert p.value("z") == pytest.approx(0.3 + (0.1 / 2.1) * 0.3, abs=1e-12)
    assert p.value("z") > interval_example.u("z")


def test_cardinality_profile(ternary_mass):
    profile = cardinality_profile(ternary_mass)
    assert profile.sigma == pytest.approx({1: 0.6, 2: 0.3, 3: 0.1})
    assert profile.beta().value == pytest.approx(4 / 9, abs=1e-12)


def test_two_additive_beta_is_half():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)), profile="k-additive(2)")
        if cardinality_profile(m).sigma[2] < 1e-6:
            continue
        assert beta_of_mass(m).value == pytest.approx(0.5, abs=1e-9)


def test_segment_identities():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        sys = from_belief(m)
        totals = singleton_totals(m)
        p = intersection_probability(sys).values
        r = relative_uncertainty(sys).values
        rb = relative_belief(m).values
        rp = relative_plausibility(m).values
        assert p == pytest.approx(totals.k_bel * rb + (1 - totals.k_bel) * r, abs=1e-9)
        ratio = totals.k_bel / totals.k_pl
        assert rp == pytest.approx(ratio * rb + (1 - ratio) * r, abs=1e-9)
        b = beta_of_mass(m).value
        assert p == pytest.approx(
            (1 - b) * totals.k_bel * rb + b * totals.k_pl * rp, abs=1e-9
        )


def test_singleton_free_collapse():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)), profile="singleton-free")
        sys = from_belief(m)
        p = intersection_probability(sys).values
        assert p == pytest.approx(relative_uncertainty(sys).values, abs=1e-9)
        assert p == pytest.approx(relative_plausibility(m).values, abs=1e-9)


def test_relative_uncertainty_zero_width_error(frame_xyz):
    sys = IntervalSystem(
        frame_xyz, {"x": 0.2, "y": 0.3, "z": 0.5}, {"x": 0.2, "y": 0.3, "z": 0.5}
    )
    with pytest.raises(DegenerateBetaError):
        relative_uncertainty(sys)
