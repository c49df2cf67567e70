import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intprob import Frame, MassFunction
from intprob.belief import (
    belief_values,
    classify,
    contour,
    masses_from_belief,
    mobius_plausibility,
    plausibility_values,
    random_mass,
    singleton_totals,
)
from intprob.transforms import varsigma

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=2, max_value=6)


def test_mass_validation(frame_xyz):
    with pytest.raises(ValueError):
        MassFunction(frame_xyz, {1: 0.5})  # does not sum to 1
    with pytest.raises(ValueError):
        MassFunction(frame_xyz, {0: 0.5, 1: 0.5})  # mass on the empty set
    with pytest.raises(ValueError):
        MassFunction(frame_xyz, {1: 1.5, 2: -0.5})  # negative without pseudo
    pseudo = MassFunction(frame_xyz, {1: 1.5, 2: -0.5}, pseudo=True)
    assert pseudo.mass(2) == -0.5


def test_mass_rejects_non_finite(frame_xyz):
    nan, inf = float("nan"), float("inf")
    for masses, pseudo in (
        ({1: 0.2, 2: 0.3, 4: nan}, False),
        ({1: inf, 2: -inf, 4: 1.0}, True),
        ({0: nan, 7: 1.0}, False),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            MassFunction(frame_xyz, masses, pseudo=pseudo)


def test_vacuous_belief(frame_xyz):
    vacuous = MassFunction(frame_xyz, {frame_xyz.full: 1.0})
    bel = belief_values(vacuous)
    pl = plausibility_values(vacuous)
    for a in range(1, frame_xyz.full):
        assert bel[a] == 0.0
        assert pl[a] == 1.0
    assert bel[frame_xyz.full] == 1.0


def test_belief_subset_sum(ternary_mass, frame_xyz):
    bel = belief_values(ternary_mass)
    assert bel[frame_xyz.subset(["x", "y"])] == pytest.approx(0.4)
    assert bel[frame_xyz.full] == pytest.approx(1.0)


def test_singleton_plausibility(contour_mass, frame_xyz):
    pl = plausibility_values(contour_mass)
    assert pl[frame_xyz.subset(["x"])] == pytest.approx(0.8)


def test_contour_matches_plausibility_table():
    """The sparse contour against the full Pl table read on singletons."""
    for n in range(1, 11):
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        profiles = ("dense", "k-additive(2)", "singleton-free") if n >= 2 else ("dense",)
        for seed, profile in enumerate(profiles):
            m = random_mass(frame, 100 * n + seed, profile=profile)
            for mass in (m, varsigma(m)):
                table = plausibility_values(mass)
                oracle = np.array([table[1 << i] for i in range(n)])
                assert np.max(np.abs(contour(mass) - oracle)) <= 1e-12


def test_mobius_table(contour_mass):
    mu = mobius_plausibility(contour_mass)
    expected = {1: 0.8, 2: 0.6, 3: -0.6, 4: 0.6, 5: -0.4, 6: -0.3, 7: 0.3}
    for mask, value in expected.items():
        assert mu[mask] == pytest.approx(value, abs=1e-9)
    assert float(mu.sum()) == pytest.approx(1.0)


def test_singleton_totals_values(ternary_mass, contour_mass):
    t = singleton_totals(ternary_mass)
    assert t.k_bel == pytest.approx(0.6)
    assert t.k_pl == pytest.approx(1.5)
    assert singleton_totals(contour_mass).k_bel == pytest.approx(0.3)
    assert singleton_totals(contour_mass).k_pl == pytest.approx(2.0)


def test_classify(frame_xyz, ternary_mass):
    assert classify(MassFunction(frame_xyz, {1: 1.0})) == "bayesian"
    nested = MassFunction(frame_xyz, {1: 0.5, 3: 0.3, 7: 0.2})
    assert classify(nested) == "consonant"
    assert classify(ternary_mass) == "general"


@given(seed=seeds, n=sizes)
@settings(max_examples=60, deadline=None)
def test_duality_and_roundtrip(seed, n):
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    m = random_mass(frame, seed)
    bel = belief_values(m)
    pl = plausibility_values(m)
    for a in range(frame.full + 1):
        assert pl[a] == pytest.approx(1.0 - bel[frame.full & ~a], abs=1e-9)
        assert pl[a] >= bel[a] - 1e-9
    recovered = masses_from_belief(frame, bel)
    for a in set(m.masses) | set(recovered.masses):
        assert recovered.mass(a) == pytest.approx(m.mass(a), abs=1e-9)


@given(seed=seeds, n=sizes)
@settings(max_examples=60, deadline=None)
def test_mobius_singleton_identity(seed, n):
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    m = random_mass(frame, seed)
    mu = mobius_plausibility(m)
    pl = plausibility_values(m)
    for i in range(n):
        total = sum(mu[a] for a in range(1, frame.full + 1) if a >> i & 1)
        assert total == pytest.approx(m.mass(1 << i), abs=1e-9)
        assert mu[1 << i] == pytest.approx(pl[1 << i], abs=1e-9)
    # reconstruction by subset sums
    for a in range(1, frame.full + 1):
        assert sum(mu[b] for b in range(1, a + 1) if b & a == b) == pytest.approx(
            pl[a], abs=1e-9
        )


def test_superadditivity(ternary_mass, frame_xyz):
    bel = belief_values(ternary_mass)
    for a in range(1, frame_xyz.full):
        b = frame_xyz.complement(a)
        assert bel[a | b] >= bel[a] + bel[b] - 1e-9


def test_random_mass_profiles():
    frame = Frame(("a", "b", "c", "d"))
    m1 = random_mass(frame, 7)
    m2 = random_mass(frame, 7)
    assert m1.masses == m2.masses
    k2 = random_mass(frame, 7, profile="k-additive(2)")
    assert max(Frame.cardinality(a) for a in k2.focal_elements()) <= 2
    nf = random_mass(frame, 7, profile="singleton-free")
    assert singleton_totals(nf).k_bel == pytest.approx(0.0)


def test_json_roundtrip(ternary_mass):
    doc = ternary_mass.to_json()
    back = MassFunction.from_json(doc)
    assert back.frame == ternary_mass.frame
    assert back.masses == pytest.approx(ternary_mass.masses)
    assert back.to_json() == doc


def test_bayesian_additivity(frame_xyz):
    m = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    bel = belief_values(m)
    singles = m.singleton_values()
    for a in range(1, frame_xyz.full + 1):
        expected = sum(singles[i] for i in range(3) if a >> i & 1)
        assert bel[a] == pytest.approx(expected)
