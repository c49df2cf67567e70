import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intprob import Frame, MassFunction
from intprob.belief import belief_values, random_mass
from intprob.combine import (
    TotalConflictError,
    affine,
    conjunctive,
    dempster,
    disjunctive,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _residual(m1, m2):
    keys = set(m1.masses) | set(m2.masses)
    return max(abs(m1.mass(a) - m2.mass(a)) for a in keys)


def _vacuous(frame):
    return MassFunction(frame, {frame.full: 1.0})


def test_vacuous_is_neutral(ternary_mass, frame_xyz):
    v = _vacuous(frame_xyz)
    assert _residual(dempster(v, ternary_mass), ternary_mass) < 1e-12
    res = conjunctive(v, ternary_mass)
    assert res.conflict == 0.0
    assert _residual(res.normalized(), ternary_mass) < 1e-12


def test_total_conflict(frame_xyz):
    m1 = MassFunction(frame_xyz, {1: 1.0})
    m2 = MassFunction(frame_xyz, {2: 1.0})
    assert conjunctive(m1, m2).conflict == pytest.approx(1.0)
    with pytest.raises(TotalConflictError):
        dempster(m1, m2)


def test_frame_mismatch(ternary_mass):
    other = MassFunction(Frame(("a", "b")), {3: 1.0})
    with pytest.raises(ValueError):
        conjunctive(ternary_mass, other)


def test_conjunctive_matches_brute_force():
    frame = Frame(("a", "b", "c", "d"))
    m1, m2 = random_mass(frame, 1), random_mass(frame, 2)
    result = conjunctive(m1, m2)
    expected = {}
    conflict = 0.0
    for b, vb in m1.masses.items():
        for c, vc in m2.masses.items():
            if b & c:
                expected[b & c] = expected.get(b & c, 0.0) + vb * vc
            else:
                conflict += vb * vc
    assert result.conflict == pytest.approx(conflict)
    for a in set(result.masses) | set(expected):
        assert result.masses.get(a, 0.0) == pytest.approx(expected.get(a, 0.0))


def test_bayesian_combination_is_contour_weighted():
    frame = Frame(("a", "b", "c", "d"))
    m = random_mass(frame, 5)
    p = MassFunction(frame, {1 << i: w for i, w in enumerate((0.1, 0.2, 0.3, 0.4))})
    combined = dempster(m, p)
    from intprob.belief import plausibility_values

    pl = plausibility_values(m)
    weights = [p.mass(1 << i) * pl[1 << i] for i in range(4)]
    total = sum(weights)
    for i in range(4):
        assert combined.mass(1 << i) == pytest.approx(weights[i] / total, abs=1e-9)


def test_disjunctive_multiplies_beliefs():
    frame = Frame(("a", "b", "c", "d"))
    m1, m2 = random_mass(frame, 3), random_mass(frame, 4)
    bel1 = belief_values(m1)
    bel2 = belief_values(m2)
    combined = belief_values(disjunctive(m1, m2))
    for a in range(frame.full + 1):
        assert combined[a] == pytest.approx(bel1[a] * bel2[a], abs=1e-9)


def test_disjunctive_absorbs_into_vacuous(ternary_mass, frame_xyz):
    result = disjunctive(ternary_mass, _vacuous(frame_xyz))
    assert result.masses == {frame_xyz.full: pytest.approx(1.0)}


def test_affine_endpoints_and_linearity(frame_xyz):
    m1 = MassFunction(frame_xyz, {1: 0.5, 7: 0.5})
    m2 = MassFunction(frame_xyz, {2: 0.4, 3: 0.6})
    assert _residual(affine([1.0, 0.0], [m1, m2]), m1) < 1e-12
    mix = affine([0.3, 0.7], [m1, m2])
    bel_mix = belief_values(mix)
    bel1 = belief_values(m1)
    bel2 = belief_values(m2)
    for a in range(frame_xyz.full + 1):
        assert bel_mix[a] == pytest.approx(0.3 * bel1[a] + 0.7 * bel2[a])
    with pytest.raises(ValueError):
        affine([0.5, 0.6], [m1, m2])
    assert affine([1.5, -0.5], [m1, m2]).pseudo


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_lemma_affine_commutes_with_both_rules(seed):
    frame = Frame(("a", "b", "c"))
    m = random_mass(frame, seed)
    m1 = random_mass(frame, seed + 1)
    m2 = random_mass(frame, seed + 2)
    a1 = 0.4
    mix = affine([a1, 1 - a1], [m1, m2])
    left = conjunctive(m, mix)
    r1, r2 = conjunctive(m, m1), conjunctive(m, m2)
    for a in set(left.masses) | set(r1.masses) | set(r2.masses):
        expected = a1 * r1.masses.get(a, 0.0) + (1 - a1) * r2.masses.get(a, 0.0)
        assert left.masses.get(a, 0.0) == pytest.approx(expected, abs=1e-9)
    assert left.conflict == pytest.approx(
        a1 * r1.conflict + (1 - a1) * r2.conflict, abs=1e-9
    )
    d_left = disjunctive(m, mix)
    d_mix = affine([a1, 1 - a1], [disjunctive(m, m1), disjunctive(m, m2)])
    assert _residual(d_left, d_mix) < 1e-9


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_dempster_mixture_coefficients(seed):
    """Dempster of an affine mixture splits with conflict-weighted gammas."""
    frame = Frame(("a", "b", "c"))
    m = random_mass(frame, seed)
    m1 = random_mass(frame, seed + 1)
    m2 = random_mass(frame, seed + 2)
    a1 = 0.35
    k1 = conjunctive(m, m1).normalisation
    k2 = conjunctive(m, m2).normalisation
    g1 = a1 * k1 / (a1 * k1 + (1 - a1) * k2)
    left = dempster(m, affine([a1, 1 - a1], [m1, m2]))
    right = affine([g1, 1 - g1], [dempster(m, m1), dempster(m, m2)])
    assert _residual(left, right) < 1e-9


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_dempster_associative_commutative(seed):
    frame = Frame(("a", "b", "c"))
    m1 = random_mass(frame, seed)
    m2 = random_mass(frame, seed + 1)
    m3 = random_mass(frame, seed + 2)
    assert _residual(dempster(m1, m2), dempster(m2, m1)) < 1e-9
    assert (
        _residual(dempster(dempster(m1, m2), m3), dempster(m1, dempster(m2, m3)))
        < 1e-9
    )
