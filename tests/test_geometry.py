import itertools

import numpy as np
import pytest

from intprob import Frame, MassFunction
from intprob.belief import belief_values, plausibility_values, random_mass
from intprob.geometry import (
    DegenerateSimplexError,
    affine_coords,
    barycentre,
    credal_decomposition_check,
    credal_vertices,
    export_document,
    focus,
    lower_simplex,
    probability_simplex,
    special_focus,
    upper_simplex,
)
from intprob.intervals import from_belief
from intprob.transforms import (
    beta_of_mass,
    intersection_probability,
    relative_belief,
    relative_plausibility,
    relative_uncertainty,
)


def _rows(simplex):
    return simplex.matrix()


def test_credal_vertices_ternary(ternary_mass):
    expected = {
        (0.4, 0.3, 0.3),
        (0.4, 0.1, 0.5),
        (0.2, 0.5, 0.3),
        (0.3, 0.1, 0.6),
        (0.2, 0.2, 0.6),
    }
    got = {tuple(round(v, 9) for v in d.values) for d in credal_vertices(ternary_mass)}
    assert got == expected


def test_credal_vertices_degenerate_cases(frame_xyz):
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    assert len(credal_vertices(bayes)) == 1
    vacuous = MassFunction(frame_xyz, {frame_xyz.full: 1.0})
    corners = {tuple(d.values) for d in credal_vertices(vacuous)}
    assert corners == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_credal_vertices_dominate_belief(ternary_mass, frame_xyz):
    bel = belief_values(ternary_mass)
    for d in credal_vertices(ternary_mass):
        for a in range(1, frame_xyz.full + 1):
            total = sum(d.values[i] for i in range(3) if a >> i & 1)
            assert total >= bel[a] - 1e-9


def test_lower_and_upper_simplex_vertices(ternary_mass):
    assert _rows(lower_simplex(ternary_mass)) == pytest.approx(
        np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3], [0.2, 0.1, 0.7]])
    )
    assert _rows(upper_simplex(ternary_mass)) == pytest.approx(
        np.array([[-0.1, 0.5, 0.6], [0.4, 0.0, 0.6], [0.4, 0.5, 0.1]])
    )
    assert all(v.proper for v in lower_simplex(ternary_mass).vertices)
    assert not upper_simplex(ternary_mass).vertices[0].proper


def test_simplex_degeneracy_flag(frame_xyz):
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    assert lower_simplex(bayes).degenerate
    assert not lower_simplex(MassFunction(frame_xyz, {frame_xyz.full: 1.0})).degenerate


def test_affine_coords_basics(ternary_mass, frame_xyz):
    simplex = lower_simplex(ternary_mass)
    assert affine_coords(simplex.vertices[1], simplex) == pytest.approx(
        [0.0, 1.0, 0.0], abs=1e-9
    )
    assert affine_coords(barycentre(simplex), simplex) == pytest.approx(
        np.full(3, 1 / 3), abs=1e-9
    )
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    with pytest.raises(DegenerateSimplexError):
        affine_coords(barycentre(simplex), lower_simplex(bayes))


def test_affine_coords_equal_relative_uncertainty():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        sys = from_belief(m)
        p = intersection_probability(sys)
        r = relative_uncertainty(sys).values
        assert affine_coords(p, lower_simplex(m)) == pytest.approx(r, abs=1e-9)
        assert affine_coords(p, upper_simplex(m)) == pytest.approx(r, abs=1e-9)


def test_focus_no_focus_pair():
    s = np.array([[2, 2], [5, 2], [3, 5]], float)
    t = np.array([[3, 1], [5, 6], [2, 6]], float)
    for perm in itertools.permutations(range(3)):
        assert focus(s, t, perm) is None


def test_focus_non_special_pair():
    s = np.array([[-2, -2], [0, 3], [1, 0]], float)
    t = np.array([[-1, 0], [0, -1], [2, 2]], float)
    result = focus(s, t, (2, 1, 0))
    assert result is not None
    assert np.max(np.abs(result.point)) <= 1e-12
    assert result.line_coordinates == pytest.approx((0.5, 0.25, 0.5), abs=1e-12)
    assert not result.special


def test_focus_degenerate_same_simplex(ternary_mass):
    simplex = lower_simplex(ternary_mass)
    result = focus(simplex, simplex, (0, 1, 2))
    assert result.degenerate
    assert result.point == pytest.approx(barycentre(simplex).values)


def test_special_focus_is_intersection_probability():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        p = intersection_probability(from_belief(m))
        result = special_focus(lower_simplex(m), upper_simplex(m))
        assert result is not None and result.special
        assert result.point == pytest.approx(p.values, abs=1e-8)
        assert result.common_alpha == pytest.approx(beta_of_mass(m).value, abs=1e-8)


def test_special_foci_of_probability_simplex_pairs(ternary_mass):
    frame = ternary_mass.frame
    corners = probability_simplex(frame)
    low = special_focus(corners, lower_simplex(ternary_mass))
    assert low is not None
    assert low.point == pytest.approx(relative_belief(ternary_mass).values, abs=1e-9)
    assert low.common_alpha == pytest.approx(1 / 0.6, abs=1e-9)
    up = special_focus(corners, upper_simplex(ternary_mass))
    assert up is not None
    assert up.point == pytest.approx(relative_plausibility(ternary_mass).values, abs=1e-9)
    assert up.common_alpha == pytest.approx(1 / 1.5, abs=1e-9)


def test_barycentre_combination(ternary_mass):
    assert barycentre(lower_simplex(ternary_mass)).values == pytest.approx(
        [1 / 3, 7 / 30, 13 / 30], abs=1e-9
    )
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        b = beta_of_mass(m).value
        combo = b * barycentre(upper_simplex(m)).values + (1 - b) * barycentre(
            lower_simplex(m)
        ).values
        assert combo == pytest.approx(
            intersection_probability(from_belief(m)).values, abs=1e-9
        )


def test_credal_decomposition(ternary_mass, frame_xyz):
    assert credal_decomposition_check(ternary_mass)
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    assert credal_decomposition_check(bayes)
    frame4 = Frame(("a", "b", "c", "d"))
    assert credal_decomposition_check(random_mass(frame4, 99), samples=500)


def test_export_document(ternary_mass):
    doc = export_document(ternary_mass)
    assert doc["frame"] == ["x", "y", "z"]
    assert len(doc["credal_vertices"]) == 5
    assert len(doc["lower_simplex"]) == 3
    assert "ternary" in doc["credal_vertices"][0]
    assert doc["special_focus"]["common_alpha"] == pytest.approx(4 / 9, abs=1e-9)
    marked = doc["marked_points"]
    assert marked["intersection"]["coordinates"] == pytest.approx(
        [0.2889, 0.2778, 0.4333], abs=1e-4
    )
