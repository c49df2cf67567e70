"""Credal-set geometry: polytope vertices, bounding simplices and foci.

The credal set of a belief function is a polytope whose vertices come
from orderings of the singletons; it is sandwiched between a lower
simplex (one vertex per singleton, built from masses) and an upper one
(built from plausibilities). The focus solver finds the common
intersection of the lines joining paired vertices of two simplices —
the construction that characterises the intersection probability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .belief import EPS, MassFunction, belief_values, contour, singleton_totals
from .frame import Frame, FrameSizeError, permutations
from .transforms import Distribution

LINE_TOL = 1e-8


class DegenerateSimplexError(ValueError):
    """Operation needs affinely independent vertices."""


@dataclass(frozen=True)
class Simplex:
    """n labelled (pseudo-)distribution vertices, one per singleton."""

    frame: Frame
    vertices: tuple[Distribution, ...]

    def __post_init__(self):
        if len(self.vertices) != self.frame.size:
            raise ValueError("need exactly one vertex per frame element")
        for v in self.vertices:
            if v.frame != self.frame:
                raise ValueError("vertex on a different frame")

    def matrix(self) -> np.ndarray:
        """Vertices as rows of an (n, n) array."""
        return np.vstack([v.values for v in self.vertices])

    @property
    def degenerate(self) -> bool:
        pts = self.matrix()
        rel = pts[1:] - pts[0]
        if rel.size == 0:
            return False
        return bool(np.linalg.matrix_rank(rel, tol=1e-10) < len(self.vertices) - 1)


@dataclass(frozen=True)
class FocusResult:
    """Common intersection of the lines joining paired simplex vertices.

    ``line_coordinates[i]`` is the weight of the i-th first-simplex
    vertex in the focus (focus = a_i * s_i + (1 - a_i) * t_rho(i));
    ``common_alpha`` is the shared fraction toward the second simplex,
    1 - a, defined only when the focus is special.
    """

    point: np.ndarray
    permutation: tuple[int, ...]
    line_coordinates: tuple[float, ...]
    special: bool
    common_alpha: Optional[float]
    degenerate: bool = False

    def distribution(self, frame: Frame) -> Distribution:
        proper = bool((self.point >= -EPS).all())
        return Distribution(frame, self.point, proper=proper)


def permutation_vertex(m: MassFunction, order: Sequence[int]) -> np.ndarray:
    """Extreme point of the credal set for one singleton ordering.

    Every focal element's mass goes to its earliest member under the
    ordering.
    """
    values = np.zeros(m.frame.size)
    for a, v in m.masses.items():
        for i in order:
            if a >> i & 1:
                values[i] += v
                break
    return values


def permutation_vertices(m: MassFunction) -> list[np.ndarray]:
    """All n! ordering vertices, with multiplicity."""
    return [permutation_vertex(m, order) for order in permutations(m.frame)]


def credal_vertices(m: MassFunction) -> list[Distribution]:
    """Distinct extreme points of the credal set, in first-seen order."""
    if m.pseudo:
        raise ValueError("credal set is defined for proper mass functions")
    if m.frame.size > 8:
        raise FrameSizeError("credal vertex enumeration is factorial; frame too large")
    seen: list[np.ndarray] = []
    out: list[Distribution] = []
    for values in permutation_vertices(m):
        if any(np.max(np.abs(values - prev)) <= EPS for prev in seen):
            continue
        seen.append(values)
        out.append(Distribution(m.frame, values))
    return out


def lower_simplex(m: MassFunction) -> Simplex:
    """Vertex for x: all singleton masses, with the slack 1 - k_bel added at x."""
    if m.pseudo:
        raise ValueError("bounding simplices are defined for proper mass functions")
    singles = m.singleton_values()
    slack = 1.0 - singles.sum()
    vertices = []
    for i in range(m.frame.size):
        values = singles.copy()
        values[i] += slack
        vertices.append(Distribution(m.frame, values))
    return Simplex(m.frame, tuple(vertices))


def upper_simplex(m: MassFunction) -> Simplex:
    """Vertex for x: all singleton plausibilities, with slack 1 - k_pl at x.

    The slack is usually negative, so vertices may be pseudo.
    """
    if m.pseudo:
        raise ValueError("bounding simplices are defined for proper mass functions")
    singles = contour(m)
    slack = 1.0 - singles.sum()
    vertices = []
    for i in range(m.frame.size):
        values = singles.copy()
        values[i] += slack
        proper = bool((values >= -EPS).all())
        vertices.append(Distribution(m.frame, values, proper=proper))
    return Simplex(m.frame, tuple(vertices))


def probability_simplex(frame: Frame) -> Simplex:
    """The corners of the whole probability simplex."""
    return Simplex(
        frame, tuple(Distribution(frame, np.eye(frame.size)[i]) for i in range(frame.size))
    )


def affine_coords(point, simplex) -> np.ndarray:
    """Weights alpha, summing to one, with sum alpha_i * vertex_i = point."""
    pts, target = _as_points(simplex, point)
    k = len(pts)
    system = np.vstack([pts.T, np.ones((1, k))])
    rhs = np.concatenate([target, [1.0]])
    coords, residual, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < k:
        raise DegenerateSimplexError("vertices are not affinely independent")
    if np.max(np.abs(system @ coords - rhs)) > 1e-7:
        raise ValueError("point is outside the affine hull of the simplex")
    return coords


def _as_points(simplex, point=None):
    """Accept Simplex/Distribution or raw arrays interchangeably."""
    if isinstance(simplex, Simplex):
        pts = simplex.matrix()
    else:
        pts = np.asarray(simplex, dtype=float)
    if point is None:
        return pts, None
    target = point.values if isinstance(point, Distribution) else np.asarray(point, dtype=float)
    return pts, target


def barycentre(simplex) -> Distribution | np.ndarray:
    """Vertex average."""
    pts, _ = _as_points(simplex)
    mean = pts.mean(axis=0)
    if isinstance(simplex, Simplex):
        proper = bool((mean >= -EPS).all())
        return Distribution(simplex.frame, mean, proper=proper)
    return mean


def focus(s_simplex, t_simplex, permutation: Sequence[int]) -> Optional[FocusResult]:
    """Intersection of the lines joining s_i to t_perm(i), if one exists.

    Returns None when the lines have no common point (or meet in more
    than a point without being globally degenerate). When every paired
    vertex coincides, the shared barycentre is returned with the
    degenerate flag.
    """
    s_pts, _ = _as_points(s_simplex)
    t_pts, _ = _as_points(t_simplex)
    perm = tuple(permutation)
    if sorted(perm) != list(range(len(s_pts))):
        raise ValueError("permutation must reorder the vertex indices")
    t_paired = t_pts[list(perm)]
    diffs = t_paired - s_pts
    if np.max(np.abs(diffs)) <= LINE_TOL:
        return FocusResult(
            point=s_pts.mean(axis=0),
            permutation=perm,
            line_coordinates=(),
            special=False,
            common_alpha=None,
            degenerate=True,
        )
    dim = s_pts.shape[1]
    rows, rhs = [], []
    for s, delta in zip(s_pts, diffs):
        norm = np.linalg.norm(delta)
        if norm <= LINE_TOL:
            proj = np.eye(dim)  # zero-length line: pin the point to s
        else:
            u = delta / norm
            proj = np.eye(dim) - np.outer(u, u)
        rows.append(proj)
        rhs.append(proj @ s)
    system = np.vstack(rows)
    target = np.concatenate(rhs)
    if np.linalg.matrix_rank(system, tol=1e-10) < dim:
        return None
    point, *_ = np.linalg.lstsq(system, target, rcond=None)
    coords = []
    for s, t in zip(s_pts, t_paired):
        direction = s - t
        norm2 = float(direction @ direction)
        if norm2 <= LINE_TOL**2:
            if np.linalg.norm(point - s) > LINE_TOL:
                return None
            coords.append(float("nan"))
            continue
        alpha = float((point - t) @ direction) / norm2
        on_line = t + alpha * direction
        if np.linalg.norm(point - on_line) > LINE_TOL:
            return None
        coords.append(alpha)
    defined = [a for a in coords if not np.isnan(a)]
    special = bool(defined) and max(defined) - min(defined) <= LINE_TOL
    return FocusResult(
        point=point,
        permutation=perm,
        line_coordinates=tuple(coords),
        special=special,
        common_alpha=(1.0 - defined[0]) if special else None,
    )


def special_focus(s_simplex, t_simplex) -> Optional[FocusResult]:
    """First pairing whose focus has one shared line coordinate.

    The identity pairing is tried first; the full permutation search is
    capped at 8 vertices.
    """
    s_pts, _ = _as_points(s_simplex)
    k = len(s_pts)
    if k > 8:
        raise FrameSizeError("special-focus search is factorial; too many vertices")
    degenerate_hit = None
    orderings = itertools.chain(
        [tuple(range(k))],
        (p for p in itertools.permutations(range(k)) if p != tuple(range(k))),
    )
    for perm in orderings:
        result = focus(s_simplex, t_simplex, perm)
        if result is None:
            continue
        if result.degenerate:
            degenerate_hit = degenerate_hit or result
        elif result.special:
            return result
    return degenerate_hit


def _event_sums(p: np.ndarray, frame: Frame) -> np.ndarray:
    sums = np.zeros(frame.full + 1)
    for mask in range(1, frame.full + 1):
        sums[mask] = sum(p[i] for i in range(frame.size) if mask >> i & 1)
    return sums


def credal_decomposition_check(m: MassFunction, samples: int = 200, seed: int = 0) -> bool:
    """Check the two polytope decompositions on vertices plus random points.

    Membership in the belief credal set must equal joint membership in
    every fixed-cardinality constraint set, and membership in the
    interval credal set must equal joint membership in the lower and
    upper simplices.
    """
    frame = m.frame
    if frame.size > 6:
        raise FrameSizeError("decomposition check enumerates all events; frame too large")
    bel = belief_values(m)
    singles_l = m.singleton_values()
    singles_u = contour(m)
    rng = np.random.default_rng(seed)
    points = [v.values for v in credal_vertices(m)]
    points += list(rng.dirichlet(np.ones(frame.size), size=samples))
    tol = 1e-9
    for p in points:
        sums = _event_sums(p, frame)
        by_size = {
            i: all(
                sums[a] >= bel[a] - tol
                for a in range(1, frame.full + 1)
                if Frame.cardinality(a) == i
            )
            for i in range(1, frame.size)
        }
        in_credal = all(sums[a] >= bel[a] - tol for a in range(1, frame.full + 1))
        if in_credal != all(by_size.values()):
            return False
        in_interval = bool(
            (p >= singles_l - tol).all() and (p <= singles_u + tol).all()
        )
        in_lower = bool((p >= singles_l - tol).all())
        in_upper = bool((p <= singles_u + tol).all())
        if in_interval != (in_lower and in_upper):
            return False
    return True


def project_ternary(values: np.ndarray) -> tuple[float, float]:
    """Barycentric 2-D projection for three-element frames."""
    a, b, c = (float(v) for v in values)
    return (b + c / 2.0, c * np.sqrt(3.0) / 2.0)


def export_document(m: MassFunction) -> dict:
    """Everything needed to draw the credal picture of one mass function."""
    from . import transforms
    from .intervals import from_belief

    frame = m.frame
    lower = lower_simplex(m)
    upper = upper_simplex(m)
    system = from_belief(m)

    def pack(values: np.ndarray) -> dict:
        entry = {"coordinates": [float(v) for v in values]}
        if frame.size == 3:
            entry["ternary"] = list(project_ternary(values))
        return entry

    marked = {
        "intersection": transforms.intersection_probability(system).values,
        "pignistic": transforms.pignistic(m).values,
        "relative_plausibility": transforms.relative_plausibility(m).values,
    }
    totals = singleton_totals(m)
    if totals.k_bel > EPS:
        marked["relative_belief"] = transforms.relative_belief(m).values
    if totals.k_pl - totals.k_bel > EPS:
        marked["relative_uncertainty"] = transforms.relative_uncertainty(system).values

    sf = special_focus(lower, upper)
    doc = {
        "frame": list(frame.labels),
        "simplex_corners": [pack(v.values) for v in probability_simplex(frame).vertices],
        "credal_vertices": [pack(v.values) for v in credal_vertices(m)],
        "lower_simplex": [pack(v.values) for v in lower.vertices],
        "upper_simplex": [pack(v.values) for v in upper.vertices],
        "marked_points": {name: pack(vals) for name, vals in marked.items()},
        "degenerate": lower.degenerate,
    }
    if sf is not None:
        doc["special_focus"] = {
            **pack(sf.point),
            "common_alpha": sf.common_alpha,
            "degenerate": sf.degenerate,
        }
    return doc
