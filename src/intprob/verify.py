"""Executable verification suite for the cross-module identities.

Every check draws deterministic random instances, evaluates both sides
of an identity numerically and reports the worst residual. A report
passes iff that residual stays under the check's tolerance; failing
reports carry a serialized counterexample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import combine, geometry, intervals, transforms
from .belief import (
    EPS,
    MassFunction,
    belief_values,
    contour,
    masses_from_belief,
    mobius_plausibility,
    plausibility_values,
    random_mass,
    singleton_totals,
)
from .frame import Frame

DEFAULT_TOL = 1e-9
WITNESS_TOL = 1e-6


@dataclass
class TheoremReport:
    theorem: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json())


def _frame(n: int) -> Frame:
    return Frame(tuple(f"e{i}" for i in range(n)))


def _random_distribution(frame: Frame, rng: np.random.Generator) -> transforms.Distribution:
    values = rng.dirichlet(np.ones(frame.size))
    values = np.clip(values, 1e-6, None)
    return transforms.Distribution(frame, values / values.sum())


def _worst(residuals) -> float:
    """Largest residual, 0.0 for none, and NaN if any residual is NaN.

    The builtin max keeps a NaN only when it comes first, which would let a
    NaN residual count as a pass; every aggregation of residuals goes
    through here instead.
    """
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return float(max(residuals, default=0.0))


def _report(theorem, trials, residuals, tol=DEFAULT_TOL, counterexample=None):
    worst = _worst(residuals)
    return TheoremReport(
        theorem=theorem,
        trials=trials,
        max_residual=float(worst),
        tolerance=tol,
        passed=worst <= tol,
        counterexample=counterexample,
    )


def _mass_residual(m1: MassFunction, m2: MassFunction) -> float:
    keys = set(m1.masses) | set(m2.masses)
    return _worst([abs(m1.mass(a) - m2.mass(a)) for a in keys])


def check_combination_equivalence(
    m: MassFunction, p: transforms.Distribution
) -> TheoremReport:
    """The claim that combining the intersection probability or the varsigma
    pseudo mass with a Bayesian probability gives the same result under
    both the Dempster and conjunctive rules.

    The claim as stated holds only when beta = 1/2 or m is Bayesian. A
    Bayesian operand weights each singleton by the other operand's contour:
    beta m(x) + (1 - beta) Pl(x) for varsigma, but (1 - beta) m(x) +
    beta Pl(x) for the intersection probability. This check tests the claim
    as stated, so elsewhere it fails, and its residual is the gap between
    the two combinations."""
    p_mass = p.as_mass()
    vs = transforms.varsigma(m)
    ip = transforms.intersection_probability(intervals.from_belief(m)).as_mass()
    counterexample = {"mass": m.to_json(), "probability": p.to_json()}
    residuals = []
    try:
        residuals.append(_mass_residual(combine.dempster(ip, p_mass), combine.dempster(vs, p_mass)))
    except combine.TotalConflictError:
        return _report("combination-equivalence", 0, [], counterexample=None)
    left = combine.conjunctive(ip, p_mass)
    right = combine.conjunctive(vs, p_mass)
    keys = set(left.masses) | set(right.masses)
    residuals.append(
        _worst(
            [abs(left.masses.get(a, 0.0) - right.masses.get(a, 0.0)) for a in keys]
            + [abs(left.conflict - right.conflict)]
        )
    )
    report = _report("combination-equivalence", 1, residuals)
    if not report.passed:
        report.counterexample = counterexample
    return report


def check_voorbraak(m: MassFunction, p: transforms.Distribution) -> TheoremReport:
    """Relative plausibility is a perfect Dempster representative:
    rel-Pl combined with p equals the full mass combined with p."""
    p_mass = p.as_mass()
    rel = transforms.relative_plausibility(m).as_mass()
    try:
        left = combine.dempster(rel, p_mass)
        right = combine.dempster(m, p_mass)
    except combine.TotalConflictError:
        return _report("voorbraak-representation", 0, [])
    # both sides are Bayesian (intersecting with a Bayesian operand only
    # ever produces singleton focal sets), so compare masses directly
    report = _report("voorbraak-representation", 1, [_mass_residual(left, right)])
    if not report.passed:
        report.counterexample = {"mass": m.to_json(), "probability": p.to_json()}
    return report


def _d_coefficient(m: MassFunction) -> float:
    return sum(v * Frame.cardinality(a) for a, v in m.masses.items() if Frame.cardinality(a) > 1)


def _cross_probability(m_a: MassFunction, m_b: MassFunction) -> np.ndarray:
    """m_a's singleton masses moved toward plausibility by m_b's beta."""
    beta_b = transforms.beta_of_mass(m_b).value
    lo = m_a.singleton_values()
    return lo + beta_b * (contour(m_a) - lo)


def t_probability(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    """The mixing distribution appearing in the affine closed form."""
    d1, d2 = _d_coefficient(m1), _d_coefficient(m2)
    return (d1 * _cross_probability(m2, m1) + d2 * _cross_probability(m1, m2)) / (d1 + d2)


def check_affine_formula(m1: MassFunction, m2: MassFunction, a1: float) -> TheoremReport:
    """Closed form for the intersection probability of an affine mixture."""
    d1, d2 = _d_coefficient(m1), _d_coefficient(m2)
    if d1 <= EPS or d2 <= EPS:
        raise ValueError("closed form needs non-Bayesian inputs on both sides")
    a2 = 1.0 - a1
    t_vec = t_probability(m1, m2)
    residuals = [abs(t_vec.sum() - 1.0)]
    if (t_vec < -EPS).any():
        residuals.append(float(-t_vec.min()))
    p1 = transforms.intersection_probability(intervals.from_belief(m1)).values
    p2 = transforms.intersection_probability(intervals.from_belief(m2)).values
    rhs = (a1 * a1 * d1 * p1 + a2 * a2 * d2 * p2 + a1 * a2 * (d1 + d2) * t_vec) / (
        a1 * d1 + a2 * d2
    )
    mixed = combine.affine([a1, a2], [m1, m2])
    lhs = transforms.intersection_probability(intervals.from_belief(mixed)).values
    residuals.append(float(np.max(np.abs(lhs - rhs))))
    report = _report("affine-closed-form", 1, residuals)
    if not report.passed:
        report.counterexample = {"m1": m1.to_json(), "m2": m2.to_json(), "a1": a1}
    return report


ALPHA_GRID = tuple(k / 10.0 for k in range(1, 10))


def commutation_residual(m1: MassFunction, m2: MassFunction) -> float:
    """Worst gap between transform-then-mix and mix-then-transform."""
    p1 = transforms.intersection_probability(intervals.from_belief(m1)).values
    p2 = transforms.intersection_probability(intervals.from_belief(m2)).values
    gaps = []
    for a in ALPHA_GRID:
        mixed = combine.affine([a, 1.0 - a], [m1, m2])
        direct = transforms.intersection_probability(intervals.from_belief(mixed)).values
        gaps.append(float(np.max(np.abs(direct - (a * p1 + (1 - a) * p2)))))
    return _worst(gaps)


def _scale_non_singletons(m: MassFunction, factor: float) -> MassFunction:
    """Shrink every non-singleton mass by a factor, growing singletons
    proportionally; keeps the cardinality profile of sizes >= 2 proportional
    to the original, hence the same beta decomposition ratios."""
    masses = {}
    freed = 0.0
    for a, v in m.masses.items():
        if Frame.cardinality(a) > 1:
            masses[a] = v * factor
            freed += v * (1.0 - factor)
    singles = m.singleton_values()
    k_bel = singles.sum()
    for i in range(m.frame.size):
        share = singles[i] / k_bel if k_bel > EPS else 1.0 / m.frame.size
        v = singles[i] + freed * share
        if v > 0:
            masses[1 << i] = masses.get(1 << i, 0.0) + v
    return MassFunction(m.frame, masses)


def _r_equal_partner(
    m: MassFunction, p: transforms.Distribution, weight: float
) -> MassFunction:
    """Mixture with a Bayesian distribution: widths scale uniformly, so the
    relative uncertainty is unchanged."""
    return combine.affine([1.0 - weight, weight], [m, p.as_mass()])


def check_commutation_criteria(m1: MassFunction, m2: MassFunction) -> TheoremReport:
    """Equal beta or equal relative uncertainty must force commutation;
    a generic pair with neither property must fail to commute."""
    residuals = []
    counterexample = None
    beta1 = transforms.beta_of_mass(m1).value
    beta2 = transforms.beta_of_mass(m2).value
    sys1, sys2 = intervals.from_belief(m1), intervals.from_belief(m2)
    r1 = transforms.relative_uncertainty(sys1).values
    r2 = transforms.relative_uncertainty(sys2).values
    res = commutation_residual(m1, m2)
    beta_eq = abs(beta1 - beta2) <= WITNESS_TOL
    r_eq = float(np.max(np.abs(r1 - r2))) <= WITNESS_TOL
    if beta_eq or r_eq:
        residuals.append(res)
    elif res <= WITNESS_TOL:
        # commutation observed without either condition: contradicts the
        # only-if direction
        residuals.append(1.0)
        counterexample = {"m1": m1.to_json(), "m2": m2.to_json(), "residual": res}
    report = _report("commutation-criteria", 1, residuals)
    if not report.passed and counterexample:
        report.counterexample = counterexample
    return report


# ---------------------------------------------------------------------------
# per-module invariant suites


def _suite_belief(rng: np.random.Generator, n: int) -> list[float]:
    m = random_mass(_frame(n), int(rng.integers(2**31)))
    frame = m.frame
    bel = belief_values(m)
    pl = plausibility_values(m)
    mu = mobius_plausibility(m)
    res = []
    res.append(_worst([abs(pl[a] - (1.0 - bel[frame.full & ~a])) for a in range(frame.full + 1)]))
    res.append(_mass_residual(masses_from_belief(frame, bel), m))
    for i in range(n):
        total = sum(mu[a] for a in range(1, frame.full + 1) if a >> i & 1)
        res.append(abs(total - m.mass(1 << i)))
    res.append(abs(mu.sum() - 1.0))
    # superadditivity on a random disjoint pair
    a = int(rng.integers(1, frame.full))
    b = frame.full & ~a
    res.append(_worst([0.0, bel[a] + bel[b] - bel[a | b]]))
    return [float(r) for r in res]


def _suite_combine(rng: np.random.Generator, n: int) -> list[float]:
    frame = _frame(n)
    seeds = rng.integers(2**31, size=3)
    m, m1, m2 = (random_mass(frame, int(s)) for s in seeds)
    a1 = float(rng.uniform(0.1, 0.9))
    mix = combine.affine([a1, 1 - a1], [m1, m2])
    res = []
    # affine commutes with both rules
    left = combine.conjunctive(m, mix)
    r1c = combine.conjunctive(m, m1)
    r2c = combine.conjunctive(m, m2)
    keys = set(left.masses) | set(r1c.masses) | set(r2c.masses)
    res.append(
        _worst([
            abs(left.masses.get(a, 0.0) - a1 * r1c.masses.get(a, 0.0) - (1 - a1) * r2c.masses.get(a, 0.0))
            for a in keys
        ])
    )
    res.append(abs(left.conflict - a1 * r1c.conflict - (1 - a1) * r2c.conflict))
    res.append(
        _mass_residual(
            combine.disjunctive(m, mix),
            combine.affine([a1, 1 - a1], [combine.disjunctive(m, m1), combine.disjunctive(m, m2)]),
        )
    )
    # Dempster of a mixture splits with conflict-weighted coefficients
    k1 = combine.conjunctive(m, m1).normalisation
    k2 = combine.conjunctive(m, m2).normalisation
    g1 = a1 * k1 / (a1 * k1 + (1 - a1) * k2)
    res.append(
        _mass_residual(
            combine.dempster(m, mix),
            combine.affine([g1, 1 - g1], [combine.dempster(m, m1), combine.dempster(m, m2)]),
        )
    )
    # associativity / commutativity
    res.append(_mass_residual(combine.dempster(m1, m2), combine.dempster(m2, m1)))
    res.append(
        _mass_residual(
            combine.dempster(combine.dempster(m, m1), m2),
            combine.dempster(m, combine.dempster(m1, m2)),
        )
    )
    return [float(r) for r in res]


def _suite_intervals(rng: np.random.Generator, n: int) -> list[float]:
    frame = _frame(n)
    m = random_mass(frame, int(rng.integers(2**31)))
    sys = intervals.from_belief(m)
    res = [0.0 if intervals.check_consistency(sys) == "consistent" else 1.0]
    for a in range(frame.full + 1):
        lo, _ = intervals.event_bounds(sys, a)
        _, hi_c = intervals.event_bounds(sys, frame.complement(a))
        res.append(abs(lo - (1.0 - hi_c)))
    _, tight = intervals.check_tightness(sys)
    for _ in range(20):
        p = _random_distribution(frame, rng)
        if intervals.contains(sys, p) != intervals.contains(tight, p):
            res.append(1.0)
    return [float(r) for r in res]


def _suite_transforms(rng: np.random.Generator, n: int) -> list[float]:
    frame = _frame(n)
    m = random_mass(frame, int(rng.integers(2**31)))
    sys = intervals.from_belief(m)
    totals = singleton_totals(m)
    b = transforms.beta(sys)
    p = transforms.intersection_probability(sys)
    r_vec = transforms.relative_uncertainty(sys).values
    res = []
    res.append(0.0 if intervals.contains(sys, p) else 1.0)
    lower = np.array(sys.lower_vector())
    res.append(float(np.max(np.abs(p.values - (lower + (1 - lower.sum()) * r_vec)))))
    # beta identity on the two singleton totals
    res.append(abs(b.value - (1 - totals.k_bel) / (totals.k_pl - totals.k_bel)))
    rb = transforms.relative_belief(m).values
    rp = transforms.relative_plausibility(m).values
    res.append(float(np.max(np.abs(p.values - (totals.k_bel * rb + (1 - totals.k_bel) * r_vec)))))
    res.append(
        float(
            np.max(
                np.abs(
                    rp - (totals.k_bel / totals.k_pl * rb + (1 - totals.k_bel / totals.k_pl) * r_vec)
                )
            )
        )
    )
    res.append(
        float(
            np.max(
                np.abs(
                    p.values
                    - ((1 - b.value) * totals.k_bel * rb + b.value * totals.k_pl * rp)
                )
            )
        )
    )
    res.append(abs(transforms.cardinality_profile(m).beta().value - b.value))
    vs = transforms.varsigma(m)
    res.append(float(np.max(np.abs(vs.singleton_values() - p.values))))
    res.append(
        abs(sum(v for a, v in vs.masses.items() if Frame.cardinality(a) > 1))
    )
    # contour of varsigma
    expected = b.value * m.singleton_values() + (1 - b.value) * contour(m)
    res.append(float(np.max(np.abs(contour(vs) - expected))))
    res.append(
        float(np.max(np.abs(transforms.sudano(m, "PrNPl").values - rp)))
    )
    # singleton-free collapse
    mf = random_mass(frame, int(rng.integers(2**31)), profile="singleton-free")
    sysf = intervals.from_belief(mf)
    pf = transforms.intersection_probability(sysf).values
    rf = transforms.relative_uncertainty(sysf).values
    rpf = transforms.relative_plausibility(mf).values
    res.append(float(np.max(np.abs(pf - rf))))
    res.append(float(np.max(np.abs(pf - rpf))))
    return [float(r) for r in res]


def _suite_geometry(rng: np.random.Generator, n: int) -> list[float]:
    frame = _frame(n)
    m = random_mass(frame, int(rng.integers(2**31)))
    sys = intervals.from_belief(m)
    p = transforms.intersection_probability(sys)
    r_vec = transforms.relative_uncertainty(sys).values
    b = transforms.beta(sys)
    lower = geometry.lower_simplex(m)
    upper = geometry.upper_simplex(m)
    res = []
    res.append(float(np.max(np.abs(geometry.affine_coords(p, lower) - r_vec))))
    res.append(float(np.max(np.abs(geometry.affine_coords(p, upper) - r_vec))))
    sf = geometry.special_focus(lower, upper)
    if sf is None or sf.degenerate:
        res.append(1.0)
    else:
        res.append(float(np.max(np.abs(sf.point - p.values))))
        res.append(abs(sf.common_alpha - b.value))
    # lower-simplex vertices are proper and affinely independent
    res.append(0.0 if all(v.proper for v in lower.vertices) else 1.0)
    res.append(0.0 if not lower.degenerate else 1.0)
    # vertex dominance
    singles_l = m.singleton_values()
    singles_u = contour(m)
    for v in lower.vertices:
        res.append(_worst([0.0, np.max(singles_l - v.values)]))
    for v in upper.vertices:
        res.append(_worst([0.0, np.max(v.values - singles_u)]))
    # barycentre combination
    bl = geometry.barycentre(lower).values
    bu = geometry.barycentre(upper).values
    res.append(float(np.max(np.abs(b.value * bu + (1 - b.value) * bl - p.values))))
    # pignistic is the mean of all ordering vertices
    if n <= 6:
        mean = np.mean(geometry.permutation_vertices(m), axis=0)
        res.append(float(np.max(np.abs(mean - transforms.pignistic(m).values))))
    return [float(r) for r in res]


def _suite_theorem6(rng: np.random.Generator, n: int) -> list[float]:
    frame = _frame(max(n, 3))
    k = int(rng.integers(2, frame.size + 1))
    support = [a for a in range(1, frame.full + 1) if Frame.cardinality(a) in (1, k)]
    weights = rng.exponential(size=len(support))
    weights /= weights.sum()
    m = MassFunction(frame, dict(zip(support, weights.tolist())))
    p = transforms.intersection_probability(intervals.from_belief(m)).values
    return [float(np.max(np.abs(transforms.pignistic(m).values - p)))]


def _non_bayesian(frame: Frame, seed: int) -> MassFunction:
    m = random_mass(frame, seed)
    if _d_coefficient(m) <= 1e-3:
        m = random_mass(frame, seed + 10_000_019)
    return m


def _suite_theorem1(rng: np.random.Generator, n: int) -> TheoremReport:
    frame = _frame(n)
    m = _non_bayesian(frame, int(rng.integers(2**31)))
    p = _random_distribution(frame, rng)
    return check_combination_equivalence(m, p)


def _suite_voorbraak(rng: np.random.Generator, n: int) -> TheoremReport:
    frame = _frame(n)
    m = random_mass(frame, int(rng.integers(2**31)))
    p = _random_distribution(frame, rng)
    return check_voorbraak(m, p)


def _suite_theorem7(rng: np.random.Generator, n: int) -> TheoremReport:
    frame = _frame(n)
    m1 = _non_bayesian(frame, int(rng.integers(2**31)))
    m2 = _non_bayesian(frame, int(rng.integers(2**31)))
    return check_affine_formula(m1, m2, float(rng.uniform(0.05, 0.95)))


def _suite_theorem89(rng: np.random.Generator, n: int) -> TheoremReport:
    frame = _frame(max(n, 3))
    m1 = _non_bayesian(frame, int(rng.integers(2**31)))
    residuals = []
    # constructed beta-equal partner (proportional size profile)
    m_beta = _scale_non_singletons(m1, float(rng.uniform(0.3, 0.9)))
    residuals.append(commutation_residual(m1, m_beta))
    # constructed R-equal partner (mixture with a Bayesian distribution)
    m_r = _r_equal_partner(m1, _random_distribution(frame, rng), float(rng.uniform(0.2, 0.7)))
    residuals.append(commutation_residual(m1, m_r))
    report = _report("commutation-constructed-pairs", 2, residuals)
    if not report.passed:
        report.counterexample = {"m1": m1.to_json()}
    return report


def run_all(seed: int, trials: int, max_n: int) -> list[TheoremReport]:
    """Run every invariant suite; deterministic given (seed, trials, max_n)."""
    if max_n > 6:
        raise ValueError("max_n above 6 makes the exhaustive checks explode")
    if max_n < 2:
        raise ValueError("need max_n >= 2")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    reports: list[TheoremReport] = []

    def sweep(name: str, suite: Callable, tol: float = DEFAULT_TOL, min_n: int = 2):
        residuals = []
        counterexample = None
        for t in range(trials):
            rng = np.random.default_rng(seed + t)
            n = int(rng.integers(min_n, max_n + 1))
            rs = suite(rng, n)
            worst = _worst(rs)
            if not worst <= tol and counterexample is None:
                counterexample = {"trial": t, "n": n}
            residuals.append(worst)
        reports.append(_report(name, trials, residuals, tol, counterexample))

    def aggregate(name: str, suite: Callable, min_n: int = 2):
        residuals = []
        counterexample = None
        total = 0
        for t in range(trials):
            rng = np.random.default_rng(seed + t)
            n = int(rng.integers(min_n, max_n + 1))
            rep = suite(rng, n)
            total += rep.trials
            residuals.append(rep.max_residual)
            if not rep.passed and counterexample is None:
                counterexample = rep.counterexample or {"trial": t, "n": n}
        rep = _report(name, total, residuals, DEFAULT_TOL, None)
        if not rep.passed:
            rep.counterexample = counterexample
        reports.append(rep)

    sweep("belief-identities", _suite_belief)
    sweep("combination-identities", _suite_combine)
    sweep("interval-identities", _suite_intervals)
    sweep("transform-identities", _suite_transforms)
    sweep("geometry-identities", _suite_geometry, min_n=3)
    sweep("pignistic-matches-intersection-on-1k-masses", _suite_theorem6, min_n=3)
    aggregate("voorbraak-representation", _suite_voorbraak)
    aggregate("combination-equivalence", _suite_theorem1)
    aggregate("affine-closed-form", _suite_theorem7)
    aggregate("commutation-constructed-pairs", _suite_theorem89, min_n=3)

    # witness search: generic pairs should fail to commute
    witnesses = 0
    generic = 0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        n = int(rng.integers(3, max_n + 1))
        frame = _frame(n)
        m1 = _non_bayesian(frame, int(rng.integers(2**31)))
        m2 = _non_bayesian(frame, int(rng.integers(2**31)))
        b1 = transforms.beta_of_mass(m1).value
        b2 = transforms.beta_of_mass(m2).value
        r1 = transforms.relative_uncertainty(intervals.from_belief(m1)).values
        r2 = transforms.relative_uncertainty(intervals.from_belief(m2)).values
        # demand a clearly generic pair: near-ties in beta or relative
        # uncertainty produce arbitrarily small non-commutation residuals
        if abs(b1 - b2) <= 1e-3 or np.max(np.abs(r1 - r2)) <= 1e-3:
            continue
        generic += 1
        if commutation_residual(m1, m2) > WITNESS_TOL:
            witnesses += 1
    ratio_missing = 0.0 if generic == 0 else 1.0 - witnesses / generic
    reports.append(
        TheoremReport(
            theorem="non-commutation-witnesses",
            trials=generic,
            max_residual=ratio_missing,
            tolerance=0.05,
            passed=ratio_missing <= 0.05,
        )
    )
    return reports
