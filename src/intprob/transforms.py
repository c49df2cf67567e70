"""Probability transforms of mass functions and interval systems.

The central object is the intersection probability: the unique member
of an interval system obtained by adding the same fraction beta of each
interval's width to its lower bound. The other classical transforms
(pignistic, relative belief/plausibility, Sudano's family, the
varsigma pseudo mass) live here too so they can be compared on equal
footing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import EPS, MassFunction, contour, mobius_plausibility, singleton_totals
from .frame import Frame
from .intervals import IntervalSystem, _require_consistent


class ZeroSingletonMassError(ValueError):
    """Relative belief of singletons is undefined when no singleton has mass."""


class DegenerateBetaError(ValueError):
    """Zero total interval width with lower bounds not summing to one."""


@dataclass(frozen=True)
class Distribution:
    """A (pseudo-)probability vector over the singletons of a frame."""

    frame: Frame
    values: np.ndarray
    proper: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.frame.size,):
            raise ValueError("need one value per frame element")
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value in a distribution: {values.tolist()!r}")
        if abs(values.sum() - 1.0) > 1e-6:
            raise ValueError(f"distribution must sum to 1, got {values.sum()!r}")
        if self.proper and (values < -EPS).any():
            raise ValueError("negative value in a proper distribution")

    def value(self, label: str) -> float:
        return float(self.values[self.frame.labels.index(label)])

    def as_mass(self) -> MassFunction:
        """The Bayesian mass function carried by this vector."""
        return MassFunction(
            self.frame,
            {1 << i: float(v) for i, v in enumerate(self.values) if v != 0.0},
            pseudo=not self.proper,
        )

    def to_json(self) -> dict:
        return {x: float(v) for x, v in zip(self.frame.labels, self.values)}


@dataclass(frozen=True)
class BetaCoefficient:
    """The shared interval fraction (1 - sum l) / sum (u - l)."""

    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class CardinalityProfile:
    """Total mass sigma_k carried by focal elements of each size k."""

    sigma: dict[int, float]

    def beta(self) -> BetaCoefficient:
        """Reconstruct beta from the size profile alone."""
        num = sum(v for k, v in self.sigma.items() if k >= 2)
        den = sum(k * v for k, v in self.sigma.items() if k >= 2)
        if den <= EPS:
            return BetaCoefficient(0.0, degenerate=True)
        return BetaCoefficient(num / den)


def beta(sys: IntervalSystem) -> BetaCoefficient:
    """Fraction of each interval's width the credal set forces on average."""
    _require_consistent(sys)
    total_l = sum(sys.lower.values())
    total_width = sum(sys.upper.values()) - total_l
    if total_width <= EPS:
        return BetaCoefficient(0.0, degenerate=True)
    return BetaCoefficient((1.0 - total_l) / total_width)


def beta_of_mass(m: MassFunction) -> BetaCoefficient:
    """Beta of the singleton belief/plausibility intervals of a mass function."""
    totals = singleton_totals(m)
    width = totals.k_pl - totals.k_bel
    if width <= EPS:
        return BetaCoefficient(0.0, degenerate=True)
    return BetaCoefficient((1.0 - totals.k_bel) / width)


def intersection_probability(sys: IntervalSystem) -> Distribution:
    """l(x) plus the shared fraction beta of the interval width at x."""
    b = beta(sys)
    lower = np.array(sys.lower_vector())
    if b.degenerate:
        if abs(lower.sum() - 1.0) > EPS:
            raise DegenerateBetaError(
                "zero-width system whose lower bounds do not form a probability"
            )
        return Distribution(sys.frame, lower)
    upper = np.array(sys.upper_vector())
    return Distribution(sys.frame, lower + b.value * (upper - lower))


def relative_uncertainty(sys: IntervalSystem) -> Distribution:
    """Interval widths normalised into a distribution."""
    _require_consistent(sys)
    widths = np.array(sys.upper_vector()) - np.array(sys.lower_vector())
    total = widths.sum()
    if total <= EPS:
        raise DegenerateBetaError("all interval widths are zero")
    return Distribution(sys.frame, widths / total)


def varsigma(m: MassFunction) -> MassFunction:
    """Pseudo mass m(A) + beta (mu(A) - m(A)), mu the Moebius inverse of Pl.

    Its singleton masses reproduce the intersection probability and its
    non-singleton masses sum to zero. Bayesian inputs are returned
    unchanged (beta is degenerate there).
    """
    b = beta_of_mass(m)
    if b.degenerate:
        return m
    mu = mobius_plausibility(m)
    masses = {}
    for a in range(1, m.frame.full + 1):
        v = m.mass(a) + b.value * (float(mu[a]) - m.mass(a))
        if abs(v) > EPS:
            masses[a] = v
    return MassFunction(m.frame, masses, pseudo=True)


def pignistic(m: MassFunction) -> Distribution:
    """Each focal mass split equally among its members."""
    values = np.zeros(m.frame.size)
    for a, v in m.masses.items():
        share = v / Frame.cardinality(a)
        for i in range(m.frame.size):
            if a >> i & 1:
                values[i] += share
    return Distribution(m.frame, values)


def relative_belief(m: MassFunction) -> Distribution:
    """Singleton masses renormalised to one."""
    singles = m.singleton_values()
    total = singles.sum()
    if total <= EPS:
        raise ZeroSingletonMassError("no mass on singletons")
    return Distribution(m.frame, singles / total)


def relative_plausibility(m: MassFunction) -> Distribution:
    """Singleton plausibilities renormalised to one."""
    singles = contour(m)
    return Distribution(m.frame, singles / singles.sum())


SUDANO_NAMES = ("PrPl", "PrBel", "PrNPl", "PraPl")


def sudano(m: MassFunction, which: str) -> Distribution:
    """One of Sudano's four redistribution transforms."""
    if which not in SUDANO_NAMES:
        raise ValueError(f"unknown transform {which!r}; choose from {SUDANO_NAMES}")
    n = m.frame.size
    if which == "PrNPl":
        return relative_plausibility(m)
    if which == "PraPl":
        singles, pl = m.singleton_values(), contour(m)
        return Distribution(m.frame, singles + (1.0 - singles.sum()) / pl.sum() * pl)
    if which == "PrPl":
        weights = contour(m)
    else:  # PrBel: weight singletons by their own mass
        weights = m.singleton_values()
    values = np.zeros(n)
    for a, v in m.masses.items():
        members = [i for i in range(n) if a >> i & 1]
        den = sum(weights[i] for i in members)
        if den <= EPS:
            raise ValueError(
                f"{which} undefined: focal set {m.frame.members(a)} has zero "
                "total singleton weight"
            )
        for i in members:
            values[i] += v * weights[i] / den
    return Distribution(m.frame, values)


def pra_pl_interval(sys: IntervalSystem) -> Distribution:
    """Interval form of PraPl: l(x) plus a common multiple of u(x).

    Sums to one but is not guaranteed to satisfy the intervals (it
    overshoots any zero-width bound with u(x) > 0).
    """
    _require_consistent(sys)
    lower = np.array(sys.lower_vector())
    upper = np.array(sys.upper_vector())
    scale = (1.0 - lower.sum()) / upper.sum()
    return Distribution(sys.frame, lower + scale * upper)


def cardinality_profile(m: MassFunction) -> CardinalityProfile:
    """Mass bucketed by focal-element size."""
    sigma = {k: 0.0 for k in range(1, m.frame.size + 1)}
    for a, v in m.masses.items():
        sigma[Frame.cardinality(a)] += v
    return CardinalityProfile(sigma)
