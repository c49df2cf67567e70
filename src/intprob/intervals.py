"""Probability-interval systems: per-singleton lower/upper bounds.

A system (l, u) carves the credal set { p : l(x) <= p(x) <= u(x) } out
of the probability simplex. Consistency means that set is nonempty;
tightness means every individual bound is actually attained by some
member distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .belief import EPS, MassFunction, contour
from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .transforms import Distribution


class InconsistentSystemError(ValueError):
    """Interval system with an empty credal set."""


@dataclass(frozen=True)
class IntervalSystem:
    frame: Frame
    lower: dict[str, float]
    upper: dict[str, float]

    def __post_init__(self):
        for bounds, name in ((self.lower, "lower"), (self.upper, "upper")):
            if set(bounds) != set(self.frame.labels):
                raise ValueError(f"{name} bounds must cover exactly the frame labels")
        for x in self.frame.labels:
            l, u = self.lower[x], self.upper[x]
            if not -EPS <= l <= u + EPS or u > 1 + EPS:
                raise ValueError(f"need 0 <= l <= u <= 1 at {x!r}, got ({l!r}, {u!r})")

    def l(self, label: str) -> float:
        return self.lower[label]

    def u(self, label: str) -> float:
        return self.upper[label]

    def width(self, label: str) -> float:
        return self.upper[label] - self.lower[label]

    def lower_vector(self) -> list[float]:
        return [self.lower[x] for x in self.frame.labels]

    def upper_vector(self) -> list[float]:
        return [self.upper[x] for x in self.frame.labels]

    def to_json(self) -> dict:
        return {
            "frame": list(self.frame.labels),
            "lower": dict(self.lower),
            "upper": dict(self.upper),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IntervalSystem":
        frame = Frame(tuple(doc["frame"]))
        return cls(
            frame,
            {x: float(v) for x, v in doc["lower"].items()},
            {x: float(v) for x, v in doc["upper"].items()},
        )


@dataclass(frozen=True)
class BoundReport:
    """Reachability of the two bounds at one singleton."""

    label: str
    lower_reachable: bool
    upper_reachable: bool
    tight_lower: float
    tight_upper: float


def from_belief(m: MassFunction) -> IntervalSystem:
    """Singleton belief/plausibility intervals l(x) = m(x), u(x) = Pl(x)."""
    if m.pseudo:
        raise ValueError("interval systems require a proper mass function")
    labels = m.frame.labels
    lower = dict(zip(labels, m.singleton_values().tolist()))
    upper = dict(zip(labels, contour(m).tolist()))
    return IntervalSystem(m.frame, lower, upper)


def check_consistency(sys: IntervalSystem) -> str:
    """'consistent' iff some probability fits every interval, else 'empty'."""
    total_l = sum(sys.lower.values())
    total_u = sum(sys.upper.values())
    ok = total_l <= 1 + EPS and total_u >= 1 - EPS
    return "consistent" if ok else "empty"


def _require_consistent(sys: IntervalSystem) -> None:
    if check_consistency(sys) != "consistent":
        raise InconsistentSystemError("interval system has an empty credal set")


def check_tightness(sys: IntervalSystem) -> tuple[list[BoundReport], IntervalSystem]:
    """Per-singleton reachability report and the tightened system.

    l(x) is attainable iff l(x) + sum of the other uppers >= 1; u(x) iff
    u(x) + sum of the other lowers <= 1. Unreachable bounds are pulled in
    to the attainable extremes, which leaves the credal set unchanged.
    """
    _require_consistent(sys)
    total_l = sum(sys.lower.values())
    total_u = sum(sys.upper.values())
    reports = []
    tight_lower = {}
    tight_upper = {}
    for x in sys.frame.labels:
        l, u = sys.l(x), sys.u(x)
        rest_u = total_u - u
        rest_l = total_l - l
        l_ok = l + rest_u >= 1 - EPS
        u_ok = u + rest_l <= 1 + EPS
        tl = l if l_ok else max(l, 1 - rest_u)
        tu = u if u_ok else min(u, 1 - rest_l)
        tight_lower[x] = tl
        tight_upper[x] = tu
        reports.append(BoundReport(x, l_ok, u_ok, tl, tu))
    return reports, IntervalSystem(sys.frame, tight_lower, tight_upper)


def event_bounds(sys: IntervalSystem, mask: int) -> tuple[float, float]:
    """Lower and upper probability of an event under the system."""
    _require_consistent(sys)
    in_l = in_u = out_l = out_u = 0.0
    for i, x in enumerate(sys.frame.labels):
        if mask >> i & 1:
            in_l += sys.l(x)
            in_u += sys.u(x)
        else:
            out_l += sys.l(x)
            out_u += sys.u(x)
    return max(in_l, 1 - out_u), min(in_u, 1 - out_l)


def contains(sys: IntervalSystem, p: "Distribution") -> bool:
    """Whether a proper distribution satisfies every singleton interval."""
    if p.frame != sys.frame:
        raise ValueError("distribution and system live on different frames")
    if not p.proper:
        raise ValueError("membership is defined for proper distributions")
    return all(
        sys.l(x) - EPS <= p.value(x) <= sys.u(x) + EPS for x in sys.frame.labels
    )
