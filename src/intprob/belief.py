"""Mass functions and the set functions derived from them.

Masses are stored sparsely (focal elements only); derived set functions
(belief, plausibility, Moebius inverse of plausibility) are plain arrays
indexed by mask over all 2^n events, since the frame is capped at desk
scale. The contour, plausibility on singletons, needs no such table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frame import Frame, FrameSizeError

EPS = 1e-9


@dataclass(frozen=True)
class MassFunction:
    """A (possibly pseudo) basic probability assignment over 2^Theta.

    ``pseudo=True`` admits negative masses (a normalised sum function);
    either way the masses must sum to one and the empty set carries none.
    """

    frame: Frame
    masses: dict[int, float] = field(default_factory=dict)
    pseudo: bool = False

    def __post_init__(self):
        clean = {}
        for mask, value in self.masses.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite mass {value!r} on mask {mask}")
            if not 0 <= mask <= self.frame.full:
                raise ValueError(f"mask {mask} outside frame of size {self.frame.size}")
            if mask == 0:
                if abs(value) > EPS:
                    raise ValueError("mass on the empty set must be zero")
                continue
            if abs(value) > EPS or value != 0.0:
                clean[mask] = float(value)
        total = sum(clean.values())
        if abs(total - 1.0) > EPS:
            raise ValueError(f"masses must sum to 1, got {total!r}")
        if not self.pseudo:
            for mask, value in clean.items():
                if value < -EPS:
                    raise ValueError(
                        f"negative mass {value!r} on {self.frame.members(mask)} "
                        "in a proper mass function"
                    )
            clean = {a: max(v, 0.0) for a, v in clean.items()}
        object.__setattr__(self, "masses", clean)

    def mass(self, mask: int) -> float:
        return self.masses.get(mask, 0.0)

    def focal_elements(self) -> list[int]:
        return sorted(a for a, v in self.masses.items() if v != 0.0)

    def dense(self) -> np.ndarray:
        """Masses as a dense table indexed by mask."""
        table = np.zeros(self.frame.full + 1)
        for mask, value in self.masses.items():
            table[mask] = value
        return table

    def singleton_values(self) -> np.ndarray:
        """Singleton masses in frame order."""
        return np.array([self.mass(1 << i) for i in range(self.frame.size)])

    def to_json(self) -> dict:
        return {
            "frame": list(self.frame.labels),
            "masses": [
                {"set": list(self.frame.members(a)), "mass": v}
                for a, v in sorted(self.masses.items())
            ],
            "pseudo": self.pseudo,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MassFunction":
        frame = Frame(tuple(doc["frame"]))
        masses: dict[int, float] = {}
        for entry in doc["masses"]:
            mask = frame.subset(entry["set"])
            masses[mask] = masses.get(mask, 0.0) + float(entry["mass"])
        return cls(frame, masses, pseudo=bool(doc.get("pseudo", False)))


@dataclass(frozen=True)
class SingletonTotals:
    k_bel: float
    k_pl: float


def _zeta(table: np.ndarray, n: int) -> np.ndarray:
    """Subset-sum transform: out[A] = sum_{B subseteq A} table[B]."""
    out = table.copy()
    for i in range(n):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] += out[mask ^ bit]
    return out


def _mobius(table: np.ndarray, n: int) -> np.ndarray:
    """Inverse of the subset-sum transform."""
    out = table.copy()
    for i in range(n):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def belief_values(m: MassFunction) -> np.ndarray:
    """Belief of every event, indexed by mask: total mass of its subsets."""
    return _zeta(m.dense(), m.frame.size)


def plausibility_values(m: MassFunction) -> np.ndarray:
    """Plausibility of every event, indexed by mask: total mass of the sets
    meeting it, read as 1 - Bel of the complement."""
    # the complement of mask is full - mask, so reversing the table pairs them
    return 1.0 - _zeta(m.dense(), m.frame.size)[::-1]


def mobius_plausibility(m: MassFunction) -> np.ndarray:
    """Moebius inverse of the plausibility function, indexed by mask.

    Sums to one over all events and reconstructs Pl by subset sums; on
    singletons it coincides with Pl itself.
    """
    return _mobius(plausibility_values(m), m.frame.size)


def contour(m: MassFunction) -> np.ndarray:
    """Plausibility of each singleton, in frame order.

    Pl({x}) is the total mass of the focal sets containing x, read off the
    focal masks' bits without a 2^n table; pseudo masses are handled alike.
    """
    masks = np.fromiter(m.masses, dtype=np.int64, count=len(m.masses))
    values = np.fromiter(m.masses.values(), dtype=float, count=len(m.masses))
    return values @ (masks[:, None] >> np.arange(m.frame.size) & 1)


def masses_from_belief(frame: Frame, bel: np.ndarray) -> MassFunction:
    """Recover the mass assignment from a belief table (Moebius inversion)."""
    table = _mobius(bel, frame.size)
    masses = {a: float(v) for a, v in enumerate(table) if a and abs(v) > EPS}
    pseudo = any(v < -EPS for v in masses.values())
    return MassFunction(frame, masses, pseudo=pseudo)


def singleton_totals(m: MassFunction) -> SingletonTotals:
    """Total singleton mass k_bel and total singleton plausibility k_pl."""
    return SingletonTotals(
        k_bel=float(m.singleton_values().sum()), k_pl=float(contour(m).sum())
    )


def classify(m: MassFunction) -> str:
    """'bayesian' (all focal sets singletons), 'consonant' (nested), else 'general'."""
    focal = m.focal_elements()
    if all(Frame.cardinality(a) == 1 for a in focal):
        return "bayesian"
    chain = sorted(focal, key=Frame.cardinality)
    if all(a & b == a for a, b in zip(chain, chain[1:])):
        return "consonant"
    return "general"


def parse_profile(profile: str) -> tuple[str, int | None]:
    """Parse a focal-support profile name like 'dense' or 'k-additive(2)'."""
    if profile in ("dense", "singleton-free"):
        return profile, None
    if profile.startswith("k-additive(") and profile.endswith(")"):
        k = int(profile[len("k-additive(") : -1])
        return "k-additive", k
    raise ValueError(f"unknown profile {profile!r}")


def random_mass(
    frame: Frame, seed: int, profile: str = "dense", k: int | None = None
) -> MassFunction:
    """Deterministic random mass function with the given focal-support profile.

    'dense' draws over every non-empty subset, 'k-additive(k)' over subsets
    of size at most k, 'singleton-free' over subsets of size at least two.
    Weights are exponential draws, normalised.
    """
    if isinstance(profile, str) and "(" in profile:
        profile, k = parse_profile(profile)
    if frame.size > 16:
        raise FrameSizeError("random_mass enumerates 2^n subsets; frame too large")
    if profile == "dense":
        support = [a for a in range(1, frame.full + 1)]
    elif profile == "k-additive":
        if k is None or not 1 <= k <= frame.size:
            raise ValueError("k-additive profile needs 1 <= k <= n")
        support = [a for a in range(1, frame.full + 1) if Frame.cardinality(a) <= k]
    elif profile == "singleton-free":
        if frame.size < 2:
            raise ValueError("singleton-free profile needs n >= 2")
        support = [a for a in range(1, frame.full + 1) if Frame.cardinality(a) >= 2]
    else:
        raise ValueError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=len(support))
    weights /= weights.sum()
    return MassFunction(frame, dict(zip(support, weights.tolist())))
