"""Finite frames of discernment and bit-mask subset algebra.

Every other module indexes set functions by integer masks against a
:class:`Frame`: bit ``i`` set means the ``i``-th label is a member, mask 0
is the empty set and the full mask is the whole frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_FRAME_SIZE = 24
MAX_PERMUTATION_SIZE = 10


class FrameSizeError(ValueError):
    """Frame too large for an exhaustive (2^n or n!) operation."""


@dataclass(frozen=True)
class Frame:
    """An ordered finite set of distinct world states."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not 1 <= len(self.labels) <= MAX_FRAME_SIZE:
            raise FrameSizeError(
                f"frame size must be in 1..{MAX_FRAME_SIZE}, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("frame labels must be unique")
        if any(not lbl for lbl in self.labels):
            raise ValueError("frame labels must be nonempty")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        """Mask of the whole frame."""
        return (1 << self.size) - 1

    def singleton(self, label: str) -> int:
        return 1 << self.labels.index(label)

    def subset(self, labels) -> int:
        """Mask for an iterable of member labels."""
        mask = 0
        for lbl in labels:
            mask |= self.singleton(lbl)
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Member labels of a mask, in frame order."""
        return tuple(lbl for i, lbl in enumerate(self.labels) if mask >> i & 1)

    def complement(self, mask: int) -> int:
        return self.full & ~mask

    @staticmethod
    def cardinality(mask: int) -> int:
        return mask.bit_count()


def enumerate_subsets(frame: Frame, include_empty: bool = True) -> list[int]:
    """All subsets of the frame in ascending mask order."""
    start = 0 if include_empty else 1
    return list(range(start, frame.full + 1))


def permutations(frame: Frame):
    """All orderings of singleton indices, in lexicographic order.

    Refuses frames above MAX_PERMUTATION_SIZE elements: the n! blow-up
    makes exhaustive enumeration pointless beyond that.
    """
    if frame.size > MAX_PERMUTATION_SIZE:
        raise FrameSizeError(
            f"refusing to enumerate {frame.size}! orderings "
            f"(limit {MAX_PERMUTATION_SIZE})"
        )
    return itertools.permutations(range(frame.size))
