"""Output checks for the benchmark, independent of the code under test.

Every check rebuilds the expected answer from focal-set bit masks and mass
values with plain numpy, using only the identities the paper states, and
raises :class:`Mismatch` when an output disagrees. Nothing here imports
``intprob``: an output object is read only through its public attributes
(``masses``, ``values``) or through the JSON the CLI prints.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
# Dempster's contour identity is exact algebra; it holds to ~1e-15 here.
CONTOUR_TOL = 1e-12


class Mismatch(Exception):
    """An operation returned an output that fails its oracle."""


def member_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(|F|, n) 0/1 matrix: row A, column x is 1 iff x is in A."""
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def mass_arrays(m) -> tuple[np.ndarray, np.ndarray]:
    """Focal masks and masses of an output mass function."""
    masks = np.fromiter(m.masses.keys(), dtype=np.int64, count=len(m.masses))
    values = np.fromiter(m.masses.values(), dtype=float, count=len(m.masses))
    return masks, values


def contour(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Singleton plausibility Pl({x}) = sum of the masses of the sets containing x."""
    return values @ member_bits(masks, n)


def singleton_masses(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    for i in range(n):
        out[i] = values[masks == (1 << i)].sum()
    return out


def intersection(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """l + beta (u - l) with l = m({x}), u = Pl({x})."""
    lower = singleton_masses(masks, values, n)
    upper = contour(masks, values, n)
    width = (upper - lower).sum()
    if width <= TOL:
        return lower
    return lower + (1.0 - lower.sum()) / width * (upper - lower)


def pignistic(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    bits = member_bits(masks, n)
    return (values / bits.sum(axis=1)) @ bits


def close(name: str, got, expected, tol: float = TOL) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise Mismatch(f"{name}: shape {got.shape}, expected {expected.shape}")
    gap = np.abs(got - expected)
    if not np.all(gap <= tol):  # also catches NaN
        raise Mismatch(f"{name}: off by {np.nanmax(gap) if gap.size else 'nan'!r}")


def check_distribution(name: str, got, expected, tol: float = TOL) -> None:
    close(name, got, expected, tol)
    close(f"{name} sum", np.sum(got), 1.0)


def pairs(a: tuple, b: tuple, chunk: int = 1 << 16):
    """Intersection mask and mass product of every pair of focal sets.

    Yields them about ``chunk`` pairs at a time, so that the oracle's arrays
    stay small next to the memory the operation itself uses.
    """
    (a_masks, a_values), (b_masks, b_values) = a, b
    rows = max(1, chunk // len(b_masks))
    for i in range(0, len(a_masks), rows):
        yield (np.bitwise_and.outer(a_masks[i:i + rows], b_masks).ravel(),
               np.outer(a_values[i:i + rows], b_values).ravel())


def dempster(a: tuple, b: tuple, n: int) -> np.ndarray:
    """Dempster's rule on focal masks, as a 2^n mass table.

    m(A) = sum of m_a(B) m_b(C) over B & C = A, over 1 - kappa, where kappa
    is the mass of the pairs with an empty intersection.
    """
    table = np.zeros(1 << n)
    for meet, product in pairs(a, b):
        table += np.bincount(meet, weights=product, minlength=1 << n)
    kappa = table[0]
    table[0] = 0.0
    return table / (1.0 - kappa)


def conflict(a: tuple, b: tuple) -> float:
    """kappa: the mass of the pairs of focal sets with an empty intersection."""
    return float(sum(product[meet == 0].sum() for meet, product in pairs(a, b)))


def mass_table(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    table = np.zeros(1 << n)
    table[masks] = values
    return table


def check_fusion(item: dict, out: dict) -> None:
    """Every chain step, the fused intersection probability and the ranking.

    The expected chain is fused here from the sources' masks alone. Each
    step's output must meet Dempster's contour identity against its own
    inputs, to rounding, and match the expected masses. Rounding errors grow
    along a chain as the sum error does, by about 1 / (1 - kappa) a step,
    and each chain's masses are off in proportion to its own sum error, so
    the mass check allows both chains' sum errors on top.
    """
    n = item["n"]
    sources = [(s["masks"], s["values"]) for s in item["sources"]]
    if len(out["steps"]) != len(sources) - 1:
        raise Mismatch(f"{len(out['steps'])} Dempster steps for {len(sources)} sources")
    expected = mass_table(*sources[0], n)
    got_prev = sources[0]
    for i, (source, step) in enumerate(zip(sources[1:], out["steps"]), 1):
        got = mass_arrays(step)
        (prev_masks,) = np.nonzero(expected)
        expected = dempster((prev_masks, expected[prev_masks]), source, n)
        identity = contour(*got_prev, n) * contour(*source, n) / (1.0 - conflict(got_prev, source))
        close(f"Dempster contour, step {i}", contour(*got, n), identity, tol=CONTOUR_TOL)
        drift = abs(expected.sum() - 1.0) + abs(got[1].sum() - 1.0)
        close(f"Dempster masses, step {i}", mass_table(*got, n), expected, tol=CONTOUR_TOL + drift)
        got_prev = got
    (masks,) = np.nonzero(expected)
    fused = (masks, expected[masks])
    # intprob accepts masses summing to 1 within 1e-9. Off by d, Pl({x}) read
    # as 1 - Bel(not x) moves by d and the intersection probability by up to
    # (n + 1)|d|, so the two chains' sum errors widen this one check.
    tol = TOL + (n + 1) * drift
    p = intersection(*fused, n)
    check_distribution("fused intersection probability", out["intersection"].values, p, tol)
    if "pignistic" in out:
        check_distribution("fused pignistic", out["pignistic"].values, pignistic(*fused, n))
    check_ranking(out["ranking"], item["options"], item["utilities"], p, n * tol)


def check_ranking(ranking, options, utilities: np.ndarray, p: np.ndarray, tol: float) -> None:
    """Options by decreasing expected utility, ties by name, as ``intprob decide``."""
    if sorted(opt for opt, _ in ranking) != sorted(options):
        raise Mismatch("ranking does not hold every option once")
    if ranking != sorted(ranking, key=lambda pair: (-pair[1], pair[0])):
        raise Mismatch("ranking is not by decreasing expected utility")
    expected = dict(zip(options, utilities @ p))
    for option, eu in ranking:
        close(f"expected utility of {option}", eu, expected[option], tol)


def check_verify(code: int, reports: list[dict]) -> None:
    """The paper's combination-equivalence claim fails; every other check passes.

    ``reports`` are the JSON reports ``intprob verify`` prints, one a line;
    a failed report makes it exit with its documented code 3.
    """
    by_name = {r["theorem"]: r for r in reports}
    if "combination-equivalence" not in by_name:
        raise Mismatch("no combination-equivalence report")
    if by_name["combination-equivalence"]["passed"]:
        raise Mismatch("combination-equivalence passed; the claim is false in general")
    for r in reports:
        if math.isnan(r["max_residual"]):
            raise Mismatch(f"{r['theorem']}: NaN residual")
        if r["theorem"] != "combination-equivalence" and not r["passed"]:
            raise Mismatch(f"{r['theorem']} failed with residual {r['max_residual']!r}")
    if code != 3:
        raise Mismatch(f"intprob verify exited {code}, expected 3 for a failed report")
