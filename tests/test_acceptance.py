"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Criterion 4 checks the combination identity of the varsigma pseudo mass in
its true form. The paper's claim that combining the intersection
probability with a Bayesian P gives the same result as combining varsigma
with P holds only when beta = 1/2 or m is Bayesian (README, "Known issue").
The claim as stated is reported false by the ``combination-equivalence``
report of ``intprob verify`` and by ``tests/test_verify.py``.
"""

import itertools
import time

import numpy as np
import pytest

from intprob import Frame, IntervalSystem, MassFunction
from intprob.belief import (
    mobius_plausibility,
    random_mass,
    singleton_totals,
)
from intprob import combine, geometry, intervals, transforms, verify


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    message = f"acceptance criterion {num}: {status}{suffix}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{message}")
    else:
        print(f"\n{message}")
    assert ok, f"criterion {num} failed{suffix}"


def _frame(n):
    return Frame(tuple(f"e{i}" for i in range(n)))


def _ternary_interval_system():
    return IntervalSystem(
        Frame(("x", "y", "z")),
        lower={"x": 0.2, "y": 0.4, "z": 0.3},
        upper={"x": 0.8, "y": 1.0, "z": 0.3},
    )


def _ternary_mass():
    f = Frame(("x", "y", "z"))
    return MassFunction(
        f,
        {
            f.subset(["x"]): 0.2,
            f.subset(["y"]): 0.1,
            f.subset(["z"]): 0.3,
            f.subset(["x", "y"]): 0.1,
            f.subset(["y", "z"]): 0.2,
            f.full: 0.1,
        },
    )


def _contour_mass():
    f = Frame(("x", "y", "z"))
    return MassFunction(
        f,
        {
            f.subset(["x"]): 0.1,
            f.subset(["z"]): 0.2,
            f.subset(["x", "y"]): 0.3,
            f.subset(["x", "z"]): 0.1,
            f.full: 0.3,
        },
    )


def _non_bayesian(frame, rng):
    m = random_mass(frame, int(rng.integers(2**31)))
    while sum(v for a, v in m.masses.items() if Frame.cardinality(a) > 1) < 1e-3:
        m = random_mass(frame, int(rng.integers(2**31)))
    return m


def test_criterion_1_interval_example():
    sys = _ternary_interval_system()
    transforms.intersection_probability(sys)  # warm-up
    start = time.perf_counter()
    b = transforms.beta(sys)
    r = transforms.relative_uncertainty(sys)
    p = transforms.intersection_probability(sys)
    elapsed = time.perf_counter() - start
    ok = (
        abs(b.value - 1 / 12) <= 1e-9
        and np.max(np.abs(r.values - [0.5, 0.5, 0.0])) <= 1e-9
        and np.max(np.abs(p.values - [0.25, 0.45, 0.3])) <= 1e-9
        and elapsed < 1e-3
    )
    _line(1, ok, f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_2_moebius_and_varsigma():
    m = _contour_mass()
    mu = mobius_plausibility(m)
    mu_expected = {1: 0.8, 2: 0.6, 4: 0.6, 3: -0.6, 5: -0.4, 6: -0.3, 7: 0.3}
    vs = transforms.varsigma(m)
    vs_expected = {1: 0.388, 2: 0.247, 4: 0.365, 3: -0.071, 5: -0.106, 6: -0.123, 7: 0.3}
    p = transforms.intersection_probability(intervals.from_belief(m))
    ok = (
        all(abs(mu[a] - v) <= 1e-3 for a, v in mu_expected.items())
        and all(abs(vs.mass(a) - v) <= 1e-3 for a, v in vs_expected.items())
        and np.max(np.abs(p.values - [0.388, 0.247, 0.365])) <= 1e-3
    )
    _line(2, ok)


def test_criterion_3_ternary_credal_example():
    m = _ternary_mass()
    expected = {
        (0.4, 0.3, 0.3),
        (0.4, 0.1, 0.5),
        (0.2, 0.5, 0.3),
        (0.3, 0.1, 0.6),
        (0.2, 0.2, 0.6),
    }
    got = {
        tuple(round(float(v), 9) for v in d.values)
        for d in geometry.credal_vertices(m)
    }
    rb = transforms.relative_belief(m).values
    rp = transforms.relative_plausibility(m).values
    # printed intersection-probability arithmetic for this example is
    # excluded as oracle; enforce self-consistency of the two forms instead
    sys = intervals.from_belief(m)
    b = transforms.beta(sys).value
    lower = np.array(sys.lower_vector())
    upper = np.array(sys.upper_vector())
    p = transforms.intersection_probability(sys).values
    self_consistent = (
        np.max(np.abs(p - (lower + b * (upper - lower)))) <= 1e-9
        and np.max(
            np.abs(
                p - (lower + (1 - lower.sum()) * transforms.relative_uncertainty(sys).values)
            )
        )
        <= 1e-9
    )
    ok = (
        got == expected
        and np.max(np.abs(rb - [1 / 3, 1 / 6, 1 / 2])) <= 1e-9
        and np.max(np.abs(rp - [4 / 15, 1 / 3, 2 / 5])) <= 1e-9
        and self_consistent
    )
    _line(3, ok)


def _contours(m):
    """beta, the contour of varsigma and the intersection probability of a
    non-Bayesian m, from its singleton masses and plausibilities alone."""
    n = m.frame.size
    single = np.array([m.mass(1 << i) for i in range(n)])
    pl = np.array([sum(v for a, v in m.masses.items() if a >> i & 1) for i in range(n)])
    b = (1.0 - single.sum()) / (pl.sum() - single.sum())
    return b, b * single + (1 - b) * pl, (1 - b) * single + b * pl


def test_criterion_4_voorbraak_and_combination_equivalence():
    """Voorbraak's representation, and the true combination identity of varsigma.

    Combining with a Bayesian P weights each singleton by the other
    operand's contour. With mu the Moebius inverse of Pl, the sets holding x
    carry mu-mass m(x) in total, so the contour of varsigma = m + beta (mu - m)
    is beta m(x) + (1 - beta) Pl(x), while the intersection probability is
    (1 - beta) m(x) + beta Pl(x). Hence varsigma combined with P is that
    contour times P, and the claim that the intersection probability
    combines with P to the same result holds only when beta = 1/2 or m is
    Bayesian. The criterion checks varsigma's combinations against the
    closed form, checks that the claim's residual is exactly the
    closed-form gap (nil on the beta = 1/2 pairs and only there), and that
    both kinds of pair occur.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    voorbraak, varsigma_res, claim_gaps, gap_errors = [], [], [], []
    half_pairs = 0
    misjudged = 0
    pairs = 0
    while pairs < 500:
        n = int(rng.integers(2, 6))
        frame = _frame(n)
        m = _non_bayesian(frame, rng)
        p = transforms.Distribution(frame, rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        rep_v = verify.check_voorbraak(m, p)
        rep_e = verify.check_combination_equivalence(m, p)
        if rep_v.trials == 0 or rep_e.trials == 0:
            continue
        pairs += 1
        voorbraak.append(rep_v.max_residual)
        b, contour, ip = _contours(m)
        vs_p = contour * p.values
        ip_p = ip * p.values
        vs = transforms.varsigma(m)
        dempster = combine.dempster(vs, p.as_mass())
        conjunctive = combine.conjunctive(vs, p.as_mass())
        expected = {1 << i: v for i, v in enumerate(vs_p)}
        keys = set(expected) | set(dempster.masses) | set(conjunctive.masses)
        varsigma_res.extend(
            abs(dempster.mass(a) - expected.get(a, 0.0) / vs_p.sum()) for a in keys
        )
        varsigma_res.extend(
            abs(conjunctive.masses.get(a, 0.0) - expected.get(a, 0.0)) for a in keys
        )
        varsigma_res.append(abs(conjunctive.conflict - (1.0 - vs_p.sum())))
        gap = np.max(
            np.concatenate(
                [
                    np.abs(ip_p / ip_p.sum() - vs_p / vs_p.sum()),
                    np.abs(ip_p - vs_p),
                    [abs(ip_p.sum() - vs_p.sum())],
                ]
            )
        )
        claim_gaps.append(rep_e.max_residual)
        gap_errors.append(abs(rep_e.max_residual - gap))
        half = abs(b - 0.5) <= 1e-9
        half_pairs += half
        misjudged += rep_e.passed != half
    elapsed = time.perf_counter() - start
    # np.max, unlike the builtin max, keeps a NaN wherever it comes
    worst_voorbraak = float(np.max(voorbraak))
    worst_varsigma = float(np.max(varsigma_res))
    worst_gap_error = float(np.max(gap_errors))
    ok = (
        worst_voorbraak <= 1e-9
        and worst_varsigma <= 1e-9
        and worst_gap_error <= 1e-9
        and misjudged == 0
        and 0 < half_pairs < pairs
        and elapsed < 10
    )
    _line(
        4,
        ok,
        f"voorbraak residual {worst_voorbraak:.3g}, "
        f"varsigma combination residual {worst_varsigma:.3g}, "
        f"equivalence residual {float(np.max(claim_gaps)):.3g} "
        f"(closed-form gap to {worst_gap_error:.3g}, nil on the {half_pairs} "
        f"of {pairs} pairs with beta = 1/2), runtime {elapsed:.1f} s",
    )


def test_criterion_5_affine_coordinates_and_special_focus():
    rng = np.random.default_rng(5)
    worst_coords = 0.0
    worst_focus = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = _non_bayesian(_frame(n), rng)
        sys = intervals.from_belief(m)
        p = transforms.intersection_probability(sys)
        r = transforms.relative_uncertainty(sys).values
        lower = geometry.lower_simplex(m)
        upper = geometry.upper_simplex(m)
        worst_coords = max(
            worst_coords,
            float(np.max(np.abs(geometry.affine_coords(p, lower) - r))),
            float(np.max(np.abs(geometry.affine_coords(p, upper) - r))),
        )
        sf = geometry.special_focus(lower, upper)
        if sf is None or sf.degenerate:
            worst_focus = 1.0
            continue
        worst_focus = max(
            worst_focus,
            float(np.max(np.abs(sf.point - p.values))),
            abs(sf.common_alpha - transforms.beta(sys).value),
        )
    ok = worst_coords <= 1e-9 and worst_focus <= 1e-8
    _line(5, ok, f"coords {worst_coords:.3g}, focus {worst_focus:.3g}")


def test_criterion_6_focus_counterexamples():
    s1 = np.array([[2, 2], [5, 2], [3, 5]], float)
    t1 = np.array([[3, 1], [5, 6], [2, 6]], float)
    no_focus = all(
        geometry.focus(s1, t1, perm) is None
        for perm in itertools.permutations(range(3))
    )
    s2 = np.array([[-2, -2], [0, 3], [1, 0]], float)
    t2 = np.array([[-1, 0], [0, -1], [2, 2]], float)
    result = geometry.focus(s2, t2, (2, 1, 0))
    found = (
        result is not None
        and not result.special
        and np.max(np.abs(np.array(result.line_coordinates) - [0.5, 0.25, 0.5]))
        <= 1e-12
        and np.max(np.abs(result.point)) <= 1e-12
    )
    _line(6, no_focus and found)


def test_criterion_7_pignistic_equals_intersection_on_1k_masses():
    rng = np.random.default_rng(7)
    residuals = []
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 7))
        frame = _frame(n)
        support = [
            a for a in range(1, frame.full + 1) if Frame.cardinality(a) in (1, k)
        ]
        weights = rng.exponential(size=len(support))
        weights /= weights.sum()
        m = MassFunction(frame, dict(zip(support, weights.tolist())))
        p = transforms.intersection_probability(intervals.from_belief(m)).values
        residuals.append(float(np.max(np.abs(transforms.pignistic(m).values - p))))
    worst = float(np.max(residuals))
    m = _ternary_mass()  # negative control: mixed focal sizes 1, 2 and 3
    control = float(
        np.max(
            np.abs(
                transforms.pignistic(m).values
                - transforms.intersection_probability(intervals.from_belief(m)).values
            )
        )
    )
    ok = worst <= 1e-9 and control > 1e-3
    _line(7, ok, f"residual {worst:.3g}, control gap {control:.3g}")


def test_criterion_8_affine_closed_form():
    rng = np.random.default_rng(8)
    residuals = []
    for _ in range(500):
        n = int(rng.integers(2, 6))
        frame = _frame(n)
        m1 = _non_bayesian(frame, rng)
        m2 = _non_bayesian(frame, rng)
        for a1 in (k / 10 for k in range(1, 10)):
            rep = verify.check_affine_formula(m1, m2, a1)
            residuals.append(rep.max_residual)
    worst = float(np.max(residuals))
    # binary closed form
    frame = _frame(2)
    binary_residuals = []
    for _ in range(50):
        m1 = _non_bayesian(frame, rng)
        m2 = _non_bayesian(frame, rng)
        t1, t2 = m1.mass(frame.full), m2.mass(frame.full)
        t_vec = verify.t_probability(m1, m2)
        expected = np.array(
            [
                t1 / (t1 + t2) * (m2.mass(1 << i) + t2 / 2)
                + t2 / (t1 + t2) * (m1.mass(1 << i) + t1 / 2)
                for i in range(2)
            ]
        )
        binary_residuals.append(float(np.max(np.abs(t_vec - expected))))
    binary_worst = float(np.max(binary_residuals))
    ok = worst <= 1e-9 and binary_worst <= 1e-9
    _line(8, ok, f"residual {worst:.3g}, binary {binary_worst:.3g}")


def test_criterion_9_commutation_criteria():
    rng = np.random.default_rng(9)
    constructed = []
    for _ in range(50):
        n = int(rng.integers(3, 6))
        frame = _frame(n)
        m1 = _non_bayesian(frame, rng)
        # equal-beta partner: non-singleton masses scaled uniformly
        m_beta = verify._scale_non_singletons(m1, float(rng.uniform(0.3, 0.9)))
        # equal-relative-uncertainty partner: mixture with a probability
        p = transforms.Distribution(frame, rng.dirichlet(np.ones(n)))
        m_r = combine.affine([0.6, 0.4], [m1, p.as_mass()])
        # same-size-profile partner: mass shuffled within each size bucket
        profile = transforms.cardinality_profile(m1).sigma
        masses = {}
        for k, total in profile.items():
            if total <= 0:
                continue
            bucket = [a for a in range(1, frame.full + 1) if Frame.cardinality(a) == k]
            weights = rng.exponential(size=len(bucket))
            weights = weights / weights.sum() * total
            for a, w in zip(bucket, weights):
                masses[a] = masses.get(a, 0.0) + float(w)
        m_sigma = MassFunction(frame, masses)
        for partner in (m_beta, m_r, m_sigma):
            constructed.append(verify.commutation_residual(m1, partner))
    constructed_worst = float(np.max(constructed))
    witnesses = 0
    generic = 0
    while generic < 100:
        n = int(rng.integers(3, 6))
        frame = _frame(n)
        m1 = _non_bayesian(frame, rng)
        m2 = _non_bayesian(frame, rng)
        b1 = transforms.beta_of_mass(m1).value
        b2 = transforms.beta_of_mass(m2).value
        r1 = transforms.relative_uncertainty(intervals.from_belief(m1)).values
        r2 = transforms.relative_uncertainty(intervals.from_belief(m2)).values
        if abs(b1 - b2) <= 1e-3 or np.max(np.abs(r1 - r2)) <= 1e-3:
            continue
        generic += 1
        if verify.commutation_residual(m1, m2) > 1e-6:
            witnesses += 1
    ok = constructed_worst <= 1e-9 and witnesses >= 95
    _line(9, ok, f"constructed residual {constructed_worst:.3g}, witnesses {witnesses}/100")


def test_criterion_10_structural_identities_and_runtime():
    rng = np.random.default_rng(10)
    residuals = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        frame = _frame(n)
        m = random_mass(frame, int(rng.integers(2**31)))
        sys = intervals.from_belief(m)
        totals = singleton_totals(m)
        b = transforms.beta(sys)
        p = transforms.intersection_probability(sys).values
        r = transforms.relative_uncertainty(sys).values
        rb = transforms.relative_belief(m).values
        rp = transforms.relative_plausibility(m).values
        residuals.append(float(np.max(np.abs(p - (totals.k_bel * rb + (1 - totals.k_bel) * r)))))
        ratio = totals.k_bel / totals.k_pl
        residuals.append(float(np.max(np.abs(rp - (ratio * rb + (1 - ratio) * r)))))
        residuals.append(abs(transforms.cardinality_profile(m).beta().value - b.value))
        mu = mobius_plausibility(m)
        for i in range(n):
            total = sum(mu[a] for a in range(1, frame.full + 1) if a >> i & 1)
            residuals.append(abs(total - m.mass(1 << i)))
        # affine combination commutes with conjunctive combination
        m2 = random_mass(frame, int(rng.integers(2**31)))
        m3 = random_mass(frame, int(rng.integers(2**31)))
        mix = combine.affine([0.4, 0.6], [m2, m3])
        left = combine.conjunctive(m, mix)
        r2 = combine.conjunctive(m, m2)
        r3 = combine.conjunctive(m, m3)
        for a in set(left.masses) | set(r2.masses) | set(r3.masses):
            residuals.append(
                abs(
                    left.masses.get(a, 0.0)
                    - 0.4 * r2.masses.get(a, 0.0)
                    - 0.6 * r3.masses.get(a, 0.0)
                )
            )
        # conflict-weighted split of a Dempster combination with a mixture
        k2 = combine.conjunctive(m, m2).normalisation
        k3 = combine.conjunctive(m, m3).normalisation
        g2 = 0.4 * k2 / (0.4 * k2 + 0.6 * k3)
        d_left = combine.dempster(m, mix)
        d_right = combine.affine(
            [g2, 1 - g2], [combine.dempster(m, m2), combine.dempster(m, m3)]
        )
        for a in set(d_left.masses) | set(d_right.masses):
            residuals.append(abs(d_left.mass(a) - d_right.mass(a)))
        # barycentre combination and lower-simplex properness
        lower = geometry.lower_simplex(m)
        upper = geometry.upper_simplex(m)
        combo = (
            b.value * geometry.barycentre(upper).values
            + (1 - b.value) * geometry.barycentre(lower).values
        )
        residuals.append(float(np.max(np.abs(combo - p))))
        for v in lower.vertices:
            residuals.append(float(np.maximum(0.0, -np.min(v.values))))
        # pignistic as mean of ordering vertices
        mean = np.mean(geometry.permutation_vertices(m), axis=0)
        residuals.append(float(np.max(np.abs(mean - transforms.pignistic(m).values))))
    worst = float(np.max(residuals))
    start = time.perf_counter()
    verify.run_all(seed=42, trials=100, max_n=4)
    suite_elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and suite_elapsed < 60
    _line(10, ok, f"residual {worst:.3g}, verify suite {suite_elapsed:.1f} s")
