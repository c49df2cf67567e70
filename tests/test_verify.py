import json
import math

import numpy as np
import pytest

from intprob import Frame, MassFunction, verify
from intprob.belief import random_mass
from intprob.transforms import Distribution, beta_of_mass
from intprob.verify import (
    check_affine_formula,
    check_combination_equivalence,
    check_commutation_criteria,
    check_voorbraak,
    commutation_residual,
    run_all,
    t_probability,
)


def _uniform(frame):
    return Distribution(frame, np.full(frame.size, 1.0 / frame.size))


def test_voorbraak_passes(contour_mass):
    report = check_voorbraak(contour_mass, _uniform(contour_mass.frame))
    assert report.passed


def test_voorbraak_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        m = random_mass(frame, int(rng.integers(2**31)))
        p = Distribution(frame, rng.dirichlet(np.ones(n)))
        assert check_voorbraak(m, p).passed


def test_combination_equivalence_is_a_known_failure(contour_mass):
    """The claimed identity between combining the intersection probability
    and combining the varsigma pseudo mass does not hold in general; the
    check must report it honestly rather than hide it."""
    report = check_combination_equivalence(contour_mass, _uniform(contour_mass.frame))
    assert not report.passed
    assert report.max_residual > 1e-3
    assert report.counterexample is not None


def test_combination_equivalence_binary_case():
    """On binary frames the interval fraction is always 1/2 and the
    identity does hold."""
    frame = Frame(("a", "b"))
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_mass(frame, int(rng.integers(2**31)))
        if beta_of_mass(m).degenerate:
            continue
        p = Distribution(frame, rng.dirichlet(np.ones(2)))
        assert check_combination_equivalence(m, p).passed


def test_affine_formula(contour_mass, ternary_mass):
    for a1 in (0.0, 0.3, 0.5, 0.8, 1.0):
        assert check_affine_formula(contour_mass, ternary_mass, a1).passed


def test_affine_formula_binary_closed_form():
    frame = Frame(("a", "b"))
    rng = np.random.default_rng(13)
    for _ in range(20):
        m1 = random_mass(frame, int(rng.integers(2**31)))
        m2 = random_mass(frame, int(rng.integers(2**31)))
        t1, t2 = m1.mass(frame.full), m2.mass(frame.full)
        if min(t1, t2) < 1e-6:
            continue
        t_vec = t_probability(m1, m2)
        expected = np.array(
            [
                t1 / (t1 + t2) * (m2.mass(1 << i) + t2 / 2)
                + t2 / (t1 + t2) * (m1.mass(1 << i) + t1 / 2)
                for i in range(2)
            ]
        )
        assert t_vec == pytest.approx(expected, abs=1e-9)


def test_affine_formula_rejects_bayesian(frame_xyz, ternary_mass):
    bayes = MassFunction(frame_xyz, {1: 0.2, 2: 0.3, 4: 0.5})
    with pytest.raises(ValueError):
        check_affine_formula(bayes, ternary_mass, 0.5)


def test_commutation_criteria(contour_mass, ternary_mass):
    # generic pair with different beta and different relative uncertainty
    assert commutation_residual(contour_mass, ternary_mass) > 1e-6
    assert check_commutation_criteria(contour_mass, ternary_mass).passed


def test_commutation_of_two_additive_pairs():
    frame = Frame(("a", "b", "c"))
    rng = np.random.default_rng(19)
    for _ in range(10):
        m1 = random_mass(frame, int(rng.integers(2**31)), profile="k-additive(2)")
        m2 = random_mass(frame, int(rng.integers(2**31)), profile="k-additive(2)")
        assert commutation_residual(m1, m2) <= 1e-9


def test_commutation_under_label_symmetry():
    """Relabelling singletons preserves the size profile, hence beta, and
    the pair must commute."""
    frame = Frame(("a", "b", "c"))
    m1 = random_mass(frame, 23)
    perm = {0: 1, 1: 2, 2: 0}
    remapped = {}
    for a, v in m1.masses.items():
        new = 0
        for i in range(3):
            if a >> i & 1:
                new |= 1 << perm[i]
        remapped[new] = v
    m2 = MassFunction(frame, remapped)
    assert abs(beta_of_mass(m1).value - beta_of_mass(m2).value) < 1e-12
    assert commutation_residual(m1, m2) <= 1e-9


def test_run_all_reports():
    reports = run_all(seed=42, trials=20, max_n=4)
    names = {r.theorem for r in reports}
    assert "belief-identities" in names
    assert "non-commutation-witnesses" in names
    for r in reports:
        parsed = json.loads(r.to_jsonl())
        assert parsed["theorem"] == r.theorem
    # the one honest failure: the combination-equivalence claim
    failing = {r.theorem for r in reports if not r.passed}
    assert failing == {"combination-equivalence"}


def test_run_all_deterministic():
    a = [r.to_jsonl() for r in run_all(seed=7, trials=10, max_n=4)]
    b = [r.to_jsonl() for r in run_all(seed=7, trials=10, max_n=4)]
    assert a == b


def test_run_all_guards():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            run_all(seed=1, trials=trials, max_n=4)
    with pytest.raises(ValueError):
        run_all(seed=1, trials=1, max_n=7)


def test_report_fails_a_nan_residual_wherever_it_comes():
    nan = float("nan")
    for residuals in ([0.0, nan], [nan, 0.0], [1e-12, nan, 1e-12]):
        report = verify._report("x", len(residuals), residuals)
        assert not report.passed
        assert math.isnan(report.max_residual)


def test_run_all_fails_a_nan_residual(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(verify, "_suite_belief", lambda rng, n: [0.0, nan])
    later = iter([0.0, nan, 0.0])
    monkeypatch.setattr(
        verify,
        "_suite_voorbraak",
        lambda rng, n: verify._report("voorbraak-representation", 1, [next(later)]),
    )
    reports = {r.theorem: r for r in run_all(seed=42, trials=3, max_n=4)}
    belief = reports["belief-identities"]
    assert not belief.passed and math.isnan(belief.max_residual)
    assert belief.counterexample["trial"] == 0
    voorbraak = reports["voorbraak-representation"]
    assert not voorbraak.passed and math.isnan(voorbraak.max_residual)
