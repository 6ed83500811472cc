"""Acceptance gate: every shipped guarantee, at its stated scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  The heavy LP and martingale criterion families share one
seeded run via module-scoped fixtures; all inequality checks inside them
are exact rational comparisons with zero tolerated violations.

  1  phi_sup <= psi + v*ramp(total)      500 instances, < 2 minutes
  2  phi_norm <= psi_norm, = at n=1      same family
  3  psi section decomposition           500 instances incl. n=1
  4  projection/section commutation      100 arity-3 tables
  5  duality certificates + all-pairs    every solve + 50 cross-checks
  6  chain eta values, product identity  exact ground truth
  7  sum V_i^2 mixing bound              300 instances, per-coordinate too
  8  conditional-mean-zero, translation  same instances
  9  Monte Carlo tails under bounds      1e5 samples, < 30 s, reproducible
 10  spot values vs independent oracles  exact / 1e-9 above, 4 ulps below
"""

import random

import pytest

from hammix.selftest import (
    DEFAULT_SEED,
    CriterionResult,
    SelftestReport,
    _draw_lp_instance,
    commutation_criterion,
    decomposition_criterion,
    lp_criteria,
    martingale_criteria,
    mixing_ground_truth_criterion,
    montecarlo_criterion,
    spot_values_criterion,
)

LP_INSTANCES = 500
MARTINGALE_INSTANCES = 300


def _report(result):
    print(result.line())
    assert result.passed, result.line() + f" detail={result.detail}"


@pytest.fixture(scope="module")
def lp_results():
    return lp_criteria(LP_INSTANCES, DEFAULT_SEED, reduction_count=50)


@pytest.fixture(scope="module")
def martingale_results():
    return martingale_criteria(MARTINGALE_INSTANCES, DEFAULT_SEED + 4)


def test_criterion_01_lp_supremum_bound(lp_results):
    c1, _, _ = lp_results
    assert c1.checked == LP_INSTANCES
    assert c1.detail["elapsed_seconds"] < 120.0
    _report(c1)


def test_criterion_02_norm_bound_and_n1_tightness(lp_results):
    _, c2, _ = lp_results
    assert c2.checked == LP_INSTANCES
    assert c2.detail["n1_equality_failures"] == 0
    _report(c2)


def test_criterion_03_psi_decomposition():
    result = decomposition_criterion(LP_INSTANCES, DEFAULT_SEED + 1)
    assert result.checked == LP_INSTANCES
    _report(result)


def test_criterion_04_commutation():
    result = commutation_criterion(100, DEFAULT_SEED + 2)
    assert result.checked == 100
    _report(result)


def test_criterion_05_certificates_and_reduction(lp_results):
    _, _, c5 = lp_results
    # One certificate per verify_phi_psi report: one per instance, one more
    # for the v = 0 norm report when the instance's v != 0, plus two per
    # all-pairs cross-check.  Every one is re-verified exactly.
    rng = random.Random(DEFAULT_SEED)
    nonzero_v = sum(_draw_lp_instance(rng)[4] != 0 for _ in range(LP_INSTANCES))
    assert c5.detail["certificates_verified"] == LP_INSTANCES + nonzero_v + 2 * 50
    assert c5.detail["reduction_instances"] == 50
    _report(c5)


def test_criterion_06_mixing_ground_truth():
    _report(mixing_ground_truth_criterion(DEFAULT_SEED + 3))


def test_criterion_07_martingale_mixing_bound(martingale_results):
    c7, _ = martingale_results
    assert c7.checked == MARTINGALE_INSTANCES
    _report(c7)


def test_criterion_08_martingale_structure(martingale_results):
    _, c8 = martingale_results
    assert c8.checked == MARTINGALE_INSTANCES
    _report(c8)


def test_criterion_09_monte_carlo_sanity():
    result = montecarlo_criterion(DEFAULT_SEED + 5, sample_count=100_000)
    assert result.detail["elapsed_seconds"] < 30.0
    _report(result)


def test_criterion_10_spot_values():
    _report(spot_values_criterion())


def test_selftest_reports_derive_their_verdicts():
    clean = CriterionResult(3, "clean", checked=4, failures=0)
    failed = CriterionResult(4, "failed", checked=4, failures=1, detail={"case": 1})
    assert clean.passed and not failed.passed
    assert SelftestReport((clean,), seed=1, instance_count=4, elapsed_seconds=0.0).all_passed
    assert not SelftestReport((clean, failed), seed=1, instance_count=4, elapsed_seconds=0.0).all_passed
    with pytest.raises(TypeError):
        CriterionResult(3, "claims", passed=True, checked=4, failures=1)
    with pytest.raises(TypeError):
        SelftestReport((failed,), all_passed=True, seed=1, instance_count=4, elapsed_seconds=0.0)
