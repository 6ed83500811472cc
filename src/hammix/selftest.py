"""Random-instance verification suite.

Each function here checks one acceptance-grade property family on seeded
random instances and returns a :class:`CriterionResult`; :func:`run_selftest`
bundles them into the report served by the ``selftest`` CLI subcommand.
Inequality checks are exact rational comparisons throughout -- a single
violation fails the criterion and is recorded in the result detail.  A
criterion reports counts; whether it passed is derived from its failure
count, and the report's ``all_passed`` from its criteria.

The LP-based criteria read ``verify_phi_psi`` reports: one per random
(k, w, v), plus one at v = 0 for the norms when v != 0.  Every certificate
is verified once, inside the simplex's solve, in integers against the
LP's own rows.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import martingale as mg
from .instances import (
    random_dense_measure,
    random_lipschitz_function,
    random_markov_spec,
    random_product_measure,
    random_rational,
    random_table,
    random_weights,
)
from .lipschitz_lp import LpProblem, build_polytope_lp, solve_lp, verify_phi_psi
from .mixing import (
    DeltaMatrix,
    MarkovSpec,
    Measure,
    delta_matrix,
    eta_bar,
    expand_markov,
    operator_norm_2,
)
from .montecarlo import SimulationConfig, empirical_tail
from .psi import psi, psi_decomposition_rhs
from .rational import rat, rat_str
from .words import Builtin, TableFunction, WeightVector, project_numerators, word_unindex

DEFAULT_SEED = 20240801

_CHAIN_ROWS = ((rat("9/10"), rat("1/10")), (rat("1/10"), rat("9/10")))


def _binary_chain(n: int) -> MarkovSpec:
    """The two-state chain used for ground-truth values (symmetric init)."""
    return MarkovSpec(
        initial=(rat("1/2"), rat("1/2")),
        transitions=tuple(_CHAIN_ROWS for _ in range(n - 1)),
    )


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's counts; it passed when it recorded no failure."""

    number: int
    name: str
    passed: bool = field(init=False)
    checked: int
    failures: int
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.failures == 0)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {self.name}: {status} ({self.checked} checks, {self.failures} failures)"


@dataclass(frozen=True)
class SelftestReport:
    """Every criterion's result; all_passed is derived from them."""

    criteria: tuple[CriterionResult, ...]
    all_passed: bool = field(init=False)
    seed: int
    instance_count: int
    elapsed_seconds: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "all_passed", all(c.passed for c in self.criteria))


def _draw_lp_instance(rng: random.Random):
    m = rng.choice((2, 3))
    n = rng.choice((1, 2, 3))
    k = random_table(rng, m, n)
    w = random_weights(rng, n)
    v = rat(rng.choice(("0", "1/2", "1")))
    return m, n, k, w, v


def _reduction_certified(problem: LpProblem, w: WeightVector, vertex: tuple[int, ...]) -> bool:
    """Whether the adjacent-pair LP's verified optimum is the all-pairs LP's too.

    ``vertex`` is the solve's primal numerators over ``problem.rhs_den``.
    In integers over rhs_den, with d_w read from the weights (the
    ``hamming_to`` tables), never from ``problem.costs``: every row
    (x, y, b) has b = d_w(x, y), so the all-pairs polytope lies inside the
    problem's; and the vertex meets phi[x] - phi[y] <= d_w(x, y) for every
    ordered pair, so it lies in the all-pairs polytope.  The two suprema are
    then equal, and the solve's certificate, with dual 0 on the rows it
    lacks, certifies the all-pairs LP.
    """
    m, n, den = problem.alphabet_size, problem.arity, problem.rhs_den
    dist = [Builtin("hamming_to", m, n, word_unindex(x, m, n), w).table() for x in range(problem.num_vars)]
    if any(b * dist[x].den != dist[x].nums[y] * den for x, y, b in problem.difference_rows()):
        return False
    return all(
        (phi - vertex[y]) * d.den <= dy * den
        for phi, d in zip(vertex, dist)
        for y, dy in enumerate(d.nums)
    )


def lp_criteria(instance_count: int, seed: int) -> tuple[CriterionResult, CriterionResult, CriterionResult]:
    """Criteria 1, 2 and 5: supremum bound, norm bound, certificates.

    Returns (lp_inequality, norm_inequality, certificates) results.  Each
    solve's certificate is verified inside the simplex's solve (a failure
    raises CertificateError) and counted once.  On m=2, n=2 instances the
    adjacent-pair reduction is certified from the adjacent LP's own vertex
    (:func:`_reduction_certified`), which counts as the all-pairs LP's
    certificate.
    """
    rng = random.Random(seed)
    sup_failures = 0
    norm_failures = 0
    n1_equality_failures = 0
    cert_checks = 0
    gaps = []
    started = time.monotonic()

    for _ in range(instance_count):
        _, n, k, w, v = _draw_lp_instance(rng)
        report = verify_phi_psi(k, w, v)
        cert_checks += 1
        if not report.holds:
            sup_failures += 1
        gaps.append(report.rhs - report.lhs)
        if v != 0:
            report = verify_phi_psi(k, w, 0)
            cert_checks += 1
        if not report.norm_holds:
            norm_failures += 1
        if n == 1 and report.norm_lhs != report.norm_rhs:
            n1_equality_failures += 1

    reduction_count = max(1, instance_count // 10)
    reduction_failures = 0
    for _ in range(reduction_count):
        k = random_table(rng, 2, 2)
        w = random_weights(rng, 2)
        v = rat(rng.choice(("0", "1/2", "1")))
        problem = build_polytope_lp(k, w, v)
        cert_checks += 2
        if not _reduction_certified(problem, w, solve_lp(problem).primal_nums):
            reduction_failures += 1

    elapsed = time.monotonic() - started
    c1 = CriterionResult(
        1,
        "lp supremum bound",
        instance_count,
        sup_failures,
        {
            "gap_min": rat_str(min(gaps)) if gaps else None,
            "gap_max": rat_str(max(gaps)) if gaps else None,
            "elapsed_seconds": round(elapsed, 3),
        },
    )
    c2 = CriterionResult(
        2,
        "norm bound + n=1 tightness",
        instance_count,
        norm_failures + n1_equality_failures,
        {"n1_equality_failures": n1_equality_failures},
    )
    c5 = CriterionResult(
        5,
        "certificates + constraint reduction",
        cert_checks,
        reduction_failures,
        {"certificates_verified": cert_checks, "reduction_instances": reduction_count},
    )
    return c1, c2, c5


def decomposition_criterion(instance_count: int, seed: int) -> CriterionResult:
    """Criterion 3: psi equals its section decomposition, exactly."""
    rng = random.Random(seed)
    failures = 0
    for i in range(instance_count):
        m = rng.choice((2, 3))
        # Force a steady share of n=1 base cases.
        n = 1 if i % 5 == 0 else rng.choice((1, 2, 3))
        k = random_table(rng, m, n)
        w = random_weights(rng, n)
        if psi(w, k) != psi_decomposition_rhs(w, k):
            failures += 1
    return CriterionResult(3, "psi decomposition", instance_count, failures)


def commutation_criterion(instance_count: int, seed: int) -> CriterionResult:
    """Criterion 4: projection and sections commute on arity-3 tables.

    Checked on the numerator operators psi and its decomposition run:
    project_numerators and the section slice nums[y::m].
    """
    rng = random.Random(seed)
    failures = 0
    for _ in range(instance_count):
        m = rng.choice((2, 3))
        nums = random_table(rng, m, 3).nums
        projected = project_numerators(nums, m)
        for y in range(m):
            if project_numerators(nums[y::m], m) != projected[y::m]:
                failures += 1
                break
    return CriterionResult(4, "projection/section commutation", instance_count, failures)


def mixing_ground_truth_criterion(seed: int) -> CriterionResult:
    """Criterion 6: chain eta values and identity Delta for product measures."""
    rng = random.Random(seed)
    failures = []

    chain2 = _binary_chain(2)
    if eta_bar(chain2, 1, 2) != rat(4, 5):
        failures.append("eta_bar_12 on n=2 chain")
    if delta_matrix(chain2) != DeltaMatrix(((5, 4), (5,)), 5):
        failures.append("delta matrix on n=2 chain")

    chain3 = _binary_chain(3)
    if eta_bar(chain3, 1, 2) != rat(4, 5):
        failures.append("eta_bar_12 on n=3 chain")
    if eta_bar(chain3, 2, 3) != rat(4, 5):
        failures.append("eta_bar_23 on n=3 chain")
    if eta_bar(chain3, 1, 3) != rat(16, 25):
        failures.append("eta_bar_13 on n=3 chain")

    product_cases = [Measure.uniform(2, 3), Measure.uniform(3, 2)]
    product_cases += [random_product_measure(rng, rng.choice((2, 3)), 3) for _ in range(8)]
    for idx, P in enumerate(product_cases):
        if delta_matrix(P) != DeltaMatrix.identity(P.arity):
            failures.append(f"product measure {idx} has non-identity delta")

    checked = 5 + len(product_cases)
    return CriterionResult(
        6,
        "mixing ground truth",
        checked,
        len(failures),
        {"failed_cases": failures},
    )


def _draw_martingale_instance(rng: random.Random):
    m = rng.choice((2, 3))
    n = rng.choice((1, 2, 3))
    w = random_weights(rng, n)
    kind = rng.randrange(4)
    if kind == 0:
        P = random_markov_spec(rng, m, n)
    elif kind == 1:
        P = random_product_measure(rng, m, n)
    else:
        P = random_dense_measure(rng, m, n, allow_zeros=(kind == 3))
    f = random_lipschitz_function(rng, m, n, w) if rng.random() < 0.4 else random_table(rng, m, n)
    return m, n, f, P, w


def martingale_criteria(instance_count: int, seed: int) -> tuple[CriterionResult, CriterionResult]:
    """Criteria 7 and 8: the mixing bound and the martingale structure."""
    rng = random.Random(seed)
    bound_failures = 0
    per_i_failures = 0
    structure_failures = 0
    for _ in range(instance_count):
        m, n, f, P, w = _draw_martingale_instance(rng)
        report = mg.verify_sumvi(f, P, w)
        if not report.holds:
            bound_failures += 1
        if not all(report.per_i_holds):
            per_i_failures += 1
        if not _martingale_structure_ok(rng, f, P):
            structure_failures += 1
    c7 = CriterionResult(
        7,
        "martingale mixing bound",
        instance_count,
        bound_failures + per_i_failures,
        {"sum_failures": bound_failures, "per_coordinate_failures": per_i_failures},
    )
    c8 = CriterionResult(
        8,
        "martingale structure",
        instance_count,
        structure_failures,
    )
    return c7, c8


def _martingale_structure_ok(
    rng: random.Random, f: TableFunction, P: Measure | MarkovSpec
) -> bool:
    """Exact conditional-mean-zero and translation-invariance checks.

    v_i(y) = (S_y M_p - S_p M_y) / (f.den M_y M_p) for parent p (see
    conditional_sums), so its mean given p is sum_y (S_y M_p - S_p M_y) / (f.den M_p^2).
    """
    m = f.alphabet_size
    shifted = f.shift(random_rational(rng, -3, 3))
    if isinstance(P, MarkovSpec):
        P = expand_markov(P)  # once, for both sets of sums
    levels, shifted_levels = mg.conditional_sums(f, P), mg.conditional_sums(shifted, P)
    for i in range(1, f.arity + 1):
        (p_sums, p_masses), (sums, masses) = levels[i - 1], levels[i]
        s_sums, s_p_sums = shifted_levels[i][0], shifted_levels[i - 1][0]
        for p, p_mass in enumerate(p_masses):
            if p_mass == 0:
                continue
            total = 0
            for y in range(p * m, p * m + m):
                if masses[y] == 0:
                    continue
                value = sums[y] * p_mass - p_sums[p] * masses[y]
                shifted_value = s_sums[y] * p_mass - s_p_sums[p] * masses[y]
                if value * shifted.den != shifted_value * f.den:
                    return False
                total += value
            if total != 0:
                return False
    return True


def montecarlo_criterion(seed: int, sample_count: int = 100_000) -> CriterionResult:
    """Criterion 9: empirical tails stay below the proved bounds on an n = 8
    chain; runs are bit-identical for a fixed seed."""
    n = 8
    P = _binary_chain(n)
    f = Builtin("sum_of_symbols", 2, n)
    cfg = SimulationConfig(sample_count, seed, (1.0, 2.0, 3.0, 4.0))
    started = time.monotonic()
    report = empirical_tail(f, P, cfg)
    elapsed = time.monotonic() - started
    report_again = empirical_tail(f, P, cfg)

    failures = []
    if report != report_again:
        failures.append("report not reproducible for identical seed")
    for row in report.rows:
        p_hat = row.frequency
        slack = 3.0 * (p_hat * (1.0 - p_hat) / cfg.sample_count) ** 0.5
        if p_hat > min(1.0, row.azuma) + slack:
            failures.append(f"t={row.threshold}: frequency {p_hat} above bound")
    return CriterionResult(
        9,
        "monte carlo tail sanity",
        len(report.rows) + 1,
        len(failures),
        {
            "elapsed_seconds": round(elapsed, 3),
            "frequencies": [row.frequency for row in report.rows],
            "azuma": [row.azuma for row in report.rows],
            "failed_cases": failures,
        },
    )


def spot_values_criterion() -> CriterionResult:
    """Criterion 10: pinned numeric values with independent oracles."""
    failures = []

    # 2 * exp(-2), frozen to 17 significant digits from an independent
    # high-precision evaluation.
    expected = 0.2706705664732254
    got = mg.azuma_bound(2.0, 1.0)
    if abs(got - expected) > 1e-12 * expected:
        failures.append(f"azuma_bound(2, 1) = {got}, expected {expected}")

    for n in (1, 2, 5):
        got = operator_norm_2(DeltaMatrix.identity(n))
        if got != 1.0:
            failures.append(f"operator norm of identity({n}) = {got}")

    # Independent 2x2 oracle: largest eigenvalue of D^T D by the quadratic
    # formula, for D = ((1, 4/5), (0, 1)).  The norm is a certified upper
    # bound, so it may sit above the oracle but not below it by more than
    # the oracle's own rounding, a few ulps.
    d = DeltaMatrix(((5, 4), (5,)), 5)
    a11, a12, a22 = 1.0, 0.8, 0.8 * 0.8 + 1.0
    trace = a11 + a22
    det = a11 * a22 - a12 * a12
    lam_max = (trace + (trace * trace - 4.0 * det) ** 0.5) / 2.0
    oracle = lam_max**0.5
    got = operator_norm_2(d)
    if not oracle - 4 * math.ulp(oracle) <= got <= oracle + 1e-9:
        failures.append(f"operator norm {got} vs quadratic oracle {oracle}")

    return CriterionResult(
        10,
        "spot values",
        5,
        len(failures),
        {"failed_cases": failures},
    )


def run_selftest(
    instance_count: int = 500,
    seed: int = DEFAULT_SEED,
    mc_samples: int = 100_000,
    progress: Callable[[str], None] | None = None,
) -> SelftestReport:
    """Run every criterion family; counts for the cheaper families scale
    with instance_count at the same ratios as the default configuration."""
    started = time.monotonic()
    results: list[CriterionResult] = []

    def emit(result: CriterionResult) -> None:
        results.append(result)
        if progress is not None:
            progress(result.line())

    c1, c2, c5 = lp_criteria(instance_count, seed)
    emit(c1)
    emit(c2)
    emit(decomposition_criterion(instance_count, seed + 1))
    emit(commutation_criterion(max(1, instance_count // 5), seed + 2))
    emit(c5)
    emit(mixing_ground_truth_criterion(seed + 3))
    c7, c8 = martingale_criteria(max(1, (3 * instance_count) // 5), seed + 4)
    emit(c7)
    emit(c8)
    emit(montecarlo_criterion(seed + 5, sample_count=mc_samples))
    emit(spot_values_criterion())

    elapsed = time.monotonic() - started
    return SelftestReport(
        criteria=tuple(results),
        seed=seed,
        instance_count=instance_count,
        elapsed_seconds=elapsed,
    )
