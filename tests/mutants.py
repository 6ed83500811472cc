"""Mutants of ``src/hammix`` that named tests must catch, and their runner.

Each :class:`Mutant` is one small fault: a file under ``src/hammix``, the
exact text it replaces (which must occur there exactly once), the new
text, why the fault matters, and the tests (files or node ids) that must
fail on it.  A mutant that no listed test catches is a hole in the suite:
add the test that kills it, or move it to ``EQUIVALENT`` with the
argument that no output can change.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

For each mutant the runner copies ``src/`` to a temporary directory,
applies the edit there, and runs pytest on the mutant's tests with the
copy first on ``PYTHONPATH`` (stopping at the first failure).  It prints
one line per mutant with the first failing test, and exits 1 if any
mutant survived or could not be applied.  This is not part of the tier-1
suite: each mutant costs a pytest run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]


MUTANTS = (
    # The simplex's integer certificate checker.
    Mutant(
        "checker-primal-row-ge",
        "simplex.py",
        "if lhs * rhs_den > b * x_den:",
        "if lhs * rhs_den >= b * x_den:",
        "a tight primal row is feasible",
        ("tests/test_simplex.py::test_simple_box",),
    ),
    Mutant(
        "checker-without-dual-sign",
        "simplex.py",
        "        if z < 0:\n",
        "        if False:\n",
        "a negative dual multiplier is no certificate",
        ("tests/test_simplex.py::test_integer_checker_rejects_tampering_on_the_solve_lp_path",),
    ),
    Mutant(
        "checker-primal-objective-only",
        "simplex.py",
        "if primal_num * y_den != value * c_den or dual_num * x_den != value * rhs_den:",
        "if primal_num * y_den != value * c_den:",
        "a raised dual is feasible but not optimal; only the dual objective shows it",
        ("tests/test_simplex.py::test_certificate_rejects_tampering",),
    ),
    # The mixing matrix as integer numerators over one denominator.
    Mutant(
        "chain-row-without-gcd",
        "mixing.py",
        "return lowest_terms(list(map(mul, best, scales)), 2 * math.prod(chain.dens[i:]))",
        "return list(map(mul, best, scales)), 2 * math.prod(chain.dens[i:])",
        "a chain row is reduced by its gcd; the constructor's gcd keeps every output, so only the form test sees it",
        ("tests/test_mixing.py::test_delta_matrix_and_its_rows_are_in_lowest_terms",),
    ),
    Mutant(
        "apply-head-of-weights",
        "mixing.py",
        "sum(map(mul, row, w.nums[i:]))",
        "sum(map(mul, row, w.nums[: self.size - i]))",
        "row i from the diagonal on meets the weights from i on",
        ("tests/test_mixing.py::test_delta_apply_matches_the_entrywise_product",),
    ),
    Mutant(
        "delta-without-lower-bound",
        "mixing.py",
        "if min(row) < 0 or max(row) > den:",
        "if max(row) > den:",
        "an entry below 0 is no mixing coefficient",
        ("tests/test_mixing.py::test_delta_matrix_validation",),
    ),
    Mutant(
        "norm-columns-without-diagonal",
        "mixing.py",
        "cols = [[rows[i][j - i] for i in range(j + 1)] for j in range(n)]",
        "cols = [[rows[i][j - i] for i in range(j)] for j in range(n)]",
        "column j of Delta includes its unit diagonal",
        ("tests/test_mixing.py::test_operator_norm_identity",),
    ),
    # The weights' integer form and psi in integers.
    Mutant(
        "psi-over-table-den",
        "psi.py",
        "return rat(_psi_scaled(w.nums, k.nums, k.alphabet_size), w.den * k.den)",
        "return rat(_psi_scaled(w.nums, k.nums, k.alphabet_size), k.den)",
        "psi's integer sum is over the weights' and the table's denominators",
        ("tests/test_psi.py",),
    ),
    Mutant(
        "norm-shift-sign",
        "psi.py",
        "max(-sum(k.nums), 0)",
        "max(sum(k.nums), 0)",
        "the norm shift ramps -total(k), not total(k)",
        ("tests/test_psi.py",),
    ),
    Mutant(
        "lowest-terms-unreduced",
        "rational.py",
        "    g = gcd(den, *nums)\n",
        "    g = 1\n",
        "the integer form is unique only in lowest terms",
        ("tests/test_words.py",),
    ),
    Mutant(
        "over-lcm-max",
        "rational.py",
        "    den = lcm(*dens)\n",
        "    den = max(dens)\n",
        "the common denominator is the lcm; the largest one need not be a multiple of the others",
        ("tests/test_words.py", "tests/test_montecarlo.py"),
    ),
    Mutant(
        "weight-den-product",
        "words.py",
        "        nums, den = over_common_denominator(converted)\n"
        "        self.__dict__.update(entries=converted, nums=tuple(nums), den=den)",
        "        den = __import__('math').prod(e.denominator for e in converted)\n"
        "        nums = [e.numerator * (den // e.denominator) for e in converted]\n"
        "        self.__dict__.update(entries=converted, nums=tuple(nums), den=den)",
        "the weights' denominator is their lcm, not their product; every output is the same rational, "
        "so only the form tests see it",
        ("tests/test_words.py::test_weights_are_integers_over_one_lowest_terms_denominator",),
    ),
    # One owner per operation.
    Mutant(
        "oscillations-without-rotation",
        "words.py",
        "            nums = list(chain.from_iterable(zip(*(nums[a * block : (a + 1) * block] for a in range(m)))))\n",
        "",
        "without the rotation every coordinate's oscillation is the last coordinate's",
        ("tests/test_lipschitz_lp.py", "tests/test_tables.py"),
    ),
    Mutant(
        "lp-den-without-v",
        "lipschitz_lp.py",
        "    den = lcm(v.denominator, w.den)\n",
        "    den = w.den\n",
        "the LP's right-hand sides carry v's denominator too",
        ("tests/test_lipschitz_lp.py",),
    ),
    Mutant(
        "phi-norm-shift-sign",
        "cli.py",
        "norm = cert_pos.objective_value + norm_shift(w, f)",
        "norm = cert_pos.objective_value - norm_shift(w, f)",
        "phi_norm adds the shift; it is nonzero on a table that sums below 0, as lp_negative's does",
        (
            "tests/test_cli.py::test_phi_norm_is_the_larger_of_the_two_printed_values",
            "tests/test_golden_cli.py::test_cli_stdout_matches_golden",
        ),
    ),
    Mutant(
        "commutation-unsectioned",
        "selftest.py",
        "if project_numerators(nums[y::m], m) != projected[y::m]:",
        "if project_numerators(nums[y::m], m) != projected:",
        "criterion 4 compares the projected section with the section of the projection",
        (
            "tests/test_acceptance.py::test_criterion_04_commutation",
            "tests/test_golden_cli.py::test_selftest_report_matches_golden",
        ),
    ),
    # The certified operator norm of Delta.
    Mutant(
        "norm-without-step-up",
        "mixing.py",
        "        root = math.nextafter(root, math.inf)\n",
        "        break\n",
        "the float square root may round below the exact quotient's root",
        ("tests/test_mixing.py::test_operator_norm_steps_a_low_square_root_up",),
    ),
    Mutant(
        "norm-den-once",
        "mixing.py",
        "list(map(mul, xs, repeat(den**2)))",
        "list(map(mul, xs, repeat(den)))",
        "D^T D x carries D's denominator twice",
        ("tests/test_mixing.py::test_operator_norm_2x2_quadratic_oracle",),
    ),
    Mutant(
        "norm-iteration-min-quotient",
        "mixing.py",
        "cw = max(map(truediv, y, x))",
        "cw = min(map(truediv, y, x))",
        "the iteration stops when the largest quotient nears the Rayleigh quotient; the smallest stops it at once",
        ("tests/test_mixing.py::test_operator_norm_2x2_quadratic_oracle",),
    ),
    Mutant(
        "norm-min-quotient",
        "mixing.py",
        "    top = max(quotients)\n",
        "    top = min(quotients)\n",
        "the Collatz-Wielandt bound is the largest quotient; a smaller one bounds nothing",
        ("tests/test_mixing.py::test_operator_norm_is_certified_in_exact_arithmetic",),
    ),
    Mutant(
        "norm-float-quotient",
        "mixing.py",
        "    root = math.sqrt(num / bound_den)\n",
        "    return math.sqrt(cw)\n",
        "the float iteration's quotient is not evaluated exactly, so it certifies nothing",
        ("tests/test_mixing.py::test_operator_norm_at_the_step_cap_is_certified_and_within_the_schur_bound",),
    ),
    Mutant(
        "norm-d-d-x",
        "mixing.py",
        "_largest_ratio([sum(map(mul, col, dxs)) for col in cols],",
        "_largest_ratio([sum(map(mul, row, dxs[i:])) for i, row in enumerate(rows)],",
        "the quotient is of D^T D x, not of D D x",
        ("tests/test_mixing.py::test_operator_norm_2x2_quadratic_oracle",),
    ),
    Mutant(
        "norm-without-floor",
        "mixing.py",
        "x = [v / cw + 2.0**-64 for v in y]",
        "x = [v / cw for v in y]",
        "an entry of x that reaches 0.0 voids the bound",
        ("tests/test_mixing.py::test_operator_norm_at_the_step_cap_is_certified_and_within_the_schur_bound",),
    ),
    # Verdicts derived from the reports' numbers.
    Mutant(
        "per-i-holds-strict",
        "martingale.py",
        "per_i = tuple(v <= self.lipschitz * dw",
        "per_i = tuple(v < self.lipschitz * dw",
        "a coordinate whose v_bar meets its bound holds",
        ("tests/test_martingale.py::test_sumvi_report_derives_its_verdicts",),
    ),
    Mutant(
        "norm-holds-strict",
        "lipschitz_lp.py",
        "else self.norm_lhs <= self.norm_rhs",
        "else self.norm_lhs < self.norm_rhs",
        "equal norms hold, as on k = (1, 0, 0, -1) with unit weights",
        ("tests/test_lipschitz_lp.py::test_verify_phi_psi_example",),
    ),
    Mutant(
        "criterion-passes-one-failure",
        "selftest.py",
        'object.__setattr__(self, "passed", self.failures == 0)',
        'object.__setattr__(self, "passed", self.failures <= 1)',
        "a single violation fails the criterion",
        ("tests/test_acceptance.py::test_selftest_reports_derive_their_verdicts",),
    ),
    Mutant(
        "azuma-zero-variance-vacuous",
        "martingale.py",
        "    if d_squared == 0:\n        return 0.0\n",
        "    if d_squared == 0:\n        return 2.0\n",
        "a constant function's tail is 0",
        ("tests/test_martingale.py::test_azuma_bound_values",),
    ),
    # The adjacent-pair reduction certified from the adjacent LP's vertex.
    Mutant(
        "reduction-pair-strict",
        "selftest.py",
        "(phi - vertex[y]) * d.den <= dy * den",
        "(phi - vertex[y]) * d.den < dy * den",
        "an optimal vertex meets some pair bounds with equality, and every x = y pair",
        (
            "tests/test_lipschitz_lp.py::test_reduction_certificate_holds_on_seeded_lps",
            "tests/test_acceptance.py::test_criterion_05_certificates_and_reduction",
        ),
    ),
    Mutant(
        "reduction-without-row-check",
        "selftest.py",
        "    if any(b * dist[x].den != dist[x].nums[y] * den for x, y, b in problem.difference_rows()):\n"
        "        return False\n",
        "",
        "rows tighter than d_w shrink the polytope while the vertex still meets d_w on every pair",
        ("tests/test_lipschitz_lp.py::test_reduction_certificate_rejects_tampered_costs",),
    ),
)

# Edits that change no output, with the argument; they are not run.
EQUIVALENT: tuple[tuple[Mutant, str], ...] = ()


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "hammix" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): "killed" with the first failing test, "survived", or "error"."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            _apply(mutant, src)
        except ValueError as exc:
            return "error", str(exc)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", ""
    if done.returncode in (1, 2):
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        return "killed", failed.group(1) if failed else f"pytest exit {done.returncode}"
    return "error", f"pytest exit {done.returncode}: {done.stdout[-500:]}{done.stderr[-500:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        started = time.monotonic()
        verdict, detail = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8s} {mutant.name} ({time.monotonic() - started:.1f} s) {detail}", flush=True)
    for mutant, argument in EQUIVALENT:
        print(f"equivalent {mutant.name}: {argument}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
