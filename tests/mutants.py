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
