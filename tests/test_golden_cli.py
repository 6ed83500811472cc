"""Byte-for-byte CLI reports on fixed inputs.

Each ``tests/golden/<stem>.<command>.stdout`` file is the complete stdout
of ``hammix <command> <stem>.json``, so a refactor that changes any
rational, any bound's float bits or the JSON layout fails here.  The
inputs are the ``sample_problems/`` files (``chain_simulate.json`` is the
README's ``simulate`` example: 10^5 draws on an m = 2, n = 8 chain, through
the kernel sampler) plus small documents in
``tests/golden/`` that exercise ``simulate``, the constant-function
(Lipschitz constant 0) path of the tail bounds, a multi-pivot LP
(m = 3, n = 2, non-integer weights, v = 1/2), and a dense measure with
exact-zero cells, null prefix blocks and a prefix after which the second
symbol is forced (m = 3, n = 3), a v = 0 LP whose table sums below 0,
so the norms carry a nonzero sign shift (m = 3, n = 2), and a Markov chain
with a null initial state, zero transition entries and a symbol forced
after one state (m = 3, n = 4), which runs the kernel paths of
``delta_matrix`` and the sampler.  Two more files hold one m = 3, n = 4
chain with a null initial state, zero transition entries and a state
unreachable at the second position, under non-unit weights: with
``hamming_to`` they pin the kernel-only martingale profile, exact mean and
sample values, and with ``indicator`` the table path and the closed-form
Lipschitz constant of ``bound``.

``selftest.stdout`` is the report of ``hammix selftest --instances 50
--seed 3 --mc-samples 2000``; only its ``elapsed_seconds`` fields may
differ.
"""

import re
from pathlib import Path

import pytest

import hammix.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    (ROOT / "sample_problems" / "lp_small.json", ("psi", "phi", "verify-lp", "decompose")),
    (ROOT / "sample_problems" / "chain_martingale.json", ("eta", "martingale", "bound")),
    (ROOT / "sample_problems" / "chain_simulate.json", ("bound", "simulate")),
    (GOLDEN / "simulate_small.json", ("bound", "simulate")),
    (GOLDEN / "constant_function.json", ("bound", "simulate")),
    (GOLDEN / "lp_mid.json", ("phi", "verify-lp")),
    (GOLDEN / "dense_zeros.json", ("eta", "martingale", "bound", "simulate")),
    (GOLDEN / "lp_negative.json", ("psi", "phi", "verify-lp")),
    (GOLDEN / "markov_zeros.json", ("eta", "martingale", "bound", "simulate")),
    (GOLDEN / "markov_hamming.json", ("eta", "martingale", "bound", "simulate")),
    (GOLDEN / "markov_indicator.json", ("martingale", "bound", "simulate")),
]


@pytest.mark.parametrize(
    "problem,command",
    [(problem, command) for problem, commands in CASES for command in commands],
    ids=lambda value: value.stem if isinstance(value, Path) else value,
)
def test_cli_stdout_matches_golden(capsys, problem, command):
    code = cli.main([command, str(problem)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{problem.stem}.{command}.stdout").read_text()


def _without_elapsed(text):
    return re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": null', text)


def test_selftest_report_matches_golden(capsys):
    code = cli.main(["selftest", "--instances", "50", "--seed", "3", "--mc-samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert _without_elapsed(out) == _without_elapsed((GOLDEN / "selftest.stdout").read_text())
