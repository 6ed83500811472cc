"""Byte-for-byte CLI reports on fixed inputs.

Each ``tests/golden/<stem>.<command>.stdout`` file is the complete stdout
of ``hammix <command> <stem>.json`` and is one case here, so a refactor
that changes any rational, any bound's float bits or the JSON layout
fails here.  The inputs are the ``sample_problems/`` files
(``chain_simulate.json`` is the README's ``simulate`` example: 10^5
draws on an m = 2, n = 8 chain, through the kernel sampler) plus small
documents in ``tests/golden/`` that exercise ``simulate``, the constant-function
(Lipschitz constant 0) path of the tail bounds, a multi-pivot LP
(m = 3, n = 2, v = 1/2, weights 3/4 and 5/3, whose different
denominators psi and its decomposition read), and a dense measure with
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
Lipschitz constant of ``bound``.  ``dense_m2n8.json`` is a seeded m = 2,
n = 8 dense measure (cells 0-9 from ``random.Random(8)``, three blocks
zeroed, so null prefixes sit at lengths 4, 6 and 7) under ``hamming_to``
with non-unit weights: its later rows of ``delta_matrix`` have more pasts
than block cells, and its 3000 samples walk eight levels of the table.

``chain_m3n100.json`` (3^100 words) is pinned by the SHA-256 of its
``eta``, ``martingale`` and ``bound`` stdout instead of a golden file.

``selftest.stdout`` is the report of ``hammix selftest --instances 50
--seed 3 --mc-samples 2000``; only its ``elapsed_seconds`` fields may
differ.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

import hammix
import hammix.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _golden_cases():
    """(problem, command) for each tests/golden/<name>.<command>.stdout.

    The problem is tests/golden/<name>.json, or sample_problems/<name>.json
    when tests/golden has none: the lookup CI's entry-point loop makes, so
    every golden file it diffs runs here too.
    """
    for golden in sorted(GOLDEN.glob("*.*.stdout")):
        name, command = golden.name.removesuffix(".stdout").split(".", 1)
        problem = GOLDEN / f"{name}.json"
        yield (problem if problem.exists() else ROOT / "sample_problems" / f"{name}.json"), command


CASES = list(_golden_cases())


@pytest.mark.parametrize(
    "problem,command",
    CASES,
    ids=lambda value: value.stem if isinstance(value, Path) else value,
)
def test_cli_stdout_matches_golden(capsys, problem, command):
    code = cli.main([command, str(problem)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{problem.stem}.{command}.stdout").read_text()


# SHA-256 of the stdout of eta, martingale and bound on the 3-state
# n = 100 sum_of_symbols chain, whose reports are too long to keep as
# goldens; they pin the kernel paths' exact bytes past n = 8.
CHAIN_M3N100_SHA256 = {
    "eta": "c21598b64ed24da6ed698e8a8b8bf9434dd905790497530a2581fbc06e12f444",
    "martingale": "aa3e63479af9fcbe310997c6958fcc7898100e64c721c54ed773a9f6a916a3b9",
    "bound": "24f90f522d753a03fda6c321c733183d91698c6cd1ce058d7097913ffe7c36f6",
}


@pytest.mark.parametrize("command", sorted(CHAIN_M3N100_SHA256))
def test_long_chain_stdout_matches_its_digest(capsys, command):
    code = cli.main([command, str(GOLDEN / "chain_m3n100.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_M3N100_SHA256[command]


def _without_elapsed(text):
    return re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": null', text)


def test_selftest_report_matches_golden(capsys):
    code = cli.main(["selftest", "--instances", "50", "--seed", "3", "--mc-samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert _without_elapsed(out) == _without_elapsed((GOLDEN / "selftest.stdout").read_text())


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.stdout")), ids=lambda path: path.stem)
def test_golden_is_strict_json_with_the_envelope(golden):
    report = json.loads(golden.read_text(), parse_constant=_refuse_constant)
    command = golden.stem.partition(".")[2] or golden.stem
    envelope = {"tool": "hammix", "version": hammix.__version__, "command": command}
    assert list(report.items())[:3] == list(envelope.items())
    if command == "selftest":
        assert "input_digest" not in report
    else:
        assert list(report)[3] == "input_digest"
        assert re.fullmatch("sha256:[0-9a-f]{64}", report["input_digest"])
