"""Fuzzing the input boundary: no document makes the parser or the CLI raise.

Arbitrary JSON values and field-level mutations of ``sample_problems/``
either parse or raise :class:`ProblemFileError`, and ``hammix <command>``
on the written file exits 0, 1 or 3 with strict JSON on stdout.  Sizes stay
small: integers are bounded, the simulation's sample count is cut before
mutating, and ``--max-table`` caps every table a run builds.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hammix.cli as cli
from hammix.problemfile import ProblemFileError, parse_problem

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("psi", "phi", "verify-lp", "decompose", "eta", "martingale", "bound", "simulate")
# LPs grow fastest with the table, so they get the smaller cap.
MAX_TABLE = {"phi": 16, "verify-lp": 16}


def _base(path):
    doc = json.loads(path.read_text())
    if "simulation" in doc:
        doc["simulation"]["sample_count"] = 200
    return doc


BASES = [_base(path) for path in sorted((ROOT / "sample_problems").glob("*.json"))]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-3/4", "0", "2", "0.125", "1/0", "1e5000", "01", "0,1"])
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
# Replacements that keep a field plausible, so that mutated documents often
# still parse and run.
plausible = st.integers(0, 4) | st.sampled_from(["1/2", "1", "0", "1/3", "-1", "9/10"])


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 2))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(plausible | json_values)
            break
    return doc


def _parses_or_rejects(doc):
    try:
        parse_problem(doc)
    except ProblemFileError:
        pass


def _no_constant(name):
    raise AssertionError(f"report is not strict JSON: {name}")


def _run_cli(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        argv = [command, str(path), "--max-table", str(MAX_TABLE.get(command, 256))]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 3), err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and "invalid problem file" in err.getvalue()
    else:
        report = json.loads(out.getvalue(), parse_constant=_no_constant)
        assert report["command"] == command


@given(json_values)
@settings(max_examples=60, deadline=None)
def test_any_json_value_parses_or_is_rejected(doc):
    _parses_or_rejects(doc)


@given(mutated_documents())
@settings(max_examples=60, deadline=None)
def test_mutated_samples_parse_or_are_rejected(doc):
    _parses_or_rejects(doc)


@given(mutated_documents(), st.sampled_from(COMMANDS))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_cleanly_on_mutated_samples(doc, command):
    _run_cli(doc, command)


@given(json_values, st.sampled_from(COMMANDS))
@settings(max_examples=60, deadline=None)
def test_cli_exits_cleanly_on_any_json_value(doc, command):
    _run_cli(doc, command)


def test_huge_word_length_is_refused_without_building_the_table():
    doc = {"alphabet": 2, "n": 10**30, "function": "sum_of_symbols"}
    _parses_or_rejects(doc)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["psi", str(path)]) == 1
    assert "exceeds the cap" in err.getvalue()
