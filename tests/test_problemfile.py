import re
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammix.mixing import MarkovSpec, Measure, expand_markov
from hammix.problemfile import (
    ProblemFile,
    ProblemFileError,
    _bulk_ratios,
    _parse_rational,
    _parse_ratios,
    parse_problem,
    resolve_function,
    resolve_measure,
)
from hammix.rational import DigitLimitError, over_common_denominator, rat, rat_str
from hammix.words import Builtin, TableFunction, WeightVector


def problem_to_jsonable(problem: ProblemFile) -> dict:
    """Canonical JSON form; parsing it back reproduces the ProblemFile."""
    doc: dict[str, Any] = {"alphabet": problem.alphabet, "n": problem.n}
    if problem.weights is not None:
        doc["weights"] = [rat_str(e) for e in problem.weights]
    if isinstance(problem.function, TableFunction):
        doc["function"] = {"table": [rat_str(x) for x in problem.function.values]}
    elif problem.function is not None:
        f = problem.function
        word = "" if f.target is None else ":" + ",".join(map(str, f.target))
        doc["function"] = {"builtin": f.name + word}
    if isinstance(problem.measure, Measure):
        doc["measure"] = {"dense": [rat_str(p) for p in problem.measure.values]}
    elif problem.measure is not None:
        markov = problem.measure
        doc["measure"] = {
            "markov": {
                "init": [rat_str(p) for p in markov.initial],
                "transitions": [
                    [[rat_str(p) for p in row] for row in matrix]
                    for matrix in markov.transitions
                ],
            }
        }
    doc["v"] = rat_str(problem.v)
    if problem.thresholds:
        doc["thresholds"] = list(problem.thresholds)
    if problem.simulation is not None:
        doc["simulation"] = {
            "sample_count": problem.simulation.sample_count,
            "seed": problem.simulation.seed,
            "thresholds": list(problem.simulation.thresholds),
        }
    return doc


def _doc(**overrides):
    doc = {
        "alphabet": 2,
        "n": 2,
        "weights": ["1", "1"],
        "function": {"table": ["1", "0", "0", "-1"]},
        "measure": {"dense": ["9/20", "1/20", "1/20", "9/20"]},
        "v": "1/2",
        "thresholds": [1.0, 2.0],
        "simulation": {"sample_count": 100, "seed": 7, "thresholds": [1.5]},
    }
    doc.update(overrides)
    return doc


def test_parse_full_document():
    problem = parse_problem(_doc())
    assert problem.alphabet == 2
    assert problem.n == 2
    assert problem.weights.entries == (rat(1), rat(1))
    assert problem.function.values == (rat(1), 0, 0, rat(-1))
    assert problem.measure.values[0] == rat(9, 20)
    assert problem.v == rat(1, 2)
    assert problem.thresholds == (1.0, 2.0)
    assert problem.simulation.sample_count == 100
    assert problem.simulation.thresholds == (1.5,)


def test_round_trip_identity():
    for doc in (
        _doc(),
        _doc(function="sum_of_symbols", v="0"),
        _doc(function="hamming_to:10", weights=["1/2", "3"]),
        _doc(function={"builtin": "indicator:0,1"}),
        _doc(
            measure={
                "markov": {
                    "init": ["1/2", "1/2"],
                    "transitions": [[["9/10", "1/10"], ["1/10", "9/10"]]],
                }
            }
        ),
        {"alphabet": {"size": 2, "labels": ["a", "b"]}, "n": 1, "weights": ["2"]},
    ):
        first = parse_problem(doc)
        emitted = problem_to_jsonable(first)
        assert parse_problem(emitted) == first


def test_decimal_strings_parse_exactly():
    problem = parse_problem(_doc(weights=["0.125", "3"]))
    assert problem.weights.entries == (rat(1, 8), rat(3))


def test_resolve_dense_function_and_measure():
    problem = parse_problem(_doc())
    f = resolve_function(problem)
    assert f.values == (1, 0, 0, -1)
    P = resolve_measure(problem)
    assert P.probabilities == (rat(9, 20), rat(1, 20), rat(1, 20), rat(9, 20))


def test_resolve_markov_measure():
    problem = parse_problem(
        _doc(
            measure={
                "markov": {
                    "init": ["1/2", "1/2"],
                    "transitions": [[["9/10", "1/10"], ["1/10", "9/10"]]],
                }
            }
        )
    )
    P = resolve_measure(problem)
    assert P is problem.measure  # the chain is handed on unexpanded
    assert expand_markov(P).probabilities[0] == rat(9, 20)


def test_builtin_sum_of_symbols():
    problem = parse_problem(_doc(function="sum_of_symbols"))
    assert resolve_function(problem).values == (0, 1, 1, 2)


def test_builtin_indicator():
    problem = parse_problem(_doc(function={"builtin": "indicator:11"}))
    assert resolve_function(problem).values == (0, 0, 0, 1)


def test_builtin_hamming_to_uses_weights():
    problem = parse_problem(_doc(function={"builtin": "hamming_to:01"}, weights=["1/2", "3"]))
    f = resolve_function(problem)
    # distances from (0,1) to 00, 01, 10, 11 under w = (1/2, 3)
    assert f.values == (rat(3), rat(0), rat(7, 2), rat(1, 2))


def test_builtin_hamming_to_comma_form():
    problem = parse_problem(_doc(function={"builtin": "hamming_to:0,1"}))
    assert resolve_function(problem).values[1] == 0


def test_builtin_word_over_more_than_ten_symbols():
    # Commas separate symbols; a one-symbol word's whole text is its symbol.
    word = {"alphabet": 12, "n": 1, "function": "indicator:11"}
    assert parse_problem(word).function.target == (11,)
    assert parse_problem({**word, "n": 2, "function": "indicator:11,0"}).function.target == (11, 0)
    with pytest.raises(ProblemFileError, match="comma-separated"):
        parse_problem({**word, "n": 2, "function": "indicator:10"})
    with pytest.raises(ProblemFileError, match="out of range"):
        parse_problem({**word, "function": "indicator:12"})


def test_missing_sections_reported_with_path():
    problem = parse_problem({"alphabet": 2, "n": 2})
    with pytest.raises(ProblemFileError, match="function"):
        resolve_function(problem)
    with pytest.raises(ProblemFileError, match="measure"):
        resolve_measure(problem)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"weights": ["0", "1"]}, "weights[0]"),
        ({"weights": ["1"]}, "weights"),
        ({"weights": ["1", 0.5]}, "weights[1]"),
        ({"v": "-1"}, "v"),
        ({"function": {"table": ["1"]}}, "function.table"),
        ({"function": {"builtin": "frobnicate"}}, "function.builtin"),
        ({"function": {"builtin": "indicator:31"}}, "function.builtin"),
        ({"function": {"builtin": "indicator:111"}}, "function.builtin"),
        ({"measure": {"dense": ["1/2", "1/4", "0", "0"]}}, "measure.dense"),
        ({"measure": {"dense": ["1/2", "3/5", "0", "-1/10"]}}, "measure.dense"),
        ({"measure": {"markov": {"init": ["1"], "transitions": []}}}, "measure.markov"),
        ({"thresholds": []}, "thresholds"),
        ({"thresholds": [0.0]}, "thresholds[0]"),
        ({"simulation": {"sample_count": 0, "seed": 1}}, "simulation.sample_count"),
        ({"n": -1}, "n"),
        ({"alphabet": 0}, "alphabet"),
        # Appended rather than grouped so the ids of the rows above stay put.
        ({"n": 0}, "n"),
        ({"thresholds": [1.0, float("nan")]}, "thresholds[1]"),
        ({"thresholds": [float("inf")]}, "thresholds[0]"),
        (
            {"simulation": {"sample_count": 10, "seed": 1, "thresholds": [float("nan")]}},
            "simulation.thresholds[0]",
        ),
        (
            {"simulation": {"sample_count": 10, "seed": 1, "thresholds": [1.0, float("inf")]}},
            "simulation.thresholds[1]",
        ),
        ({"thresholds": [10**400]}, "thresholds[0]"),
        ({"alphabet": {"size": 2, "labels": ["a"]}}, "alphabet.labels"),
        ({"alphabet": {"size": 2, "labels": ["a", "a"]}}, "alphabet.labels"),
        ({"alphabet": {"size": 2, "labels": ["a", 1]}}, "alphabet.labels[1]"),
        ({"alphabet": {"size": True}}, "alphabet.size"),
        ({"alphabet": "2"}, "alphabet"),
        ({"weights": ["1e5000", "1"]}, "weights[0]"),
        ({"v": "1e-5000"}, "v"),
        # A builtin's word is ASCII digits and commas only.
        ({"function": {"builtin": "indicator:١٠"}}, "function.builtin"),
        ({"function": {"builtin": "hamming_to: 0,1"}}, "function.builtin"),
        ({"function": {"builtin": "hamming_to:0,1 "}}, "function.builtin"),
        ({"function": {"builtin": "indicator:+1,0"}}, "function.builtin"),
        ({"function": {"builtin": "indicator:0,_1"}}, "function.builtin"),
        ({"function": {"builtin": "indicator:0,,1"}}, "function.builtin"),
        ({"function": {"builtin": "indicator:0１"}}, "function.builtin"),
        ({"function": {"builtin": "indicator"}}, "function.builtin"),
        ({"function": {"builtin": "sum_of_symbols:01"}}, "function.builtin"),
    ],
)
def test_invalid_documents(overrides, fragment):
    with pytest.raises(ProblemFileError) as err:
        parse_problem(_doc(**overrides))
    assert fragment in str(err.value)


def test_builtin_word_is_parsed_once_into_the_builtin():
    problem = parse_problem(_doc(function="indicator:1,0"))
    assert problem.function == Builtin("indicator", 2, 2, (1, 0))
    assert parse_problem(_doc(function="indicator:10")).function == problem.function
    hamming = parse_problem(_doc(function="hamming_to:01", weights=["1/2", "3"])).function
    assert hamming == Builtin("hamming_to", 2, 2, (0, 1), WeightVector(["1/2", "3"]))


def test_hamming_to_without_weights_is_refused_where_it_is_read():
    problem = parse_problem({"alphabet": 2, "n": 2, "function": "hamming_to:01"})
    for table in (True, False):
        with pytest.raises(ProblemFileError, match="function.builtin: hamming_to requires"):
            resolve_function(problem, table=table)


def test_builtin_stays_unexpanded_without_a_table():
    problem = parse_problem({"alphabet": 2, "n": 30, "function": "sum_of_symbols"})
    assert resolve_function(problem, table=False) is problem.function
    with pytest.raises(ProblemFileError, match="n: dense table of 2\\^30 entries exceeds"):
        resolve_function(problem)


def test_weight_zero_message_cites_positivity():
    with pytest.raises(ProblemFileError, match="> 0"):
        parse_problem(_doc(weights=["0", "1"]))


def test_table_size_cap():
    problem = parse_problem(_doc())
    with pytest.raises(ProblemFileError, match="exceeds"):
        resolve_function(problem, max_table=3)
    with pytest.raises(ProblemFileError, match="exceeds"):
        resolve_measure(problem, max_table=3)


def test_non_object_document():
    with pytest.raises(ProblemFileError):
        parse_problem([1, 2, 3])


# Integer table parse against the per-entry rational parse ---------------

_SPECIAL_SPELLINGS = (
    "1/0", "0/0", "-0", "-0/5", "007", "2/4", "1" * 5000, "-" + "9" * 5000 + "/3",
    "1/" + "7" * 5000, "1e4300", "1e-4300", "1e4301", "1.5e4299", "0." + "0" * 4299 + "1",
    "", "-", "+", "1/", "/2", "1//2", "1/-2", "nan", "inf", "1e", "1.2.3", "0x10", "1_", "_1",
)


@st.composite
def rational_spellings(draw):
    """Strings over Fraction's grammar: signs, whitespace, ``_``, decimals,
    exponents and non-ASCII digits, plus edge cases and malformed text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_SPECIAL_SPELLINGS))
    digits = st.text(st.sampled_from("0123456789_٣٧０४"), min_size=1, max_size=4)
    sign = st.sampled_from(("", "", "-", "+"))
    space = st.sampled_from(("", "", " ", "\t", "\n"))
    text = draw(sign) + draw(digits)
    form = draw(st.sampled_from(("int", "ratio", "decimal")))
    if form == "ratio":
        text += "/" + draw(digits)
    elif form == "decimal":
        text += draw(st.sampled_from((".", ""))) + draw(digits)
        exponent = draw(st.sampled_from(("", "e", "E")))
        if exponent:
            text += exponent + draw(sign) + draw(digits)
    return draw(space) + text + draw(space)


table_entries = st.one_of(
    rational_spellings(),
    st.integers(-(10**30), 10**30),
    st.sampled_from((True, None, 0.5, [1])),
)


# Small nonnegative values in several spellings, so that measures often parse.
probability_spellings = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 3), st.integers(4, 12)),
    st.integers(0, 3).map(lambda p: f"0.0{p} "),
    st.builds("{}e-{}".format, st.integers(0, 9), st.integers(1, 3)),
    st.sampled_from((0, "0", "-0", "0/7", "+1/9")),
)


def _outcome(build):
    """(value, None) or (None, (field, message)) of a parse."""
    try:
        return build(), None
    except ProblemFileError as exc:
        return None, (exc.path, str(exc))


def _per_entry(entries, path, nonnegative=False):
    """The rational parse of a table: one _parse_rational per entry, in order."""
    return tuple(_parse_rational(e, f"{path}[{i}]", nonnegative=nonnegative) for i, e in enumerate(entries))


def _old_measure(entries):
    """The rational parse of a dense measure: per entry, then a rational sum."""
    values = _per_entry(entries, "measure.dense", nonnegative=True)
    if sum(values, rat(0)) != 1:
        raise ProblemFileError("measure.dense", "entries must sum to exactly 1")
    return Measure(2, 2, values)


def _completion(entries):
    """The entry that makes the sum 1 when the others parse and it prints, else "0"."""
    head = _outcome(lambda: _per_entry(entries, "measure.dense"))[0]
    try:
        return rat_str(1 - sum(head, rat(0))) if head is not None else "0"
    except DigitLimitError:
        return "0"


def _assert_same_table(new, old):
    assert new[1] == old[1]
    if old[0] is not None:
        assert type(new[0]) is type(old[0])
        assert new[0] == old[0]
        assert (new[0].nums, new[0].den) == (old[0].nums, old[0].den)
        assert new[0].values == old[0].values


@given(st.lists(table_entries, min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_integer_table_parse_matches_rational_parse(entries):
    doc = {"alphabet": 2, "n": 2, "function": {"table": entries}}
    new = _outcome(lambda: parse_problem(doc).function)
    old = _outcome(lambda: TableFunction(2, 2, _per_entry(entries, "function.table")))
    _assert_same_table(new, old)


@given(st.lists(probability_spellings | probability_spellings | table_entries, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_integer_measure_parse_matches_rational_parse(entries):
    entries = entries + [_completion(entries)]
    doc = {"alphabet": 2, "n": 2, "measure": {"dense": entries}}
    new = _outcome(lambda: parse_problem(doc).measure)
    old = _outcome(lambda: _old_measure(entries))
    _assert_same_table(new, old)


@pytest.mark.parametrize(
    "entries",
    [
        ["1/8", "0.125", " 1/4 ", "1/2"],
        ["2/4", "1e-1", "4/10", "0"],
        [0, "0", "-0", 1],
        ["1_0/4_0", "٣/12", "+1/4", "0.25e0"],
        ["1/3", "1/3", "1/6", "1/7"],
        ["1/2", "-1/4", "1/2", "1/4"],
    ],
)
def test_dense_measure_spellings_match_rational_parse(entries):
    doc = {"alphabet": 2, "n": 2, "measure": {"dense": entries}}
    new = _outcome(lambda: parse_problem(doc).measure)
    old = _outcome(lambda: _old_measure(entries))
    _assert_same_table(new, old)


# Bulk reader of "p" / "p/q" string tables -------------------------------

ascii_integers = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(("-0", "007", "-007", "1" * 5000, "-" + "9" * 5000)),
)
ascii_denominators = st.one_of(
    st.integers(1, 10**30).map(str), st.sampled_from(("0", "00", "010", "7" * 5000))
)
json_integers = st.integers(-(10**30), 10**30)
ascii_ratios = st.builds("{}/{}".format, ascii_integers, ascii_denominators)
# Lists the bulk reader takes or refuses as a whole: every entry a JSON int,
# every entry "p", every entry "p/q", or the forms mixed.
ascii_ratio_lists = st.one_of(
    st.lists(json_integers, min_size=1, max_size=6),
    st.lists(ascii_integers, min_size=1, max_size=6),
    st.lists(ascii_ratios, min_size=1, max_size=6),
    st.lists(ascii_integers | ascii_ratios, min_size=2, max_size=6),
    st.lists(json_integers | ascii_integers | ascii_ratios, min_size=2, max_size=6),
)


@given(ascii_ratio_lists, st.booleans())
@settings(max_examples=300, deadline=None)
def test_bulk_reader_matches_per_entry_rational_parse(entries, nonnegative):
    new = _outcome(lambda: [rat(p, q) for p, q in zip(*_parse_ratios(entries, "t", nonnegative))])
    old = _outcome(lambda: list(_per_entry(entries, "t", nonnegative)))
    assert new == old


_REGEX_ENTRY = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _regex_bulk_ratios(entries, nonnegative):
    """The string lists the bulk reader took when it matched each entry
    against -?[0-9]+(?:/[0-9]+)?, as pairs (p, q), else None."""
    try:
        if not entries or not all(map(_REGEX_ENTRY.fullmatch, entries)):
            return None
    except TypeError:
        return None
    text = ",".join(entries)
    slashes = text.count("/")
    if slashes not in (0, len(entries)):
        return None
    try:
        values = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:
        return None
    nums, dens = (values[::2], values[1::2]) if slashes else (values, [1] * len(values))
    if not all(dens) or (nonnegative and min(nums) < 0):
        return None
    return list(zip(nums, dens))


# Entries near the pattern: separators inside an entry, stray or doubled
# signs, empty strings, "+", whitespace and non-ASCII digits.
near_ratio_entries = st.one_of(
    st.text(alphabet="0129/-,+ \u0663\uff11", max_size=6),
    st.sampled_from(("1/2/3", "--1", "1-", "", "+1", "1,2", "1/-2", "-1/2", "1/0", "-0/3", "\u0663", "1/2,3")),
    ascii_integers,
    ascii_ratios,
)


@given(st.lists(near_ratio_entries, max_size=6), st.booleans())
@settings(max_examples=500, deadline=None)
def test_separator_check_accepts_what_the_entry_pattern_accepted(entries, nonnegative):
    old = _regex_bulk_ratios(entries, nonnegative)
    new = _bulk_ratios(entries, nonnegative)
    assert (new is None) == (old is None)
    if new is not None:
        assert list(zip(*new)) == old


def test_separator_check_refuses_the_near_misses():
    for entries in (["1/2/3"], ["1/2/3", "4"], ["--1"], ["1-"], [""], ["", "1"], ["+1"], ["1,2"],
                    ["1/2", "3,4"], ["1/-2"], ["\u0663"], ["1", "\uff11"], ["1/2", "3"], ["1 "]):
        assert _bulk_ratios(entries, False) is None and _regex_bulk_ratios(entries, False) is None


def test_bulk_reader_takes_uniform_lists_only():
    assert _bulk_ratios(["1", "-2", "007"], False) == ([1, -2, 7], [1, 1, 1])
    assert _bulk_ratios(["1/2", "-0/3", "2/4"], True) == ([1, 0, 2], [2, 3, 4])
    # Mixed forms, other spellings and non-strings are read entry by entry;
    # so are lists holding an entry the per-entry reader reports.
    for entries in (["1", "1/2"], ["1/2", "0.5"], ["1", 2], [], ["1/0", "1/2"], ["1" * 5000]):
        assert _bulk_ratios(entries, False) is None
    assert _bulk_ratios(["1/2", "-1/2"], True) is None
    with pytest.raises(ProblemFileError, match=r"^t\[1\]: must be >= 0"):
        _parse_ratios(["1/2", "-1/2"], "t", nonnegative=True)


def test_bulk_reader_takes_json_int_lists():
    assert _bulk_ratios([1, -2, 7], False) == ([1, -2, 7], [1, 1, 1])
    # A sign against the rule, or a non-int entry, leaves the list to the
    # per-entry reader, which names the entry.
    assert _bulk_ratios([1, -2, 7], True) is None
    for entries in ([], [True], [1, True], [1, "2"]):
        assert _bulk_ratios(entries, False) is None and _bulk_ratios(entries, True) is None
    with pytest.raises(ProblemFileError, match=r"^t\[1\]: must be >= 0"):
        _parse_ratios([1, -2, 7], "t", nonnegative=True)
    with pytest.raises(ProblemFileError, match=r"^t\[1\]: expected a rational"):
        _parse_ratios([1, True], "t")


# Integer chain parse against the per-entry rational parse ---------------


def _old_chain(section, m, n):
    """The rational parse of a chain: one _parse_rational per entry, in
    order, with the shape checks between them, then a rational sum per law."""
    init, transitions = section["init"], section["transitions"]
    if not isinstance(init, list) or len(init) != m:
        raise ProblemFileError("measure.markov.init", f"expected {m} entries")
    if not isinstance(transitions, list) or len(transitions) != n - 1:
        raise ProblemFileError("measure.markov.transitions", f"expected {n - 1} transition matrices")
    init = _per_entry(init, "measure.markov.init", nonnegative=True)
    mats = []
    for t, matrix in enumerate(transitions):
        path = f"measure.markov.transitions[{t}]"
        if not isinstance(matrix, list) or len(matrix) != m:
            raise ProblemFileError(path, f"expected {m} rows")
        rows = []
        for a, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != m:
                raise ProblemFileError(f"{path}[{a}]", f"expected {m} entries")
            rows.append(_per_entry(row, f"{path}[{a}]", nonnegative=True))
        mats.append(tuple(rows))
    laws = [("initial distribution", init)]
    laws += [(f"transition matrix {t} row {a}", row) for t, rows in enumerate(mats) for a, row in enumerate(rows)]
    for what, law in laws:
        if sum(law, rat(0)) != 1:
            raise ProblemFileError("measure.markov", f"{what} must sum to exactly 1")
    return init, tuple(mats)


def _assert_same_chain(section, m, n):
    doc = {"alphabet": m, "n": n, "measure": {"markov": section}}
    new = _outcome(lambda: parse_problem(doc).measure)
    old = _outcome(lambda: _old_chain(section, m, n))
    assert new[1] == old[1]
    if old[0] is not None:
        init, mats = old[0]
        spec = new[0]
        assert type(spec) is MarkovSpec
        assert (spec.initial, spec.transitions) == (init, mats)
        # Each law over the least common denominator of its reduced entries.
        laws = [[init]] + [list(rows) for rows in mats]
        for law, rows, den in zip(laws, spec.laws, spec.dens, strict=True):
            cells, expected_den = over_common_denominator([p for row in law for p in row])
            assert den == expected_den
            assert [x for row in rows for x in row] == cells


@st.composite
def markov_sections(draw):
    """(section, m, n): chains whose rows often sum to 1, with occasional
    wrong row lengths, row counts, matrix counts and non-list rows."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = probability_spellings | probability_spellings | table_entries

    def law():
        row = draw(st.lists(entries, min_size=m - 1, max_size=m - 1))
        row.append(_completion(row))
        # Hypothesis favours the ends of a range, so the flaws sit inside it.
        flaw = draw(st.integers(0, 59))
        if flaw == 20:
            return row[:-1]
        if flaw == 21:
            return row + ["0"]
        if flaw == 22:
            return draw(st.sampled_from(("1", None, {"row": row})))
        if flaw in (23, 24):
            row[-1] = draw(st.sampled_from(("0", "1", "1/7")))
        return row

    def matrix():
        rows = [law() for _ in range(m)]
        return rows[:-1] if draw(st.integers(0, 59)) == 20 else rows

    transitions = [matrix() for _ in range(n - 1)]
    if draw(st.integers(0, 59)) == 20:
        transitions.append(matrix())
    return {"init": law(), "transitions": transitions}, m, n


@given(markov_sections())
@settings(max_examples=300, deadline=None)
def test_integer_chain_parse_matches_rational_parse(case):
    _assert_same_chain(*case)


_TWO_STATE = ["1/2", "1/2"]


@pytest.mark.parametrize(
    "init,rows",
    [
        (["2/4", "1e-1"], [["1e-1", "0.9"], ["٣/12", " 3/4 "]]),
        ([" 1/4 ", "0.75"], [["2/4", "2/4"], ["1", "0"]]),
        ([0, 1], [["-0", "+1"], ["1/3", "4/6"]]),
        (["-1/2", "3/2"], [_TWO_STATE, _TWO_STATE]),
        (_TWO_STATE, [["1/2", "-1/2"], _TWO_STATE]),
        (["1/2", "1/3"], [_TWO_STATE, _TWO_STATE]),
        (_TWO_STATE, [_TWO_STATE, ["1/3", "1/3"]]),
        (["1/2", "1/3"], [_TWO_STATE, ["x", "1"]]),  # a bad entry is found before a bad sum
        (_TWO_STATE, [_TWO_STATE, ["1/2"]]),
        (_TWO_STATE, [_TWO_STATE]),
        (_TWO_STATE, [_TWO_STATE, _TWO_STATE, _TWO_STATE]),
        (["1/2"], [_TWO_STATE, _TWO_STATE]),
        (_TWO_STATE, [["1" * 5000, "0"], _TWO_STATE]),
        (_TWO_STATE, [["1e-4301", "1"], _TWO_STATE]),
        (_TWO_STATE, [["1/" + "7" * 4301, "1"], _TWO_STATE]),
    ],
)
def test_chain_spellings_match_rational_parse(init, rows):
    _assert_same_chain({"init": init, "transitions": [rows]}, 2, 2)


def test_chain_from_strings_rationals_and_file_are_equal():
    rows = (("9/10", "1/10"), ("2/4", "0.5"))
    from_strings = MarkovSpec(("1/4", "3/4"), (rows,))
    from_rationals = MarkovSpec(
        initial=(rat(1, 4), rat(3, 4)),
        transitions=(((rat(9, 10), rat(1, 10)), (rat(1, 2), rat(1, 2))),),
    )
    doc = _doc(measure={"markov": {"init": ["0.25", "3/4"], "transitions": [[list(r) for r in rows]]}})
    from_file = parse_problem(doc).measure
    assert from_strings == from_rationals == from_file
    assert hash(from_strings) == hash(from_rationals) == hash(from_file)
    assert from_file.initial == (rat(1, 4), rat(3, 4))
    assert from_file.transitions == (((rat(9, 10), rat(1, 10)), (rat(1, 2), rat(1, 2))),)
