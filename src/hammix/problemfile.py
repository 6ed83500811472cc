"""JSON problem files: parsing and validation.

One JSON document describes one problem instance: alphabet, word length,
weights, a function (dense table or named builtin), a measure (dense table
or Markov chain spec), the box slack v, tail thresholds and a simulation
config.  Subcommands require different subsets; parsing validates the
whole document structurally and records the JSON path of the first
offending field in :class:`ProblemFileError`.  Alphabet labels are
validated (one distinct string per symbol) but not kept: a problem's
alphabet is its size.

All rationals are parsed exactly: "3/2", "0.125" (decimal strings convert
without rounding; exponents, numerators and denominators are held to
``sys.get_int_max_str_digits()``) and plain integers are accepted; JSON
floats are not, except in ``thresholds`` / ``simulation.thresholds``,
which are genuinely floating-point quantities.

Dense tables and Markov chains are built once, here, from integers.  A
list of JSON ints, of ASCII "p" strings, or of "p/q" strings is converted
in bulk, in C-level passes over the whole list: one ``str.translate``
checks the joined text's separators, one ``int`` map reads it, and a table
gets two integer columns, numerators and denominators, which
:meth:`~hammix.words.TableFunction.from_ratios` scales to their common
denominator in one pass, with no tuple per entry.
Any other list is read entry by entry through
:func:`~hammix.rational.rat`.  The accepted spellings, the values and
every error are those of parsing each entry with ``rat``.

Builtins avoid shipping m^n-entry tables for the canonical test functions:

    "sum_of_symbols"        f(x) = x_1 + ... + x_n
    "indicator:<word>"      1 at the given word, else 0
    "hamming_to:<word>"     d_w(x, word) with the file's weights

``<word>`` is a string of ASCII digits ("0110") or comma-separated ASCII
digit strings ("0,1,1,0"); the comma form is required when the alphabet
has more than ten symbols, except for a one-symbol word (n = 1), whose
whole text is its symbol ("11").  The word is parsed once, here, into a
:class:`~hammix.words.Builtin`, which builds its m^n table only when a
stage reads one.  :func:`resolve_function`, :func:`resolve_measure` and
:func:`check_table_size` hold the tables a caller asks for to the cap
(``max_table``); a chain's spec is handed on as parsed, so for a chain the
cap is on the n x n mixing matrix.  Which tables each subcommand builds is
the CLI's policy (see :func:`hammix.cli._function_and_measure`).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from numbers import Rational
from typing import Any

from .mixing import MAX_DENSE_TABLE, MarkovSpec, Measure
from .montecarlo import SimulationConfig
from .rational import rat, rat_str
from .words import Builtin, TableFunction, WeightVector, Word

_BUILTIN_NAMES = ("sum_of_symbols", "indicator", "hamming_to")

# What the bulk reader deletes from a table's joined text to leave its separators.
_DELETE_DIGITS_AND_MINUS = str.maketrans("", "", "0123456789-")
# A builtin word's symbols: ASCII digits only (int() would also take
# whitespace, "_" separators and other scripts' digits).
_SYMBOL = re.compile(r"[0-9]+")


class ProblemFileError(ValueError):
    """Invalid problem file; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ProblemFile:
    alphabet: int
    n: int
    weights: WeightVector | None
    function: TableFunction | Builtin | None
    measure: Measure | MarkovSpec | None
    v: Rational
    thresholds: tuple[float, ...]
    simulation: SimulationConfig | None


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ProblemFileError(f"{path}{key}", "required field is missing")
    return doc[key]


def _parse_rational(value: Any, path: str, *, positive: bool = False, nonnegative: bool = False):
    if isinstance(value, float):
        raise ProblemFileError(
            path, f"floats are not exact; write {value!r} as a decimal string"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProblemFileError(path, f"expected a rational (int or string), got {value!r}")
    try:
        parsed = rat(value)
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(path, str(exc)) from None
    if positive and parsed <= 0:
        raise ProblemFileError(path, f"must be > 0, got {rat_str(parsed)}")
    if nonnegative and parsed < 0:
        raise ProblemFileError(path, f"must be >= 0, got {rat_str(parsed)}")
    return parsed


def _parse_word(text: str, m: int, n: int, path: str) -> Word:
    if "," in text:
        parts = text.split(",")
    elif m <= 10:
        parts = list(text)
    elif n == 1:  # a one-symbol word has no comma to write
        parts = [text]
    else:
        raise ProblemFileError(path, "alphabets larger than 10 need comma-separated words")
    if not all(map(_SYMBOL.fullmatch, parts)):
        raise ProblemFileError(path, f"cannot parse word from {text!r}")
    symbols = tuple(map(int, parts))
    if len(symbols) != n:
        raise ProblemFileError(path, f"word {text!r} has length {len(symbols)}, expected {n}")
    for s in symbols:
        if not 0 <= s < m:
            raise ProblemFileError(path, f"symbol {s} out of range for alphabet of size {m}")
    return symbols


def _parse_alphabet(value: Any) -> int:
    """The alphabet size; optional labels are validated, then dropped."""
    is_object = isinstance(value, dict)
    size = _require(value, "size", "alphabet.") if is_object else value
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        path = "alphabet.size" if is_object else "alphabet"
        raise ProblemFileError(path, f"expected an integer >= 1, got {size!r}")
    labels = value.get("labels") if is_object else None
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size:
            raise ProblemFileError("alphabet.labels", f"expected a list of {size} labels")
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise ProblemFileError(f"alphabet.labels[{i}]", f"expected a string, got {label!r}")
        if len(set(labels)) != size:
            raise ProblemFileError("alphabet.labels", "labels must be distinct")
    return size


def _parse_ratios(entries: list, path: str, nonnegative: bool = False) -> tuple[list[int], list[int]]:
    """The entries as two integer columns, numerators p and denominators q > 0, value p / q.

    A list of JSON ints, of "p" strings, or of "p/q" strings is read in
    bulk by :func:`_bulk_ratios`.  Any other list, or one the bulk reader
    refuses, is read entry by entry with :func:`_parse_rational`, which
    either returns the value or raises the field's error, naming the
    entry's index.  Both readers give columns of the same values.
    """
    columns = _bulk_ratios(entries, nonnegative)
    if columns is None:
        values = [_parse_rational(e, f"{path}[{i}]", nonnegative=nonnegative) for i, e in enumerate(entries)]
        columns = [v.numerator for v in values], [v.denominator for v in values]
    return columns


def _bulk_ratios(entries: list, nonnegative: bool) -> tuple[list[int], list[int]] | None:
    """The columns of a nonempty list of JSON ints, of ASCII "p" strings, or
    of "p/q" strings, else None.

    Strings are checked on their joined text: deleting its ASCII digits and
    "-" (``str.translate``) must leave exactly the separators of the form,
    "," between entries and one "/" in each for "p/q".  Each piece between
    separators then holds only ASCII digits and "-", and ``int`` reads it
    exactly when it is an optional "-" and at least one digit, so the list
    is converted by one ``int`` map over the pieces, in O(len(text)) C-level
    work.  None (read the entries one by one) when the list mixes the
    forms, holds anything else, or has an entry the per-entry reader would
    refuse or report: a denominator that is 0 or signed, a sign against the
    rule, a number past the digit limit.
    """
    if entries and type(entries[0]) is int and all(type(p) is int for p in entries):
        return (entries, [1] * len(entries)) if not nonnegative or min(entries) >= 0 else None
    try:
        text = ",".join(entries)
    except TypeError:  # an entry that is not a string
        return None
    separators = text.translate(_DELETE_DIGITS_AND_MINUS)
    ratios = separators == "/," * (len(entries) - 1) + "/"
    if not ratios and separators != "," * (len(entries) - 1):
        return None
    try:
        values = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:  # an empty or misplaced "-" piece, or past the int digit limit
        return None
    nums, dens = (values[::2], values[1::2]) if ratios else (values, [1] * len(values))
    if min(dens) < 1 or (nonnegative and min(nums) < 0):
        return None
    return nums, dens


def _parse_table(table: Any, m: int, n: int, path: str, nonnegative: bool = False):
    """A dense table's entries as integer columns, after checking its length."""
    if not isinstance(table, list):
        raise ProblemFileError(path, "expected a list of rationals")
    if len(table) != _word_count(m, n, len(table)):
        raise ProblemFileError(path, f"expected {m}^{n} entries, got {len(table)}")
    return _parse_ratios(table, path, nonnegative)


def _parse_function(
    value: Any, m: int, n: int, weights: WeightVector | None
) -> TableFunction | Builtin:
    if isinstance(value, dict) and "table" in value:
        return TableFunction.from_ratios(m, n, *_parse_table(value["table"], m, n, "function.table"))
    if isinstance(value, dict) and "builtin" in value:
        value = value["builtin"]
    if isinstance(value, str):
        name, colon, arg = value.partition(":")
        if name not in _BUILTIN_NAMES:
            raise ProblemFileError(
                "function.builtin", f"unknown builtin {name!r}; known: {', '.join(_BUILTIN_NAMES)}"
            )
        if name == "sum_of_symbols":
            if colon:
                raise ProblemFileError("function.builtin", "sum_of_symbols takes no argument")
            return Builtin(name, m, n)
        if not colon:
            raise ProblemFileError("function.builtin", f"{name} needs an argument word")
        target = _parse_word(arg, m, n, "function.builtin")
        return Builtin(name, m, n, target, weights if name == "hamming_to" else None)
    raise ProblemFileError("function", f"expected a table or builtin, got {value!r}")


def _parse_measure(value: Any, m: int, n: int) -> Measure | MarkovSpec:
    if not isinstance(value, dict):
        raise ProblemFileError("measure", f"expected an object, got {value!r}")
    if "dense" in value:
        columns = _parse_table(value["dense"], m, n, "measure.dense", nonnegative=True)
        try:
            return Measure.from_ratios(m, n, *columns)
        except ValueError:  # the entries are nonnegative, so only sum(nums) == den can fail
            raise ProblemFileError("measure.dense", "entries must sum to exactly 1") from None
    if "markov" in value:
        spec = value["markov"]
        if not isinstance(spec, dict):
            raise ProblemFileError("measure.markov", "expected an object")
        init = _require(spec, "init", "measure.markov.")
        transitions = _require(spec, "transitions", "measure.markov.")
        if not isinstance(init, list) or len(init) != m:
            raise ProblemFileError("measure.markov.init", f"expected {m} entries")
        if not isinstance(transitions, list) or len(transitions) != n - 1:
            raise ProblemFileError(
                "measure.markov.transitions", f"expected {n - 1} transition matrices"
            )
        init = _parse_ratios(init, "measure.markov.init", nonnegative=True)
        mats = []
        for t, matrix in enumerate(transitions):
            path = f"measure.markov.transitions[{t}]"
            if not isinstance(matrix, list) or len(matrix) != m:
                raise ProblemFileError(path, f"expected {m} rows")
            rows = []
            for a, row in enumerate(matrix):
                if not isinstance(row, list) or len(row) != m:
                    raise ProblemFileError(f"{path}[{a}]", f"expected {m} entries")
                rows.append(_parse_ratios(row, f"{path}[{a}]", nonnegative=True))
            mats.append(rows)
        try:
            return MarkovSpec.from_ratios(init, mats)
        except ValueError as exc:  # the entries are nonnegative: a law does not sum to 1
            raise ProblemFileError("measure.markov", str(exc)) from None
    raise ProblemFileError("measure", "expected a 'dense' or 'markov' key")


def _parse_thresholds(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ProblemFileError(path, "expected a nonempty list of positive numbers")
    out = []
    for i, t in enumerate(value):
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ProblemFileError(f"{path}[{i}]", f"expected a number, got {t!r}")
        # The upper end also rejects NaN, the infinities and ints too large
        # for a float.
        if not 0 < t <= sys.float_info.max:
            raise ProblemFileError(f"{path}[{i}]", f"expected a finite number > 0, got {t!r}")
        out.append(float(t))
    return tuple(out)


def parse_problem(doc: Any) -> ProblemFile:
    """Validate a decoded JSON document into a :class:`ProblemFile`."""
    if not isinstance(doc, dict):
        raise ProblemFileError("$", "problem file must be a JSON object")
    m = _parse_alphabet(_require(doc, "alphabet", ""))
    n = _require(doc, "n", "")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ProblemFileError("n", f"expected an integer >= 1, got {n!r}")

    weights = None
    if "weights" in doc:
        raw = doc["weights"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ProblemFileError("weights", f"expected a list of {n} rationals")
        entries = [
            _parse_rational(e, f"weights[{i}]", positive=True) for i, e in enumerate(raw)
        ]
        weights = WeightVector(entries)

    function = _parse_function(doc["function"], m, n, weights) if "function" in doc else None
    measure = _parse_measure(doc["measure"], m, n) if "measure" in doc else None
    v = _parse_rational(doc["v"], "v", nonnegative=True) if "v" in doc else rat(0)
    thresholds = (
        _parse_thresholds(doc["thresholds"], "thresholds") if "thresholds" in doc else ()
    )

    simulation = None
    if "simulation" in doc:
        sim = doc["simulation"]
        if not isinstance(sim, dict):
            raise ProblemFileError("simulation", "expected an object")
        count = _require(sim, "sample_count", "simulation.")
        seed = _require(sim, "seed", "simulation.")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ProblemFileError("simulation.sample_count", f"expected an integer >= 1, got {count!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ProblemFileError("simulation.seed", f"expected an integer, got {seed!r}")
        sim_thresholds = _parse_thresholds(
            sim.get("thresholds", list(thresholds)), "simulation.thresholds"
        )
        simulation = SimulationConfig(count, seed, sim_thresholds)

    return ProblemFile(
        alphabet=m,
        n=n,
        weights=weights,
        function=function,
        measure=measure,
        v=v,
        thresholds=thresholds,
        simulation=simulation,
    )


def resolve_function(
    problem: ProblemFile, max_table: int = MAX_DENSE_TABLE, table: bool = True
) -> TableFunction | Builtin:
    """The file's function: a dense table, or with ``table=False`` a builtin as parsed.

    Only a table is held to the cap: a table function always, a builtin
    when it is expanded here.
    """
    f = problem.function
    if f is None:
        raise ProblemFileError("function", "this subcommand needs a 'function' section")
    if isinstance(f, Builtin):
        if f.name == "hamming_to" and f.weights is None:
            raise ProblemFileError("function.builtin", "hamming_to requires a 'weights' section")
        if not table:
            return f
    check_table_size(problem.alphabet, problem.n, max_table)
    return f.table()


def resolve_measure(problem: ProblemFile, max_table: int = MAX_DENSE_TABLE) -> Measure | MarkovSpec:
    """The file's :class:`Measure` or :class:`MarkovSpec`; a chain's cap is on its n x n Delta."""
    if problem.measure is None:
        raise ProblemFileError("measure", "this subcommand needs a 'measure' section")
    n = problem.n
    if not isinstance(problem.measure, MarkovSpec):
        check_table_size(problem.alphabet, n, max_table)
    elif n * n > max_table:
        raise ProblemFileError(
            "n", f"mixing matrix of {n}^2 entries exceeds the cap of {max_table}"
        )
    return problem.measure


def _word_count(m: int, n: int, cap: int) -> int:
    """m**n, or cap + 1 when m**n exceeds cap, without building a huge power."""
    if m > 1 and n > cap.bit_length():
        return cap + 1
    return min(m**n, cap + 1)


def check_table_size(m: int, n: int, max_table: int) -> None:
    """Refuse an m^n table larger than ``max_table``, naming the field n."""
    if _word_count(m, n, max_table) > max_table:
        raise ProblemFileError(
            "n", f"dense table of {m}^{n} entries exceeds the cap of {max_table}"
        )
