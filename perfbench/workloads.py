"""Seeded inputs and operations of the two benchmark workloads.

Imported only by the worker process, which runs with ``src`` on its path.
Every workload is a fixed list of :class:`Op` objects built from the
benchmark seed; the worker runs the list in passes, so every op executes
once per pass on identical inputs.  An op returns a JSON-able output that
the parent process checks and digests.

Why each workload exists, which layers it exercises and which it bypasses
is recorded in ``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import hammix.cli
from hammix import instances, lipschitz_lp
from hammix.mixing import MarkovSpec
from hammix.rational import rat, rat_str
from hammix.simplex import simplex_max
from hammix.words import TableFunction, WeightVector

#: Seed of the fixed panel of larger LPs (selftest's default seed).  The
#: panel does not follow --seed: one LP's pivot count varies by a factor of
#: ten between draws of the same shape, so a seeded panel of a dozen LPs
#: would move ops_per_s by more than its bound from one seed to the next.
LP_PANEL_SEED = 20240801


@dataclass
class Op:
    """One unit of timed work: ``run()`` is what the latency covers."""

    op_id: str
    run: Callable[[], Any]
    #: Input description the parent needs for its independent checks.
    check_input: dict = field(default_factory=dict)
    #: Extra untimed work done once per traced pass (exact LP counters).
    count: Callable[[], dict] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], Any]


# --------------------------------------------------------------- lp_verify


def _lp_rows(problem: lipschitz_lp.LpProblem):
    """Standard-form rows built from the public fields of an LpProblem."""
    one = rat(1)
    rows = [{j: one} for j in range(problem.num_vars)]
    rhs = [problem.upper_bound] * problem.num_vars
    for x, y, bound in problem.difference_constraints:
        rows.append({x: one, y: -one})
        rhs.append(bound)
    return rows, rhs


def _max_bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _lp_counters(k: TableFunction, w: WeightVector, v, report) -> dict:
    """Pivots, rows and bit-lengths of the LPs one verify_phi_psi solves.

    LpCertificate drops the pivot count, so the same LPs are re-solved with
    the public simplex_max; their objectives must equal the report's.
    """
    signs = (k, -k) if v == 0 else (k,)
    pivots = rows_total = bits = 0
    objectives = []
    for signed in signs:
        problem = lipschitz_lp.build_polytope_lp(signed, w, v)
        rows, rhs = _lp_rows(problem)
        result = simplex_max(problem.objective, rows, rhs)
        pivots += result.pivots
        rows_total += len(rows)
        bits = max(bits, _max_bits(result.primal + result.dual + (result.objective_value,)))
        objectives.append(result.objective_value)
    if objectives[0] != report.lhs or (v == 0 and max(objectives) != report.norm_lhs):
        raise AssertionError("simplex_max objective differs from solve_lp's")
    return {
        "simplex.pivots": pivots,
        "simplex.rows": rows_total,
        "rational.max_bits": bits,
    }


def _lp_op(op_id: str, k: TableFunction, w: WeightVector, v) -> Op:
    last = {}

    def run():
        report = lipschitz_lp.verify_phi_psi(k, w, v)
        last["report"] = report
        return {
            "lhs": rat_str(report.lhs),
            "rhs": rat_str(report.rhs),
            "holds": report.holds,
            "norm_lhs": None if report.norm_lhs is None else rat_str(report.norm_lhs),
            "norm_rhs": None if report.norm_rhs is None else rat_str(report.norm_rhs),
            "norm_holds": report.norm_holds,
        }

    def count():
        return _lp_counters(k, w, v, last["report"])

    check_input = {
        "m": k.alphabet_size,
        "n": k.arity,
        "k": [rat_str(x) for x in k.values],
        "w": [rat_str(x) for x in w],
        "v": rat_str(v),
    }
    return Op(op_id, run, check_input, count)


def lp_verify(seed: int, smoke: bool) -> Workload:
    """Mostly selftest-sized LPs, plus a fixed panel of larger ones."""
    rng = random.Random(f"lp_verify:{seed}")
    ops = []
    # The shapes and slacks of selftest criteria 1 and 2, in fixed
    # proportions so that the median op lies among the same shapes at every
    # seed, and 30 LPs per (shape, v) so that it moves little from seed to
    # seed; the 27-word shape belongs to the panel, so the small LPs stay
    # small.
    per_stratum = 1 if smoke else 30
    for m, n in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        for v in ("0", "1/2", "1"):
            for _ in range(per_stratum):
                k = instances.random_table(rng, m, n)
                w = instances.random_weights(rng, n)
                ops.append(_lp_op(f"small{len(ops):03d}-m{m}n{n}", k, w, rat(v)))

    # Eleven panel LPs of 27 words or more, all slower than any small LP,
    # so that op_ms_tail (ten ops beyond it) is the fastest of them.
    panel_rng = random.Random(LP_PANEL_SEED)
    shapes = [(2, 4)] if smoke else ([(2, 4)] * 4 + [(3, 3)] * 3 + [(2, 5)] * 3 + [(2, 6)]
                                     + [(3, 3)] * 2 + [(2, 5)] * 2)
    for idx, (m, n) in enumerate(shapes):
        k = instances.random_table(panel_rng, m, n)
        w = instances.random_weights(panel_rng, n)
        v = rat(panel_rng.choice(("1/2", "1")))
        ops.append(_lp_op(f"panel{idx:02d}-m{m}n{n}", k, w, v))

    first = ops[0]
    return Workload(ops, first.run)


# -------------------------------------------------------------- mixing_cli


def _markov_section(spec: MarkovSpec) -> dict:
    return {
        "markov": {
            "init": [rat_str(p) for p in spec.initial],
            "transitions": [[[rat_str(p) for p in row] for row in t] for t in spec.transitions],
        }
    }


def _dense_section(probabilities) -> dict:
    return {"dense": [rat_str(p) for p in probabilities]}


def _word_text(rng: random.Random, m: int, n: int) -> str:
    return ",".join(str(rng.randrange(m)) for _ in range(n))


def _problem(rng, m, n, function, measure) -> dict:
    return {
        "alphabet": m,
        "n": n,
        "weights": [rat_str(x) for x in instances.random_weights(rng, n)],
        "function": function,
        "measure": measure,
        "thresholds": [1.0, 2.0, 3.0],
    }


def _table(rng, m, n) -> dict:
    return {"table": [rat_str(x) for x in instances.random_table(rng, m, n).values]}


def _criterion9_chain(n: int) -> MarkovSpec:
    rows = ((rat("9/10"), rat("1/10")), (rat("1/10"), rat("9/10")))
    return MarkovSpec((rat("1/2"), rat("1/2")), tuple(rows for _ in range(n - 1)))


def _simulated(rng: random.Random, doc: dict, samples: int) -> dict:
    """The document with a seeded simulation section."""
    simulation = {"sample_count": samples, "seed": rng.getrandbits(63), "thresholds": [1.0, 2.0, 3.0]}
    return dict(doc, simulation=simulation)


def _mixing_files(rng: random.Random, smoke: bool) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(name, problem document, subcommands) for every generated file."""
    every = ("eta", "martingale", "bound", "psi", "decompose")
    samples = 40 if smoke else 1000
    chain9 = _problem(rng, 2, 8, "sum_of_symbols", _markov_section(_criterion9_chain(8)))
    chain9["weights"] = ["1"] * 8
    sampled = [("chain9-m2n8", _simulated(rng, chain9, samples), ("simulate",))]
    if smoke:
        return sampled + [
            ("markov-m2n4", _problem(rng, 2, 4, "sum_of_symbols",
                                     _markov_section(instances.random_markov_spec(rng, 2, 4))), every),
            ("dense-m2n3", _problem(rng, 2, 3, _table(rng, 2, 3),
                                    _dense_section(instances.random_dense_measure(rng, 2, 3).probabilities)), every),
        ]
    chain3 = _problem(rng, 3, 6, "sum_of_symbols", _markov_section(instances.random_markov_spec(rng, 3, 6)))
    sampled.append(("markov-m3n6", _simulated(rng, chain3, samples), ("simulate",)))
    files = []
    for m, n, function in (
        (2, 10, "sum_of_symbols"),
        (2, 12, f"hamming_to:{_word_text(rng, 2, 12)}"),
        (3, 7, "sum_of_symbols"),
        (4, 5, _table(rng, 4, 5)),
    ):
        spec = instances.random_markov_spec(rng, m, n)
        # At 2^12 words martingale and bound would double the pass time.
        subcommands = ("eta", "psi", "decompose") if (m, n) == (2, 12) else every
        files.append((f"markov-m{m}n{n}", _problem(rng, m, n, function, _markov_section(spec)), subcommands))
    for m, n, function in ((2, 10, _table(rng, 2, 10)), (3, 6, f"hamming_to:{_word_text(rng, 3, 6)}")):
        measure = instances.random_dense_measure(rng, m, n, allow_zeros=True)
        doc = _problem(rng, m, n, function, _dense_section(measure.probabilities))
        if (m, n) == (2, 10):
            # The exact sampler runs on this file, the criterion-9 chain and
            # the 3-symbol chain.
            sampled.append((f"dense0-m{m}n{n}", _simulated(rng, doc, samples), every + ("simulate",)))
        else:
            files.append((f"dense0-m{m}n{n}", doc, every))
    product = instances.random_product_measure(rng, 2, 10)
    files.append(("product-m2n10", _problem(rng, 2, 10, "sum_of_symbols", _dense_section(product.probabilities)), every))
    return sampled + files


def _run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hammix.cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def mixing_cli(seed: int, smoke: bool, workdir: Path) -> Workload:
    """CLI subcommands on generated problem files."""
    rng = random.Random(f"mixing_cli:{seed}")
    ops = []
    for name, doc, subcommands in _mixing_files(rng, smoke):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        for sub in subcommands:
            argv = [sub, str(path)]
            ops.append(Op(f"{name}:{sub}", lambda argv=argv: _run_cli(argv), {"file": name}))
    warm = [op for op in ops if op.op_id.endswith(":psi")][-1]
    return Workload(ops, warm.run)


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    if name == "lp_verify":
        return lp_verify(seed, smoke)
    if name == "mixing_cli":
        return mixing_cli(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("lp_verify", "mixing_cli")
