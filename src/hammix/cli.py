"""Batch front door: parse a problem file, compute, emit one JSON report.

Each file subcommand is declared once, with its handler and help text,
in ``_COMMANDS``; ``selftest`` runs the random-instance verification suite
and takes no file.  ``hammix --help`` lists them all.

The report goes to stdout as a single JSON document (rationals as "p/q"
strings, floats in shortest round-trip decimal); a short human summary
goes to stderr.  Exit codes: 0 success, 1 invalid input (the message names
the offending field) or a report value too long to print, 2 internal
certificate failure, 3 a verify-style subcommand found a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any

from . import __version__
from .lipschitz_lp import build_polytope_lp, solve_lp, verify_phi_psi
from .martingale import concentration_bound, kernel_terms, verify_sumvi
from .mixing import MAX_DENSE_TABLE, delta_matrix, operator_norm_2
from .montecarlo import SimulationConfig, empirical_tail
from .problemfile import (
    ProblemFile,
    ProblemFileError,
    check_table_size,
    parse_problem,
    resolve_function,
    resolve_measure,
)
from .psi import norm_shift, psi, psi_decomposition_rhs
from .rational import DigitLimitError, rat_str
from .simplex import SimplexError

_EXIT_OK = 0
_EXIT_INVALID_INPUT = 1
_EXIT_CERTIFICATE = 2
_EXIT_VIOLATION = 3


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="hammix",
        description="exact verification of weighted-Hamming Lipschitz and mixing bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem_file", help="path to the JSON problem file")
        p.add_argument(
            "--max-table",
            type=int,
            default=MAX_DENSE_TABLE,
            help=(
                "largest table this run may build, at least 1: m^n for f's or a dense measure's table, "
                "n^2 for a chain's mixing matrix (bound builds no table of a builtin; "
                "martingale and simulate none of sum_of_symbols or hamming_to on a chain)"
            ),
        )
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override the file's seed")

    self_test = sub.add_parser("selftest", help="run the random-instance verification suite")
    self_test.add_argument("--instances", type=int, default=500, help="random instances per LP criterion")
    self_test.add_argument(
        "--seed", type=int, default=None, help="seed for instance generation (default: the suite's own)"
    )
    self_test.add_argument(
        "--mc-samples", type=int, default=100_000, help="Monte Carlo sample count"
    )
    return parser


def _load(args: argparse.Namespace) -> tuple[ProblemFile, str]:
    try:
        with open(args.problem_file, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ProblemFileError("$", f"cannot read {args.problem_file}: {exc}") from None
    import hashlib  # only here: importing hammix.cli stays lighter without it

    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, undecodable bytes and integer
        # literals past Python's digit limit; RecursionError, deep nesting.
        raise ProblemFileError("$", f"not valid JSON: {type(exc).__name__}: {exc}") from None
    return parse_problem(doc), digest


def _certificate_payload(cert) -> dict:
    return {
        "objective_value": rat_str(cert.objective_value),
        "primal": [rat_str(x) for x in cert.primal],
        "dual": [rat_str(y) for y in cert.dual],
    }


def _cmd_psi(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f = resolve_function(problem, args.max_table)
    w = _weights(problem)
    value = psi(w, f)
    norm = value + norm_shift(w, f)  # psi_norm, reusing psi(w, f)
    payload = {"psi": rat_str(value), "psi_norm": rat_str(norm)}
    return payload, _EXIT_OK, f"psi = {rat_str(value)}, psi_norm = {rat_str(norm)}"


def _cmd_phi(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f = resolve_function(problem, args.max_table)
    w = _weights(problem)
    cert_pos = solve_lp(build_polytope_lp(f, w, 0))
    cert_neg = solve_lp(build_polytope_lp(-f, w, 0))
    norm = cert_pos.objective_value + norm_shift(w, f)  # phi_norm, the identity verify_phi_psi uses
    payload = {
        "phi_norm": rat_str(norm),
        "positive": _certificate_payload(cert_pos),
        "negative": _certificate_payload(cert_neg),
    }
    return payload, _EXIT_OK, f"phi_norm = {rat_str(norm)}"


def _cmd_verify_lp(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f = resolve_function(problem, args.max_table)
    w = _weights(problem)
    report = verify_phi_psi(f, w, problem.v)
    payload = {
        "v": rat_str(problem.v),
        "lhs": rat_str(report.lhs),
        "rhs": rat_str(report.rhs),
        "holds": report.holds,
        "norm_lhs": rat_str(report.norm_lhs) if report.norm_lhs is not None else None,
        "norm_rhs": rat_str(report.norm_rhs) if report.norm_rhs is not None else None,
        "norm_holds": report.norm_holds,
    }
    ok = report.holds and report.norm_holds is not False
    code = _EXIT_OK if ok else _EXIT_VIOLATION
    summary = f"verify-lp: lhs {rat_str(report.lhs)} <= rhs {rat_str(report.rhs)}: {'holds' if ok else 'VIOLATED'}"
    return payload, code, summary


def _cmd_decompose(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f = resolve_function(problem, args.max_table)
    w = _weights(problem)
    lhs = psi(w, f)
    rhs = psi_decomposition_rhs(w, f)
    payload = {"psi": rat_str(lhs), "decomposition_rhs": rat_str(rhs), "equal": lhs == rhs}
    return payload, _EXIT_OK, f"decompose: {rat_str(lhs)} vs {rat_str(rhs)}"


def _cmd_eta(problem: ProblemFile, args) -> tuple[dict, int, str]:
    P = resolve_measure(problem, args.max_table)
    delta = delta_matrix(P)
    norm = operator_norm_2(delta)
    rows = [[rat_str(x) for x in row] for row in delta.entries]
    payload = {
        "eta_bar": [
            {"i": i + 1, "j": j + 1, "value": rows[i][j]}
            for i in range(delta.size)
            for j in range(i + 1, delta.size)
        ],
        "delta": rows,
        "delta_operator_norm": norm,
    }
    return payload, _EXIT_OK, f"eta: {P.arity}x{P.arity} mixing matrix, ||Delta||_2 ~= {norm:.6g}"


def _function_and_measure(problem: ProblemFile, args) -> tuple:
    """f and P for martingale and simulate; a builtin stays a builtin.

    Its Lipschitz constant is then closed-form, and where the stages read
    its table (no kernel terms) they build it once; that table is held to
    the cap here, before any table is built.
    """
    f = resolve_function(problem, args.max_table, table=False)
    P = resolve_measure(problem, args.max_table)
    if kernel_terms(f, P) is None:
        check_table_size(problem.alphabet, problem.n, args.max_table)
    return f, P


def _cmd_martingale(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f, P = _function_and_measure(problem, args)
    w = _weights(problem)
    report = verify_sumvi(f, P, w)
    payload = {
        "v_bars": [rat_str(x) for x in report.v_bars],
        "d_squared": rat_str(report.lhs),
        "lipschitz": rat_str(report.lipschitz),
        "delta_w": [rat_str(x) for x in report.delta_w],
        "lhs": rat_str(report.lhs),
        "rhs": rat_str(report.rhs),
        "per_coordinate_holds": list(report.per_i_holds),
        "holds": report.holds,
    }
    ok = report.holds and all(report.per_i_holds)
    code = _EXIT_OK if ok else _EXIT_VIOLATION
    summary = f"martingale: d^2 {rat_str(report.lhs)} <= {rat_str(report.rhs)}: {'holds' if ok else 'VIOLATED'}"
    return payload, code, summary


def _cmd_bound(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f = resolve_function(problem, args.max_table, table=False)  # reads oscillations only
    P = resolve_measure(problem, args.max_table)
    w = _weights(problem)
    if not problem.thresholds:
        raise ProblemFileError("thresholds", "bound needs a 'thresholds' section")
    report = concentration_bound(f, P, w, problem.thresholds)
    payload = {
        "lipschitz": rat_str(report.lipschitz),
        "w_norm_sq": rat_str(report.w_norm_sq),
        "delta_operator_norm": report.delta_operator_norm,
        "per_t": [
            {"t": t, "bound": bound} for t, bound in zip(problem.thresholds, report.bounds)
        ],
    }
    return payload, _EXIT_OK, f"bound: {len(problem.thresholds)} thresholds"


def _cmd_simulate(problem: ProblemFile, args) -> tuple[dict, int, str]:
    f, P = _function_and_measure(problem, args)
    w = _weights(problem)
    if problem.simulation is None:
        raise ProblemFileError("simulation", "simulate needs a 'simulation' section")
    cfg = problem.simulation
    if args.seed is not None:
        cfg = SimulationConfig(cfg.sample_count, args.seed, cfg.thresholds)
    corollary = concentration_bound(f, P, w, cfg.thresholds).bounds
    report = empirical_tail(f, P, cfg)
    payload = {
        "seed": report.seed,
        "sample_count": report.sample_count,
        "mean": rat_str(report.mean),
        "d_squared": rat_str(report.d_squared),
        "per_t": [
            {
                "t": row.threshold,
                "exceed_count": row.exceed_count,
                "frequency": row.frequency,
                "azuma": row.azuma,
                "corollary": bound,
            }
            for row, bound in zip(report.rows, corollary)
        ],
    }
    return payload, _EXIT_OK, f"simulate: {report.sample_count} samples, seed {report.seed}"


def _json_text(value: Any, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``, written without its encoder.

    json's indented output comes from its pure-Python encoder, whose
    closures leave reference cycles behind on every call.  Strings (keys
    included) are encoded by the C-level ``encode_basestring_ascii``, ints
    by ``int.__repr__`` as json does, and the other scalars by
    ``json.dumps``, which takes the C path when no indent is asked for.
    ``indent`` is the newline and the indent of the enclosing level.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = (encode_basestring_ascii(key) + ": " + _json_text(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        items = (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
    return json.dumps(value)


def _weights(problem: ProblemFile):
    if problem.weights is None:
        raise ProblemFileError("weights", "this subcommand needs a 'weights' section")
    return problem.weights


# Every subcommand that reads a problem file: its handler and its help text.
_COMMANDS = {
    "psi": (_cmd_psi, "psi value and psi-norm of the function"),
    "phi": (_cmd_phi, "phi-norm with LP certificates"),
    "verify-lp": (_cmd_verify_lp, "check the supremum against its psi bound (exit 3 on violation)"),
    "decompose": (_cmd_decompose, "evaluate both sides of the psi section decomposition"),
    "eta": (_cmd_eta, "mixing matrix of the measure and its operator norm"),
    "martingale": (_cmd_martingale, "martingale profile and the mixing-bound report (exit 3 on violation)"),
    "bound": (_cmd_bound, "concentration tail bound per threshold"),
    "simulate": (_cmd_simulate, "seeded Monte Carlo tail estimate"),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    envelope: dict[str, Any] = {"tool": "hammix", "version": __version__, "command": args.command}
    if args.command == "selftest":
        counts = (("--instances", args.instances), ("--mc-samples", args.mc_samples))
    else:
        counts = (("--max-table", args.max_table),)
    for flag, value in counts:
        if value < 1:
            print(f"invalid argument: {flag} must be >= 1, got {value}", file=sys.stderr)
            return _EXIT_INVALID_INPUT
    try:
        if args.command == "selftest":
            # Imported only here: every other subcommand runs without loading the suite.
            from .selftest import DEFAULT_SEED, run_selftest

            seed = DEFAULT_SEED if args.seed is None else args.seed
            report = run_selftest(
                args.instances, seed, args.mc_samples, lambda line: print(line, file=sys.stderr)
            )
            envelope.update(
                {
                    "seed": report.seed,
                    "instances": report.instance_count,
                    "elapsed_seconds": round(report.elapsed_seconds, 3),
                    "all_passed": report.all_passed,
                    "criteria": [asdict(c) for c in report.criteria],
                }
            )
            code = _EXIT_OK if report.all_passed else _EXIT_VIOLATION
            summary = "selftest: all criteria passed" if report.all_passed else "selftest: FAILURES"
        else:
            problem, digest = _load(args)
            envelope["input_digest"] = digest
            payload, code, summary = _COMMANDS[args.command][0](problem, args)
            envelope.update(payload)
    except ProblemFileError as exc:
        print(f"invalid problem file: {exc}", file=sys.stderr)
        return _EXIT_INVALID_INPUT
    except SimplexError as exc:
        print(f"internal certificate failure: {exc}", file=sys.stderr)
        return _EXIT_CERTIFICATE
    except DigitLimitError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        return _EXIT_INVALID_INPUT

    print(_json_text(envelope))
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
