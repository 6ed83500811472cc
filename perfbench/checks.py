"""Output checks, run in the parent process after the timed run.

Nothing here imports hammix: the LP values are re-derived with scipy's
HiGHS solver from the raw instance data, and the operator norm is compared
against numpy's largest singular value.  Each check returns, per op id, the
list of reasons that op failed (empty when it passed).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

_RATIONAL = re.compile(r"^-?\d+/\d+$")
LP_REL_TOL = 1e-9
# operator_norm_2 may sit an ulp below the SVD value (a known defect that
# is counted, not gated); a gross disagreement is a failure.
OPNORM_GROSS_TOL = 1e-6


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _exact_parts(value, path=""):
    """(path, value) for every exact rational and integer in a report."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _exact_parts(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _exact_parts(item, f"{path}[{i}]")
    elif isinstance(value, str) and _RATIONAL.match(value):
        yield path, value
    elif isinstance(value, int) and not isinstance(value, bool):
        yield path, value


def digest(workload: str, output) -> str:
    """Digest of an op's exact outputs; floats are left out on purpose."""
    if workload == "mixing_cli":
        parts = [output["code"], list(_exact_parts(strict_json(output["stdout"])))]
    else:
        parts = [output["lhs"], output["rhs"], output["norm_lhs"], output["norm_rhs"]]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:20]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LP_REL_TOL * max(abs(a), abs(b)) + 1e-12


def _highs_sup(m: int, n: int, k, w, v) -> float:
    """sup <k, phi> over the 1-Lipschitz polytope, by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    size = m**n
    rows, rhs = [], []
    for idx in range(size):
        for pos in range(n):
            stride = m ** (n - 1 - pos)
            digit = (idx // stride) % m
            for other in range(m):
                if other != digit:
                    row = np.zeros(size)
                    row[idx], row[idx + (other - digit) * stride] = 1.0, -1.0
                    rows.append(row)
                    rhs.append(w[pos])
    a_ub = np.array(rows) if rows else None
    b_ub = np.array(rhs) if rows else None
    res = linprog(-np.array(k), A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, v + sum(w))] * size,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun


def check_lp(ops: dict) -> dict[str, list[str]]:
    failures = {}
    for op_id, entry in ops.items():
        out, inp, bad = entry["output"], entry["check_input"], []
        if out is not None:
            if out["holds"] is not True:
                bad.append("phi_sup <= psi does not hold")
            if out["norm_holds"] is False:
                bad.append("phi_norm <= psi_norm does not hold")
            k = [float(Fraction(x)) for x in inp["k"]]
            w = [float(Fraction(x)) for x in inp["w"]]
            v = float(Fraction(inp["v"]))
            sup = _highs_sup(inp["m"], inp["n"], k, w, v)
            if not _close(float(Fraction(out["lhs"])), sup):
                bad.append(f"phi_sup {out['lhs']} differs from HiGHS {sup!r}")
            if out["norm_lhs"] is not None:
                norm = max(sup, _highs_sup(inp["m"], inp["n"], [-x for x in k], w, v))
                if not _close(float(Fraction(out["norm_lhs"])), norm):
                    bad.append(f"phi_norm {out['norm_lhs']} differs from HiGHS {norm!r}")
        failures[op_id] = bad
    return failures


def _largest_singular_value(delta) -> float:
    import numpy as np

    matrix = np.array([[float(Fraction(x)) for x in row] for row in delta])
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def _tail_failures(report: dict) -> list[str]:
    """Each simulated frequency is at most min(1, azuma) plus 3 sigma."""
    bad = []
    for row in report["per_t"]:
        freq, azuma = row["frequency"], row["azuma"]
        slack = 3.0 * math.sqrt(freq * (1.0 - freq) / report["sample_count"])
        if freq > min(1.0, azuma) + slack:
            bad.append(f"t={row['t']}: frequency {freq} above min(1, azuma) + 3 sigma")
    return bad


def check_mixing(ops: dict) -> tuple[dict[str, list[str]], int]:
    """Failures per op, and how often the operator norm fell below the SVD."""
    failures, reports, svd = {}, {}, {}
    for op_id, entry in ops.items():
        out, bad = entry["output"], []
        failures[op_id] = bad
        if out is None:
            continue
        if out["code"] != 0:
            bad.append(f"exit code {out['code']}")
        try:
            reports[op_id] = report = strict_json(out["stdout"])
        except ValueError as exc:
            bad.append(f"report is not strict JSON: {exc}")
            continue
        for key in ("holds", "norm_holds", "equal"):
            if report.get(key) is False:
                bad.append(f"{key} is false")
        if not all(report.get("per_coordinate_holds", [True])):
            bad.append("a per-coordinate bound does not hold")
        if "sample_count" in report:
            bad.extend(_tail_failures(report))
        if "delta" in report:
            svd[entry["check_input"]["file"]] = _largest_singular_value(report["delta"])
    below = 0
    for op_id, report in reports.items():
        if "delta_operator_norm" not in report:
            continue
        reference = svd.get(ops[op_id]["check_input"]["file"])
        if reference is None:
            failures[op_id].append("no Delta from the same file to compare against")
            continue
        norm = report["delta_operator_norm"]
        if norm < reference:
            below += 1
        if abs(norm - reference) > OPNORM_GROSS_TOL * reference:
            failures[op_id].append(f"operator norm {norm!r} far from SVD {reference!r}")
    return failures, below
