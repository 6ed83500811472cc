"""hammix benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload lp_verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (``src/hammix`` must exist; there is
nothing to build).  The workload runs in a single-threaded child process
(``worker.py``) as a closed loop with one client; this process times the
set-up, calibrates host speed, checks every output after the timed run and
prints the metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.

The latency of an op is the worker thread's CPU time in the slowest of its
executions, which are spread evenly over the run (see ``op_latency``).
With ``--trace 1`` two worker processes run the traced passes, and their
exact counters must agree.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
# Set-up-only processes per untraced run, half before and half after the
# timed worker, so that their median spans more than one phase of the
# host's speed.
SETUP_REPEATS = 12
# Leaves room inside the 180 s a run may take for set-up and checks.
CHILD_TIMEOUT_S = 150

# Per-layer metrics: span (or counter) -> (unit, end-to-end metric it should
# move, on which workload).  "span" entries report the mean self time per
# call in the fastest traced pass.
LAYER_METRICS = {
    "lipschitz_lp.build_ms": ("span", "lipschitz_lp.build", "ms", "op_ms_p50 on lp_verify"),
    "simplex.verify_ms": ("span", "simplex.verify", "ms", "op_ms_p50 on lp_verify"),
    "psi.eval_ms": ("span", "psi.eval", "ms", "op_ms_p50 on lp_verify"),
    "simplex.solve_ms": ("span", "simplex.solve", "ms", "ops_per_s, op_ms_tail on lp_verify"),
    "simplex.pivots": ("count", None, "count", "ops_per_s, op_ms_tail on lp_verify"),
    "simplex.rows": ("count", None, "count", "ops_per_s, op_ms_tail on lp_verify"),
    "lipschitz_lp.solves": ("count", None, "count", "ops_per_s, op_ms_tail on lp_verify"),
    "rational.max_bits": ("count", None, "count", "ops_per_s, op_ms_tail on lp_verify"),
    "mixing.delta_ms": ("span", "mixing.delta", "ms", "ops_per_s, op_ms_tail on mixing_cli"),
    "mixing.eta_bar_ms": ("span", "mixing.eta_bar", "ms", "ops_per_s, op_ms_tail on mixing_cli"),
    "mixing.eta_bar_calls": ("count", None, "count", "ops_per_s, op_ms_tail on mixing_cli"),
    "mixing.expand_ms": ("span", "mixing.expand", "ms", "op_ms_p50 on mixing_cli"),
    "mixing.opnorm_ms": ("span", "mixing.opnorm", "ms", "op_ms_p50 on mixing_cli"),
    "martingale.profile_ms": ("span", "martingale.profile", "ms", "op_ms_p50 on mixing_cli"),
    "martingale.verify_sumvi_ms": ("span", "martingale.verify_sumvi", "ms", "op_ms_p50 on mixing_cli"),
    "martingale.concentration_ms": ("span", "martingale.concentration", "ms", "op_ms_p50 on mixing_cli"),
    "martingale.concentration_calls": ("count", None, "count", "op_ms_p50 on mixing_cli"),
    "lipschitz_lp.lipschitz_constant_ms": ("span", "lipschitz_lp.lipschitz_constant", "ms", "op_ms_p50 on mixing_cli"),
    "problemfile.parse_ms": ("span", "problemfile.parse", "ms", "op_ms_p50 on mixing_cli, setup_s"),
    "problemfile.resolve_ms": ("span", "problemfile.resolve", "ms", "op_ms_p50 on mixing_cli, setup_s"),
    "words.table_build_ms": ("span", "words.table_build", "ms", "op_ms_p50 on mixing_cli, setup_s"),
    "cli.self_ms": ("span", "cli.main", "ms", "op_ms_p50 on mixing_cli, setup_s"),
    "cli.report_bytes": ("count", None, "count", "op_ms_p50 on mixing_cli, setup_s"),
    "montecarlo.sample_word_us": ("span", "montecarlo.sample_word", "us", "simulate op latency on mixing_cli only"),
    "montecarlo.words": ("count", None, "count", "simulate op latency on mixing_cli only"),
    "mixing.opnorm_below_svd": ("check", None, "count", "none: counts a known defect"),
    "trace.overhead_pct": ("context", None, "%", "none: traced against untraced op time"),
    "host.calib_ms": ("context", None, "ms", "none: host speed, never used to rescale"),
}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Median time of a fixed pure-Python Fraction loop, in ms."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 2000):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
            if acc > 1000:
                acc -= 999
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir: Path, deadline: float, extra: list[str],
               seconds: float | None = None, hash_seed: int = 0) -> dict:
    """Starts worker.py, waits for it to end, returns its JSON result."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)] + (["--smoke"] if args.smoke else []) + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(hash_seed), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out)


def op_latency(times: list[float]) -> float:
    """An op's latency: the slowest of its executions, in CPU time.

    On a 2-vCPU cloud VM the host flips between a fast and a slow state
    every few milliseconds.  The slow state is the common one and comes in
    phases of up to seconds; over a few minutes, the upper decile of a fixed
    1-2 ms loop held within 8% from one 10 s window to the next, while the
    share of fast time went from 0 to 60%.  The mean, median or best
    execution follow that share.  The slowest execution is one in the slow
    state, so it follows the code more than the host.  CPU time leaves out
    the time the host does not run the vCPU, so preemption adds no spikes.
    """
    return max(times)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a nonempty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def judge(workload: str, ops: dict, seed: int, smoke: bool) -> tuple[dict, int]:
    """Failure reasons per op and the operator-norm-below-SVD count."""
    import checks

    below = 0
    if workload == "lp_verify":
        failures = checks.check_lp(ops)
    else:
        failures, below = checks.check_mixing(ops)
    for op_id, entry in ops.items():
        if entry["errors"]:
            failures[op_id].append("raised: " + entry["errors"][0].strip().splitlines()[-1])
        if entry["mismatches"]:
            failures[op_id].append(f"{entry['mismatches']} executions differ from the first")
    if seed == DEFAULT_SEED and not smoke:
        frozen = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}
        for op_id, entry in ops.items():
            if entry["output"] is not None and failures[op_id] == []:
                if frozen.get(op_id) != checks.digest(workload, entry["output"]):
                    failures[op_id].append("exact outputs differ from the frozen digest")
    return failures, below


def merge_traced(results: list[dict]) -> dict:
    """One result from the traced runs of several worker processes.

    An op whose outputs differ between the processes counts as a mismatch;
    the passes and counters of every process are kept.
    """
    merged = results[0]
    merged["layers"] = {f"0:{p}": cells for p, cells in merged["layers"].items()}
    for proc_no, other in enumerate(results[1:], start=1):
        for op_id, entry in merged["ops"].items():
            theirs = other["ops"][op_id]
            for key in ("latency_s", "traced_latency_s", "errors"):
                entry[key] += theirs[key]
            entry["mismatches"] += theirs["mismatches"]
            if entry["output"] is None:
                entry["output"] = theirs["output"]
            elif theirs["output"] is not None and theirs["output"] != entry["output"]:
                entry["mismatches"] += 1
        merged["layers"].update({f"{proc_no}:{p}": cells for p, cells in other["layers"].items()})
        merged["counters"] += other["counters"]
        merged["passes"] += other["passes"]
        merged["elapsed_s"] += other["elapsed_s"]
    return merged


def end_to_end(result: dict, latency: list[float], setups: list[float], tail_q: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latency) / sum(latency),
        "op_ms_p50": statistics.median(latency) * 1000,
        "op_ms_tail": percentile(latency, tail_q) * 1000,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict, below_svd: int, calib_ms: float) -> tuple[dict, bool]:
    """Per-layer metrics and whether every exact counter repeated."""
    passes = list(result["layers"].values())
    counters = result["counters"]
    metrics = {}
    for name, (kind, span, _, _) in LAYER_METRICS.items():
        if kind == "span":
            cells = [p[span] for p in passes if span in p]
            scale = 1e6 if name.endswith("_us") else 1e3
            metrics[name] = min(s / c for c, s in cells) * scale if cells else 0.0
        elif kind == "count":
            metrics[name] = counters[0].get(name, 0)
    untraced = sum(op_latency(e["latency_s"]) for e in result["ops"].values())
    traced = sum(op_latency(e["traced_latency_s"]) for e in result["ops"].values())
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    metrics["mixing.opnorm_below_svd"] = below_svd
    metrics["host.calib_ms"] = calib_ms
    repeat = all(c == counters[0] for c in counters[1:])
    return metrics, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("lp_verify", "mixing_cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args()
    # SIGTERM unwinds through run_worker, which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hammix" / "__init__.py").is_file():
        print(f"no hammix sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        calib_before = calibrate()
        setup_runs = 0 if args.trace else SETUP_REPEATS // 2
        setups = [run_worker(args, workdir, deadline, ["--setup-only"])["setup_cpu_s"]
                  for _ in range(setup_runs)]
        if args.trace:
            # Two processes with different string hashing, so that a counter
            # that differs between two runs at the same seed fails the run.
            # The first writes its spans.
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            spans_out = ["--spans-out", str(spans_dir / f"spans-{args.workload}-{args.seed}.json")]
            result = merge_traced([run_worker(args, workdir, deadline, extra, args.seconds / 2, hash_seed)
                                   for hash_seed, extra in enumerate((spans_out, []))])
        else:
            result = run_worker(args, workdir, deadline, [])
        setups.append(result["setup_cpu_s"])
        setups += [run_worker(args, workdir, deadline, ["--setup-only"])["setup_cpu_s"]
                   for _ in range(setup_runs)]
        calib_ms = (calib_before + calibrate()) / 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failures, below_svd = judge(args.workload, ops, args.seed, args.smoke)
    attempted = sum(len(e["latency_s"]) + len(e["traced_latency_s"]) for e in ops.values())
    failed = sum(len(ops[k]["latency_s"]) + len(ops[k]["traced_latency_s"])
                 for k, reasons in failures.items() if reasons)
    for op_id, reasons in failures.items():
        for reason in reasons:
            print(f"FAILED {op_id}: {reason}")

    n_ops = len(ops)
    # Over n op latencies, p(100 (1 - 10/n)) has 10 of them beyond it.
    tail_q = 100 * (1 - 10 / n_ops)
    executions = sum(len(e["latency_s"]) for e in ops.values())
    print(f"workload {args.workload} seed {args.seed}: {n_ops} ops, {result['passes']} passes, "
          f"{executions} timed executions in {result['elapsed_s']:.1f} s")
    print(f"context host.calib_ms {calib_ms:.3f} ms (before {calib_before:.3f})")
    print(f"metric failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
    correct = failed == 0
    if args.trace:
        metrics, repeat = per_layer(result, below_svd, calib_ms)
        if not repeat:
            print(f"FAILED exact counters differ between traced passes of two processes: "
                  f"{result['counters']}")
            correct = False
        for name, value in metrics.items():
            _, _, unit, moves = LAYER_METRICS[name]
            print(f"layer {name} {value:.6g} {unit}  (should move: {moves})")
        units = {name: spec[2] for name, spec in LAYER_METRICS.items()}
    else:
        latency = [op_latency(e["latency_s"]) for e in ops.values()]
        metrics = end_to_end(result, latency, setups, tail_q)
        print(f"metric op_ms_tail is p{tail_q:.2f} of the {n_ops} op latencies, "
              f"10 of them beyond it (each the slowest of its executions, {executions} in all)")
        simulated = [e for k, e in ops.items() if k.endswith(":simulate") and e["output"]]
        if simulated:
            words = sum(json.loads(e["output"]["stdout"])["sample_count"] for e in simulated)
            busy = sum(op_latency(e["latency_s"]) for e in simulated)
            print(f"metric words_per_s {words / busy:.1f} 1/s (simulate ops only)")
        print(f"context raw ops_per_s {executions / result['elapsed_s']:.3f} 1/s (all passes, wall clock)")
        for name, value in metrics.items():
            print(f"metric {name} {value:.6g} {END_TO_END[name]}")
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
