"""One workload in one single-threaded process, driven by ``run.py``.

Runs the workload's op list in passes, each op once per pass, as a closed
loop with one client, until ``--seconds`` of wall time have passed and at
least ``MIN_PASSES`` untraced passes are done (one untraced and one traced
pass with ``--trace 1``), then
prints one JSON document on stdout: per-op latencies and outputs, the set-up
CPU time, peak RSS and, with ``--trace 1``, per-pass span self times and
exact counters.  Latencies are CPU time of this thread, which leaves out the
time the host does not run the vCPU.  ``--setup-only`` stops after warm-up;
``run.py`` uses it to repeat the set-up measurement.

With tracing, passes alternate untraced and traced, so the tracing overhead
is measured on the same ops in the same process.  ``run.py`` starts two
traced workers and compares their exact counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads
from spans import Tracer, self_times

# Span names whose per-pass call counts are exact counters.
COUNTED_CALLS = {
    "lipschitz_lp.solve": "lipschitz_lp.solves",
    "mixing.eta_bar": "mixing.eta_bar_calls",
    "martingale.concentration": "martingale.concentration_calls",
    "montecarlo.sample_word": "montecarlo.words",
}
# A run makes at least MIN_PASSES untraced passes, so every op runs four or
# more times, spread over the run, so that one of them lands in the host's
# slow state, and every repeat is compared with the first output.
MIN_PASSES = 4


def _run_pass(wl, record: dict, pass_no: int, tracer: Tracer | None,
              stop_at: float = float("inf")) -> Counter:
    """Runs the op list once.

    An untraced pass ends early once ``stop_at`` (perf_counter) has passed.
    Returns the pass's exact counters when traced.
    """
    counters: Counter = Counter()
    key = "traced_latency_s" if tracer is not None else "latency_s"
    for op in wl.ops:
        if time.perf_counter() >= stop_at:
            break
        entry = record[op.op_id]
        if tracer is not None:
            tracer.op_id = (pass_no, op.op_id)
        start = time.thread_time()
        try:
            output, error = op.run(), None
        except Exception:  # a failing op is a benchmark result, not a crash
            output, error = None, traceback.format_exc(limit=4)
        entry[key].append(time.thread_time() - start)
        if error is not None:
            entry["errors"].append(error)
            continue
        if entry["output"] is None:
            entry["output"] = output
        elif output != entry["output"]:
            entry["mismatches"] += 1
        if tracer is None:
            continue
        if isinstance(output, dict) and "stdout" in output:
            counters["cli.report_bytes"] += len(output["stdout"].encode())
        if op.count is not None:
            tracer.paused = True
            try:
                extra = op.count()
            finally:
                tracer.paused = False
            bits = extra.pop("rational.max_bits")
            counters["rational.max_bits"] = max(counters["rational.max_bits"], bits)
            counters.update(extra)
    return counters


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, args.smoke, Path(args.workdir))
    wl.warmup()
    setup_cpu_s = time.process_time()
    if args.setup_only:
        json.dump({"setup_cpu_s": setup_cpu_s}, sys.stdout)
        return 0

    record = {
        op.op_id: {"latency_s": [], "traced_latency_s": [], "errors": [], "mismatches": 0,
                   "output": None, "check_input": op.check_input}
        for op in wl.ops
    }
    tracer = Tracer() if args.trace else None
    traced_counters: dict[int, Counter] = {}
    started = time.perf_counter()
    min_untraced = 1 if tracer is not None else MIN_PASSES
    pass_no = 0
    while True:
        if tracer is not None and pass_no % 2 == 1:
            tracer.install()
            try:
                traced_counters[pass_no] = _run_pass(wl, record, pass_no, tracer)
            finally:
                tracer.uninstall()
        else:
            # Passes beyond the guaranteed ones stop at the deadline.
            untraced = pass_no - len(traced_counters)
            stop_at = started + args.seconds if untraced >= min_untraced else float("inf")
            _run_pass(wl, record, pass_no, None, stop_at)
        pass_no += 1
        untraced = pass_no - len(traced_counters)
        enough = untraced >= min_untraced and (tracer is None or traced_counters)
        if enough and time.perf_counter() - started >= args.seconds:
            break

    result = {
        "setup_cpu_s": setup_cpu_s,
        "passes": pass_no,
        "elapsed_s": time.perf_counter() - started,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": record,
    }
    if tracer is not None:
        per_pass = self_times(tracer.spans)
        for pass_no, counters in traced_counters.items():
            calls = per_pass.get(pass_no, {})
            for span_name, counter_name in COUNTED_CALLS.items():
                counters[counter_name] = calls.get(span_name, [0])[0]
        result["layers"] = {str(p): {k: list(v) for k, v in names.items()} for p, names in per_pass.items()}
        result["counters"] = [dict(traced_counters[p]) for p in sorted(traced_counters)]
        result["span_count"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                           "spans": tracer.spans}, handle)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
