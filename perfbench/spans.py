"""Spans around the public functions of each hammix layer, from outside.

:func:`install` replaces every reference to a wrapped function in the loaded
``hammix`` modules (``from .x import f`` copies the reference, so patching
the defining module alone would miss callers) and :func:`uninstall` puts the
originals back.  Spans stay in memory as tuples until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  A dotted attribute wraps a method.
TARGETS = (
    ("hammix.rational", "rat_str", "rational.rat_str"),
    ("hammix.rational", "rat_from_float", "rational.rat_from_float"),
    ("hammix.words", "TableFunction.__post_init__", "words.table_build"),
    ("hammix.psi", "psi", "psi.eval"),
    ("hammix.simplex", "simplex_max", "simplex.solve"),
    ("hammix.simplex", "verify_certificate", "simplex.verify"),
    ("hammix.lipschitz_lp", "build_polytope_lp", "lipschitz_lp.build"),
    ("hammix.lipschitz_lp", "solve_lp", "lipschitz_lp.solve"),
    ("hammix.lipschitz_lp", "verify_phi_psi", "lipschitz_lp.verify_phi_psi"),
    ("hammix.lipschitz_lp", "lipschitz_constant", "lipschitz_lp.lipschitz_constant"),
    ("hammix.mixing", "expand_markov", "mixing.expand"),
    ("hammix.mixing", "delta_matrix", "mixing.delta"),
    ("hammix.mixing", "eta_bar", "mixing.eta_bar"),
    ("hammix.mixing", "operator_norm_2", "mixing.opnorm"),
    ("hammix.martingale", "martingale_profile", "martingale.profile"),
    ("hammix.martingale", "verify_sumvi", "martingale.verify_sumvi"),
    ("hammix.martingale", "concentration_bound", "martingale.concentration"),
    ("hammix.montecarlo", "empirical_tail", "montecarlo.empirical_tail"),
    ("hammix.montecarlo", "sample_word", "montecarlo.sample_word"),
    ("hammix.problemfile", "parse_problem", "problemfile.parse"),
    ("hammix.problemfile", "resolve_function", "problemfile.resolve"),
    ("hammix.problemfile", "resolve_measure", "problemfile.resolve"),
    ("hammix.cli", "main", "cli.main"),
)


class Tracer:
    """Span recorder: (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: (pass number, op id) stamped on every span.
        self.op_id: tuple[int, str] | None = None
        #: While set, wrapped functions run without recording spans.
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op_id)
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key.startswith("hammix")]
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self.wrap(span_name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans) -> dict[int, dict[str, list]]:
    """Per pass and span name: [call count, self time in seconds].

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the worker is single-threaded.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for index, (name, start, end, _, (pass_no, _)) in enumerate(spans):
        cell = out[pass_no][name]
        cell[0] += 1
        cell[1] += (end - start - child_ns[index]) / 1e9
    return out
