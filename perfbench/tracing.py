"""In-memory spans around each layer's public entry points.

The traced run wraps, from the benchmark's side only, the calls into each
layer of the system and records one span per call: name, start, end,
parent span and an operation id shared by every span of one flip query,
oracle check or matcher call.  Spans stay in memory and are written out
when the run ends; a layer's self time is the time its spans cover minus
the time their child spans cover.

Automata lookups are not wrapped (a Table 6 pass makes about 780k of
them); they are counted from the interner's counters instead.  Only
compilations (``to_nfa``/``determinize``) get spans.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

#: span name -> layer
LAYER_OF = {
    "dse.engine": "dse",
    "dse.exec": "dse",
    "model.translate": "model",
    "cegar.solve": "cegar",
    "backends.solve": "backends",
    "solver.solve": "solver",
    "automata.to_nfa": "automata",
    "automata.determinize": "automata",
    "matcher.exec": "matcher",
    "matcher.match": "matcher",
    "matcher.search": "matcher",
    "matcher.split": "matcher",
    "matcher.replace": "matcher",
    "conformance.check": "conformance",
    "harness.pass": "harness",
    "harness.op": "harness",
}
#: Spans that start an operation when no operation is open.
OP_ROOTS = {"cegar.solve", "conformance.check", "harness.op"}

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._ops = 0
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][OP] if parent >= 0 else None
        if op is None and name in OP_ROOTS:
            self._ops += 1
            op = self._ops
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, op, False])
        self._stack.append(index)
        return index

    def close(self, index, error=False):
        span = self.spans[index]
        span[END] = perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a spanned call until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        tracer = self

        def spanned(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index, error=True)
                raise
            tracer.close(index)
            return result

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def install(self):
        from repro.automata import ops as automata_ops
        from repro.conformance.oracle import DifferentialOracle
        from repro.dse.engine import DseEngine
        from repro.dse.interpreter import Interpreter
        from repro.model.api import SymbolicRegExp
        from repro.model.cegar import CegarSolver
        from repro.regex import methods
        from repro.regex.matcher import RegExp
        from repro.solver.backends.native import NativeBackend
        from repro.solver.core import Solver

        self.wrap(DseEngine, "run", "dse.engine")
        self.wrap(Interpreter, "run", "dse.exec")
        self.wrap(SymbolicRegExp, "exec_model", "model.translate")
        self.wrap(CegarSolver, "solve", "cegar.solve")
        self.wrap(NativeBackend, "solve", "backends.solve")
        self.wrap(Solver, "solve", "solver.solve")
        self.wrap(automata_ops, "to_nfa", "automata.to_nfa")
        self.wrap(automata_ops, "determinize", "automata.determinize")
        self.wrap(RegExp, "exec", "matcher.exec")
        for function in ("match", "search", "split", "replace"):
            self.wrap(methods, function, "matcher." + function)
        self.wrap(DifferentialOracle, "check", "conformance.check")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, op, error in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "error": error,
                }) + "\n")

    # -- derived numbers ---------------------------------------------------

    def self_times(self):
        """Self time per span name and per layer, in seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for index, span in enumerate(self.spans):
            own = span[END] - span[START] - child_time[index]
            for key in (span[NAME], LAYER_OF[span[NAME]]):
                out[key] = out.get(key, 0.0) + own
        return out

    def outermost(self, layer):
        """Spans of ``layer`` whose parent belongs to another layer."""
        return [
            span for span in self.spans
            if LAYER_OF[span[NAME]] == layer and (
                span[PARENT] < 0
                or LAYER_OF[self.spans[span[PARENT]][NAME]] != layer
            )
        ]

    def count(self, name):
        return sum(1 for span in self.spans if span[NAME] == name)


def layer_metrics(tracer, tally, wall_s):
    """Every per-layer metric of the traced measurement."""
    own = tracer.self_times()
    matcher = tracer.outermost("matcher")
    matcher_s = [span[END] - span[START] for span in matcher]
    compile_s = sum(
        span[END] - span[START] for span in tracer.outermost("automata")
    )
    cegar = tally.cegar
    refined = [q for q in cegar if q.refinements > 0]
    metrics = {
        "dse.executions": (tracer.count("dse.exec"), "count"),
        "dse.exec_self_s": (own.get("dse.exec", 0.0), "s"),
        "dse.engine_self_s": (own.get("dse.engine", 0.0), "s"),
        "model.exec_models": (tracer.count("model.translate"), "count"),
        "model.translate_self_s": (own.get("model", 0.0), "s"),
        "cegar.solves": (len(tracer.outermost("cegar")), "count"),
        "cegar.self_s": (own.get("cegar", 0.0), "s"),
        "cegar.iterations_per_solve": (
            _ratio(sum(q.refinements + 1 for q in cegar), len(cegar)),
            "count",
        ),
        "cegar.refined_frac": (_ratio(len(refined), len(cegar)), "frac"),
        "cegar.limit_hits": (
            sum(q.hit_refinement_limit for q in cegar), "count"
        ),
        "backends.queries": (len(tracer.outermost("backends")), "count"),
        "backends.self_s": (own.get("backends", 0.0), "s"),
        "automata.lookups": (tally.automata_lookups, "count"),
        "automata.compiles": (tally.automata_compiles, "count"),
        "automata.compile_s": (compile_s, "s"),
        "matcher.calls": (len(matcher), "count"),
        "matcher.busy_s": (sum(matcher_s), "s"),
        "matcher.p50_us": (
            statistics.median(matcher_s) * 1e6 if matcher_s else 0.0, "us"
        ),
        "matcher.errors": (sum(span[ERROR] for span in matcher), "count"),
        "conformance.checks": (tracer.count("conformance.check"), "count"),
        "conformance.self_s": (own.get("conformance", 0.0), "s"),
        "harness.self_s": (own.get("harness", 0.0), "s"),
    }
    metrics.update(solver_metrics(tally.solver, tally.deadline_s, wall_s))
    return metrics


def solver_metrics(records, deadline_s, wall_s):
    """Solver-core numbers from its ``QueryRecord``s.  A deadline hit is
    an UNKNOWN that ran for the whole per-query timeout."""
    definitive = [q.seconds for q in records if q.status in ("sat", "unsat")]
    unknown = [q.seconds for q in records if q.status == "unknown"]
    deadline = [s for s in unknown if s >= deadline_s - 1e-3]
    busy = sum(q.seconds for q in records)
    return {
        "solver.queries": (len(records), "count"),
        "solver.busy_s": (busy, "s"),
        "solver.unknown_s": (sum(unknown), "s"),
        "solver.deadline_hits": (len(deadline), "count"),
        "solver.definitive_frac": (
            _ratio(len(definitive), len(records)), "frac"
        ),
        "solver.definitive_p50_ms": (
            statistics.median(definitive) * 1e3 if definitive else 0.0, "ms"
        ),
        "solver.cores_per_query": (
            _ratio(sum(q.cores_tried for q in records), len(records)),
            "count",
        ),
        "solver.candidates_per_s": (
            _ratio(sum(q.candidates_tried for q in records), busy), "1/s"
        ),
        "solver.wall_frac": (_ratio(busy, wall_s), "frac"),
        "solver.deadline_wall_frac": (_ratio(sum(deadline), wall_s), "frac"),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
