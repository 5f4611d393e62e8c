"""The four workloads: inputs from a seed, one pass, and its checks.

Each workload is built in set-up from ``--seed`` and then runs whole
passes over its inputs, one operation at a time (a closed loop with one
caller).  An operation is one DSE flip query, one oracle check or one
matcher call.  A pass records every operation's latency and outcome in a
:class:`Tally`, and any failed correctness check in ``Tally.problems``.

``table6``, ``population`` and ``fuzz`` are fixed input sets whose order
the seed shuffles.  Most of their time goes to queries that run into the
solver's per-query deadline, so drawing a different set per seed would
make the number of such queries, not the code, decide the figures.
``matcher`` draws one subject per pinned (pattern, method, length) cell.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List

ROOT = Path(__file__).resolve().parent.parent
#: DSE wall-clock budget: large enough that it never ends a run, so
#: every run does the same DSE work.
NEVER = 1e9
#: The fixed seed of the Table 7/8 population and the fuzz campaign.
CAMPAIGN_SEED = 1909
POPULATION_PACKAGES = 16
FUZZ_PAIRS = 16
LISTING_1_BUG = "timeout must be numeric"
_INPUTS = re.compile(r" \(inputs: (\{.*\})\)\s*$")


@dataclass
class Tally:
    """What one measurement did, pass after pass."""

    latencies: List[float] = field(default_factory=list)
    gave_up: int = 0  # UNKNOWN verdicts and exhausted matcher stacks
    failed: int = 0  # wrong outputs and unexpected exceptions
    problems: List[str] = field(default_factory=list)
    coverage: List[float] = field(default_factory=list)
    failures_found: set = field(default_factory=set)
    cegar: list = field(default_factory=list)
    solver: list = field(default_factory=list)
    deadline_s: float = 0.0
    automata_lookups: int = 0
    automata_compiles: int = 0


def _record_queries(backend, records):
    """Collect the native solver's own per-query records into
    ``records`` (the shipped backend keeps them off; one append each)."""
    from repro.solver.stats import SolverStats

    stats = SolverStats()
    stats.queries = records
    backend.solver.stats = stats
    return backend


def _native_backend(records):
    """The shipped ``native`` backend, recording into ``records``."""
    from repro.solver.backends import make_backend

    def factory(timeout):
        return _record_queries(make_backend("native", timeout=timeout),
                               records)

    return factory


class DseWorkload:
    """Full-system DSE (``REFINED``) of mini-JS programs."""

    def __init__(self, programs, must_find=()):
        from repro.dse.engine import EngineConfig
        from repro.dse.parser import parse_program

        self.programs = [(name, parse_program(src)) for name, src in programs]
        self.must_find = dict(must_find)
        self.config = EngineConfig(time_budget=NEVER)

    def run_pass(self, tally, tracer=None):
        from repro.dse.engine import DseEngine
        from repro.dse.replay import replay

        tally.deadline_s = self.config.solver_timeout
        for name, program in self.programs:
            engine = DseEngine(
                program, self.config,
                solver_factory=_native_backend(tally.solver),
            )
            result = engine.run()
            records = result.stats.queries
            tally.cegar.extend(records)
            tally.latencies.extend(q.seconds for q in records)
            tally.gave_up += sum(q.status not in ("sat", "unsat")
                                 for q in records)
            tally.coverage.append(result.coverage)
            found = [_INPUTS.sub("", f) for f in result.failures]
            tally.failures_found.update(f"{name}: {f}" for f in found)
            wanted = self.must_find.get(name)
            if wanted and not any(wanted in f for f in found):
                tally.problems.append(f"{name}: {wanted!r} not found")
            for failure, message in zip(result.failures, found):
                inputs = ast.literal_eval(_INPUTS.search(failure).group(1))
                again = replay(program, inputs)
                if message not in again.failures:
                    tally.problems.append(
                        f"{name}: {failure!r} does not replay "
                        f"(got {again.failures!r}, error {again.error!r})"
                    )


def _listing_1():
    spec = importlib.util.spec_from_file_location(
        "xml_timeout_bug", ROOT / "examples" / "xml_timeout_bug.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LISTING_1


def table6(seed):
    from repro.eval import TABLE6_PACKAGES

    programs = [(p.name, p.source) for p in TABLE6_PACKAGES]
    programs.append(("listing1", _listing_1()))
    random.Random(seed).shuffle(programs)
    return DseWorkload(programs, must_find={"listing1": LISTING_1_BUG})


def population(seed):
    from repro.eval import generate_population

    programs = [
        (name, source)
        for name, source in generate_population(60, seed=CAMPAIGN_SEED)
        if name.startswith("gen-")
    ][:POPULATION_PACKAGES]
    random.Random(seed).shuffle(programs)
    return DseWorkload(programs)


class FuzzWorkload:
    """An honest conformance campaign: matcher against native membership."""

    def __init__(self, pairs, members=("native",)):
        self.pairs = pairs
        self.members = members

    def run_pass(self, tally, tracer=None):
        from repro.conformance.oracle import ERROR, DifferentialOracle
        from repro.solver.backends.native import NativeBackend

        oracle = DifferentialOracle(self.members)
        for _, backend in oracle.members:
            if isinstance(backend, NativeBackend):
                _record_queries(backend, tally.solver)
        tally.deadline_s = oracle.timeout
        for pair in self.pairs:
            for word in pair.inputs:
                started = perf_counter()
                outcome = oracle.check(pair.pattern, pair.flags, word,
                                       seed=pair.seed)
                tally.latencies.append(perf_counter() - started)
                if outcome is None:
                    tally.gave_up += 1
                    continue
                verdicts = outcome.verdicts.values()
                tally.failed += ERROR in verdicts
                tally.gave_up += "unknown" in verdicts
                if outcome.disagreement is not None:
                    tally.problems.append(
                        f"disagreement on /{pair.pattern}/{pair.flags} "
                        f"with {word!r}: {outcome.verdicts}"
                    )


def fuzz(seed):
    from repro.conformance.gen import generate_pairs

    pairs = generate_pairs(FUZZ_PAIRS, seed=CAMPAIGN_SEED)
    random.Random(seed).shuffle(pairs)
    return FuzzWorkload(pairs)


class MatcherWorkload:
    """Concrete ``RegExp``/``String.prototype`` calls on pinned cases."""

    def __init__(self, cases):
        #: (regexp, method, subject, expected, source, label) tuples;
        #: ``source`` says who supplied ``expected``: the matcher or ``re``.
        self.cases = cases

    def run_pass(self, tally, tracer=None):
        from matcher_cases import invoke, shape

        for regexp, method, subject, expected, source, label in self.cases:
            span = tracer.open("harness.op") if tracer else None
            started = perf_counter()
            try:
                raw = invoke(regexp, method, subject)
            except Exception as error:  # RecursionError or a wrong answer
                raw = error
            tally.latencies.append(perf_counter() - started)
            if tracer:
                tracer.close(span, error=isinstance(raw, Exception))
            if isinstance(raw, RecursionError) and source == "re":
                tally.gave_up += 1  # past the matcher's recursion limit
                continue
            out = repr(raw) if isinstance(raw, Exception) else shape(raw)
            if out != expected:
                tally.failed += 1
                tally.problems.append(
                    f"{label}: got {out!r}, expected {expected!r}"
                )


def matcher(seed, cases_path=None):
    from matcher_cases import CASES_PATH, build_subject
    from repro.regex.matcher import RegExp

    data = json.loads(Path(cases_path or CASES_PATH).read_text())
    rng = random.Random(seed)
    cases = []
    for entry in data["patterns"]:
        regexp = RegExp(entry["pattern"], entry["flags"])
        for cell in entry["cells"]:
            variant = rng.choice(cell["variants"])
            subject = variant.get("subject") or build_subject(
                entry[cell["words"]], cell["length"], variant["subject_seed"]
            )
            label = (f"/{entry['pattern']}/{entry['flags']} "
                     f"{cell['method']} len={cell['length']} "
                     f"seed={variant.get('subject_seed')}")
            cases.append((regexp, cell["method"], subject,
                          variant["expected"], variant["source"], label))
    return MatcherWorkload(cases)


WORKLOADS = {
    "table6": table6,
    "population": population,
    "fuzz": fuzz,
    "matcher": matcher,
}
