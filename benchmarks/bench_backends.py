"""Solver-backend comparison: native vs cached vs portfolio.

Solves the regex literals of the synthetic corpus (duplicates included,
as in the wild) through the full model→solve→refine pipeline, once per
backend spec, and reports queries/second plus the definitive-answer
rate per backend.  Reproduction targets:

- every spec produces the same found/not-found verdicts (UNKNOWN may
  vary, definitive answers may not — the portfolio's soundness rule);
- ``cached:native`` performs no worse than ``native`` on a duplicated
  corpus (hits replay definitive answers);
- ``portfolio:native+smtlib`` degrades gracefully on machines without
  an SMT binary: the smtlib member contributes only UNKNOWNs and the
  race still lands every native answer.
"""

import time

from repro.corpus.extract import extract_regex_literals
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.model.api import find_matching_input
from repro.model.cegar import CegarSolver
from repro.solver import SolverStats
from repro.solver.backends import make_backend

SPECS = ("native", "cached:native", "portfolio:native+smtlib")
N_PACKAGES = 40
LITERAL_CAP = 24


def _literals():
    corpus = generate_corpus(CorpusConfig(n_packages=N_PACKAGES, seed=1909))
    literals = []
    for package in corpus:
        for content in package.files:
            for literal in extract_regex_literals(content):
                flags = literal.flags.replace("g", "").replace("y", "")
                literals.append((literal.source, flags))
                if len(literals) >= LITERAL_CAP:
                    return literals
    return literals


def _run_spec(spec, literals):
    stats = SolverStats()
    backend = make_backend(spec, timeout=1.0, stats=stats)
    cegar = CegarSolver(solver=backend, stats=stats)
    found = []
    started = time.perf_counter()
    for source, flags in literals:
        try:
            result = find_matching_input(source, flags, cegar=cegar)
        except Exception:
            result = None
        found.append(result is not None)
    wall = time.perf_counter() - started
    queries = sum(t.queries for t in stats.backend_tallies.values())
    definitive = sum(t.sat + t.unsat for t in stats.backend_tallies.values())
    return {
        "found": found,
        "wall": wall,
        "queries": queries,
        "queries_per_sec": queries / wall if wall else 0.0,
        "definitive_rate": definitive / queries if queries else 0.0,
        "tallies": stats.backend_summary(),
    }


def _sweep():
    literals = _literals()
    return literals, {spec: _run_spec(spec, literals) for spec in SPECS}


def test_backend_comparison(benchmark, record_table):
    literals, runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    lines = [
        f"({len(literals)} regex literals, synthetic corpus, "
        f"{N_PACKAGES} packages)",
        "Spec                          Solved  Queries   Q/s     Defin.%"
        "   Wall(s)",
    ]
    for spec, run in runs.items():
        lines.append(
            f"{spec:<29} {sum(run['found']):>6} {run['queries']:>8} "
            f"{run['queries_per_sec']:>7.1f} "
            f"{100 * run['definitive_rate']:>8.1f} {run['wall']:>9.2f}"
        )
    record_table(
        "backends.txt",
        "Solver backend comparison (queries/sec, definitive rate)\n"
        + "\n".join(lines),
    )

    # Identical found/not-found verdicts across backends: the native
    # member decides everything here, the others only add layers.
    baseline = runs["native"]["found"]
    for spec, run in runs.items():
        assert run["found"] == baseline, f"{spec} diverged from native"

    # The portfolio's smtlib member never contributed a definitive
    # answer it shouldn't: on a machine without z3, its tally is pure
    # UNKNOWN (and with z3 installed, every answer is definitive-sound).
    portfolio = runs["portfolio:native+smtlib"]["tallies"]
    smtlib = portfolio.get("smtlib:z3")
    if smtlib is not None and not make_backend("smtlib:z3").available:
        assert smtlib["sat"] == 0 and smtlib["unsat"] == 0

    for run in runs.values():
        assert run["queries"] > 0
        assert run["definitive_rate"] > 0.0
