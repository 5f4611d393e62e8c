#!/usr/bin/env python3
"""Paper-workload benchmark with a per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``table6`` (the eleven Table 6
libraries plus Listing 1), ``population`` (generated Table 7/8
packages), ``fuzz`` (a conformance campaign through the differential
oracle) and ``matcher`` (concrete ``RegExp`` and ``String.prototype``
calls).  Each runs the shipped configuration: DSE at ``REFINED`` with
the default 3 s solver timeout and the oracle's default 2 s timeout.
``BENCHMARK.json`` lists the first three.  ``matcher`` is pure CPU work,
and its pass time moved 14% across ten runs as the shared host's load
drifted, so it is run by hand, next to its parent commit, instead.

A run sets the workload up ``SETUP_SAMPLES`` times in fresh processes,
cold caches included (see :func:`measure_setup` for how ``setup_s`` is
derived from them), sets it up once more in this process, then runs
whole passes, one operation at a time, until ``--seconds`` have gone
by.  It checks the outputs as it goes.

``--trace 0`` prints the end-to-end metrics: the gated ones of
:func:`end_to_end` and, as text, the ungated ``e2e.*`` figures (latency
percentiles with their sample count, the share of operations that gave
up, coverage, failures found).  ``--trace 1`` measures once untraced and
once with spans around each layer's entry points, and prints the
per-layer metrics, the traced-versus-untraced change and the untraced
``e2e.*`` figures; spans are written to ``perfbench/out/``.  The last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose checks fail
prints ``"correct": false`` with no metrics and exits with status 1.

``attempted`` counts operations and ``failed`` those with a wrong output
or an unexpected error.  UNKNOWN verdicts and calls past the matcher's
recursion limit are not wrong outputs; they are counted in
``e2e.ops_failed_frac`` along with the failed ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
#: The calibration child of :func:`measure_setup` and, rounded, its
#: median time on the reference host (x86_64, 2 vCPUs, Python 3.11.7).
CALIBRATION = (
    "import argparse, asyncio, dataclasses, decimal, email.mime.multipart, "
    "http.client, json, logging.handlers, typing, unittest, xml.dom.minidom"
)
CALIBRATION_REF_S = 0.2
DEFAULT_SEED = 1


def _use_sources():
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no sources at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


def _child_seconds(args):
    """Wall time of one child process.  No ``timeout``: with one,
    ``subprocess`` polls the child every 50 ms, which would round every
    sample up to the next poll."""
    started = perf_counter()
    subprocess.run(args, cwd=ROOT, check=True)
    return perf_counter() - started


def measure_setup(workload, seed):
    """Set-up time of ``workload`` in fresh processes, in seconds of the
    reference host.

    Set-up is pure CPU work (interpreter start, imports, generating the
    inputs).  On a shared host the speed such work gets drifts by a
    third over minutes, so raw set-up times of the same code can move
    more than any usable bound between two sets of runs.  Each set-up sample
    is therefore paired with a run of ``CALIBRATION``, a fixed
    interpreter start plus standard-library imports that no change to
    this repository touches, the pair's order alternating.  ``setup_s``
    is the median ratio of set-up to calibration times the pinned
    ``CALIBRATION_REF_S``: a change that adds work to set-up raises it
    by the same share, while a slower moment of the host slows both
    halves of a pair alike.  The raw medians are printed beside it."""
    setup = [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"]
    calibration = [sys.executable, "-c", CALIBRATION]
    _child_seconds(setup)  # warm-up: byte-code and page caches
    _child_seconds(calibration)
    pairs = []
    for index in range(SETUP_SAMPLES):
        if index % 2:
            cal = _child_seconds(calibration)
            raw = _child_seconds(setup)
        else:
            raw = _child_seconds(setup)
            cal = _child_seconds(calibration)
        pairs.append((raw, cal))
    ratio = statistics.median(raw / cal for raw, cal in pairs)
    print(f"set-up: {SETUP_SAMPLES} samples, raw median "
          f"{statistics.median(raw for raw, _ in pairs):.4f} s, calibration "
          f"median {statistics.median(cal for _, cal in pairs):.4f} s "
          f"(reference {CALIBRATION_REF_S} s), median ratio {ratio:.4f}")
    return ratio * CALIBRATION_REF_S


def measure(workload, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by; returns the tally,
    the elapsed time and the number of passes."""
    from repro.automata import automata_cache_counters, clear_caches
    from workloads import Tally

    clear_caches()  # every measurement starts with cold automata
    tally = Tally()
    before = automata_cache_counters()
    passes, started = 0, perf_counter()
    while True:
        span = tracer.open("harness.pass") if tracer else None
        workload.run_pass(tally, tracer)
        if tracer:
            tracer.close(span)
        passes += 1
        elapsed = perf_counter() - started
        if elapsed >= seconds or tally.problems:
            break
    after = automata_cache_counters()
    tally.automata_lookups = sum(
        after[key] - before[key] for key in ("hits", "misses", "disk_hits")
    )
    tally.automata_compiles = after["misses"] - before["misses"]
    return tally, elapsed, passes


def end_to_end(tally, elapsed, passes, setup_s):
    """The gated end-to-end metrics of ``BENCHMARK.json``, with units."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (elapsed / passes, "s"),
        "ops_per_s": (len(tally.latencies) / elapsed, "1/s"),
        "peak_rss_mb": (rss / 1024, "MB"),
    }


def ungated(tally, passes):
    """End-to-end figures that vary too much from run to run to carry a
    bound: latency percentiles of a few hundred operations, and counts
    the solver's deadline decides.  ``e2e.op_p95_ms`` has at least ten
    samples beyond it from 200 operations on."""
    latencies = tally.latencies
    ops = len(latencies)
    return {
        "e2e.op_samples": (ops, "count"),
        "e2e.op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "e2e.op_p95_ms": (
            statistics.quantiles(latencies, n=20)[18] * 1e3, "ms"
        ),
        "e2e.ops_failed_frac": ((tally.failed + tally.gave_up) / ops, "frac"),
        "e2e.coverage_pct": (
            100 * statistics.mean(tally.coverage) if tally.coverage else 0.0,
            "%",
        ),
        "e2e.failures_found": (len(tally.failures_found) // passes, "count"),
    }


def per_layer(tracer, traced, untraced):
    """Every per-layer metric: the traced measurement's layers, the
    tracing overhead against the untraced one, and the untraced
    ``e2e.*`` figures.  ``traced`` and ``untraced`` are what
    :func:`measure` returned."""
    from tracing import layer_metrics, solver_metrics

    tally, elapsed, passes = traced
    base, base_elapsed, base_passes = untraced
    metrics = layer_metrics(tracer, tally, elapsed)
    before = solver_metrics(base.solver, base.deadline_s, base_elapsed)
    metrics["trace.overhead_frac"] = (
        elapsed / passes / (base_elapsed / base_passes) - 1, "frac"
    )
    for name, key in (
        ("trace.candidates_per_s_change", "solver.candidates_per_s"),
        ("trace.definitive_p50_change", "solver.definitive_p50_ms"),
    ):
        old = before[key][0]
        metrics[name] = (metrics[key][0] / old - 1 if old else 0.0, "frac")
    metrics.update(ungated(base, base_passes))
    return metrics


def describe(tally, elapsed, passes):
    """Lines beyond the gated metrics: outcomes, latency, coverage and
    the share of wall time the solver's deadline decided."""
    from tracing import solver_metrics

    lines = [
        f"  passes {passes}, operations {len(tally.latencies)}, failed "
        f"{tally.failed}, gave up {tally.gave_up} (UNKNOWN verdicts and "
        f"calls past the matcher's recursion limit)"
    ]
    lines += [f"  {name:<32} {value:>14.6g} {unit}"
              for name, (value, unit) in ungated(tally, passes).items()]
    solver = {k: v for k, (v, _) in solver_metrics(
        tally.solver, tally.deadline_s, elapsed).items()}
    if tally.solver:
        deadline_s = solver["solver.deadline_wall_frac"] * elapsed
        lines.append(
            f"  solver busy {solver['solver.busy_s']:.2f} s of "
            f"{elapsed:.2f} s wall ({solver['solver.wall_frac']:.1%}); "
            f"{int(solver['solver.deadline_hits'])} of "
            f"{int(solver['solver.queries'])} queries hit the "
            f"{tally.deadline_s:g} s deadline, {deadline_s:.2f} s "
            f"({solver['solver.deadline_wall_frac']:.1%} of wall); "
            f"UNKNOWN total {solver['solver.unknown_s']:.2f} s "
            f"({solver['solver.unknown_s'] / elapsed:.1%} of wall)"
        )
    lines.append(f"  automata lookups {tally.automata_lookups}, "
                 f"compiles {tally.automata_compiles}")
    return lines


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")


def _result(correct, tally, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table6", "population", "fuzz", "matcher"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_sources()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    setup_s = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}, closed loop, "
          f"1 caller, {args.seconds:g} s")

    tally, elapsed, passes = measure(workload, args.seconds)
    print("\n".join(describe(tally, elapsed, passes)))
    metrics = end_to_end(tally, elapsed, passes, setup_s)
    if args.trace:
        from tracing import Tracer

        untraced = (tally, elapsed, passes)
        tracer = Tracer()
        tracer.install()
        try:
            tally, elapsed, passes = measure(workload, args.seconds, tracer)
        finally:
            tracer.restore()
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
        print("traced:")
        print("\n".join(describe(tally, elapsed, passes)))
        traced = end_to_end(tally, elapsed, passes, setup_s)
        print(f"  {'metric':<20} {'untraced':>12} {'traced':>12}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<20} {value:>12.5g} {traced[name][0]:>12.5g} "
                  f"{unit}")
        metrics = per_layer(tracer, (tally, elapsed, passes), untraced)
        problems = untraced[0].problems + tally.problems
        failed = untraced[0].failed + tally.failed
    else:
        problems, failed = tally.problems, tally.failed
    if problems or failed:
        print("CHECK FAILED:")
        for problem in problems[:20]:
            print("  " + problem)
        print(_result(False, tally, {}))
        return 1
    _print_metrics("metrics:", metrics)
    print(_result(True, tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
