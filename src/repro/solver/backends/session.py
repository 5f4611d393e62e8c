"""Incremental SMT-LIB session backend: one live solver, many queries.

The ``smtlib:`` backend pays a full subprocess spawn — interpreter
start, theory setup, script parse — for *every* query, which dominates
the solver wall-clock of a DSE run long before the string theory does.
This backend keeps one solver process alive across queries and speaks
the incremental SMT-LIB dialogue instead:

- at spawn, the shared prelude (``set-option``/``set-logic``) is sent
  once (:func:`repro.constraints.printer.smtlib_prelude`);
- each query is a *delta*: declarations for newly seen symbols at the
  ground level, then ``(push 1)`` / ``(assert ...)`` / ``(check-sat)``
  (:func:`repro.constraints.printer.to_smtlib_incremental`); a
  ``(get-value ...)`` follows *only after a ``sat`` verdict* — some
  solvers abort the whole process on a model query in any other state
  (cvc5, unlike ``z3 -in``), which would discard the verdict and kill
  the session — and ``(pop 1)`` closes the scope;
- every ``reset_every`` queries a ``(reset)`` clears the solver's
  accumulated declarations and learned state, bounding its memory, and
  the prelude is re-sent;
- answers are synchronized with an ``(echo ...)`` marker after each
  query, so one slow answer can never be attributed to the next query.

Soundness is exactly the ``smtlib:`` argument: queries render in
*guarded* mode (the exact ⊥-aware encoding, so ``unsat`` is sound), SAT
models are re-validated natively before being trusted, and every
failure mode — missing binary, timeout, crash, unprintable formula,
garbage output — degrades to UNKNOWN.  A crashed or wedged process is
killed and restarted once per query (the query itself answers UNKNOWN;
the next query finds a fresh session).  Lifecycle counters (spawns,
restarts, resets, per-session query counts, process lifetime) land in
:class:`~repro.solver.stats.SolverStats.session_tallies`.
"""

from __future__ import annotations

import os
import queue
import shlex
import shutil
import subprocess
import threading
from time import monotonic, perf_counter
from typing import List, Optional

from repro import faults, obs
from repro.constraints.formulas import Formula, to_nnf
from repro.faults.breaker import get_breaker
from repro.constraints.printer import (
    smtlib_prelude,
    smtlib_query_symbols,
    to_smtlib_incremental,
)
from repro.solver.core import SAT, SolverResult, UNKNOWN, UNSAT, _holds
from repro.solver.stats import SolverStats

from repro.solver.backends.base import SolverBackend
from repro.solver.backends.smtlib import build_model, parse_solver_output

#: Sentinel queued by the reader thread when the solver closes stdout.
_EOF = object()


def _z3_argv(command: List[str], timeout: float) -> List[str]:
    # ``-t`` is z3's *per-check* soft timeout (ms) — unlike ``-T``, it
    # does not kill the process, so the session survives a hard query.
    return command + ["-smt2", "-in", f"-t:{max(1, int(timeout * 1000))}"]


def _cvc_argv(command: List[str], timeout: float) -> List[str]:
    return command + [
        "--lang", "smt2",
        "--strings-exp",
        "--incremental",
        f"--tlimit-per={max(1000, int(timeout * 1000))}",
    ]


def _generic_argv(command: List[str], timeout: float) -> List[str]:
    return list(command)


_ARGV_TEMPLATES = {
    "z3": _z3_argv,
    "cvc5": _cvc_argv,
    "cvc4": _cvc_argv,
}


def probe_solver_command(command: str) -> Optional[str]:
    """``None`` when ``command``'s binary resolves on PATH, else the
    "not installed" diagnostic — shared by the private and the pooled
    session form so the probe and its message cannot drift apart."""
    argv = shlex.split(command)
    if argv and shutil.which(argv[0]) is not None:
        return None
    binary = argv[0] if argv else command
    return f"solver binary {binary!r} not installed"


class SessionBackend(SolverBackend):
    """``session:<command>`` — a persistent incremental SMT-LIB solver."""

    def __init__(
        self,
        command: str = "z3",
        *,
        timeout: float = 5.0,
        reset_every: int = 512,
        stats: Optional[SolverStats] = None,
    ):
        super().__init__(stats)
        self.command = command or "z3"
        self.timeout = timeout
        self.reset_every = max(1, int(reset_every))
        self.name = f"session:{self.command}"
        self._argv_prefix = shlex.split(self.command)
        self._available: Optional[bool] = None
        #: Why the last query degraded to UNKNOWN (diagnostics only).
        self.last_error: Optional[str] = None
        #: Per-command circuit breaker (process-global; shared with the
        #: pooled form).  The raw session backend only *feeds* it —
        #: crashes/spawn failures count as failures, a completed round
        #: trip as success; the gating (short-circuit to UNKNOWN while
        #: open) lives in ``PooledSessionBackend``/the router, so a
        #: directly-held session keeps its crash-restart semantics.
        self.breaker = get_breaker(self.name)
        # -- live-session state ------------------------------------------
        self._proc: Optional[subprocess.Popen] = None
        self._lines: Optional["queue.Queue"] = None
        self._declared: set = set()
        self._since_reset = 0
        self._spawned_at = 0.0
        self._seq = 0
        # -- lifecycle counters (also mirrored into stats) ----------------
        self.spawns = 0
        self.restarts = 0
        self.resets = 0
        self.queries = 0

    @property
    def available(self) -> bool:
        """Whether the solver binary resolves on PATH (probed once)."""
        if self._available is None:
            self._available = probe_solver_command(self.command) is None
        return self._available

    # -- solving -------------------------------------------------------------

    def solve(self, formula: Formula) -> SolverResult:
        started = perf_counter()
        result = self._solve(formula)
        self._tally(result.status, perf_counter() - started)
        return result

    def _solve(self, formula: Formula) -> SolverResult:
        self.last_error = None
        if not self.available:
            return self._unknown(probe_solver_command(self.command))
        if self._proc is None or self._proc.poll() is not None:
            if self._proc is not None:
                # Died between queries (crashed after answering, OOM-killed,
                # ...): a replacement spawn is a restart, not a first spawn.
                self.restarts += 1
                self._srecord(restarts=1)
                obs.event(
                    "session:restart",
                    session=self.name,
                    reason="died between queries",
                )
            if not self._respawn():
                return SolverResult(UNKNOWN)  # last_error already set
        if self._since_reset >= self.reset_every and not self._reset():
            return self._crash("session reset failed")
        try:
            script = to_smtlib_incremental(
                formula, self._declared, guarded=True, close_scope=False
            )
        except TypeError as exc:
            # Lookaheads/backreferences/anchors have no classical
            # SMT-LIB form; the native solver owns those queries.  The
            # session stays alive — nothing was sent.
            return self._unknown(f"unprintable formula: {exc}")
        # Phase 1: assert + check-sat (scope left open for get-value).
        output = self._round_trip(script)
        if output is None:
            return SolverResult(UNKNOWN)  # crash path set last_error
        self._breaker_feed(ok=True)
        self.queries += 1
        self._since_reset += 1
        self._srecord(queries=1)
        status, _ = parse_solver_output(output)
        if status != SAT:
            self._close_scope()
            if status == UNSAT:
                # Sound thanks to the guarded (exact) encoding.
                return SolverResult(UNSAT)
            return self._unknown(f"solver answered {status!r}")
        # Phase 2: the model, asked for only now that the solver is in
        # sat state (a get-value after unsat aborts some solvers).
        symbols = smtlib_query_symbols(formula)
        values = {}
        if symbols:
            output = self._round_trip(
                "(get-value (" + " ".join(symbols) + "))"
            )
            if output is None:
                return SolverResult(UNKNOWN)  # crashed mid-model
            _, values = parse_solver_output(output)
        self._close_scope()
        model = build_model(formula, values)
        try:
            validated = _holds(to_nnf(formula), model)
        except Exception as exc:  # defensive: never crash on bad output
            return self._unknown(f"model evaluation failed: {exc}")
        if not validated:
            return self._unknown("solver model failed native re-validation")
        return SolverResult(SAT, model)

    # -- the incremental dialogue --------------------------------------------

    def _round_trip(self, script: str) -> Optional[str]:
        """Send one command batch, read lines until a fresh echo marker."""
        self._seq += 1
        marker = f"repro-sync-{self._seq}"
        wedged = False
        rule = faults.fire("session:query", command=self.command)
        if rule is not None:
            if rule.action == "kill" and self._proc is not None:
                # Solver dies mid-query: the write below hits a broken
                # pipe, or the reader sees EOF — the crash path either way.
                try:
                    self._proc.kill()
                except OSError:
                    pass
            elif rule.action == "wedge":
                # Swallow the script: the solver never sees it, so the
                # read loop waits out the full timeout — a wedged solver.
                wedged = True
        try:
            if not wedged:
                self._proc.stdin.write(script + f'\n(echo "{marker}")\n')
                self._proc.stdin.flush()
        except (OSError, ValueError):
            return self._crash_none("session stdin closed")
        deadline = monotonic() + self.timeout + 1.0
        chunks: List[str] = []
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                return self._crash_none(
                    f"session timed out after {self.timeout}s"
                )
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                return self._crash_none(
                    f"session timed out after {self.timeout}s"
                )
            if line is _EOF:
                return self._crash_none("session process exited")
            stripped = line.strip()
            # z3 echoes the bare string; SMT-LIB-conformant solvers
            # (cvc5/cvc4) echo the *literal*, quotes included.
            if stripped == marker or stripped == f'"{marker}"':
                return "".join(chunks)
            chunks.append(line)

    def _close_scope(self) -> None:
        """Retract the query scope; the verdict in hand stays valid.

        A failed write means the process died *after* answering — keep
        the answer, kill the carcass, and let the next query respawn
        (counted as a restart there, not here).
        """
        if self._proc is None:
            return
        try:
            self._proc.stdin.write("(pop 1)\n")
            self._proc.stdin.flush()
        except (OSError, ValueError):
            self._kill()

    def _reset(self) -> bool:
        """Issue ``(reset)`` + prelude; bounds solver-side memory."""
        try:
            self._proc.stdin.write(
                "(reset)\n" + smtlib_prelude(get_values=True) + "\n"
            )
            self._proc.stdin.flush()
        except (OSError, ValueError):
            return False
        self._declared.clear()
        self._since_reset = 0
        self.resets += 1
        self._srecord(resets=1)
        obs.event("session:reset", session=self.name)
        return True

    # -- process lifecycle ---------------------------------------------------

    def _spawn(self) -> None:
        spawn_started = perf_counter()
        rule = faults.fire("session:spawn", command=self.command)
        if rule is not None and rule.action in ("error", "kill"):
            raise OSError("fault injected at session:spawn")
        template = _ARGV_TEMPLATES.get(
            os.path.basename(self._argv_prefix[0]), _generic_argv
        )
        argv = template(list(self._argv_prefix), self.timeout)
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        lines: "queue.Queue" = queue.Queue()
        self._lines = lines

        def read(stream=self._proc.stdout):
            try:
                for line in iter(stream.readline, ""):
                    lines.put(line)
            except ValueError:  # stream closed mid-read during kill
                pass
            lines.put(_EOF)

        threading.Thread(
            target=read, name=f"session-{self.command}", daemon=True
        ).start()
        self._proc.stdin.write(smtlib_prelude(get_values=True) + "\n")
        self._proc.stdin.flush()
        self._declared.clear()
        self._since_reset = 0
        self._spawned_at = monotonic()
        self.spawns += 1
        self._srecord(spawns=1)
        if obs.enabled():
            obs.complete_span(
                "session:spawn",
                perf_counter() - spawn_started,
                session=self.name,
            )

    def _respawn(self) -> bool:
        """Spawn (or re-spawn) the process; False + last_error on failure."""
        self._kill()
        try:
            self._spawn()
        except OSError as exc:
            self.last_error = (
                f"could not start {self._argv_prefix[0]!r}: {exc}"
            )
            self._proc = None
            self._breaker_feed(ok=False)
            return False
        return True

    def _kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        self._srecord(seconds=monotonic() - self._spawned_at)
        try:
            proc.kill()
            proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for stream in (proc.stdin, proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass

    def close(self) -> None:
        """End the session process (idempotent; sessions also die with
        the owning process — they hold only daemon threads and pipes)."""
        self._kill()

    def _crash(self, reason: str) -> SolverResult:
        """Kill the wedged/dead process, restart once, answer UNKNOWN.

        The *next* query finds a fresh session; this one is not retried
        (its solver may have died mid-answer — replaying it against a
        cold process would double its latency with no soundness gain).
        """
        self._kill()
        self.restarts += 1
        self._srecord(restarts=1)
        self._breaker_feed(ok=False)
        obs.event("session:restart", session=self.name, reason=reason)
        self._respawn()  # best effort; failure leaves last_error set
        return self._unknown(reason)

    def _crash_none(self, reason: str) -> None:
        self._crash(reason)
        return None

    def _breaker_feed(self, ok: bool) -> None:
        """Feed the per-command breaker; a transition this query drove
        lands in this solve's ``breaker_tallies``."""
        breaker = self.breaker
        if breaker is None:
            return
        on_event = (
            self.stats.record_breaker if self.stats is not None else None
        )
        if ok:
            breaker.record_success(on_event)
        else:
            breaker.record_failure(on_event)

    def _unknown(self, reason: str) -> SolverResult:
        self.last_error = reason
        return SolverResult(UNKNOWN)

    def _srecord(self, **delta) -> None:
        if self.stats is not None:
            self.stats.record_session(self.name, **delta)

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self._kill()
        except Exception:
            pass
