"""External SMT-LIB solver backend: one class, two transports.

This is the paper's actual dispatch target: ExpoSE hands the
capturing-language constraints to Z3's string theory.  Every external
query follows one protocol, held by :class:`ExternalSolverBackend`:

1. the query renders with the SMT-LIB printer in *guarded* mode (the
   exact ⊥-aware encoding, so an external ``unsat`` is sound);
2. a *transport* hands it to the solver binary and parses back the
   ``sat``/``unsat``/``unknown`` verdict and the ``(get-value ...)``
   model, mapping ``|v.def| = false`` to ⊥;
3. any SAT model is **re-validated** against the formula with the
   native evaluator before it is trusted — a model that does not check
   out degrades to UNKNOWN instead of poisoning DSE.

The two transports:

- ``smtlib:`` (:class:`SmtLibBackend`) is *one-shot*: the script goes to
  a temp file, the solver is spawned on it with a wall-clock timeout,
  and its stdout is read to EOF.  Every query pays a full spawn.
- ``session:`` (:class:`SessionBackend`) keeps one solver process alive
  across queries and speaks the incremental SMT-LIB dialogue:

  - at spawn, the shared prelude (``set-option``/``set-logic``) is sent
    once (:func:`repro.constraints.printer.smtlib_prelude`);
  - each query is a *delta*: declarations for newly seen symbols at the
    ground level, then ``(push 1)`` / ``(assert ...)`` /
    ``(check-sat)`` (:func:`repro.constraints.printer.to_smtlib_incremental`);
    a ``(get-value ...)`` follows *only after a ``sat`` verdict* — some
    solvers abort the whole process on a model query in any other state
    (cvc5, unlike ``z3 -in``) — and ``(pop 1)`` closes the scope;
  - every ``reset_every`` queries a ``(reset)`` clears the solver's
    accumulated declarations and learned state, bounding its memory,
    and the prelude is re-sent;
  - answers are synchronized with an ``(echo ...)`` marker after each
    query, so one slow answer can never be attributed to the next;
  - a crashed or wedged process is killed and restarted once per query
    (the query itself answers UNKNOWN; the next finds a fresh session).

  Lifecycle counters (spawns, restarts, resets, per-session query
  counts, process lifetime) land in
  :class:`~repro.solver.stats.SolverStats.session_tallies`.
  :class:`PooledSessionBackend`, the default ``session:`` form, owns no
  process: it leases a :class:`SessionBackend` per query from the
  process-wide :class:`~repro.solver.backends.pool.SessionPool`, behind
  the per-command circuit breaker.

Each transport passes its own flags to the known solvers (one table,
keyed by the binary's basename).  Every failure mode — missing binary,
timeout, crash, a formula outside the classical SMT-LIB regex fragment
(lookaheads, backreferences), or unparsable output — degrades to
UNKNOWN, which is always sound here.
"""

from __future__ import annotations

import math
import os
import queue
import shlex
import shutil
import subprocess
import tempfile
import threading
from functools import cached_property
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro import faults, obs
from repro.constraints.formulas import Formula, to_nnf
from repro.constraints.printer import (
    _variables,
    smtlib_prelude,
    smtlib_query_symbols,
    to_smtlib,
    to_smtlib_incremental,
)
from repro.constraints.terms import UNDEF
from repro.faults.breaker import get_breaker
from repro.solver.core import SAT, SolverResult, UNKNOWN, UNSAT, _holds
from repro.solver.model import Model
from repro.solver.stats import SolverStats

from repro.solver.backends.base import SolverBackend
from repro.solver.backends.pool import SessionPool, get_session_pool

#: A transport's answer: ``(status, get-value bindings)``, or the
#: UNKNOWN it degraded to (with ``last_error`` set).
Answer = Union[Tuple[str, Dict[str, object]], SolverResult]

#: Sentinel queued by the reader thread when the solver closes stdout.
_EOF = object()


# -- the flag table -----------------------------------------------------------


def _z3_flags(timeout: float, session: bool) -> List[str]:
    if session:
        # ``-t`` is z3's *per-check* soft timeout (ms) — unlike ``-T``,
        # it does not kill the process, so the session survives a hard
        # query.
        return ["-smt2", "-in", f"-t:{max(1, int(timeout * 1000))}"]
    return ["-smt2", f"-T:{max(1, math.ceil(timeout))}"]


def _cvc_flags(timeout: float, session: bool) -> List[str]:
    tlimit = max(1000, int(timeout * 1000))
    if session:
        return [
            "--lang", "smt2", "--strings-exp", "--incremental",
            f"--tlimit-per={tlimit}",
        ]
    return ["--lang", "smt2", "--strings-exp", f"--tlimit={tlimit}"]


#: Known solvers' flags per transport, keyed by executable basename.
#: Anything else runs bare: ``<command> <script-file>`` one-shot,
#: ``<command>`` as a session.
_FLAGS = {
    "z3": _z3_flags,
    "cvc5": _cvc_flags,
    "cvc4": _cvc_flags,
}


def probe_solver_command(command: str) -> Optional[str]:
    """``None`` when ``command``'s binary resolves on PATH, else the
    "not installed" diagnostic — the one availability probe, so the
    probe and its message cannot drift apart."""
    argv = shlex.split(command)
    if argv and shutil.which(argv[0]) is not None:
        return None
    binary = argv[0] if argv else command
    return f"solver binary {binary!r} not installed"


# -- the shared backend -------------------------------------------------------


class ExternalSolverBackend(SolverBackend):
    """``<scheme>:<command>`` — what every external-solver form shares:
    the command and its timeout, the availability probe, the timed
    ``solve`` and the verdict tail.  A transport implements
    :meth:`_exchange`."""

    #: Spec scheme; the display name is ``<scheme>:<command>``.
    scheme: str
    #: Whether the transport keeps its process alive across queries
    #: (selects the solver's flags from the table).
    persistent = False

    def __init__(
        self,
        command: str = "z3",
        *,
        timeout: float = 5.0,
        stats: Optional[SolverStats] = None,
    ):
        super().__init__(stats)
        self.command = command or "z3"
        self.timeout = timeout
        self.name = f"{self.scheme}:{self.command}"
        self._argv_prefix = shlex.split(self.command)
        #: Why the last query degraded to UNKNOWN (diagnostics only).
        self.last_error: Optional[str] = None

    @cached_property
    def _missing(self) -> Optional[str]:
        """The probe's "not installed" diagnostic, or ``None``.

        Probed once per backend instance: a DSE run asks hundreds of
        times on the hot solve path, and binaries do not appear
        mid-run.
        """
        return probe_solver_command(self.command)

    @property
    def available(self) -> bool:
        """Whether the solver binary resolves on PATH (probed once)."""
        return self._missing is None

    def _argv(self) -> List[str]:
        flags = _FLAGS.get(os.path.basename(self._argv_prefix[0]))
        if flags is None:
            return list(self._argv_prefix)
        return self._argv_prefix + flags(self.timeout, self.persistent)

    # -- solving -------------------------------------------------------------

    def solve(self, formula: Formula) -> SolverResult:
        started = perf_counter()
        result = self._solve(formula)
        self._tally(result.status, perf_counter() - started)
        return result

    def _solve(self, formula: Formula) -> SolverResult:
        self.last_error = None
        # Availability first: without a binary there is no point paying
        # for script rendering on every query of a DSE run.
        if not self.available:
            return self._unknown(self._missing)
        answer = self._exchange(formula)
        if isinstance(answer, SolverResult):
            return answer
        status, values = answer
        if status == UNSAT:
            # Sound thanks to the guarded (exact) encoding: every native
            # model corresponds to an SMT model, so SMT-unsat ⟹ unsat.
            return SolverResult(UNSAT)
        if status != SAT:
            return self._unknown(f"solver answered {status!r}")
        model = build_model(formula, values)
        try:
            validated = _holds(to_nnf(formula), model)
        except Exception as exc:  # defensive: never crash on bad output
            return self._unknown(f"model evaluation failed: {exc}")
        if not validated:
            return self._unknown("solver model failed native re-validation")
        return SolverResult(SAT, model)

    def _exchange(self, formula: Formula) -> Answer:
        """Put ``formula`` to the solver and read back its answer."""
        raise NotImplementedError

    def _unknown(self, reason: str) -> SolverResult:
        self.last_error = reason
        return SolverResult(UNKNOWN)

    def _breaker_sink(self):
        """The ``on_event`` callback that lands breaker transitions this
        query drove in this backend's ``breaker_tallies``."""
        return self.stats.record_breaker if self.stats is not None else None


class SmtLibBackend(ExternalSolverBackend):
    """``smtlib:<command>`` — the one-shot transport: one solver process
    per query, fed a script file."""

    scheme = "smtlib"

    def _exchange(self, formula: Formula) -> Answer:
        try:
            script = to_smtlib(formula, guarded=True, get_values=True)
        except TypeError as exc:
            # Lookaheads/backreferences/anchors have no classical
            # SMT-LIB regex form; the native solver owns those queries.
            return self._unknown(f"unprintable formula: {exc}")
        argv = self._argv()
        path = None
        try:
            fd, path = tempfile.mkstemp(suffix=".smt2", text=True)
            with os.fdopen(fd, "w") as handle:
                handle.write(script + "\n")
            completed = subprocess.run(
                argv + [path],
                capture_output=True,
                text=True,
                timeout=self.timeout + 1.0,
            )
        except subprocess.TimeoutExpired:
            return self._unknown(f"timed out after {self.timeout}s")
        except OSError as exc:
            return self._unknown(f"could not run {argv[0]!r}: {exc}")
        finally:
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        # Solvers exit nonzero on errors but may still have printed a
        # verdict (z3 does for get-value after unsat); parse regardless.
        return parse_solver_output(completed.stdout)


class SessionBackend(ExternalSolverBackend):
    """``session:<command>?pooled=0`` — the session transport: one
    private, persistent incremental solver process."""

    scheme = "session"
    persistent = True

    def __init__(
        self,
        command: str = "z3",
        *,
        timeout: float = 5.0,
        reset_every: int = 512,
        stats: Optional[SolverStats] = None,
    ):
        super().__init__(command, timeout=timeout, stats=stats)
        self.reset_every = max(1, int(reset_every))
        #: Per-command circuit breaker (process-global; shared with the
        #: pooled form).  A session only *feeds* it — crashes/spawn
        #: failures count as failures, a completed round trip as
        #: success; the gating (short-circuit to UNKNOWN while open)
        #: lives in ``PooledSessionBackend``/the router, so a
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

    def _exchange(self, formula: Formula) -> Answer:
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
            # No classical SMT-LIB form; the native solver owns those
            # queries.  The session stays alive — nothing was sent.
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
        values: Dict[str, object] = {}
        # Phase 2: the model, asked for only in sat state (a get-value
        # after unsat aborts some solvers).
        symbols = smtlib_query_symbols(formula) if status == SAT else ()
        if symbols:
            output = self._round_trip(
                "(get-value (" + " ".join(symbols) + "))"
            )
            if output is None:
                return SolverResult(UNKNOWN)  # crashed mid-model
            _, values = parse_solver_output(output)
        self._close_scope()
        return status, values

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
        self._proc = subprocess.Popen(
            self._argv(),
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
        if ok:
            self.breaker.record_success(self._breaker_sink())
        else:
            self.breaker.record_failure(self._breaker_sink())

    def _srecord(self, **delta) -> None:
        if self.stats is not None:
            self.stats.record_session(self.name, **delta)

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self._kill()
        except Exception:
            pass


class PooledSessionBackend(ExternalSolverBackend):
    """``session:<command>`` over the shared pool (the default form).

    Owns no process: each query leases a :class:`SessionBackend` from
    the pool, so a worker's jobs — and the CEGAR loop's refined queries
    across backend instances — amortize the same spawns.  All it adds
    to the private form is the breaker gate and the checkout; the
    leased session tallies the query.  ``close()`` is a no-op by
    design: the pool outlives any one backend, which is the point.
    """

    scheme = "session"
    persistent = True

    def __init__(
        self,
        command: str = "z3",
        *,
        timeout: float = 5.0,
        reset_every: int = 512,
        stats: Optional[SolverStats] = None,
        pool: Optional[SessionPool] = None,
    ):
        super().__init__(command, timeout=timeout, stats=stats)
        self.reset_every = max(1, int(reset_every))
        self._pool = pool
        #: Per-command circuit breaker (process-global, shared with the
        #: sessions that feed it).  This is the *gate*: while open,
        #: queries short-circuit to UNKNOWN without touching the pool,
        #: and the router's fallback answers natively instead.
        self.breaker = get_breaker(self.name)

    @property
    def pool(self) -> SessionPool:
        return self._pool if self._pool is not None else get_session_pool()

    @property
    def circuit_open(self) -> bool:
        """Non-consuming breaker peek (the router's divert signal)."""
        return self.breaker.peek_open()

    def solve(self, formula: Formula) -> SolverResult:
        if not self.available:
            # Like a private session, touch no process — and take no
            # checkout: the pool stays empty on binary-less machines
            # and the router's native fallback takes over.
            return self._unknown(self._missing)
        if not self.breaker.allow(self._breaker_sink()):
            # Open breaker (and no probe slot): the command has been
            # failing repeatedly — short-circuit to UNKNOWN for the
            # cool-down window instead of paying spawn-and-fail again.
            return self._unknown(f"circuit open for {self.command!r}")
        with self.pool.checkout(
            self.command,
            timeout=self.timeout,
            reset_every=self.reset_every,
            stats=self.stats,
        ) as session:
            result = session.solve(formula)
            self.last_error = session.last_error
        return result

    def close(self) -> None:
        """No-op: pooled sessions outlive the backend (see class doc)."""


# -- output parsing -----------------------------------------------------------


def parse_solver_output(text: str) -> Tuple[str, Dict[str, object]]:
    """Extract the verdict and the ``(get-value ...)`` bindings.

    Returns ``(status, {symbol: value})`` where values are strings or
    booleans.  Error s-expressions and unparsable trailing output are
    ignored — a missing model simply fails re-validation later.
    """
    status = UNKNOWN
    values: Dict[str, object] = {}
    for node in _read_sexprs(text):
        if isinstance(node, str):
            if node in (SAT, UNSAT, UNKNOWN) and not isinstance(node, _Str):
                status = str(node)
            continue
        # ((sym val) (sym val) ...) — one get-value answer.
        for pair in node:
            if (
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
            ):
                values[pair[0]] = pair[1]
    return status, values


def build_model(formula: Formula, values: Dict[str, object]) -> Model:
    """Reconstruct a :class:`Model` from parsed ``get-value`` bindings.

    ``|v.def| = false`` maps to ⊥; a variable with no binding defaults
    to the defined empty string (matching the native model's default).
    """
    model = Model()
    for var in _variables(formula):
        defined = values.get(var.name + ".def", True)
        if defined in ("false", False):
            model.set(var, UNDEF)
            continue
        value = values.get(var.name, "")
        model.set(var, value if isinstance(value, str) else "")
    return model


def unescape_smtlib_string(body: str) -> str:
    """Decode the inside of an SMT-LIB 2.6 string literal.

    Handles the ``""`` quote escape and both character-escape forms of
    the strings theory: ``\\u{XH...}`` and ``\\uXXXX``.  This is the
    round-trip inverse of the printer's ``_string_literal``.
    """
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == '"':
            # Only "" appears inside a literal's body.
            out.append('"')
            i += 2
            continue
        if ch == "\\" and body.startswith("\\u{", i):
            end = body.find("}", i + 3)
            if end != -1:
                hex_digits = body[i + 3:end]
                try:
                    out.append(chr(int(hex_digits, 16)))
                    i = end + 1
                    continue
                except ValueError:
                    pass
        if ch == "\\" and body.startswith("\\u", i) and len(body) >= i + 6:
            hex_digits = body[i + 2:i + 6]
            try:
                out.append(chr(int(hex_digits, 16)))
                i += 6
                continue
            except ValueError:
                pass
        out.append(ch)
        i += 1
    return "".join(out)


SExpr = Union[str, List["SExpr"]]


class _Str(str):
    """A token that came from a string literal (never punctuation)."""


def _read_sexprs(text: str) -> List[SExpr]:
    """Tolerant s-expression reader for solver stdout.

    Atoms are bare symbols, ``|piped symbols|`` (pipes stripped) and
    string literals (decoded).  Anything that fails to balance at the
    end is dropped.
    """
    tokens = _tokenize(text)
    out: List[SExpr] = []
    stack: List[List[SExpr]] = []
    for token in tokens:
        if isinstance(token, _Str):
            if stack:
                stack[-1].append(token)
            else:
                out.append(token)
        elif token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                continue  # stray close: skip
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            if stack:
                stack[-1].append(token)
            else:
                out.append(token)
    return out


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            body: List[str] = []
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        body.append('""')
                        j += 2
                        continue
                    break
                body.append(text[j])
                j += 1
            tokens.append(_Str(unescape_smtlib_string("".join(body))))
            i = j + 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j == -1:
                break
            tokens.append(text[i + 1:j])
            i = j + 1
        elif ch == ";":
            # comment to end of line
            j = text.find("\n", i)
            i = n if j == -1 else j + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()|";':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens
