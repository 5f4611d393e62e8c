"""Process-wide pool of live incremental solver sessions.

A private ``session:`` backend amortizes subprocess spawns *within*
one backend instance — which in the batch service means within one job:
every job builds its own backend stack, so a batch of single-query
solve jobs still spawns one solver process per job, and the CEGAR
loop's refined-query stream re-pays the spawn whenever a fresh backend
is constructed.  This module moves session ownership up to the process:

- :class:`SessionPool` keeps a small number of live
  :class:`~repro.solver.backends.smtlib.SessionBackend` processes per
  distinct ``(command, timeout, reset_every)`` key.  ``checkout`` hands
  a caller *exclusive* use of one session (spawning lazily up to
  ``max_per_key``); concurrent callers on other threads either receive
  distinct sessions or wait briefly on the pool's request queue — a
  session is never shared between two in-flight queries, so interleaved
  ``push``/``pop`` scopes cannot cross-talk.  A caller that waited
  longer than ``wait_timeout`` gets a private *overflow* session
  (closed on release) rather than an error: the pool bounds residency,
  not progress.
- :class:`~repro.solver.backends.smtlib.PooledSessionBackend`, the
  default ``session:`` backend, leases from the pool: per query it
  checks a session out, solves, and returns it.  All session semantics
  (incremental deltas, guarded encoding, native SAT re-validation,
  restart-once-per-query) are exactly those of the leased session — the
  pool only changes who owns the process and for how long.

While leased, the session's lifecycle events (spawns, restarts, resets,
queries, lifetime) are recorded into the *caller's*
:class:`~repro.solver.stats.SolverStats`, alongside the pool's own
``checkouts``/``waits`` counters — so per-job payloads and batch
reports show exactly which share of the shared processes each job used,
and ``queries_per_spawn`` measures amortization across jobs, not just
within one.

The default pool is process-global (one per worker process in the batch
runner); sessions hold only daemon reader threads and pipes, and an
``atexit`` hook closes whatever is idle at interpreter shutdown.
"""

from __future__ import annotations

import atexit
import threading
from time import monotonic
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs
from repro.solver.stats import SolverStats

if TYPE_CHECKING:
    from repro.solver.backends.smtlib import SessionBackend

_PoolKey = Tuple[str, float, int]


class SessionPool:
    """A keyed pool of live incremental solver sessions.

    ``max_per_key`` bounds how many concurrent processes one spec may
    hold (a single-threaded worker needs one; a router whose portfolio
    stragglers overlap the next direct query needs a second).
    ``wait_timeout`` bounds how long a checkout blocks on the request
    queue before falling back to a private overflow session.
    """

    def __init__(
        self,
        max_per_key: int = 4,
        wait_timeout: float = 1.0,
        idle_timeout: Optional[float] = None,
    ):
        self.max_per_key = max(1, int(max_per_key))
        self.wait_timeout = wait_timeout
        self.idle_timeout = idle_timeout
        self._cond = threading.Condition()
        self._idle: Dict[_PoolKey, List[SessionBackend]] = {}
        self._leased: Dict[_PoolKey, int] = {}
        self._closed = False
        self._reaper: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        # -- lifetime counters (pool-wide; per-caller shares land in the
        # caller's SolverStats via checkout) -----------------------------
        self.checkouts = 0
        self.waits = 0
        self.overflows = 0
        self.reaped = 0

    # -- leasing -------------------------------------------------------------

    def checkout(
        self,
        command: str,
        *,
        timeout: float = 5.0,
        reset_every: int = 512,
        stats: Optional[SolverStats] = None,
    ) -> "SessionLease":
        """Lease one live session for exclusive use (context manager).

        The leased session's stats sink is rebound to ``stats`` for the
        duration, so its lifecycle events are attributed to the caller.
        """
        key = (command, float(timeout), int(reset_every))
        name = f"session:{command}"
        waited = False
        overflow = False
        with self._cond:
            self.checkouts += 1
            deadline = None
            while True:
                idle = self._idle.get(key)
                if idle:
                    session = idle.pop()
                    break
                if self._leased.get(key, 0) < self.max_per_key:
                    session = None  # spawn outside the lock
                    break
                if deadline is None:
                    deadline = monotonic() + self.wait_timeout
                    waited = True
                    self.waits += 1
                remaining = deadline - monotonic()
                timed_out = remaining <= 0 or not self._cond.wait(
                    remaining
                )
                # A timed-out wait still loops once more: notify_all on
                # a condition shared across keys can wake this waiter
                # last, *after* a matching session was already parked —
                # only a confirmed-empty re-check declares overflow.
                if timed_out:
                    if self._idle.get(key) or (
                        self._leased.get(key, 0) < self.max_per_key
                    ):
                        continue
                    # Saturated past the grace period: a private session
                    # keeps this query moving; it is closed on release.
                    overflow = True
                    self.overflows += 1
                    session = None
                    break
            if not overflow:
                self._leased[key] = self._leased.get(key, 0) + 1
        if session is None:
            # Imported here: the session transport leases from this
            # module, which must load first.
            from repro.solver.backends.smtlib import SessionBackend

            session = SessionBackend(
                command, timeout=timeout, reset_every=reset_every
            )
        session.stats = stats
        if stats is not None:
            stats.record_session(
                name, checkouts=1, waits=1 if waited else 0
            )
        obs.event(
            "session:lease",
            session=name,
            waited=waited,
            overflow=overflow,
        )
        return SessionLease(self, key, session, overflow)

    def _release(
        self, key: _PoolKey, session: SessionBackend, overflow: bool
    ) -> None:
        # The releasing caller's stats stay bound between leases (the
        # next checkout rebinds): process lifetime is recorded at kill
        # time, and a session closed by ``close()``/atexit attributes
        # its remaining lifetime to its last lessee instead of losing
        # it to an unbound sink.  An overflow session closes while its
        # only lessee's sink is still attached, for the same reason.
        if overflow:
            session.close()
            return
        with self._cond:
            self._leased[key] = max(0, self._leased.get(key, 0) - 1)
            if self._closed:
                # Released after close()/reset: re-pooling would strand
                # a live solver process in a dead pool forever.
                closing = session
            else:
                closing = None
                session._parked_at = monotonic()
                self._idle.setdefault(key, []).append(session)
            # All keys share this condition; waiters re-check and
            # re-wait, so waking every one of them is what keeps a
            # key-B waiter from swallowing a key-A release.
            self._cond.notify_all()
        if closing is not None:
            closing.close()

    # -- idle reaping --------------------------------------------------------

    def set_idle_timeout(self, seconds: Optional[float]) -> None:
        """Arm (or with ``None`` disarm) the idle-session reaper.

        With a timeout set, a background daemon thread periodically
        closes idle sessions parked longer than ``seconds`` — a quiet
        serve daemon stops pinning solver processes instead of holding
        them until interpreter exit.  Leased sessions are never touched;
        the next checkout after a reap simply spawns fresh.
        """
        with self._cond:
            self.idle_timeout = seconds
            if not seconds or self._closed or self._reaper is not None:
                return
            self._reaper = threading.Thread(
                target=self._reap_loop,
                name="repro-session-reaper",
                daemon=True,
            )
        self._reaper.start()

    def reap_idle(self, max_idle: Optional[float] = None) -> int:
        """Close idle sessions parked longer than ``max_idle`` seconds
        (default: the armed ``idle_timeout``); returns how many."""
        limit = self.idle_timeout if max_idle is None else max_idle
        if limit is None:
            return 0
        cutoff = monotonic() - limit
        stale: List[SessionBackend] = []
        with self._cond:
            for key in list(self._idle):
                kept: List[SessionBackend] = []
                for session in self._idle[key]:
                    if getattr(session, "_parked_at", 0.0) > cutoff:
                        kept.append(session)
                    else:
                        stale.append(session)
                if kept:
                    self._idle[key] = kept
                else:
                    del self._idle[key]
            self.reaped += len(stale)
        for session in stale:
            session.close()
        if stale:
            obs.event("session:reap", closed=len(stale))
        return len(stale)

    def _reap_loop(self) -> None:
        while not self._reaper_stop.is_set():
            timeout = self.idle_timeout
            if not timeout:
                return
            self._reaper_stop.wait(max(0.05, timeout / 4.0))
            if self._reaper_stop.is_set():
                return
            self.reap_idle()

    # -- lifecycle -----------------------------------------------------------

    def idle_count(self, command: Optional[str] = None) -> int:
        with self._cond:
            return sum(
                len(sessions)
                for key, sessions in self._idle.items()
                if command is None or key[0] == command
            )

    def close(self) -> None:
        """Close every idle session and mark the pool closed: a lease
        still in flight (e.g. an abandoned portfolio straggler) closes
        its session on release instead of re-pooling it."""
        self._reaper_stop.set()
        with self._cond:
            idle, self._idle = self._idle, {}
            self._leased.clear()
            self._closed = True
        for sessions in idle.values():
            for session in sessions:
                session.close()


class SessionLease:
    """Exclusive use of one pooled session, released on ``__exit__``."""

    def __init__(
        self,
        pool: SessionPool,
        key: _PoolKey,
        session: SessionBackend,
        overflow: bool,
    ):
        self.pool = pool
        self.key = key
        self.session = session
        self.overflow = overflow

    def __enter__(self) -> SessionBackend:
        return self.session

    def __exit__(self, *exc) -> None:
        self.pool._release(self.key, self.session, self.overflow)


#: The process-global pool (one per worker process in the batch runner).
_GLOBAL_POOL: Optional[SessionPool] = None
_GLOBAL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _close_global_pool() -> None:
    with _GLOBAL_LOCK:
        pool = _GLOBAL_POOL
    if pool is not None:
        pool.close()


def get_session_pool() -> SessionPool:
    global _GLOBAL_POOL, _ATEXIT_REGISTERED
    with _GLOBAL_LOCK:
        if _GLOBAL_POOL is None:
            _GLOBAL_POOL = SessionPool()
            if not _ATEXIT_REGISTERED:
                # One hook for whichever pool is current at exit —
                # re-registering per reset would pin every dead pool
                # (and its idle sessions) for the process's life.
                atexit.register(_close_global_pool)
                _ATEXIT_REGISTERED = True
        return _GLOBAL_POOL


def reset_session_pool() -> None:
    """Close the global pool's sessions and start fresh (tests)."""
    global _GLOBAL_POOL
    with _GLOBAL_LOCK:
        pool, _GLOBAL_POOL = _GLOBAL_POOL, None
    if pool is not None:
        pool.close()
