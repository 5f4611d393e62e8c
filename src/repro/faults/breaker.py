"""Per-command circuit breakers for external solver processes.

A solver binary that is crashing on every query (bad install, OOM
killer, wedged filesystem) costs a full spawn + timeout per query if
the backends keep trying it.  A :class:`CircuitBreaker` per session
command turns that into one cheap check: repeated failures *open* the
breaker, queries short-circuit to the native fallback for a cool-down
window, then a single *half-open* probe re-admits the binary if it
answers.

Split API, matching how the backends consume it:

- :meth:`allow` **consumes**: it admits the half-open probe (at most
  one outstanding) and counts a short-circuit when it refuses.  Only
  the gating backend (``PooledSessionBackend``) calls it.
- :meth:`peek_open` is **non-consuming**: the router uses it to divert
  classical queries to native while the breaker is open without
  eating the probe slot.

State transitions (``open`` / ``close`` / ``reopen`` / ``probe``) are
pushed to ``repro.obs`` events and metrics.  Each consuming method also
takes an ``on_event(command, event)`` callback, and reports any
transition (or ``short_circuit``) it drove to its caller's callback
alone: the breaker is process-global, but the caller whose query drove
a transition owns it in its ``SolverStats`` breaker tallies.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.obs import metrics as _metrics

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: ``on_event(command, event)``: where a caller's driven events go.
OnEvent = Optional[Callable[[str, str], None]]


class CircuitBreaker:
    """Closed → open on ``fail_threshold`` consecutive failures →
    half-open after ``cooldown_s`` → closed on a good probe."""

    def __init__(self, name: str, *, fail_threshold: int = 3,
                 cooldown_s: float = 5.0,
                 clock: Callable[[], float] = monotonic):
        self.name = name
        self.fail_threshold = max(1, fail_threshold)
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive
        self._opened_at = 0.0
        self._probing = False
        self._probe_at = 0.0
        self.trips = 0
        self.short_circuits = 0

    # -- transitions ---------------------------------------------------------

    def _transition(self, state: str, event: str) -> str:
        self._state = state
        obs.event(
            "breaker:transition", command=self.name, to=state, event=event
        )
        _metrics.count(
            "breaker_transitions_total", command=self.name, event=event
        )
        return event

    def _report(self, event: Optional[str], on_event: OnEvent) -> None:
        """Hand a driven event to its caller (outside the lock)."""
        if event is not None and on_event is not None:
            on_event(self.name, event)

    def record_failure(self, on_event: OnEvent = None) -> None:
        event = None
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN:
                self._probing = False
                self._opened_at = self._clock()
                self.trips += 1
                event = self._transition(OPEN, "reopen")
            elif (
                self._state == CLOSED
                and self._failures >= self.fail_threshold
            ):
                self._opened_at = self._clock()
                self.trips += 1
                event = self._transition(OPEN, "open")
        self._report(event, on_event)

    def record_success(self, on_event: OnEvent = None) -> None:
        event = None
        with self._lock:
            self._failures = 0
            if self._state in (OPEN, HALF_OPEN):
                self._probing = False
                event = self._transition(CLOSED, "close")
        self._report(event, on_event)

    # -- gating --------------------------------------------------------------

    def allow(self, on_event: OnEvent = None) -> bool:
        """May a query run against the binary right now? (consuming)"""
        with self._lock:
            admitted, event = self._admit(self._clock())
            if not admitted:
                self.short_circuits += 1
                _metrics.count(
                    "breaker_short_circuits_total", command=self.name
                )
                event = "short_circuit"
        self._report(event, on_event)
        return admitted

    def _admit(self, now: float) -> Tuple[bool, Optional[str]]:
        if self._state == CLOSED:
            return True, None
        if self._state == OPEN:
            if now - self._opened_at < self.cooldown_s:
                return False, None
            self._probing = True
            self._probe_at = now
            return True, self._transition(HALF_OPEN, "probe")
        # Half-open: one probe outstanding at a time — but a probe whose
        # caller never reported back (e.g. an unprintable formula that
        # touched no process) goes stale after a cooldown and frees the
        # slot, so the breaker can't wedge.
        if self._probing and now - self._probe_at < self.cooldown_s:
            return False, None
        self._probing = True
        self._probe_at = now
        return True, None

    def peek_open(self) -> bool:
        """Is the binary currently distrusted? (non-consuming).

        ``False`` once the cooldown has elapsed — the router then
        routes to the session again, whose gate (:meth:`allow`) admits
        exactly one half-open probe; concurrent queries in that window
        still read ``True`` and divert to native.
        """
        with self._lock:
            now = self._clock()
            if self._state == CLOSED:
                return False
            if self._state == OPEN:
                return now - self._opened_at < self.cooldown_s
            # Half-open: distrusted while a fresh probe is in flight.
            return self._probing and now - self._probe_at < self.cooldown_s

    # -- reporting -----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self.trips,
                "short_circuits": self.short_circuits,
            }


# -- process-global registry (one breaker per session command) ----------------

_BREAKERS: Dict[str, CircuitBreaker] = {}
_REGISTRY_LOCK = threading.Lock()


def get_breaker(name: str, **kwargs) -> CircuitBreaker:
    """The process's breaker for ``name`` (e.g. ``session:z3``),
    created on first use with ``kwargs``."""
    with _REGISTRY_LOCK:
        breaker = _BREAKERS.get(name)
        if breaker is None:
            breaker = CircuitBreaker(name, **kwargs)
            _BREAKERS[name] = breaker
        return breaker


def breakers_snapshot() -> Dict[str, dict]:
    with _REGISTRY_LOCK:
        return {
            name: breaker.snapshot()
            for name, breaker in _BREAKERS.items()
        }


def reset_breakers() -> None:
    """Drop all registered breakers (tests)."""
    with _REGISTRY_LOCK:
        _BREAKERS.clear()
