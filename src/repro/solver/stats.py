"""Instrumentation counters for the solver and the CEGAR loop.

The paper's Table 8 and §7.4 report per-query and per-package solver
times, broken down by whether the query modelled capture groups and
whether refinement was needed.  This module provides the collector those
experiments read from.

Every per-run tally is one *family* of :data:`FAMILIES`: the table
names the family's payload key, the zero entry it counts into, the
ratios its summary carries and the ``repro.obs.metrics`` series it
mirrors.  One record path (:meth:`SolverStats._record`) folds an event
into the table and, when a registry is enabled, mirrors it; one
serialise/merge pair (:meth:`SolverStats.tallies` /
:meth:`SolverStats.fold`) turns the table into JSON-shaped payloads and
folds payloads back in, which is how the batch report merges jobs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics


@dataclass
class QueryRecord:
    """One solver query (one ``Solve(P)`` call in Algorithm 1's loop)."""

    seconds: float
    status: str
    #: Leaf cores solved.
    cores_tried: int = 0
    candidates_tried: int = 0
    #: Nogoods learned in this query (a count: records pin no formula).
    nogoods: int = 0
    #: Why an UNKNOWN verdict: ``deadline``, ``budget`` (a work cap) or
    #: ``incomplete`` (candidate lists that are no exact enumeration).
    unknown_reason: Optional[str] = None
    had_regex: bool = False
    had_captures: bool = False
    refinements: int = 0
    hit_refinement_limit: bool = False


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass(frozen=True)
class Family:
    """How one tally family is stored, shaped and mirrored."""

    #: Key of the family in job payloads (``None``: never emitted).
    payload: Optional[str] = None
    #: Zero entry of one key's counters; ``None`` keeps one bare count
    #: per key.
    zero: Optional[Dict[str, float]] = None
    #: ``False`` for one unkeyed entry (the two caches' counters).
    keyed: bool = True
    #: The ratios a summary entry carries, from its counters.
    derive: Callable[[dict], dict] = lambda counts: {}
    #: Counter bumped once per record with the record's labels or, with
    #: ``per_kind``, by each counted field's amount under label ``kind``.
    counter: Optional[str] = None
    per_kind: bool = False
    #: Names of the metric labels; a record passes their values in
    #: this order.
    labels: Tuple[str, ...] = ()
    #: Histogram of a record's ``seconds``, keeping ``histogram_labels``.
    histogram: Optional[str] = None
    histogram_labels: Tuple[str, ...] = ()
    #: An alarm (trouble, not work): emitted into payloads only when
    #: non-empty, so a clean run's payload keeps its shape, and kept
    #: by a serve waiter's replay (see ``runner.replay_result``).
    alarm: bool = False


#: Every family, in payload order.  ``query`` stores its records in
#: :attr:`SolverStats.queries` (Table 8 needs each one) and only shares
#: the record path and its metric mirrors.
FAMILIES: Dict[str, Family] = {
    "query": Family(
        counter="solver_queries_total",
        labels=("status", "refined"),
        histogram="solver_query_seconds",
    ),
    "cache": Family(
        zero={"hits": 0, "misses": 0},
        keyed=False,
        derive=lambda t: {
            "lookups": t["hits"] + t["misses"],
            "hit_rate": _ratio(t["hits"], t["hits"] + t["misses"]),
        },
        counter="query_cache_lookups_total",
        labels=("outcome",),
    ),
    "backend": Family(
        payload="backend_tallies",
        zero={
            "queries": 0,
            "sat": 0,
            "unsat": 0,
            "unknown": 0,
            "errors": 0,
            "seconds": 0.0,
        },
        derive=lambda t: {
            "definitive_rate": _ratio(t["sat"] + t["unsat"], t["queries"])
        },
        counter="backend_queries_total",
        labels=("backend", "status"),
        histogram="backend_seconds",
        histogram_labels=("backend",),
    ),
    # ``seconds`` is cumulative subprocess lifetime; the amortization
    # claim of the session backend is ``queries_per_spawn`` (a one-shot
    # ``smtlib:`` backend is pinned at 1).  ``checkouts``/``waits`` are
    # pool leases and the leases that blocked.
    "session": Family(
        payload="session_tallies",
        zero={
            "spawns": 0,
            "restarts": 0,
            "resets": 0,
            "queries": 0,
            "seconds": 0.0,
            "checkouts": 0,
            "waits": 0,
        },
        derive=lambda t: {
            "queries_per_spawn": _ratio(t["queries"], t["spawns"])
        },
        counter="session_events_total",
        per_kind=True,
        labels=("session",),
    ),
    "route": Family(
        payload="route_tallies",
        counter="route_decisions_total",
        labels=("route", "target"),
    ),
    "breaker": Family(payload="breaker_tallies", alarm=True),
    # Soundness trip-wire: two sound-by-construction deciders returned
    # contradictory definitive answers.  Empty on every honest run.
    "disagreement": Family(
        payload="disagreement_tallies",
        counter="backend_disagreements_total",
        labels=("pair",),
        alarm=True,
    ),
    # This run's share of the process-global automata interner, which
    # mirrors its own lookups into the registry.
    "automata": Family(
        payload="automata_cache",
        zero={"hits": 0, "misses": 0, "disk_hits": 0, "disk_stores": 0},
        keyed=False,
        derive=lambda t: {
            "hit_rate": _ratio(
                t["hits"] + t["disk_hits"],
                t["hits"] + t["disk_hits"] + t["misses"],
            )
        },
    ),
}

#: Backend statuses that have their own counter (the rest are unknown).
_OUTCOMES = {"sat": "sat", "unsat": "unsat", "error": "errors"}


class Tally(dict):
    """One entry of a keyed family summary, fields readable as
    attributes (``stats.backend_tallies["native"].queries``)."""

    __slots__ = ()

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


#: The historical name of a ``backend_tallies`` entry.
BackendTally = Tally


def _shape(family: Family, entry: dict) -> dict:
    shaped = {name: entry[name] for name in family.zero}
    shaped.update(family.derive(shaped))
    # Text fields (a backend's ``last_error``) only once recorded.
    shaped.update((k, v) for k, v in entry.items() if k not in shaped)
    return shaped


def _summary(family: str):
    def summary(self) -> dict:
        return self.tallies(family)

    summary.__doc__ = f"JSON-shaped ``{family}`` tallies (payloads/reports)."
    return summary


@dataclass
class SolverStats:
    """Aggregated statistics across queries (reset per experiment)."""

    queries: List[QueryRecord] = field(default_factory=list)
    #: Ring-buffer cap on ``queries``: daemon-length runs record
    #: millions of :class:`QueryRecord`\ s, so past the cap the oldest
    #: records are dropped (and counted in ``dropped_query_records``)
    #: instead of leaking memory.  ``None`` keeps every record.
    max_query_records: Optional[int] = None
    dropped_query_records: int = 0
    #: family -> key -> counters (a bare count for ``zero=None``
    #: families; key ``None`` for unkeyed ones).
    _tallies: Dict[str, dict] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Records arrive from worker threads (a portfolio's members, even
    #: abandoned stragglers finishing late, share this object).
    _tally_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- the record path ------------------------------------------------------

    def _record(
        self,
        family: str,
        key: Optional[str] = None,
        counts=1,
        labels: Tuple[str, ...] = (),
        seconds: float = 0.0,
        query: Optional[QueryRecord] = None,
    ) -> None:
        """Fold one event into ``family[key]`` and mirror it (``labels``
        are the values of the family's metric labels)."""
        spec = FAMILIES[family]
        with self._tally_lock:
            if query is not None:
                self._keep(query)
            else:
                self._add(family, spec, key, counts)
        if spec.counter is None or not _metrics.enabled():
            return
        labels = dict(zip(spec.labels, labels))
        if spec.per_kind:
            for kind, amount in counts.items():
                if amount and kind != "seconds":
                    _metrics.count(spec.counter, amount, kind=kind, **labels)
        else:
            _metrics.count(spec.counter, **labels)
        if spec.histogram is not None:
            _metrics.observe(
                spec.histogram,
                seconds,
                **{name: labels[name] for name in spec.histogram_labels},
            )

    def _keep(self, record: QueryRecord) -> None:
        self.queries.append(record)
        if (
            self.max_query_records is not None
            and len(self.queries) > self.max_query_records
        ):
            overflow = len(self.queries) - self.max_query_records
            del self.queries[:overflow]
            self.dropped_query_records += overflow

    def _add(self, family: str, spec: Family, key, counts) -> None:
        """Fold ``counts`` into ``family[key]`` (caller holds the lock)."""
        zero = spec.zero
        table = self._tallies.setdefault(family, {})
        if zero is None:
            table[key] = table.get(key, 0) + counts
            return
        entry = table.get(key)
        if entry is None:
            entry = table[key] = dict(zero)
        for name, amount in counts.items():
            if isinstance(amount, str):
                entry[name] = amount  # the latest detail wins
            else:
                entry[name] = entry.get(name, 0) + amount

    # -- the one serialise/merge pair -----------------------------------------

    def tallies(self, family: str) -> dict:
        """JSON-shaped summary of one family (keys sorted)."""
        spec = FAMILIES[family]
        with self._tally_lock:
            table = sorted(self._tallies.get(family, {}).items())
            if spec.zero is None:
                return dict(table)
            shaped = {key: _shape(spec, entry) for key, entry in table}
        if spec.keyed:
            return shaped
        return shaped.get(None) or _shape(spec, spec.zero)

    def fold(self, family: str, shaped: Optional[dict]) -> None:
        """Merge a :meth:`tallies`-shaped dict into this collector.

        Not mirrored: the events were counted where they happened, and
        this only re-buckets them (per job, per batch).
        """
        spec = FAMILIES[family]
        entries = (shaped or {}).items() if spec.keyed else [(None, shaped)]
        with self._tally_lock:
            for key, counts in entries:
                if spec.zero is not None:
                    if not counts:
                        continue
                    counts = {
                        name: amount
                        for name, amount in counts.items()
                        if name in spec.zero or isinstance(amount, str)
                    }
                self._add(family, spec, key, counts)

    def tally_payload(self, *families: str, always=()) -> Dict[str, dict]:
        """The tally keys of a job payload: ``families`` (default: every
        emitted family) in order, an alarm family only when non-empty
        or named in ``always``."""
        payload = {}
        for family in families or FAMILIES:
            spec = FAMILIES[family]
            if spec.payload is None:
                continue
            shaped = self.tallies(family)
            if shaped or not spec.alarm or family in always:
                payload[spec.payload] = shaped
        return payload

    # -- bindings -------------------------------------------------------------

    def record(self, record: QueryRecord) -> None:
        self._record(
            "query",
            labels=(record.status, str(record.refinements > 0).lower()),
            seconds=record.seconds,
            query=record,
        )

    def record_cache(self, hit: bool) -> None:
        self._record(
            "cache",
            counts={"hits" if hit else "misses": 1},
            labels=("hit" if hit else "miss",),
        )

    def record_backend(self, name: str, status: str, seconds: float,
                       error: Optional[str] = None) -> None:
        counts = {
            "queries": 1,
            _OUTCOMES.get(status, "unknown"): 1,
            "seconds": seconds,
        }
        if error is not None:
            counts["last_error"] = error
        self._record(
            "backend", name, counts, (name, status), seconds
        )

    def record_session(self, name: str, **counts: float) -> None:
        """Fold lifecycle counters (``spawns``, ``restarts``, ``resets``,
        ``queries``, ``seconds``, ``checkouts``, ``waits``) for ``name``."""
        self._record("session", name, counts, (name,))

    def record_route(self, feature: str, target: str) -> None:
        self._record(
            "route",
            f"{feature}->{target}",
            labels=(feature, target),
        )

    def record_breaker(self, name: str, event: str) -> None:
        """Count one circuit-breaker event (``open`` / ``close`` /
        ``reopen`` / ``probe`` / ``short_circuit``) for command ``name``."""
        self._record("breaker", f"{name}:{event}")

    def record_disagreement(self, pair: str) -> None:
        """Count one contradiction of member pair ``"<a>|<b>"``."""
        self._record("disagreement", pair, labels=(pair,))

    def record_automata(self, delta: Dict[str, int]) -> None:
        """Fold a compilation-cache counters delta (not mirrored)."""
        self.fold("automata", delta)

    backend_summary = _summary("backend")
    session_summary = _summary("session")
    route_summary = _summary("route")
    breaker_summary = _summary("breaker")
    disagreement_summary = _summary("disagreement")
    cache_summary = _summary("cache")
    automata_summary = _summary("automata")

    backend_tallies = property(
        lambda self: {k: Tally(v) for k, v in self.backend_summary().items()}
    )
    session_tallies = property(
        lambda self: {k: Tally(v) for k, v in self.session_summary().items()}
    )
    route_tallies = property(route_summary)
    breaker_tallies = property(breaker_summary)
    disagreement_tallies = property(disagreement_summary)
    cache_hits = property(lambda self: self.cache_summary()["hits"])
    cache_misses = property(lambda self: self.cache_summary()["misses"])

    # -- Table 8 aggregates --------------------------------------------------

    def total_time(self) -> float:
        return sum(q.seconds for q in self.queries)

    def _subset(self, predicate) -> List[QueryRecord]:
        return [q for q in self.queries if predicate(q)]

    def summary(self) -> dict:
        def agg(records: List[QueryRecord]) -> dict:
            if not records:
                return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0}
            times = [r.seconds for r in records]
            return {
                "count": len(records),
                "min": min(times),
                "max": max(times),
                "mean": sum(times) / len(times),
            }

        return {
            "all": agg(self.queries),
            "with_captures": agg(self._subset(lambda q: q.had_captures)),
            "with_refinement": agg(self._subset(lambda q: q.refinements > 0)),
            "hit_limit": agg(self._subset(lambda q: q.hit_refinement_limit)),
        }

    def refinement_summary(self) -> dict:
        """The §7.4 numbers: how often refinement ran and how hard it was."""
        regex_queries = self._subset(lambda q: q.had_regex)
        capture_queries = self._subset(lambda q: q.had_captures)
        refined = self._subset(lambda q: q.refinements > 0)
        limited = self._subset(lambda q: q.hit_refinement_limit)
        mean_refinements = (
            sum(q.refinements for q in refined) / len(refined)
            if refined
            else 0.0
        )
        return {
            "total_queries": len(self.queries),
            "dropped_records": self.dropped_query_records,
            "regex_queries": len(regex_queries),
            "capture_queries": len(capture_queries),
            "refined_queries": len(refined),
            "limit_queries": len(limited),
            "mean_refinements": mean_refinements,
        }


#: Global default collector (experiments may substitute their own).
GLOBAL_STATS = SolverStats()


@contextmanager
def timed():
    """Context manager yielding a closure that reports elapsed seconds."""
    start = time.perf_counter()
    box = {}

    def elapsed() -> float:
        return box.get("elapsed", time.perf_counter() - start)

    yield elapsed
    box["elapsed"] = time.perf_counter() - start
