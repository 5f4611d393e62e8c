"""The backend spec registry: strings in, backends out.

Spec grammar (one line, no spaces)::

    spec     ::= scheme [":" argument] ["?" key "=" value ("&" ...)*]
    scheme   ::= "native" | "smtlib" | "session" | "portfolio"
               | "route" | "cached" | <registered>

Examples::

    native                         the built-in bounded solver
    native?timeout=2               with a per-query wall budget
    smtlib:z3                      z3 subprocess over SMT-LIB (default cmd)
    smtlib:cvc5?timeout=10         cvc5, 10s budget
    session:z3                     live incremental z3 sessions, leased
                                   from the process-wide SessionPool
    session:z3?reset_every=128     with a (reset) cadence
    session:z3?pooled=0            a private (unpooled) session process
    portfolio:native+smtlib:z3     race members; '+' separates them
    portfolio:auto                 native + a session per installed binary
    route:z3                       per-query feature routing (see router.py)
    cached:native                  memoize definitive answers
    cached:portfolio:native+smtlib nesting composes left-to-right

``make_backend`` also accepts an existing backend object (returned
unchanged) and ``None`` (the native default), so every consumer can
take "a spec" without caring which form it got.  The ``query_cache``
keyword is a directory path threaded down to every ``cached:`` level of
a composite spec: its :class:`~repro.solver.backends.cached.QueryCache`
then persists definitive answers on disk across invocations;
``query_cache_max`` caps that store with age-based GC.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.solver.stats import SolverStats

from repro.solver.backends.base import BackendError
from repro.solver.backends.cached import CachedBackend, QueryCache
from repro.solver.backends.native import NativeBackend
from repro.solver.backends.portfolio import PortfolioBackend
from repro.solver.backends.router import RouterBackend
from repro.solver.backends.smtlib import (
    PooledSessionBackend,
    SessionBackend,
    SmtLibBackend,
    probe_solver_command,
)

#: A scheme factory: (rest-of-spec, default timeout, stats sink,
#: query-cache dir) → backend.
BackendFactory = Callable[..., object]

_REGISTRY: Dict[str, BackendFactory] = {}

_SCHEME_RE = re.compile(r"^([A-Za-z0-9_-]+)(.*)$", re.S)


def register_backend(scheme: str, factory: BackendFactory) -> None:
    """Register a new spec scheme.

    ``factory(rest, timeout=..., stats=..., query_cache=...)`` receives
    everything after the scheme name (starting with ``:`` or ``?`` when
    present) and must return an object with
    ``solve(formula) -> SolverResult``.
    """
    _REGISTRY[scheme] = factory


def registered_backends() -> List[str]:
    return sorted(_REGISTRY)


def make_backend(
    spec: Optional[object] = None,
    *,
    timeout: Optional[float] = None,
    stats: Optional[SolverStats] = None,
    query_cache: Optional[str] = None,
    query_cache_max: Optional[int] = None,
    on_disagreement: Optional[str] = None,
    disagreement_sink=None,
):
    """Resolve ``spec`` into a solver backend.

    ``timeout`` is a *default* per-query budget, threaded down into
    every constructed backend that does not set its own ``?timeout=``
    option.  ``stats`` is the per-backend tally sink, shared by every
    backend in a composite spec.  ``query_cache`` is the directory of
    the persistent query store, picked up by every ``cached:`` level of
    the spec (and ignored by specs without one); ``query_cache_max``
    caps that store's entry count with age-based GC.  ``on_disagreement``
    (``"raise"``/``"collect"``) and ``disagreement_sink`` are threaded
    to every ``portfolio`` level of the spec the same way — there is no
    spec syntax for portfolio-level options (a trailing ``?...`` binds
    to the last member), so collect mode is keyword-only.
    """
    if spec is None or spec == "":
        spec = "native"
    if not isinstance(spec, str):
        if not hasattr(spec, "solve"):
            raise BackendError(
                f"not a backend spec or solver object: {spec!r}"
            )
        # A prebuilt backend still gets the caller's tally sink (bind
        # never overwrites one that was set explicitly at construction).
        if stats is not None:
            binder = getattr(spec, "bind_stats", None)
            if callable(binder):
                binder(stats)
        return spec
    match = _SCHEME_RE.match(spec.strip())
    if not match:
        raise BackendError(f"malformed backend spec {spec!r}")
    scheme, rest = match.group(1), match.group(2)
    factory = _REGISTRY.get(scheme)
    if factory is None:
        raise BackendError(
            f"unknown solver backend {scheme!r}; registered schemes: "
            + ", ".join(registered_backends())
        )
    # Optional extras are offered only to factories whose signatures
    # accept them: factories registered against older, narrower
    # contracts (``factory(rest, timeout=..., stats=...)``) keep
    # working and simply are not offered what they cannot consume.
    extras = {
        "query_cache": query_cache,
        "query_cache_max": query_cache_max,
        "on_disagreement": on_disagreement,
        "disagreement_sink": disagreement_sink,
    }
    kwargs = {
        key: value
        for key, value in extras.items()
        if value is not None and _accepts_keyword(factory, key)
    }
    return factory(rest, timeout=timeout, stats=stats, **kwargs)


def _accepts_keyword(factory: BackendFactory, keyword: str) -> bool:
    import inspect

    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins/C callables: assume legacy
        return False
    return keyword in parameters or any(
        p.kind == p.VAR_KEYWORD for p in parameters.values()
    )


# -- spec-string helpers ------------------------------------------------------


def parse_spec_options(
    scheme: str,
    rest: str,
    allowed: Optional[Collection[str]],
    *,
    timeout: Optional[float] = None,
    default_argument: Optional[str] = None,
) -> Tuple[str, Dict[str, object]]:
    """The one option prologue of every option-taking scheme.

    Splits ``":argument?k=v&..."`` into ``(argument, options)``.  With
    ``default_argument=None`` the scheme takes no argument; otherwise an
    empty one becomes ``default_argument``.  Options outside ``allowed``
    are rejected (``None`` leaves that to the backend's constructor).
    Every spec-expressible option is a finite, non-negative number, so
    a ``?timeout=abc`` or ``?timeout=nan`` typo fails here at
    spec-resolution time instead of deep inside a solve call.  The
    default ``timeout`` fills in when the spec sets none.
    """
    if rest.startswith(":"):
        rest = rest[1:]
    argument, _, query = rest.partition("?")
    if default_argument is None and argument:
        raise BackendError(
            f"{scheme} backend takes no argument (got {argument!r})"
        )
    options: Dict[str, object] = {}
    for item in query.split("&") if query else ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise BackendError(
                f"malformed backend option {item!r} (expected key=value)"
            )
        options[key] = _coerce(value)
    unknown = set() if allowed is None else set(options) - set(allowed)
    if unknown:
        raise BackendError(
            f"{scheme} backend does not accept option(s) {sorted(unknown)}"
        )
    for key, value in options.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0 <= value < math.inf  # also rejects nan
        ):
            raise BackendError(
                f"{scheme} option {key!r} expects a number >= 0, "
                f"got {value!r}"
            )
    if timeout is not None:
        options.setdefault("timeout", timeout)
    return argument or default_argument or "", options


def _coerce(value: str) -> object:
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


# -- built-in schemes ---------------------------------------------------------


def _native_factory(rest, *, timeout=None, stats=None, query_cache=None):
    _, options = parse_spec_options("native", rest, None, timeout=timeout)
    return NativeBackend(stats=stats, **options)


def _smtlib_factory(rest, *, timeout=None, stats=None, query_cache=None):
    command, options = parse_spec_options(
        "smtlib", rest, {"timeout"}, timeout=timeout, default_argument="z3"
    )
    return SmtLibBackend(command, stats=stats, **options)


def _session_factory(rest, *, timeout=None, stats=None, query_cache=None):
    command, options = parse_spec_options(
        "session",
        rest,
        {"timeout", "reset_every", "pooled"},
        timeout=timeout,
        default_argument="z3",
    )
    # Pooled by default: sessions are leased from the process-wide
    # SessionPool, so spawns amortize across jobs and backend
    # instances.  ``?pooled=0`` restores a private per-backend process
    # (benchmarks use it as the spawn-per-job baseline).
    if options.pop("pooled", 1):
        return PooledSessionBackend(command, stats=stats, **options)
    return SessionBackend(command, stats=stats, **options)


def detect_solver_binaries() -> List[str]:
    """The known SMT string-solver binaries resolvable on PATH."""
    return [
        name
        for name in ("z3", "cvc5", "cvc4")
        if probe_solver_command(name) is None
    ]


def _portfolio_factory(
    rest, *, timeout=None, stats=None, query_cache=None,
    query_cache_max=None, on_disagreement=None, disagreement_sink=None,
):
    # Members are full specs (each may carry its own ``?options``), so
    # the body is split on '+' only; there are no portfolio-level query
    # options — the shared default ``timeout`` flows into every member.
    body = rest[1:] if rest.startswith(":") else rest
    if body == "auto":
        # Auto-detect installed solver binaries; each one races the
        # native solver through an incremental session (the fast path).
        member_specs = ["native"] + [
            f"session:{binary}" for binary in detect_solver_binaries()
        ]
        if len(member_specs) == 1:
            warnings.warn(
                "portfolio:auto found no SMT solver binary on PATH "
                "(looked for z3, cvc5, cvc4); degrading to native alone",
                stacklevel=2,
            )
            return make_backend(
                "native", timeout=timeout, stats=stats
            )
    else:
        member_specs = [m for m in body.split("+") if m]
    if not member_specs:
        raise BackendError(
            "portfolio needs members, e.g. portfolio:native+smtlib"
        )
    members = [
        make_backend(
            member,
            timeout=timeout,
            stats=stats,
            query_cache=query_cache,
            query_cache_max=query_cache_max,
            on_disagreement=on_disagreement,
            disagreement_sink=disagreement_sink,
        )
        for member in member_specs
    ]
    return PortfolioBackend(
        members,
        stats=stats,
        on_disagreement=on_disagreement or "raise",
        disagreement_sink=disagreement_sink,
    )


def _route_factory(
    rest, *, timeout=None, stats=None, query_cache=None,
    on_disagreement=None, disagreement_sink=None,
):
    command, options = parse_spec_options(
        "route",
        rest,
        {"timeout", "reset_every"},
        timeout=timeout,
        default_argument="z3",
    )
    session_options = dict(options)
    native_timeout = options.get("timeout")
    native_options = (
        {} if native_timeout is None else {"timeout": native_timeout}
    )

    def native():
        return NativeBackend(stats=stats, **native_options)

    def session():
        # Pooled: the router's session target and the portfolio's
        # session member lease from the same process-wide pool, so a
        # routed batch holds a handful of live processes total.
        return PooledSessionBackend(command, stats=stats, **session_options)

    # The portfolio gets its own member instances: its abandoned
    # stragglers may still run when the router dispatches the next
    # query straight to `native`/`session`, which are not re-entrant.
    return RouterBackend(
        native(),
        session(),
        PortfolioBackend(
            [native(), session()],
            stats=stats,
            on_disagreement=on_disagreement or "raise",
            disagreement_sink=disagreement_sink,
        ),
        stats=stats,
    )


def _cached_factory(
    rest, *, timeout=None, stats=None, query_cache=None,
    query_cache_max=None, on_disagreement=None, disagreement_sink=None,
):
    if not rest.startswith(":") or len(rest) == 1:
        raise BackendError(
            "cached needs an inner backend, e.g. cached:native"
        )
    inner = make_backend(
        rest[1:],
        timeout=timeout,
        stats=stats,
        query_cache=query_cache,
        query_cache_max=query_cache_max,
        on_disagreement=on_disagreement,
        disagreement_sink=disagreement_sink,
    )
    return CachedBackend(
        inner,
        cache=QueryCache(
            store_path=query_cache, store_max_entries=query_cache_max
        )
        if query_cache
        else None,
        tally_stats=stats,
        stats=stats,
    )


register_backend("native", _native_factory)
register_backend("smtlib", _smtlib_factory)
register_backend("session", _session_factory)
register_backend("portfolio", _portfolio_factory)
register_backend("route", _route_factory)
register_backend("cached", _cached_factory)
