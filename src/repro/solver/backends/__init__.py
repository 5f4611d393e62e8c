"""Pluggable solver backends.

The paper dispatches its capturing-language constraints to Z3 over the
SMT-LIB string theory; this reproduction ships its own bounded native
solver.  This package makes the choice a first-class, *pluggable* API:

- :class:`SolverBackend` — the protocol every backend satisfies
  (``name``, ``solve(formula) -> SolverResult``, per-backend tallies);
- :func:`make_backend` — resolve a string *spec* into a backend:

  ========================   ==============================================
  ``native``                 the built-in bounded solver
  ``native?timeout=2``       same, with options
  ``smtlib:z3``              external SMT-LIB solver subprocess (z3/cvc5);
                             degrades to UNKNOWN when no binary exists
  ``session:z3``             live incremental solver processes leased from
                             the process-wide :class:`SessionPool` (push/pop
                             per query; spawns amortize across jobs);
                             ``?pooled=0`` for a private process
  ``portfolio:native+smtlib``  race members, first definitive answer wins
  ``portfolio:auto``         native + a session per installed binary
  ``route:z3``               per-query feature routing (captures→native,
                             classical→session, mixed→portfolio)
  ``cached:<inner>``         memoize definitive answers of any inner spec
                             (persistently, with a ``query_cache`` dir)
  ========================   ==============================================

- :func:`register_backend` — add new schemes at runtime.

``smtlib:`` and ``session:`` are one external-solver backend
(:mod:`repro.solver.backends.smtlib`): one base class holds the command,
the availability probe, the per-solver flag table and the verdict tail
(UNSAT trusted, SAT models re-validated natively), and the one-shot and
incremental-session transports differ only in how a query reaches the
process.  The pooled form leases sessions from :class:`SessionPool`
behind a per-command circuit breaker.  Every option-taking scheme reads
its ``?key=value`` options through one parser in the registry.

Soundness across backends follows the layering argument of Algorithm 1:
any backend may answer UNKNOWN, but SAT must come with a model that
validates and UNSAT must be definitive, so definitive answers from *any*
registered backend are interchangeable.
"""

from repro.solver.backends.base import (
    BackendDisagreement,
    BackendError,
    SolverBackend,
)
from repro.solver.backends.cached import (
    CachedBackend,
    QueryCache,
    QueryDiskStore,
)
from repro.solver.backends.native import NativeBackend
from repro.solver.backends.pool import (
    SessionPool,
    get_session_pool,
    reset_session_pool,
)
from repro.solver.backends.portfolio import PortfolioBackend
from repro.solver.backends.registry import (
    detect_solver_binaries,
    make_backend,
    register_backend,
    registered_backends,
)
from repro.solver.backends.router import RouterBackend, classify_formula
from repro.solver.backends.smtlib import (
    PooledSessionBackend,
    SessionBackend,
    SmtLibBackend,
)

__all__ = [
    "BackendDisagreement",
    "BackendError",
    "CachedBackend",
    "NativeBackend",
    "PooledSessionBackend",
    "PortfolioBackend",
    "QueryCache",
    "QueryDiskStore",
    "RouterBackend",
    "SessionBackend",
    "SessionPool",
    "SmtLibBackend",
    "SolverBackend",
    "classify_formula",
    "detect_solver_binaries",
    "get_session_pool",
    "make_backend",
    "register_backend",
    "registered_backends",
]
