"""The built-in bounded string solver as a backend."""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.constraints.formulas import Formula
from repro.solver.core import Solver, SolverResult
from repro.solver.stats import SolverStats

from repro.solver.backends.base import BackendError, SolverBackend

#: Options accepted for the underlying solver.  All but
#: ``round_limits`` (a sequence — only expressible structurally, e.g.
#: through ``default_solver_factory``) can also appear in a spec query
#: string like ``native?timeout=2``.
_SOLVER_OPTIONS = {
    "timeout",
    "round_limits",
    "combo_budget",
    "max_word_length",
    "split_cap",
    "lazy_union_min_options",
}


class NativeBackend(SolverBackend):
    """Wraps :class:`repro.solver.core.Solver` behind the backend API.

    The wrapped solver keeps ``stats=None`` on purpose: per-query
    :class:`~repro.solver.stats.QueryRecord` accounting stays with the
    CEGAR loop (which records one aggregate per refinement run), while
    this wrapper records the per-backend tallies.
    """

    name = "native"

    def __init__(self, stats: Optional[SolverStats] = None, **options):
        super().__init__(stats)
        unknown = set(options) - _SOLVER_OPTIONS
        if unknown:
            raise BackendError(
                f"native backend does not accept option(s) "
                f"{sorted(unknown)}; choose from {sorted(_SOLVER_OPTIONS)}"
            )
        self._solver = Solver(**options)

    @property
    def timeout(self) -> float:
        return self._solver.timeout

    @property
    def solver(self) -> Solver:
        """The underlying native solver (for tests and introspection)."""
        return self._solver

    def solve(self, formula: Formula) -> SolverResult:
        started = perf_counter()
        result = self._solver.solve(formula)
        self._tally(result.status, perf_counter() - started)
        return result
