"""Conflict-driven search over a query's NNF (the DPLL part of the solver).

:class:`Search` walks the And/Or tree of one query, solves each leaf
with a fresh :class:`~repro.solver.core._Core` and learns nogoods from
refuted partial cores.  :meth:`repro.solver.core.Solver.solve` calls
:meth:`Search.decide`, which walks the tree once per deepening round.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.constraints.formulas import And, BoolLit, Formula, Or
from repro.solver.core import (
    PRODUCTS,
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    _Core,
)
from repro.solver.model import Model

#: A group: the literals (path, literal id) and the ``Or`` nodes (path,
#: node) that one decision brings in reach without a further decision.
_Group = Tuple[
    List[Tuple[Tuple[int, ...], int]], List[Tuple[Tuple[int, ...], Or]]
]

#: The outcome of a subtree that is neither a model nor a conflict.
_UNDECIDED = None


class Search:
    """Conflict-driven depth-first search over one query's NNF.

    Each ``Or`` is a decision, taken leftmost first, so leaves come in
    DNF order and each leaf is solved by a fresh :class:`_Core` exactly
    as an enumerated core was.  A decision adds its option's *group*:
    every literal and ``Or`` reachable from it through ``And`` alone; the
    root's group holds the literals no decision guards.

    Once a leaf has failed in this query, each decision's partial core
    is put to :meth:`_Core.definitive` on a fresh :class:`_Core`, up to
    the deepest stage a failed leaf reached.  A refutation holds for
    every extension, so the subtree is skipped, and its literals become
    a *nogood*.  QuickXplain (Junker, AAAI 2004) over the same check
    minimises it to the decision levels it needs, while the query has
    spent fewer checks minimising than it met conflicts before: a query
    that conflicts often earns minimisation, one that finds a model
    after a few failed leaves pays little for it.  A branch containing
    a stored nogood is skipped too, and the walk backjumps to the
    latest decision whose literals a conflict uses (conflict-directed
    backjumping).  Nogoods are definitive, so they outlive the
    deepening rounds.

    A walk returns a :class:`Model`, a *conflict* (the set of decision
    levels whose literals refute the subtree; level 0 is the root) or
    ``_UNDECIDED``.
    """

    def __init__(self, solver: Solver, nnf: Formula, deadline: float):
        self.solver = solver
        self.deadline = deadline
        self.limit = 0
        #: Literal id → literal; ids are per query.
        self.literals: List[Formula] = []
        self._ids: Dict[Formula, int] = {}
        self._groups: Dict[Tuple[int, ...], Optional[_Group]] = {}
        self.nogoods: List[FrozenSet[int]] = []
        #: Each nogood's literals, in the order that refuted them.
        self.learned: List[Tuple[Formula, ...]] = []
        #: Literal id → indices of the nogoods that contain it.
        self._watch: Dict[int, List[int]] = {}
        #: Decision sequence → the deepest stage its partial core passed.
        self._passed: Dict[Tuple[int, ...], int] = {}
        #: Literal id → the level that put it on the current path.
        self._level: Dict[int, int] = {}
        #: Per level: the literal ids it added to the path.
        self._added: List[List[int]] = []
        #: Per level: the group it entered.
        self._entered: List[_Group] = []
        #: The deepest :meth:`_Core.definitive` stage a failed leaf
        #: reached (0: none yet).  Partial cores are checked up to it: a
        #: query whose first leaf is SAT pays nothing for the checks, and
        #: one whose leaves fall at ingest pays only for ingest.
        self.stage = 0
        self.cores_tried = 0
        #: Why leaves of the current round were UNKNOWN.
        self.reasons: set = set()
        #: Checks spent minimising nogoods.
        self.spent = 0
        self.root = self._expand((), nnf)

    # -- the tree --------------------------------------------------------------

    def _expand(self, path: Tuple[int, ...], node: Formula) -> Optional[_Group]:
        """The group of ``node`` at ``path``; ``None`` if it holds FALSE."""
        literals: list = []
        ors: list = []

        def visit(path: Tuple[int, ...], node: Formula) -> bool:
            if isinstance(node, And):
                return all(
                    visit(path + (index,), operand)
                    for index, operand in enumerate(node.operands)
                )
            if isinstance(node, Or):
                ors.append((path, node))
            elif isinstance(node, BoolLit):
                return node.value
            else:
                ident = self._ids.get(node)
                if ident is None:
                    ident = self._ids[node] = len(self.literals)
                    self.literals.append(node)
                literals.append((path, ident))
            return True

        return (literals, ors) if visit(path, node) else None

    def _option(self, path: Tuple[int, ...], node: Or, index: int):
        key = path + (index,)
        if key not in self._groups:
            self._groups[key] = self._expand(key, node.operands[index])
        return self._groups[key]

    # -- the walk --------------------------------------------------------------

    def decide(self) -> Tuple[str, Optional[Model], Optional[str]]:
        """Run one round per ``round_limits`` entry until one decides;
        (status, model, why UNKNOWN)."""
        reason = None
        for limit in self.solver.round_limits:
            outcome = self.run(limit)
            if isinstance(outcome, Model):
                return SAT, outcome, None
            if outcome is not None:
                return UNSAT, None, None  # the root is refuted
            if "deadline" in self.reasons or time.monotonic() > self.deadline:
                return UNKNOWN, None, "deadline"
            reason = "budget" if "budget" in self.reasons else "incomplete"
        return UNKNOWN, None, reason

    def run(self, limit: int):
        """One deepening round: a model, a conflict or ``_UNDECIDED``."""
        self.limit = limit
        self.reasons = set()
        if self.root is None:
            return frozenset({0})  # FALSE
        conflict = self._enter(self.root, 0)
        try:
            if conflict is not None:
                return conflict
            return self._walk(0, _pending(self.root, 0), ())
        finally:
            self._leave()

    def _walk(self, level: int, pending, decisions: Tuple[int, ...]):
        """Decide ``pending`` below the path's node at ``level``."""
        if time.monotonic() > self.deadline:
            self.reasons.add("deadline")
            return _UNDECIDED
        if not pending:
            return self._leaf()
        if self.stage and self._added[level]:
            conflict = self._check(decisions)
            if conflict is not None:
                return conflict
        (path, node, origin), rest = pending[0], pending[1:]
        child = level + 1
        # Every branch that keeps level ``origin`` must decide this Or.
        blame = {origin}
        undecided = False
        for index in range(len(node.operands)):
            group = self._option(path, node, index)
            if group is None:
                continue  # the option holds FALSE
            conflict = self._enter(group, child)
            try:
                if conflict is None:
                    conflict = self._walk(
                        child,
                        _pending(group, child) + rest,
                        decisions + (index,),
                    )
            finally:
                self._leave()
            if isinstance(conflict, Model):
                return conflict
            if conflict is _UNDECIDED:
                undecided = True
                if "deadline" in self.reasons:
                    return _UNDECIDED
            elif child not in conflict:
                # Refuted without this decision: so is every sibling.
                return _UNDECIDED if undecided else conflict
            else:
                blame |= conflict - {child}
        return _UNDECIDED if undecided else frozenset(blame)

    def _enter(self, group: _Group, level: int) -> Optional[FrozenSet[int]]:
        """Put a group on the path; the conflict of a stored nogood the
        path now contains, if any."""
        added = []
        for occurrence in group[0]:
            ident = occurrence[1]
            if ident not in self._level:
                self._level[ident] = level
                added.append(ident)
        self._entered.append(group)
        self._added.append(added)
        for ident in added:
            for index in self._watch.get(ident, ()):
                conflict = self._levels(self.nogoods[index])
                if conflict is not None:
                    return conflict
        return None

    def _leave(self) -> None:
        for ident in self._added.pop():
            del self._level[ident]
        self._entered.pop()

    def _levels(self, nogood: FrozenSet[int]) -> Optional[FrozenSet[int]]:
        """The levels of ``nogood``'s literals, if all are on the path."""
        level = self._level
        if all(ident in level for ident in nogood):
            return frozenset(level[ident] for ident in nogood)
        return None

    # -- conflicts -------------------------------------------------------------

    def _check(self, decisions) -> Optional[FrozenSet[int]]:
        """Refute the path's partial core up to ``stage``; the conflict,
        or ``None``.  (:meth:`_walk` has just checked the deadline.)"""
        if self._passed.get(decisions, 0) >= self.stage:
            return None
        literals = self._path()
        core = _Core(literals, self.solver)
        if core.definitive(self.stage) is None:
            return self._learn(core.refuted_at, literals)
        self._passed[decisions] = self.stage
        return None

    def _path(self) -> List[Formula]:
        """The path's literals, level by level, each once."""
        return [self.literals[i] for added in self._added for i in added]

    def _learn(self, stage: int, literals: List[Formula]) -> FrozenSet[int]:
        """Store a nogood for the path, whose ``literals`` (in this order)
        ``stage`` refuted; its conflict.  Minimisation keeps the root's
        literals and the fewest decision levels that ``stage`` still
        refutes, preferring early levels, which backjump furthest."""
        if self.spent < len(self.nogoods):

            def path(levels: List[int]) -> List[Formula]:
                return [
                    self.literals[ident]
                    for level in [0, *levels]
                    for ident in self._added[level]
                ]

            def refutes(levels: List[int]) -> bool:
                self.spent += 1
                if time.monotonic() > self.deadline:
                    return False  # keeps the nogood unminimised
                core = _Core(path(levels), self.solver)
                return core.definitive(stage) is None

            least = _quickxplain(list(range(1, len(self._added))), refutes)
            if refutes(least):  # else the check is not monotone here
                literals = path(least)
        return self._store(literals)

    def _store(self, literals: Sequence[Formula]) -> FrozenSet[int]:
        """Store the nogood of ``literals``; its conflict."""
        nogood = frozenset(self._ids[literal] for literal in literals)
        index = len(self.nogoods)
        self.nogoods.append(nogood)
        self.learned.append(tuple(literals))
        for ident in nogood:
            self._watch.setdefault(ident, []).append(index)
        return self._levels(nogood)

    def _leaf(self):
        """Solve the leaf core: a model, a conflict or ``_UNDECIDED``.

        The leaf core is the path's literals in DNF order, so it is
        solved exactly as the enumerated core was; its own definitive
        checks stand in for the partial check."""
        occurrences = sorted(
            occurrence for group in self._entered for occurrence in group[0]
        )
        literals = [self.literals[ident] for _, ident in occurrences]
        self.cores_tried += 1
        core = _Core(literals, self.solver)
        prepared = core.definitive()
        if prepared is None:
            self.stage = max(self.stage, core.refuted_at)
            return self._learn(core.refuted_at, literals)
        status, model, reason = core.solve(
            prepared, self.deadline, self.limit
        )
        if status == SAT:
            return model
        self.stage = PRODUCTS
        if status == UNKNOWN:
            self.reasons.add(reason)
            return _UNDECIDED
        # Refuted by the leaf's own search: the whole leaf is the nogood.
        return self._store(literals)


def _pending(group: _Group, level: int) -> list:
    """A group's ``Or`` nodes as pending decisions made reachable at
    ``level``."""
    return [(path, node, level) for path, node in group[1]]


def _quickxplain(items: list, refutes) -> list:
    """A minimal subset of ``items`` that ``refutes`` (Junker's
    QuickXplain); prefers the subset whose latest item is earliest."""

    def explain(base: list, added: bool, items: list) -> list:
        if added and refutes(base):
            return []
        if len(items) == 1:
            return items
        half = len(items) // 2
        front, back = items[:half], items[half:]
        kept_back = explain(base + front, bool(front), back)
        kept_front = explain(base + kept_back, bool(kept_back), front)
        return kept_front + kept_back

    return explain([], False, items) if items else []
