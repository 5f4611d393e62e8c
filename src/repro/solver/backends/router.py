"""Feature-based query routing: send each formula to the backend that
is actually good at it.

The paper's Table 5 observation — most regexes are classical, but the
hard minority (captures, backreferences, lookaheads) is what breaks
classical solvers — becomes a dispatch policy here.  Instead of one
backend for a whole run, ``route:`` inspects every query's formula
features and picks per query (cf. the configurable sensitivity knobs of
JSAI: the routing policy is a first-class, benchmarkable trade-off):

================  ========================================================
``captures``      a regex with capture groups or backreferences — only
                  the native solver models those; external solvers would
                  degrade to UNKNOWN after paying rendering costs
``classical``     every regex atom is in the classical SMT-LIB fragment —
                  the incremental ``session:`` backend decides these
                  without a per-query subprocess spawn
``mixed``         anything else (lookaheads, anchors, word boundaries) —
                  raced by a portfolio, since neither side dominates
``unroutable``    a formula the classifier cannot walk — defensively
                  handed to native, which accepts every formula
================  ========================================================

When the session's solver binary is not installed, classical queries
fall back to native instead (recorded as ``classical->native``), so a
``route:`` spec works — fully, not degraded to UNKNOWN — on machines
with no SMT solver at all.

The CEGAR loop's *refined* queries (Algorithm 1, iterations > 0) take a
second, more aggressive route (:meth:`RouterBackend.route_refined`):
refinements are classical material, and capture groups print
transparently, so a refined query whose only non-classical feature is
capture groups migrates *mid-loop* to the incremental session — with a
native fallback when the session answers UNKNOWN, so re-routing can
never make a refinement run less complete.  Refined decisions are
tallied under ``refined-<feature>-><target>``.

Per-route decision counts land in
:class:`~repro.solver.stats.SolverStats.route_tallies`; each target
also keeps its ordinary per-backend tally under its own name, so the
backend table shows the traffic split the router produced.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Set, Type

from repro import obs
from repro.regex import ast as regex_ast
from repro.constraints.formulas import (
    And,
    BoolLit,
    Eq,
    Formula,
    Implies,
    InRe,
    Not,
    Or,
)
from repro.solver.core import SolverResult, UNKNOWN
from repro.solver.stats import SolverStats

from repro.solver.backends.base import SolverBackend

#: Regex constructs the classical SMT-LIB fragment can express (capture
#: groups print transparently, but their *meaning* — capture extraction,
#: backreference consistency — only the native solver models, so
#: ``Group`` routes to native rather than riding along classically).
_CLASSICAL_NODES = (
    regex_ast.Empty,
    regex_ast.CharMatch,
    regex_ast.Concat,
    regex_ast.Alternation,
    regex_ast.Quantifier,
    regex_ast.NonCapGroup,
)

CAPTURES = "captures"
CLASSICAL = "classical"
MIXED = "mixed"
UNROUTABLE = "unroutable"
#: Sub-feature of CAPTURES tracked for the refined route: a capture
#: *group* prints transparently in classical SMT-LIB (its meaning lives
#: in separate word equations), but a *backreference* has no classical
#: form at all — only the mid-loop re-route cares about the difference.
BACKREFS = "backrefs"


def classify_formula(formula: Formula) -> str:
    """The routing feature class of ``formula`` (see module docstring)."""
    return _classify(formula)[0]


def _classify(formula: Formula):
    """``(feature_class, raw_feature_set)`` of one formula."""
    features: Set[str] = set()
    try:
        _walk_formula(formula, features)
    except TypeError:
        return UNROUTABLE, features
    if CAPTURES in features:
        return CAPTURES, features
    if MIXED in features:
        return MIXED, features
    return CLASSICAL, features


def _walk_formula(formula: Formula, features: Set[str]) -> None:
    if isinstance(formula, (BoolLit, Eq)):
        return
    if isinstance(formula, Not):
        _walk_formula(formula.operand, features)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            _walk_formula(op, features)
    elif isinstance(formula, Implies):
        _walk_formula(formula.antecedent, features)
        _walk_formula(formula.consequent, features)
    elif isinstance(formula, InRe):
        _walk_regex(formula.regex, features)
    else:
        raise TypeError(f"cannot classify {formula!r}")


def _walk_regex(node: regex_ast.Node, features: Set[str]) -> None:
    if isinstance(node, (regex_ast.Group, regex_ast.Backreference)):
        features.add(CAPTURES)
        if isinstance(node, regex_ast.Backreference):
            features.add(BACKREFS)
        child = getattr(node, "child", None)
        if child is not None:
            _walk_regex(child, features)
    elif isinstance(node, _CLASSICAL_NODES):
        for attr in ("child",):
            child = getattr(node, attr, None)
            if child is not None:
                _walk_regex(child, features)
        for attr in ("parts", "options"):
            children = getattr(node, attr, None)
            if children is not None:
                for child in children:
                    _walk_regex(child, features)
    elif isinstance(
        node,
        (
            regex_ast.Lookahead,
            regex_ast.Anchor,
            regex_ast.WordBoundary,
        ),
    ):
        features.add(MIXED)
        child = getattr(node, "child", None)
        if child is not None:
            _walk_regex(child, features)
    else:
        raise TypeError(f"cannot classify regex node {node!r}")


class RouterBackend(SolverBackend):
    """``route:<command>`` — per-query feature dispatch over three targets.

    ``native``, ``session``, and ``portfolio`` are ordinary backends
    (the registry builds the defaults; tests inject stubs).  The
    portfolio must own its *own* member instances rather than sharing
    ``native``/``session``: abandoned portfolio stragglers may still be
    running when the router dispatches the next query directly, and
    member backends are not re-entrant.
    """

    def __init__(
        self,
        native,
        session,
        portfolio,
        *,
        stats: Optional[SolverStats] = None,
    ):
        super().__init__(stats)
        self.native = native
        self.session = session
        self.portfolio = portfolio
        self.name = f"route:{getattr(session, 'command', '?')}"

    def bind_stats(self, stats: SolverStats) -> None:
        super().bind_stats(stats)
        for target in (self.native, self.session, self.portfolio):
            binder = getattr(target, "bind_stats", None)
            if callable(binder):
                binder(stats)

    def route(self, formula: Formula):
        """Pick ``(feature, target_name, backend)`` for one formula."""
        feature = classify_formula(formula)
        if feature == CLASSICAL:
            return self._classical_target(feature)
        if feature == MIXED:
            return feature, "portfolio", self.portfolio
        # captures and unroutable formulas both belong to native.
        return feature, "native", self.native

    def route_refined(self, formula: Formula):
        """Pick ``(feature, target_name, backend)`` for a *refined* query.

        Algorithm 1's refinements are classical material — word pins and
        capture equalities over string constants — so after the first
        refinement the stream deserves the session even when the initial
        query routed native.  Concretely: a CAPTURES formula whose only
        non-classical feature is capture *groups* prints transparently
        (``dfa_for`` erases the same groups natively, and separate word
        equations carry their meaning), so the refined query migrates to
        the incremental session; backreferences and lookaheads still
        have no classical rendering and keep their initial route.
        """
        feature, features = _classify(formula)
        if feature == UNROUTABLE:
            return feature, "native", self.native
        if BACKREFS in features or (
            CAPTURES in features and MIXED in features
        ):
            # Unprintable no matter what rides along (a backreference,
            # or captures mixed with lookaheads): the initial route —
            # native, by the captures-beat-mixed precedence — stays.
            return feature, "native", self.native
        if MIXED in features:
            return feature, "portfolio", self.portfolio
        # Classical, or captures-only (printable): the session decides
        # the refined stream without a per-query subprocess spawn.
        return self._classical_target(feature)

    def _classical_target(self, feature: str):
        """``(feature, target_name, backend)`` for classical material:
        the session, unless it cannot answer right now."""
        if getattr(self.session, "circuit_open", False):
            # The command's circuit breaker is open: its binary has
            # been failing repeatedly, so classical queries divert to
            # native for the cool-down window (the breaker's own
            # half-open probe re-admits the session).
            return feature, "native-breaker", self.native
        if getattr(self.session, "available", True):
            return feature, "session", self.session
        # No solver binary: classical queries still deserve a
        # definitive answer, which only native can give here.
        return feature, "native", self.native

    def solve(self, formula: Formula) -> SolverResult:
        return self._dispatch(formula, refined=False)

    def solve_refined(self, formula: Formula) -> SolverResult:
        """Mid-loop re-routing of the CEGAR-refined query stream.

        Routes via :meth:`route_refined`; when the session answers
        UNKNOWN (hard query, degraded binary), the router falls back to
        native instead of returning UNKNOWN — an UNKNOWN mid-loop would
        abort the whole refinement run, which is strictly worse than
        paying one native solve.  The fallback is tallied as
        ``refined-<feature>->native-fallback``.
        """
        return self._dispatch(formula, refined=True)

    def _dispatch(self, formula: Formula, refined: bool) -> SolverResult:
        started = perf_counter()
        if refined:
            feature, target_name, target = self.route_refined(formula)
            route_label = f"refined-{feature}"
        else:
            feature, target_name, target = self.route(formula)
            route_label = feature
        if self.stats is not None:
            self.stats.record_route(route_label, target_name)
        if obs.enabled():
            # The enclosing CEGAR-iteration span (if any) carries the
            # decision; the event additionally marks it on the timeline.
            obs.annotate(route=route_label, target=target_name)
            obs.event(
                "route:decision", route=route_label, target=target_name
            )
        try:
            result = target.solve(formula)
            if (
                refined
                and result.status == UNKNOWN
                and target is self.session
            ):
                if self.stats is not None:
                    self.stats.record_route(route_label, "native-fallback")
                obs.event(
                    "route:fallback", route=route_label, target="native"
                )
                result = self.native.solve(formula)
            elif (
                not refined
                and result.status == UNKNOWN
                and target is self.session
                and str(getattr(target, "last_error", "")).startswith(
                    "circuit open"
                )
            ):
                # The breaker slammed shut between route() and solve()
                # (or a concurrent query lost the half-open probe
                # race): a classical query still deserves a definitive
                # answer, so it pays one native solve instead of
                # surfacing the short-circuit UNKNOWN.
                if self.stats is not None:
                    self.stats.record_route(route_label, "native-breaker")
                obs.event(
                    "route:fallback",
                    route=route_label,
                    target="native-breaker",
                )
                result = self.native.solve(formula)
        except Exception:
            self._tally("error", perf_counter() - started)
            raise
        self._tally(result.status, perf_counter() - started)
        return result

    def close(self) -> None:
        """Release target resources (session processes, portfolio pools)."""
        for target in (self.native, self.session, self.portfolio):
            closer = getattr(target, "close", None)
            if callable(closer):
                closer()
