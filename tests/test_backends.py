"""Tests for the pluggable solver-backend API (registry + portfolio).

Covers the spec registry (`make_backend`), the native wrapper, the
cached decorator, per-backend tallies, and — most importantly — the
portfolio backend's soundness invariants: UNKNOWN from one member never
masks a definitive answer from another, and disagreeing definitive
answers raise loudly instead of silently picking a winner.
"""

import time

import pytest

from repro.automata.build import erase_captures
from repro.constraints import InRe, Not, StrVar, conj
from repro.regex import parse_regex
from repro.solver import SAT, Model, SolverResult, SolverStats, UNKNOWN, UNSAT
from repro.solver.backends import (
    BackendDisagreement,
    BackendError,
    CachedBackend,
    NativeBackend,
    PortfolioBackend,
    SmtLibBackend,
    make_backend,
    register_backend,
    registered_backends,
)


def membership(pattern: str, var_name: str = "x"):
    node = erase_captures(parse_regex(pattern, "").body)
    return InRe(StrVar(var_name), node)


X = StrVar("x")


class _Stub:
    """Scriptable backend: fixed status after an optional delay."""

    def __init__(self, status, delay=0.0, name="stub", model=None):
        self.status = status
        self.delay = delay
        self.name = name
        self.model = model
        self.calls = 0

    def solve(self, formula):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return SolverResult(self.status, self.model)


class _Boom:
    name = "boom"

    def solve(self, formula):
        raise RuntimeError("member crashed")


class TestRegistry:
    def test_resolves_all_required_spec_forms(self):
        assert make_backend("native").name == "native"
        assert make_backend("smtlib:z3").name == "smtlib:z3"
        assert (
            make_backend("portfolio:native+smtlib").name
            == "portfolio:native+smtlib:z3"
        )
        assert make_backend("cached:native").name == "cached:native"

    def test_none_and_empty_mean_native(self):
        assert make_backend(None).name == "native"
        assert make_backend("").name == "native"

    def test_existing_backend_object_passes_through(self):
        backend = NativeBackend()
        assert make_backend(backend) is backend

    def test_prebuilt_backend_object_still_gets_the_stats_sink(self):
        stats = SolverStats()
        backend = make_backend(NativeBackend(), stats=stats)
        backend.solve(membership("a"))
        assert stats.backend_tallies["native"].queries == 1

    def test_options_and_default_timeout(self):
        assert make_backend("native?timeout=2").timeout == 2
        assert make_backend("native", timeout=7.5).timeout == 7.5
        # An explicit spec option beats the threaded default.
        assert make_backend("native?timeout=2", timeout=9.0).timeout == 2

    def test_unknown_scheme_and_bad_options_raise(self):
        with pytest.raises(BackendError, match="unknown solver backend"):
            make_backend("bogus")
        with pytest.raises(BackendError, match="option"):
            make_backend("native?frobnicate=1")
        with pytest.raises(BackendError, match="key=value"):
            make_backend("native?timeout")

    def test_non_numeric_option_values_fail_at_spec_time(self):
        with pytest.raises(BackendError, match="expects a number"):
            make_backend("native?timeout=abc")
        with pytest.raises(BackendError, match="expects a number"):
            make_backend("smtlib:z3?timeout=true")
        with pytest.raises(BackendError, match="inner backend"):
            make_backend("cached:")
        with pytest.raises(BackendError, match="members"):
            make_backend("portfolio:")
        with pytest.raises(BackendError):
            make_backend(object())

    def test_non_finite_and_negative_option_values_fail_at_spec_time(
        self, capsys
    ):
        for spec in (
            "smtlib:z3?timeout=nan",
            "smtlib:z3?timeout=inf",
            "session:z3?timeout=-1",
            "session:z3?pooled=0&reset_every=-inf",
            "route:z3?timeout=nan",
            "native?timeout=inf",
        ):
            with pytest.raises(BackendError, match="expects a number"):
                make_backend(spec)
        from repro.__main__ import main

        assert main(
            ["solve", "(a+)b", "--backend", "smtlib:z3?timeout=nan"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_nested_specs_compose(self):
        backend = make_backend("cached:portfolio:native+smtlib:cvc5")
        assert backend.name == "cached:portfolio:native+smtlib:cvc5"
        member_timeouts = [
            m.timeout
            for m in make_backend(
                "portfolio:native?timeout=1+smtlib:z3?timeout=3"
            ).members
        ]
        assert member_timeouts == [1, 3]

    def test_legacy_factory_signature_still_resolves(self):
        # Factories registered against the pre-query-cache contract
        # (no query_cache kwarg) must keep working for ordinary calls.
        marker = NativeBackend()

        def legacy(rest, *, timeout=None, stats=None):
            return marker

        register_backend("legacy-scheme", legacy)
        try:
            assert make_backend("legacy-scheme") is marker
            # Even with a query-cache dir in play: the legacy factory
            # is simply not offered the kwarg, never crashed by it.
            assert (
                make_backend("legacy-scheme", query_cache="/tmp/qc")
                is marker
            )
        finally:
            from repro.solver.backends import registry

            registry._REGISTRY.pop("legacy-scheme")

    def test_register_backend_extends_the_grammar(self):
        marker = NativeBackend()
        register_backend("always-native", lambda rest, **kw: marker)
        try:
            assert "always-native" in registered_backends()
            assert make_backend("always-native") is marker
        finally:
            # keep the registry clean for other tests
            from repro.solver.backends import registry

            registry._REGISTRY.pop("always-native")


class TestNativeBackend:
    def test_same_verdicts_as_raw_solver(self):
        sat_formula = membership("a+b")
        unsat_formula = conj(
            [membership("a+"), Not(membership("a+"))]
        )
        backend = make_backend("native")
        assert backend.solve(sat_formula).status == SAT
        assert backend.solve(sat_formula).model is not None
        assert backend.solve(unsat_formula).status == UNSAT

    def test_tallies_record_outcome_and_latency(self):
        stats = SolverStats()
        backend = make_backend("native", stats=stats)
        backend.solve(membership("ab?c"))
        backend.solve(conj([membership("ab"), Not(membership("ab"))]))
        tally = stats.backend_tallies["native"]
        assert tally.queries == 2
        assert tally.sat == 1 and tally.unsat == 1
        assert tally.definitive_rate == 1.0
        assert tally.seconds > 0

    def test_backend_tallies_are_thread_safe(self):
        import threading

        stats = SolverStats()
        crashes = []

        def hammer(name):
            try:
                for _ in range(500):
                    stats.record_backend(name, "sat", 0.0)
                    stats.backend_summary()
            except Exception as exc:  # pragma: no cover - failure path
                crashes.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"b{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not crashes
        assert all(
            t.queries == 500 for t in stats.backend_tallies.values()
        )

    def test_bind_stats_attaches_once(self):
        backend = make_backend("native")
        first, second = SolverStats(), SolverStats()
        backend.bind_stats(first)
        backend.bind_stats(second)  # must not overwrite
        backend.solve(membership("a"))
        assert first.backend_tallies["native"].queries == 1
        assert not second.backend_tallies


class TestCachedBackend:
    def test_decorates_any_inner_backend(self):
        inner = _Stub(SAT, name="inner", model=Model({X: "a"}))
        backend = CachedBackend(inner)
        formula = membership("a+")
        r1 = backend.solve(formula)
        r2 = backend.solve(formula)
        assert r1.status == r2.status == SAT
        assert inner.calls == 1  # second answer came from the cache
        assert backend.name == "cached:inner"

    def test_unknown_is_never_cached(self):
        inner = _Stub(UNKNOWN, name="inner")
        backend = CachedBackend(inner)
        formula = membership("a+")
        backend.solve(formula)
        backend.solve(formula)
        assert inner.calls == 2

    def test_tallies_under_cached_name(self):
        stats = SolverStats()
        backend = make_backend("cached:native", stats=stats)
        formula = membership("xy*z")
        backend.solve(formula)
        backend.solve(formula)
        assert stats.backend_tallies["cached:native"].queries == 2
        assert stats.backend_tallies["native"].queries == 1  # one real solve

    def test_registry_built_cache_reports_hit_miss_events(self):
        stats = SolverStats()
        backend = make_backend("cached:native", stats=stats)
        formula = membership("ab+")
        backend.solve(formula)
        backend.solve(formula)
        summary = stats.cache_summary()
        assert summary == {
            "hits": 1, "misses": 1, "lookups": 2, "hit_rate": 0.5,
        }

    def test_cegar_with_cached_backend_spec_sees_cache_events(self):
        from repro.model.cegar import CegarSolver

        stats = SolverStats()
        cegar = CegarSolver(backend="cached:native", stats=stats)
        formula = membership("a+b")
        cegar.solve(formula)
        cegar.solve(formula)
        assert stats.cache_summary()["hits"] >= 1

    def test_engine_does_not_double_count_cache_events(self):
        from repro.dse.engine import DseEngine, EngineConfig

        program = (
            'var s = symbol("s", "");\n'
            'if (/^a+$/.test(s)) { 1; } else { 2; }\n'
            'if (/^a+$/.test(s)) { 3; } else { 4; }\n'
        )
        result = DseEngine(
            program,
            EngineConfig(max_tests=6, time_budget=5.0),
            backend="cached:native",
        ).run()
        summary = result.stats.cache_summary()
        backend_queries = result.stats.backend_tallies[
            "cached:native"
        ].queries
        assert summary["lookups"] == backend_queries


class TestPortfolioInvariants:
    def test_unknown_never_masks_definitive_sat(self):
        backend = PortfolioBackend(
            [_Stub(UNKNOWN, name="u"), _Stub(SAT, delay=0.05, name="s",
                                             model=Model({X: "ab"}))]
        )
        result = backend.solve(membership("a+b"))
        assert result.status == SAT

    def test_unknown_never_masks_definitive_unsat(self):
        backend = PortfolioBackend(
            [_Stub(UNKNOWN, name="u"), _Stub(UNSAT, delay=0.05, name="n")]
        )
        assert backend.solve(membership("a")).status == UNSAT

    def test_all_unknown_is_unknown(self):
        backend = PortfolioBackend(
            [_Stub(UNKNOWN, name="u1"), _Stub(UNKNOWN, name="u2")]
        )
        assert backend.solve(membership("a")).status == UNKNOWN

    def test_first_definitive_wins_without_waiting_for_stragglers(self):
        slow = _Stub(UNKNOWN, delay=5.0, name="slow")
        fast = _Stub(SAT, name="fast", model=Model({X: "a"}))
        backend = PortfolioBackend([slow, fast], agreement_grace=0.0)
        started = time.monotonic()
        result = backend.solve(membership("a"))
        assert result.status == SAT
        assert time.monotonic() - started < 2.0

    def test_disagreeing_definitive_answers_raise_loudly(self):
        backend = PortfolioBackend(
            [
                _Stub(SAT, name="liar", model=Model({X: "a"})),
                _Stub(UNSAT, name="truther"),
            ],
            agreement_grace=2.0,
        )
        with pytest.raises(BackendDisagreement, match="disagree"):
            backend.solve(membership("a"))

    def test_crashing_member_degrades_to_unknown(self):
        backend = PortfolioBackend([_Boom(), _Stub(UNKNOWN, name="u")])
        assert backend.solve(membership("a")).status == UNKNOWN

    def test_crashing_member_does_not_mask_definitive(self):
        backend = PortfolioBackend(
            [_Boom(), _Stub(UNSAT, delay=0.02, name="n")]
        )
        assert backend.solve(membership("a")).status == UNSAT

    def test_portfolio_timeout_returns_unknown(self):
        backend = PortfolioBackend(
            [_Stub(SAT, delay=5.0, name="slow")], timeout=0.1
        )
        assert backend.solve(membership("a")).status == UNKNOWN

    def test_tally_recorded_under_portfolio_name(self):
        stats = SolverStats()
        backend = PortfolioBackend(
            [_Stub(SAT, name="s", model=Model({X: "a"}))], stats=stats
        )
        backend.solve(membership("a"))
        assert stats.backend_tallies[backend.name].sat == 1

    def test_needs_members(self):
        with pytest.raises(BackendError):
            PortfolioBackend([])

    def test_straggler_never_reenters_a_member_concurrently(self):
        class _Reentrancy:
            """UNKNOWN after a long sleep; counts concurrent entries."""

            name = "slowpoke"

            def __init__(self):
                self.active = 0
                self.max_active = 0
                self.calls = 0

            def solve(self, formula):
                self.calls += 1
                self.active += 1
                self.max_active = max(self.max_active, self.active)
                time.sleep(0.3)
                self.active -= 1
                return SolverResult(UNKNOWN)

        slow = _Reentrancy()
        fast = _Stub(SAT, name="fast", model=Model({X: "a"}))
        backend = PortfolioBackend([slow, fast], agreement_grace=0.0)
        # Each query returns via the fast member, abandoning a slow
        # straggler; the slow member must be skipped while busy, never
        # entered twice at once.
        for _ in range(4):
            assert backend.solve(membership("a")).status == SAT
        time.sleep(0.4)  # let the last straggler drain
        assert slow.max_active == 1
        assert fast.calls == 4
        assert slow.calls < 4  # busy rounds were skipped

    def test_worker_pool_is_reused_across_queries(self):
        backend = PortfolioBackend(
            [_Stub(SAT, name="s", model=Model({X: "a"}))]
        )
        backend.solve(membership("a"))
        pool = backend._pool
        backend.solve(membership("a"))
        assert backend._pool is pool  # no executor-per-solve churn
        backend.close()
        assert backend._pool is None


class TestEndToEndEquivalence:
    """Acceptance: identical SAT/UNSAT verdicts regardless of backend."""

    SPECS = (
        "native",
        "cached:native",
        "portfolio:native+smtlib",
        "cached:portfolio:native+smtlib",
    )

    def test_find_matching_input_agrees_across_backends(self):
        from repro.model.api import find_matching_input

        for spec in self.SPECS:
            word, captures = find_matching_input(
                r"^v(\d+)\.(\d+)$", backend=spec
            )
            assert word == f"v{captures[1]}.{captures[2]}"

    def test_unsat_agrees_across_backends(self):
        from repro.model.cegar import CegarSolver

        formula = conj([membership("a+"), Not(membership("a+"))])
        for spec in self.SPECS:
            assert CegarSolver(backend=spec).solve(formula).status == UNSAT

    def test_engine_coverage_identical_across_backends(self):
        from repro.dse.engine import DseEngine, EngineConfig

        program = (
            'var s = symbol("s", "");\n'
            'var m = /^(a+)=(b+)$/.exec(s);\n'
            'if (m) { if (m[1] === "aa") { 1; } else { 2; } } else { 3; }\n'
        )
        baseline = None
        for spec in self.SPECS:
            result = DseEngine(
                program,
                EngineConfig(max_tests=6, time_budget=10.0),
                backend=spec,
            ).run()
            covered = frozenset(result.covered)
            if baseline is None:
                baseline = covered
            assert covered == baseline
            # tallies flowed into the engine's stats
            assert result.stats.backend_tallies

    def test_smtlib_alone_degrades_to_unknown_without_binary(self):
        backend = SmtLibBackend("definitely-not-a-solver-binary")
        assert not backend.available
        result = backend.solve(membership("a+b"))
        assert result.status == UNKNOWN
        assert "not installed" in backend.last_error
