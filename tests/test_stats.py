"""Unit tests for the solver statistics collector (Table 8 plumbing)."""

import time

from repro.solver.stats import QueryRecord, SolverStats


def record(seconds=0.1, status="sat", **kwargs):
    return QueryRecord(seconds=seconds, status=status, **kwargs)


class TestAggregation:
    def test_empty_summary(self):
        stats = SolverStats()
        summary = stats.summary()
        assert summary["all"]["count"] == 0
        assert summary["all"]["mean"] == 0.0

    def test_basic_aggregates(self):
        stats = SolverStats()
        stats.record(record(seconds=0.1))
        stats.record(record(seconds=0.3))
        agg = stats.summary()["all"]
        assert agg["count"] == 2
        assert abs(agg["mean"] - 0.2) < 1e-9
        assert agg["min"] == 0.1 and agg["max"] == 0.3

    def test_subset_classification(self):
        stats = SolverStats()
        stats.record(record(had_regex=True))
        stats.record(record(had_regex=True, had_captures=True))
        stats.record(
            record(had_regex=True, had_captures=True, refinements=3)
        )
        stats.record(
            record(
                status="unknown",
                had_captures=True,
                refinements=21,
                hit_refinement_limit=True,
            )
        )
        summary = stats.summary()
        assert summary["with_captures"]["count"] == 3
        assert summary["with_refinement"]["count"] == 2
        assert summary["hit_limit"]["count"] == 1

    def test_refinement_summary(self):
        stats = SolverStats()
        stats.record(record())
        stats.record(record(had_regex=True, had_captures=True, refinements=1))
        stats.record(record(had_regex=True, had_captures=True, refinements=5))
        ref = stats.refinement_summary()
        assert ref["total_queries"] == 3
        assert ref["regex_queries"] == 2
        assert ref["capture_queries"] == 2
        assert ref["refined_queries"] == 2
        assert ref["mean_refinements"] == 3.0
        assert ref["limit_queries"] == 0

    def test_total_time(self):
        stats = SolverStats()
        stats.record(record(seconds=0.25))
        stats.record(record(seconds=0.75))
        assert abs(stats.total_time() - 1.0) < 1e-9


class TestSearchRecords:
    """What the native solver records about its core search."""

    def solve(self, formula, **options):
        from repro.solver import Solver

        stats = SolverStats()
        result = Solver(stats=stats, **options).solve(formula)
        return result.status, stats.queries[-1]

    def test_defaults_are_empty(self):
        assert record().nogoods == 0
        assert record().unknown_reason is None

    def test_refuted_branches_leave_nogoods(self):
        from repro.constraints import Eq, InRe, StrConst, StrVar, concat
        from repro.constraints.formulas import And, Or, to_nnf
        from repro.regex import parse_regex
        from repro.solver import Solver
        from repro.solver.search import Search

        x, p, q = StrVar("x"), StrVar("p"), StrVar("q")
        pinned = Eq(x, StrConst("x"))
        split = Eq(x, concat(p, q))
        # 4^4 = 256 cores, none with p ∈ {"", "x"}.
        choices = [
            Or(tuple(InRe(var, parse_regex(r).body) for r in options))
            for var, options in (
                (p, ("a+", "b+", "c", "d")),
                (q, ("e*", "f*", "g*", "h*")),
                (q, ("[e-h]*", "i*", "j*", "k*")),
                (p, ("y", "z", "[yz]", "[^x]")),
            )
        ]
        formula = And((split, *choices, pinned))
        status, query = self.solve(formula)
        assert status == "unsat"
        assert query.unknown_reason is None
        # The first failed leaf's nogood stays whole (no conflict came
        # before it to pay for minimising); the second leaf's is
        # minimised, and it and its kind refute the other 254 cores.
        assert query.cores_tried == 2
        assert query.nogoods == 5
        # The nogoods themselves, from a search run on its own.
        search = Search(Solver(), to_nnf(formula), time.monotonic() + 20)
        assert search.decide()[0] == "unsat"
        first, *rest = search.learned
        assert len(first) == 6 and len(rest) == 4
        for nogood in rest:
            assert {pinned, split} <= set(nogood)
            assert len(nogood) == 3

    def test_unknown_reasons(self):
        from repro.constraints import Eq, InRe, StrVar, concat, conj
        from repro.regex import parse_regex

        x, y = StrVar("x"), StrVar("y")
        # x = y ++ y has even length, a(aa)* odd; the concatenation
        # product ignores the repeated variable and y's candidates are
        # no exact listing, so every round ends short of a proof.
        formula = conj(
            [Eq(x, concat(y, y)), InRe(x, parse_regex("a(aa)*").body)]
        )
        status, query = self.solve(formula)
        assert (status, query.unknown_reason) == ("unknown", "incomplete")
        status, query = self.solve(formula, timeout=-1.0)
        assert (status, query.unknown_reason) == ("unknown", "deadline")
