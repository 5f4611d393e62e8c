"""Integration tests for the DSE engine (generational search + CEGAR)."""

import pytest

from repro.dse import (
    DseEngine,
    EngineConfig,
    RegexSupportLevel,
    analyze,
    build_harness,
    discover_exports,
)
from repro.solver import Solver, UNKNOWN

LISTING1 = r"""
var timeout = '500';
var arg = symbol("arg0", "foo");
var parts = /<(\w+)>([0-9]*)<\/\1>/.exec(arg);
if (parts) {
  if (parts[1] === "timeout") {
    timeout = parts[2];
  }
}
assert(/^[0-9]+$/.test(timeout) === true, "timeout must be numeric");
"""


class TestListingOne:
    """The paper's running example (§3.2) end to end."""

    def test_finds_the_bug(self):
        result = analyze(LISTING1, max_tests=25, time_budget=60)
        assert result.failures, "the empty-number bug must be found"
        assert "timeout must be numeric" in result.failures[0]

    def test_full_coverage(self):
        result = analyze(LISTING1, max_tests=25, time_budget=60)
        assert result.coverage == 1.0

    def test_no_query_waits_for_the_solver_deadline(self):
        # The negated capture match has one core refuted by a prefix
        # argument; the concatenation product drops it before it spends
        # the budget its SAT siblings need, so a 0.3 s deadline is enough.
        result = analyze(
            LISTING1,
            max_tests=25,
            time_budget=60,
            solver_factory=lambda timeout: Solver(timeout=0.3),
        )
        assert any("timeout must be numeric" in f for f in result.failures)
        assert result.stats.queries
        assert all(q.status != UNKNOWN for q in result.stats.queries)

    def test_concrete_level_misses_the_bug(self):
        result = analyze(
            LISTING1,
            level=RegexSupportLevel.CONCRETE,
            max_tests=25,
            time_budget=30,
        )
        assert not result.failures
        assert result.coverage < 1.0


class TestBranchExploration:
    def test_string_equality_flip(self):
        source = """
        var s = symbol("s", "");
        if (s === "magic") { assert(false, "reached"); }
        """
        result = analyze(source, max_tests=10, time_budget=30)
        assert result.failures

    def test_nested_string_branches(self):
        source = """
        var s = symbol("s", "");
        var t = symbol("t", "");
        if (s === "a") { if (t === "b") { assert(false, "deep"); } }
        """
        result = analyze(source, max_tests=15, time_budget=30)
        assert result.failures

    def test_regex_guard_then_capture_guard(self):
        source = r"""
        var s = symbol("s", "");
        var m = /^(\w+):(\d+)$/.exec(s);
        if (m) {
            if (m[1] === "port") { assert(false, "port found"); }
        }
        """
        result = analyze(source, max_tests=25, time_budget=60)
        assert result.failures

    def test_negative_regex_branch(self):
        source = r"""
        var s = symbol("s", "12345");
        if (/^\d+$/.test(s)) { 1; } else { assert(false, "non-digit"); }
        """
        result = analyze(source, max_tests=10, time_budget=30)
        assert result.failures

    def test_concat_through_regex(self):
        source = r"""
        var s = symbol("s", "");
        var wrapped = "[" + s + "]";
        if (/^\[\d+\]$/.test(wrapped)) { assert(false, "numeric payload"); }
        """
        result = analyze(source, max_tests=15, time_budget=30)
        assert result.failures


class TestSupportLevels:
    SOURCE = r"""
    var s = symbol("s", "x");
    var m = /key=(\w+)/.exec(s);
    if (m) {
        if (m[1] === "open") { assert(false, "capture-dependent"); }
    }
    """

    def test_captures_level_reaches_capture_branch(self):
        result = analyze(
            self.SOURCE,
            level=RegexSupportLevel.REFINED,
            max_tests=25,
            time_budget=60,
        )
        assert result.failures

    def test_model_level_covers_match_branch_only(self):
        result = analyze(
            self.SOURCE,
            level=RegexSupportLevel.MODEL,
            max_tests=25,
            time_budget=30,
        )
        # The match branch is reachable; the capture-dependent branch
        # requires symbolic captures.
        assert not result.failures
        assert result.coverage > 0.5

    def test_coverage_monotone_in_support_level(self):
        coverages = {}
        for level in (
            RegexSupportLevel.CONCRETE,
            RegexSupportLevel.MODEL,
            RegexSupportLevel.REFINED,
        ):
            res = analyze(
                self.SOURCE, level=level, max_tests=25, time_budget=30
            )
            coverages[level] = res.coverage
        assert (
            coverages[RegexSupportLevel.CONCRETE]
            <= coverages[RegexSupportLevel.MODEL]
            <= coverages[RegexSupportLevel.REFINED]
        )


class TestEngineMechanics:
    def test_deduplicates_inputs(self):
        source = """
        var s = symbol("s", "");
        if (s === "x") { 1; } else { 2; }
        """
        result = analyze(source, max_tests=50, time_budget=20)
        assert result.tests_run <= 4

    def test_respects_max_tests(self):
        source = """
        var s = symbol("s", "");
        if (s === "a") { 1; }
        if (s === "ab") { 1; }
        if (s === "abc") { 1; }
        """
        result = analyze(source, max_tests=3, time_budget=30)
        assert result.tests_run <= 3

    def test_stats_populated(self):
        result = analyze(LISTING1, max_tests=10, time_budget=30)
        assert result.queries > 0
        assert len(result.stats.queries) > 0


class TestHarness:
    LIBRARY = r"""
    function parseKv(s) {
        var m = /^(\w+)=(\w+)$/.exec(s);
        if (m) { return m[1]; }
        return null;
    }
    function shout(s) { return s + "!"; }
    module.exports = {parseKv: parseKv, shout: shout};
    """

    def test_discover_exports(self):
        exports = dict(discover_exports(self.LIBRARY))
        assert exports == {"parseKv": 1, "shout": 1}

    def test_harness_drives_exports(self):
        harnessed = build_harness(self.LIBRARY)
        assert "parseKv" in harnessed and "symbol(" in harnessed
        result = analyze(harnessed, max_tests=20, time_budget=30)
        assert result.regex_ops > 0
        assert result.coverage > 0.7

    def test_single_function_export(self):
        source = """
        module.exports = function (x) { return x === "k"; };
        """
        exports = discover_exports(source)
        assert exports == [("", 1)]
