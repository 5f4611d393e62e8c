"""Unit tests for the string constraint solver."""

import pytest

from repro.constraints import (
    Eq,
    FALSE,
    InRe,
    Not,
    StrConst,
    StrVar,
    TRUE,
    UNDEF,
    Undef,
    concat,
    conj,
    disj,
    implies,
    neg,
    to_nnf,
)
from repro.regex import parse_regex
from repro.solver import SAT, Solver, UNKNOWN, UNSAT


def re_node(src):
    return parse_regex(src).body


def solve(formula, **kwargs):
    return Solver(**kwargs).solve(formula)


x, y, z, w = (StrVar(n) for n in "xyzw")


class TestDefaultWords:
    def test_candidate_list_is_pinned(self):
        # The documented candidate pool for wholly unconstrained
        # variables: the seed alphabet followed by "a"-runs of length 2-5.
        expected = [
            "", "a", "b", "0", "1", " ", "x", "ab", "a0", "-",
            "aa", "aaa", "aaaa", "aaaaa",
        ]
        assert Solver().default_words(len(expected) + 10) == expected

    def test_limit_truncates(self):
        solver = Solver()
        assert solver.default_words(3) == ["", "a", "b"]
        assert solver.default_words(14) == solver.default_words(100)


class TestEqualities:
    def test_var_equals_const(self):
        result = solve(Eq(x, StrConst("hello")))
        assert result.status == SAT
        assert result.model[x] == "hello"

    def test_var_equals_var(self):
        result = solve(conj([Eq(x, y), Eq(y, StrConst("v"))]))
        assert result.model[x] == "v"

    def test_conflicting_constants(self):
        result = solve(conj([Eq(x, StrConst("a")), Eq(x, StrConst("b"))]))
        assert result.status == UNSAT

    def test_transitive_conflict(self):
        result = solve(
            conj(
                [
                    Eq(x, y),
                    Eq(y, z),
                    Eq(x, StrConst("a")),
                    Eq(z, StrConst("b")),
                ]
            )
        )
        assert result.status == UNSAT

    def test_const_const(self):
        assert solve(Eq(StrConst("a"), StrConst("a"))).status == SAT
        assert solve(Eq(StrConst("a"), StrConst("b"))).status == UNSAT


class TestUndef:
    def test_var_can_be_undef(self):
        result = solve(Eq(x, Undef()))
        assert result.status == SAT
        assert result.model[x] is UNDEF

    def test_undef_conflicts_with_const(self):
        result = solve(conj([Eq(x, Undef()), Eq(x, StrConst(""))]))
        assert result.status == UNSAT

    def test_undef_distinct_from_empty(self):
        result = solve(conj([Eq(x, StrConst("")), Not(Eq(x, Undef()))]))
        assert result.status == SAT
        assert result.model[x] == ""

    def test_undef_conflicts_with_membership(self):
        result = solve(conj([Eq(x, Undef()), InRe(x, re_node("a*"))]))
        assert result.status == UNSAT

    def test_undef_cannot_be_concatenated(self):
        result = solve(conj([Eq(x, Undef()), Eq(y, concat(x, StrConst("a")))]))
        assert result.status == UNSAT


class TestMemberships:
    def test_simple_membership(self):
        result = solve(InRe(x, re_node("abc")))
        assert result.model[x] == "abc"

    def test_membership_intersection(self):
        result = solve(
            conj([InRe(x, re_node("a*b*")), InRe(x, re_node(".{2}"))])
        )
        assert result.status == SAT
        assert len(result.model[x]) == 2
        value = result.model[x]
        assert value in ("ab", "aa", "bb")

    def test_empty_intersection_unsat(self):
        result = solve(conj([InRe(x, re_node("a+")), InRe(x, re_node("b+"))]))
        assert result.status == UNSAT

    def test_negative_membership(self):
        result = solve(
            conj([InRe(x, re_node("a{0,2}")), Not(InRe(x, re_node("a?")))])
        )
        assert result.status == SAT
        assert result.model[x] == "aa"

    def test_membership_of_constant(self):
        assert solve(InRe(StrConst("aaa"), re_node("a+"))).status == SAT
        assert solve(InRe(StrConst("b"), re_node("a+"))).status == UNSAT

    def test_negated_membership_of_constant(self):
        assert solve(Not(InRe(StrConst("b"), re_node("a+")))).status == SAT

    def test_membership_with_equality(self):
        result = solve(
            conj([Eq(x, StrConst("ab")), InRe(x, re_node("a.|c"))])
        )
        assert result.status == SAT


class TestConcatenation:
    def test_concat_definition(self):
        formula = conj(
            [
                Eq(w, concat(x, y)),
                Eq(x, StrConst("foo")),
                Eq(y, StrConst("bar")),
            ]
        )
        result = solve(formula)
        assert result.model[w] == "foobar"

    def test_concat_with_membership_on_parts(self):
        formula = conj(
            [
                Eq(w, concat(x, y)),
                InRe(x, re_node("a+")),
                InRe(y, re_node("b+")),
                InRe(w, re_node(".{4}")),
            ]
        )
        result = solve(formula)
        assert result.status == SAT
        value = result.model[w]
        assert len(value) == 4 and value.strip("ab") == ""
        assert value.startswith("a") and value.endswith("b")

    def test_concat_chain(self):
        formula = conj(
            [
                Eq(w, concat(x, y, z)),
                Eq(x, StrConst("<")),
                InRe(y, re_node(r"\w+")),
                Eq(z, StrConst(">")),
                Eq(w, StrConst("<tag>")),
            ]
        )
        result = solve(formula)
        assert result.status == SAT
        assert result.model[y] == "tag"

    def test_concat_conflict(self):
        formula = conj(
            [
                Eq(w, concat(x, y)),
                Eq(x, StrConst("aa")),
                Eq(y, StrConst("bb")),
                Eq(w, StrConst("aabc")),
            ]
        )
        assert solve(formula).status in (UNSAT, UNKNOWN)

    def test_nested_definitions(self):
        formula = conj(
            [
                Eq(w, concat(x, y)),
                Eq(x, concat(z, StrConst("-"))),
                Eq(z, StrConst("id")),
                Eq(y, StrConst("42")),
            ]
        )
        result = solve(formula)
        assert result.model[w] == "id-42"


class TestBooleanStructure:
    def test_disjunction_picks_satisfiable_branch(self):
        formula = disj(
            [
                conj([Eq(x, StrConst("a")), Eq(x, StrConst("b"))]),  # unsat
                Eq(x, StrConst("c")),
            ]
        )
        result = solve(formula)
        assert result.model[x] == "c"

    def test_implication(self):
        formula = conj(
            [
                Eq(x, StrConst("k")),
                implies(Eq(x, StrConst("k")), Eq(y, StrConst("v"))),
            ]
        )
        result = solve(formula)
        assert result.model[y] == "v"

    def test_implication_vacuous(self):
        formula = conj(
            [
                Eq(x, StrConst("other")),
                implies(Eq(x, StrConst("k")), Eq(y, StrConst("v"))),
            ]
        )
        result = solve(formula)
        assert result.status == SAT

    def test_negated_equality(self):
        formula = conj([InRe(x, re_node("a|b")), Not(Eq(x, StrConst("a")))])
        result = solve(formula)
        assert result.model[x] == "b"

    def test_true_false_literals(self):
        assert solve(TRUE).status == SAT
        assert solve(FALSE).status == UNSAT
        assert solve(conj([Eq(x, StrConst("a")), FALSE])).status == UNSAT

    def test_nnf_double_negation(self):
        formula = Not(Not(Eq(x, StrConst("a"))))
        assert solve(formula).model[x] == "a"


class TestRefinementShapedConstraints:
    """The exact shapes Algorithm 1 adds during CEGAR."""

    def test_word_exclusion(self):
        # P ∧ (w ≠ M[w]) — the non-membership refinement (line 18/22).
        formula = conj(
            [
                InRe(x, re_node("a{0,3}")),
                Not(Eq(x, StrConst(""))),
                Not(Eq(x, StrConst("a"))),
                Not(Eq(x, StrConst("aa"))),
            ]
        )
        result = solve(formula)
        assert result.model[x] == "aaa"

    def test_capture_pinning(self):
        # P ∧ (w = M[w] ⟹ Ci = Ci♮) — the membership refinement (line 15).
        c = StrVar("C1")
        formula = conj(
            [
                Eq(x, StrConst("aa")),
                implies(Eq(x, StrConst("aa")), Eq(c, StrConst(""))),
            ]
        )
        result = solve(formula)
        assert result.model[c] == ""

    def test_exclusions_exhaust_finite_language(self):
        formula = conj(
            [
                InRe(x, re_node("a|b")),
                Not(Eq(x, StrConst("a"))),
                Not(Eq(x, StrConst("b"))),
            ]
        )
        assert solve(formula).status == UNSAT

    def test_sampled_words_are_not_a_complete_enumeration(self):
        # [a-z] minus three letters: ``words()`` samples only a few
        # characters per label, which once read as "every word tried".
        formula = conj(
            [InRe(x, re_node("[a-z]"))]
            + [Not(Eq(x, StrConst(c))) for c in "abc"]
        )
        result = solve(formula)
        assert result.status == SAT
        assert result.model[x] not in "abc"

    def test_excluding_every_letter_is_unsat(self):
        formula = conj(
            [InRe(x, re_node("[a-z]"))]
            + [
                Not(Eq(x, StrConst(chr(cp))))
                for cp in range(ord("a"), ord("z") + 1)
            ]
        )
        assert solve(formula).status == UNSAT


class TestSolverLimits:
    def test_unknown_on_tiny_budget(self):
        # An adversarial constraint needing a longer word than one round
        # allows; with absurd budgets the solver must answer UNKNOWN, not
        # UNSAT.
        formula = conj(
            [
                InRe(x, re_node("a*")),
                Not(InRe(x, re_node("a{0,40}"))),
            ]
        )
        result = Solver(round_limits=[2], combo_budget=4).solve(formula)
        assert result.status in (UNKNOWN, SAT)

    def test_finds_long_word_with_budget(self):
        formula = conj(
            [InRe(x, re_node("a*")), Not(InRe(x, re_node("a{0,10}")))]
        )
        result = solve(formula)
        assert result.status == SAT
        assert result.model[x] == "a" * 11

    def test_stats_recorded(self):
        from repro.solver import SolverStats

        stats = SolverStats()
        Solver(stats=stats).solve(Eq(x, StrConst("a")))
        assert len(stats.queries) == 1
        assert stats.queries[0].status == SAT
