"""The lazy concatenation product and its use by the solver core.

The capturing-language model turns every regex operation into the same
shape: ``in ∈ L(r) ∧ in = seg1 ++ … ++ segN ∧ segi ∈ L(ri)``.  The core
refutes such a shape when the product of the target automaton with the
concatenation of the part automata is empty, and seeds its search with
the product's shortest witness.  These tests pin the Table 6 shapes that
used to run into the solver deadline, and cross-check every refutation
against a brute-force search over all words and splits.
"""

import itertools
import random

import pytest

from repro.automata import (
    LazyConcatProduct,
    dfa_for,
    finite_dfa,
    finite_words,
    universal_dfa,
)
from repro.constraints import (
    Eq,
    InRe,
    Not,
    StrConst,
    StrVar,
    concat,
    conj,
    disj,
    implies,
    is_undef,
    neg,
)
from repro.model.capturing import words_over
from repro.model.preprocess import INPUT_LANG
from repro.regex import parse_regex
from repro.solver import SAT, Solver, UNSAT
from repro.solver.core import _Core, _holds, _UnsatCore
from repro.solver.model import Model


def R(src):
    return parse_regex(src).body


def V(*names):
    return [StrVar(name) for name in names]


def inp(var):
    return InRe(var, INPUT_LANG)


# -- Table 6 shapes -----------------------------------------------------------

IDENT = R(r"[A-Za-z_$][A-Za-z0-9_$]*")
EMAIL_PARTS = [R(r"\w+"), R("@"), R(r"\w+"), R(r"\."), R("[a-z]{2,3}")]


def number_capture(tok, tag):
    """``tok`` split as the capture model of ``(\\d+)(?:\\.(\\d+))?``."""
    s1, s2, q1, q2, s3, s4, c0, c1, c2 = V(
        *(f"{name}{tag}" for name in
          ("s1_", "s2_", "q1_", "q2_", "s3_", "s4_", "C0_", "C1_", "C2_"))
    )
    return [
        Eq(c0, tok),
        Eq(tok, concat(s1, s2)),
        Eq(c1, s1),
        Eq(s2, concat(q1, q2)),
        InRe(s1, R(r"\d+")),
        InRe(q1, R(r"(?:\.(?:\d+)){0}")),
        disj([
            conj([Eq(q2, concat(s3, s4)), Eq(c2, s4),
                  InRe(s3, R(r"\.")), InRe(s4, R(r"\d+"))]),
            conj([Eq(q2, StrConst("")), Eq(q1, StrConst("")),
                  is_undef(c2)]),
        ]),
        implies(Eq(q2, StrConst("")),
                conj([Eq(q1, StrConst("")), is_undef(c2)])),
        inp(tok),
    ]


def quoted_capture(tok, tag):
    """``tok`` split as the capture model of ``"([^"]*)"``."""
    s1, s2, s3, c0, c1 = V(*(f"{n}{tag}" for n in
                             ("o_", "b_", "c_", "QC0_", "QC1_")))
    return [
        Eq(c0, tok),
        Eq(tok, concat(s1, s2, s3)),
        Eq(c1, s2),
        InRe(s1, R('"')),
        InRe(s2, R('[^"]*')),
        InRe(s3, R('"')),
        inp(tok),
    ]


def email_capture(var):
    segs = V(*(f"e{i}" for i in range(5)))
    caps = V("EC0", "EC1", "EC2", "EC3")
    return [
        Eq(caps[0], var),
        Eq(var, concat(*segs)),
        Eq(caps[1], segs[0]),
        Eq(caps[2], segs[2]),
        Eq(caps[3], segs[4]),
        *(InRe(seg, regex) for seg, regex in zip(segs, EMAIL_PARTS)),
        inp(var),
    ]


def line_prefix(line, tag, prefix):
    head, rest, c0 = V(f"h{tag}", f"r{tag}", f"LC0_{tag}")
    return [
        Eq(line, concat(head, rest)),
        Eq(c0, head),
        InRe(head, R(prefix)),
        inp(rest),
        inp(line),
    ]


def _table6_unsat_shapes():
    tok, mail, line = V("in$token", "in$input", "in$line")
    number_token = [inp(tok), InRe(tok, IDENT), Eq(StrVar("T0"), tok)]
    not_number = Not(InRe(tok, R(r"(?:\d+)(?:\.(?:\d+))?")))
    email = email_capture(mail)
    decimal = R(r"-?\d+")
    hexadecimal = R("[0-9a-fA-F]+")
    return {
        "identifier-then-number": number_token + number_capture(tok, "a"),
        "identifier-then-string": number_token + [not_number]
        + quoted_capture(tok, "b"),
        "number-and-string": [Not(InRe(tok, IDENT)), inp(tok)]
        + number_capture(tok, "c") + quoted_capture(tok, "d"),
        "email-is-decimal": email + [InRe(mail, decimal)],
        "email-is-hex": email + [Not(InRe(mail, decimal)),
                                 InRe(mail, hexadecimal)],
        "email-is-slug": email + [
            Not(InRe(mail, decimal)),
            Not(InRe(mail, hexadecimal)),
            InRe(mail, R("[a-z0-9]+(?:-[a-z0-9]+)*")),
        ],
        "comment-and-list-item": [
            Not(InRe(line, R(r"(?:\w+):\s*(?:\w*)"))),
            *line_prefix(line, "1", r"\s*#"),
            *line_prefix(line, "2", r"\s*-\s"),
        ],
    }


TABLE6_UNSAT = _table6_unsat_shapes()


@pytest.mark.parametrize("name", sorted(TABLE6_UNSAT))
def test_table6_shapes_are_refuted_before_the_deadline(name):
    result = Solver(timeout=0.3).solve(conj(TABLE6_UNSAT[name]))
    assert result.status == UNSAT


def listing1_negated_capture_match():
    """Listing 1's ``!/<(\\w+)>([0-9]*)<\\/\\1>/.exec(arg)`` query: eleven
    DNF cores, the first refuted by a prefix argument."""
    arg, before, inner, after = V("in$arg0", "pre", "inner", "post")
    s = V(*(f"t{i}" for i in range(8)))
    c0, c1, c2 = V("LC0", "LC1", "LC2")
    return conj([
        Eq(arg, concat(before, inner, after)),
        Eq(c0, inner),
        Eq(inner, concat(*s)),
        Eq(c1, s[1]),
        Eq(c2, s[3]),
        disj([
            Not(InRe(before, INPUT_LANG)),
            Not(InRe(s[0], R("<"))),
            Not(InRe(s[1], R(r"\w+"))),
            Not(InRe(s[2], R(">"))),
            Not(InRe(s[3], R("[0-9]*"))),
            Not(InRe(s[4], R("<"))),
            Not(InRe(s[5], R(r"\/"))),
            neg(implies(is_undef(c1), Eq(s[6], StrConst("")))),
            neg(implies(neg(is_undef(c1)), Eq(s[6], c1))),
            Not(InRe(s[7], R(">"))),
            Not(InRe(after, INPUT_LANG)),
        ]),
        inp(arg),
    ])


def test_listing1_negated_capture_match_is_sat_before_the_deadline():
    formula = listing1_negated_capture_match()
    result = Solver(timeout=0.3).solve(formula)
    assert result.status == SAT
    assert _holds(formula, result.model)


# -- the product itself -------------------------------------------------------

AB_BANK = ["a*", "b*", "(?:a|b)*", "ab", "a+b", "(?:ab)*", "b?a",
           "a|bb", "[ab]{2}", "(?:a|b)*b", "a(?:a|b)*", "", "b+"]


def _splits(word, n):
    for cuts in itertools.combinations_with_replacement(
        range(len(word) + 1), n - 1
    ):
        bounds = (0,) + cuts + (len(word),)
        yield [word[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def test_product_agrees_with_brute_force_on_small_words():
    rng = random.Random(7)
    for _ in range(120):
        target = rng.choice(AB_BANK)
        concats = [
            [rng.choice(AB_BANK) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 2))
        ]
        product = LazyConcatProduct(
            dfa_for(R(target)),
            [[dfa_for(R(p)) for p in parts] for parts in concats],
        )
        witness = product.shortest_witness()
        brute = [
            word for word in words_over("ab", 4)
            if dfa_for(R(target)).accepts_word(word)
            and all(
                any(all(dfa_for(R(p)).accepts_word(seg)
                        for p, seg in zip(parts, split))
                    for split in _splits(word, len(parts)))
                for parts in concats
            )
        ]
        label = f"{target} ∩ {concats}"
        if witness is None:
            assert not brute, label
            continue
        if brute:
            assert len(witness.word) == len(brute[0]), label
        assert dfa_for(R(target)).accepts_word(witness.word), label
        for parts, segments in zip(concats, witness.segments):
            assert "".join(segments) == witness.word, label
            for p, seg in zip(parts, segments):
                assert dfa_for(R(p)).accepts_word(seg), label


def test_product_literals_and_sigma_star():
    product = LazyConcatProduct(
        universal_dfa(),
        [[finite_dfa(["ab"]), universal_dfa()], [universal_dfa(),
                                                 finite_dfa(["ba"])]],
    )
    witness = product.shortest_witness()
    assert witness.word == "aba"
    assert witness.segments == (("ab", "a"), ("a", "ba"))
    empty = LazyConcatProduct(
        dfa_for(R("a*")), [[finite_dfa(["a"]), finite_dfa(["b"])]]
    )
    assert empty.shortest_witness() is None


def test_product_budget_is_enforced():
    from repro.automata import ExplorationBudgetExceeded

    product = LazyConcatProduct(
        dfa_for(R("a{30}")), [[dfa_for(R("a*")), finite_dfa(["b"])]]
    )
    with pytest.raises(ExplorationBudgetExceeded):
        product.shortest_witness(max_states=5)
    assert product.shortest_witness() is None


def test_finite_words_is_exact():
    assert finite_words(dfa_for(R("[ab]{1,2}")), 6) == [
        "a", "b", "aa", "ab", "ba", "bb"
    ]
    assert finite_words(dfa_for(R("[ab]{1,2}")), 5) is None
    assert finite_words(dfa_for(R("a*")), 100) is None
    assert len(finite_words(dfa_for(R("[a-z]")), 26)) == 26
    assert finite_words(finite_dfa(["ab", "", "a", "ab"]), 3) == [
        "", "a", "ab"
    ]
    assert finite_words(finite_dfa(["a"]).complement(), 100) is None
    assert finite_words(dfa_for(R("a")).complement().complement(), 1) == [
        "a"
    ]


# -- bounded-exhaustive cross-check of the core's use -------------------------

def _random_core(rng):
    """``x ∈ L(A) ∧ x = p1 ++ … ++ pn ∧ pi ∈ L(Bi)`` over {a, b}, with
    negated memberships, constant parts, repeated parts, nested
    definitions and sometimes a second concatenation over ``x``."""
    x = StrVar("x")
    literals = [InRe(x, R(rng.choice(AB_BANK)))]
    if rng.random() < 0.3:
        literals[0] = Not(literals[0])
    definitions = {}
    fresh = itertools.count()

    def membership(var):
        if rng.random() < 0.15:
            return Not(Eq(var, StrConst(rng.choice(["", "a", "b", "ab"]))))
        atom = InRe(var, R(rng.choice(AB_BANK)))
        return Not(atom) if rng.random() < 0.3 else atom

    def parts(depth):
        out = []
        for _ in range(rng.randint(2, 3)):
            roll = rng.random()
            if roll < 0.15:
                out.append(StrConst(rng.choice(["a", "b", "ab", ""])))
            elif roll < 0.3 and any(isinstance(p, StrVar) for p in out):
                out.append(rng.choice(
                    [p for p in out if isinstance(p, StrVar)]))
            else:
                var = StrVar(f"p{next(fresh)}")
                if depth == 0 and rng.random() < 0.25:
                    definitions[var] = parts(depth + 1)
                    literals.append(Eq(var, concat(*definitions[var])))
                    if rng.random() < 0.5:
                        literals.append(membership(var))
                elif rng.random() < 0.85:
                    literals.append(membership(var))
                out.append(var)
        return out

    top = [parts(0)]
    if rng.random() < 0.3:
        top.append(parts(0))
    for concatenation in top:
        literals.append(Eq(x, concat(*concatenation)))
    return x, literals, top, definitions


def _brute_force_model(x, literals, top, definitions, max_len=4):
    """Any model with ``|x| ≤ max_len``: every word, every split."""

    def assignments(assign, pending):
        if not pending:
            yield assign
            return
        (value, parts), rest = pending[0], pending[1:]
        for split in _splits(value, len(parts)):
            trial = dict(assign)
            nested = []
            for part, seg in zip(parts, split):
                if isinstance(part, StrConst):
                    ok = part.value == seg
                elif part in trial:
                    ok = trial[part] == seg
                else:
                    trial[part] = seg
                    ok = True
                    if part in definitions:
                        nested.append((seg, definitions[part]))
                if not ok:
                    break
            else:
                yield from assignments(trial, rest + nested)

    for word in words_over("ab", max_len):
        for assign in assignments(
            {x: word}, [(word, parts) for parts in top]
        ):
            model = Model(dict(assign))
            if all(_holds(lit, model) for lit in literals):
                return model
    return None


def _unary(literals, var):
    """The literals that constrain ``var`` alone: (non-)memberships and
    disequalities with a constant."""
    out = []
    for lit in literals:
        atom = lit.operand if isinstance(lit, Not) else lit
        if isinstance(atom, InRe) and atom.term == var:
            out.append(lit)
        elif (isinstance(lit, Not) and isinstance(atom, Eq)
              and atom.left == var and isinstance(atom.right, StrConst)):
            out.append(lit)
    return out


def test_product_refutations_and_witnesses_are_sound():
    rng = random.Random(1909)
    refuted = witnessed = 0
    for _ in range(150):
        x, literals, top, definitions = _random_core(rng)
        core = _Core(literals, Solver())
        label = str(conj(literals))
        try:
            core._prepare()
            found = core._decide_concatenations()
        except _UnsatCore:
            refuted += 1
            assert _brute_force_model(x, literals, top, definitions) is None, (
                f"refuted a satisfiable core: {label}"
            )
            continue
        for cls, concats, witness in found:
            witnessed += 1
            for var in cls.members:
                for lit in _unary(literals, var):
                    assert _holds(lit, Model({var: witness.word})), label
            for parts, segments in zip(concats, witness.segments):
                assert "".join(segments) == witness.word, label
                for part, seg in zip(parts, segments):
                    if isinstance(part, StrConst):
                        assert part.value == seg, label
                        continue
                    for lit in _unary(literals, part):
                        assert _holds(lit, Model({part: seg})), label
    assert refuted > 10 and witnessed > 10


def test_solver_unsat_on_random_cores_has_no_small_model():
    rng = random.Random(2019)
    verdicts = {SAT: 0, UNSAT: 0}
    for _ in range(80):
        x, literals, top, definitions = _random_core(rng)
        formula = conj(literals)
        result = Solver(timeout=2.0).solve(formula)
        if result.status == UNSAT:
            assert _brute_force_model(x, literals, top, definitions) is None, (
                f"UNSAT with a model: {formula}"
            )
        elif result.status == SAT:
            assert _holds(formula, result.model)
        verdicts[result.status] = verdicts.get(result.status, 0) + 1
    assert verdicts[SAT] > 10 and verdicts[UNSAT] > 10
