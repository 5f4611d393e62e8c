"""Bounded-exhaustive soundness of the conflict-driven core search.

Seeded random NNF formulas nest ``And``/``Or`` over memberships,
(dis)equalities and concatenations over ``{a, b}``.  For each one:

- the search's verdict equals that of a DNF-enumeration reference (kept
  here: every conjunctive core solved on its own) wherever the
  reference is definitive;
- an UNSAT has no model with every variable a word over ``{a, b}`` of
  length at most 4;
- every nogood the search learned is UNSAT when solved alone.

The bounded check is exact over the slice: each literal becomes the
bitmask of the assignments that satisfy it, and ``And``/``Or``/``Not``
become ``&``/``|``/complement.
"""

import functools
import itertools
import random
import time
from typing import Iterator, List

import pytest

from repro.constraints import Eq, InRe, Not, StrConst, StrVar, concat, conj
from repro.constraints.formulas import And, BoolLit, Formula, Or, to_nnf
from repro.constraints.terms import Concat
from repro.regex import RegExp, parse_regex
from repro.solver import SAT, Solver, UNKNOWN, UNSAT
from repro.solver.core import _holds
from repro.solver.search import Search

VARS = [StrVar("x"), StrVar("y"), StrVar("z")]
CONSTS = ["", "a", "b", "ab", "ba", "aab"]
REGEXES = {
    source: parse_regex(source).body
    for source in ("a*", "b+", "a+", "(?:ab)*", "a?b", "[ab]{2}", "a|bb",
                   "[ab]*a", "b[ab]*", "(?:aa)+")
}
#: The bounded check decides memberships with the concrete matcher.
MATCHERS = {
    id(body): RegExp(f"^(?:{source})$") for source, body in REGEXES.items()
}
WORDS = [""] + [
    "".join(w) for n in range(1, 5) for w in itertools.product("ab", repeat=n)
]
INDEX = {word: i for i, word in enumerate(WORDS)}
SLOTS = len(WORDS) ** len(VARS)
ALL = (1 << SLOTS) - 1
SEEDS = range(120)
#: Search and reference share one small configuration (a generous
#: deadline, so verdicts do not depend on the host's speed).
OPTIONS = dict(round_limits=(8, 24), combo_budget=500, timeout=30.0)
REFERENCE_CORES = 500


def _slot_masks():
    """masks[v][k]: the assignments in which variable v is WORDS[k].

    Slot ``s`` gives variable ``v`` the word at digit ``v`` of ``s`` in
    base ``len(WORDS)``: one run of ``stride`` bits per period."""
    n = len(WORDS)
    masks = []
    for position in range(len(VARS)):
        stride = n ** (len(VARS) - 1 - position)
        period = n * stride
        repeat = ((1 << SLOTS) - 1) // ((1 << period) - 1)
        run = (1 << stride) - 1
        masks.append([(run << (k * stride)) * repeat for k in range(n)])
    return masks


MASKS = _slot_masks()


def _word_masks(term):
    """word → mask of the assignments under which ``term`` is that word
    (words longer than the bound only come from constants)."""
    parts = term.parts if isinstance(term, Concat) else (term,)
    values = {"": ALL}
    for part in parts:
        grown = {}
        for prefix, mask in values.items():
            if isinstance(part, StrConst):
                options = [(part.value, ALL)]
            else:
                v = VARS.index(part)
                options = [(w, MASKS[v][k]) for k, w in enumerate(WORDS)]
            for word, part_mask in options:
                both = mask & part_mask
                if both:
                    key = prefix + word
                    grown[key] = grown.get(key, 0) | both
        values = grown
    return values


def bounded_mask(formula: Formula) -> int:
    """The assignments of the slice that satisfy ``formula``."""
    if isinstance(formula, BoolLit):
        return ALL if formula.value else 0
    if isinstance(formula, Not):
        return ALL & ~bounded_mask(formula.operand)
    if isinstance(formula, And):
        mask = ALL
        for operand in formula.operands:
            mask &= bounded_mask(operand)
        return mask
    if isinstance(formula, Or):
        mask = 0
        for operand in formula.operands:
            mask |= bounded_mask(operand)
        return mask
    return _atom_mask(formula)


@functools.lru_cache(maxsize=None)
def _atom_mask(formula: Formula) -> int:
    if isinstance(formula, InRe):
        matcher = MATCHERS[id(formula.regex)]
        return _or(
            mask
            for word, mask in _word_masks(formula.term).items()
            if matcher.exec(word) is not None
        )
    if isinstance(formula, Eq):
        left, right = _word_masks(formula.left), _word_masks(formula.right)
        return _or(
            mask & right[word] for word, mask in left.items() if word in right
        )
    raise TypeError(formula)


def _or(masks) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out


def membership(var, source):
    return InRe(var, REGEXES[source])


def random_literal(rng: random.Random) -> Formula:
    v, u, w = rng.sample(VARS, 3)
    kind = rng.randrange(6)
    if kind <= 1:
        literal = membership(v, rng.choice(sorted(REGEXES)))
    elif kind == 2:
        literal = Eq(v, StrConst(rng.choice(CONSTS)))
    elif kind == 3:
        literal = Eq(v, u)
    else:
        right = w if rng.random() < 0.6 else StrConst(rng.choice("ab"))
        literal = Eq(v, concat(u, right))
    return Not(literal) if rng.random() < 0.3 else literal


def random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return random_literal(rng)
    kind = And if rng.random() < 0.5 else Or
    operands = tuple(
        random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return kind(operands)


def formula_for(seed: int) -> Formula:
    rng = random.Random(seed)
    return And(
        tuple(random_formula(rng, 3) for _ in range(rng.randint(2, 3)))
    )


def dnf_cores(nnf: Formula) -> Iterator[List[Formula]]:
    """The reference: every conjunctive core, in DNF order."""
    if isinstance(nnf, And):
        def product(operands):
            if not operands:
                yield []
                return
            for head in dnf_cores(operands[0]):
                for tail in product(operands[1:]):
                    yield head + tail

        yield from product(nnf.operands)
    elif isinstance(nnf, Or):
        for option in nnf.operands:
            yield from dnf_cores(option)
    elif isinstance(nnf, BoolLit):
        if nnf.value:
            yield []
    else:
        yield [nnf]


def reference_verdict(formula: Formula) -> str:
    """SAT if a core is SAT, UNSAT if every core is, else UNKNOWN (also
    past ``REFERENCE_CORES`` cores)."""
    verdict = UNSAT
    for index, core in enumerate(dnf_cores(formula)):
        if index == REFERENCE_CORES:
            return UNKNOWN
        status = Solver(**OPTIONS).solve(conj(core)).status
        if status == SAT:
            return SAT
        if status == UNKNOWN:
            verdict = UNKNOWN
    return verdict


def search(formula: Formula):
    """(status, model, the :class:`Search` that decided ``formula``)."""
    solver = Solver(**OPTIONS)
    run = Search(solver, to_nnf(formula), time.monotonic() + solver.timeout)
    status, model, _ = run.decide()
    return status, model, run


@functools.lru_cache(maxsize=None)
def reference_for(seed: int) -> str:
    return reference_verdict(formula_for(seed))


@pytest.fixture(scope="module")
def outcomes():
    """Every seed's (seed, formula, status, model, search)."""
    return [
        (seed, formula, *search(formula))
        for seed, formula in ((seed, formula_for(seed)) for seed in SEEDS)
    ]


def test_verdicts_match_the_dnf_reference(outcomes):
    compared = 0
    for seed, formula, status, _, _ in outcomes:
        expected = reference_for(seed)
        if expected == UNKNOWN:
            continue
        compared += 1
        assert status == expected, f"seed {seed}: {formula}"
    assert compared > len(SEEDS) * 3 // 4


def test_every_unsat_has_no_small_model(outcomes):
    unsat = 0
    for seed, formula, status, model, _ in outcomes:
        if status == SAT:
            assert _holds(formula, model), f"seed {seed}"
        elif status == UNSAT:
            unsat += 1
            assert bounded_mask(formula) == 0, f"seed {seed}: {formula}"
    assert unsat >= 20


def test_every_nogood_is_unsat_alone(outcomes):
    learned = 0
    for seed, _, _, _, run in outcomes:
        for nogood in run.learned:
            learned += 1
            alone = conj(list(nogood))
            assert Solver(**OPTIONS).solve(alone).status == UNSAT, (
                f"seed {seed}: nogood {nogood}"
            )
            assert bounded_mask(alone) == 0, f"seed {seed}: {nogood}"
    assert learned >= 20


def test_nogoods_prune_cores(outcomes):
    """The search solves fewer leaf cores than the DNF has, and both
    minimised and unminimised nogoods occur."""
    pruned = sum(
        run.cores_tried < sum(1 for _ in dnf_cores(formula))
        for _, formula, _, _, run in outcomes
    )
    assert pruned >= 10
    minimised = sum(run.spent > 0 for *_, run in outcomes)
    assert 10 <= minimised < len(SEEDS)


def test_the_bounded_check_sees_models():
    x, y = VARS[0], VARS[1]
    assert bounded_mask(Eq(x, concat(y, StrConst("a")))) != 0
    assert bounded_mask(conj([membership(x, "a+"), Eq(x, StrConst("b"))])) == 0
