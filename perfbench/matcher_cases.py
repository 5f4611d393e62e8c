"""Pinned cases for the ``matcher`` workload, and the script that makes them.

A case is one concrete matcher call: a pattern from the regex catalog
(``repro.corpus.data.CATALOG``) or the Table 6 libraries, a method of the
``RegExp``/``String.prototype`` surface that DSE uses, and a subject of a
fixed length.  Subjects are not stored: each is rebuilt from the
pattern's example words, its length and its own seed by
:func:`build_subject`.  Every (pattern, method, length) cell has
``VARIANTS`` subjects; the benchmark's ``--seed`` picks one per cell, so
every seed runs the same mix of patterns, methods and lengths.  Cells
longer than ``SHORT_LENGTHS`` have a single subject: they take most of a
pass, and varying them would let the seed, not the code, set the time.

Expected outputs come from the current matcher where it finishes.  Where
it cannot (the subject is past its recursion limit), they come from
Python's ``re``, and only for patterns where ES and Python semantics agree
on ASCII subjects without line breaks: no backreferences, no captures
inside quantifiers or lookaheads, flags within ``gi``, and no
disagreement with the matcher on any shorter subject of the same pattern.

Regenerate ``matcher_cases.json`` with ``python3 perfbench/matcher_cases.py``
from the repository root.  Cells whose subject makes the current matcher
take longer than ``MAX_CASE_S`` are re-drawn a few times and then left
out; the dedicated backtracking cases carry that defect instead, sized to
finish well under a second.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import time
from pathlib import Path

CASES_PATH = Path(__file__).with_name("matcher_cases.json")
VARIANTS = 4
#: Lengths every pattern gets (log-spaced, ~10 chars to a few thousand).
SHORT_LENGTHS = (10, 32, 100, 316, 1000, 3162)
#: Lengths past the matcher's recursion limit for some patterns; only
#: patterns whose expected outputs Python's ``re`` can supply get them.
LONG_LENGTHS = (10000, 31623)
LONG_PATTERNS = 14
METHODS = ("exec", "test", "match", "search", "split", "replace")
REPLACEMENT = "<$1|$&>"
MAX_CASE_S = 0.5
#: Catastrophic-backtracking cases: (pattern, flags, subject).
BACKTRACKING = (
    ("(a+)+b", "", "a" * 12),
    ("(a|aa)+$", "", "a" * 16 + "!"),
    ("^(\\w+\\s?)*$", "", "word " * 3 + "ab!"),
    ("(x+x+)+y", "", "x" * 12),
)
_LONG_STRING = 64
_LONG_OUTPUT = 256


def digest(value):
    """A JSON-able form of a matcher output; long strings become hashes."""
    if isinstance(value, str) and len(value) > _LONG_STRING:
        sha = hashlib.sha1(value.encode("utf-8")).hexdigest()
        return f"sha1:{sha}:{len(value)}"
    if isinstance(value, list):
        return [digest(item) for item in value]
    if isinstance(value, dict):
        return {key: digest(item) for key, item in value.items()}
    return value


def exec_shape(index, captures):
    return {"index": index, "captures": list(captures)}


def invoke(regexp, method, subject):
    """One matcher call, on a fresh ``lastIndex``; returns its raw output."""
    from repro.regex import methods

    regexp.last_index = 0
    if method == "exec":
        return regexp.exec(subject)
    if method == "test":
        return regexp.test(subject)
    if method == "match":
        return methods.match(regexp, subject)
    if method == "search":
        return methods.search(regexp, subject)
    if method == "split":
        return methods.split(regexp, subject)
    if method == "replace":
        return methods.replace(regexp, subject, REPLACEMENT)
    raise ValueError(f"unknown method {method!r}")


def shape(raw):
    """The pinned, JSON-able form of a raw output of :func:`invoke`."""
    from repro.regex.matcher import ExecResult

    if isinstance(raw, ExecResult):
        raw = exec_shape(raw.index, raw)
    return compact(digest(raw))


def compact(value):
    """Outputs whose JSON exceeds ``_LONG_OUTPUT`` characters are pinned
    by hash, which keeps the case file small."""
    text = json.dumps(value, sort_keys=True)
    if len(text) <= _LONG_OUTPUT:
        return value
    return "json-sha1:" + hashlib.sha1(text.encode("utf-8")).hexdigest()


def build_subject(examples, length, seed):
    """Seeded concatenation of example words, cut to exactly ``length``."""
    rng = random.Random(seed)
    pieces, size = [], 0
    while size < length:
        piece = rng.choice(examples)
        pieces.append(piece)
        size += len(piece)
    return "".join(pieces)[:length]


# -- generation (run as a script) --------------------------------------------


def _python_regex(pattern, flags):
    """``re`` pattern for the ES/Python-agreeing fragment, else ``None``."""
    from repro.regex import ast
    from repro.regex.parser import parse_pattern

    if set(flags) - set("gi"):
        return None
    body = parse_pattern(pattern, flags).body
    for node in ast.walk(body):
        if isinstance(node, ast.Backreference):
            return None
        if isinstance(node, (ast.Quantifier, ast.Lookahead)) and (
            ast.contains_captures(node.child)
        ):
            return None
    try:
        return re.compile(
            re.sub(r"\(\?<(?=\w)", "(?P<", pattern),  # named groups
            re.ASCII | (re.IGNORECASE if "i" in flags else 0),
        )
    except re.error:
        return None


def _python_exec(compiled, subject):
    found = compiled.search(subject)
    if found is None:
        return None
    groups = [found.group(0)] + [
        found.group(i) for i in range(1, compiled.groups + 1)
    ]
    return compact(digest(exec_shape(found.start(), groups)))


def _at_depth(depth, fn):
    """Run ``fn`` with ``depth`` extra frames on the stack."""
    if depth:
        return _at_depth(depth - 1, fn)
    return fn()


def _outcome(regexp, method, subject, depth=0):
    started = time.perf_counter()
    try:
        out = shape(
            _at_depth(depth, lambda: invoke(regexp, method, subject))
        )
    except RecursionError:
        return "recursion", None, time.perf_counter() - started
    return "ok", out, time.perf_counter() - started


def _examples(pattern, flags, positives, negatives, rng):
    from repro.model.api import find_matching_input

    def plain(word):
        return bool(word) and word.isascii() and not set(word) & set("\r\n")

    matching = [w for w in positives if plain(w)]
    if not positives:
        try:
            found = find_matching_input(pattern, flags)
        except Exception:
            found = None
        if found is not None and plain(found[0]):
            matching.append(found[0])
    words = matching + [w for w in negatives if plain(w)]
    literal = sorted(
        {c for c in pattern if c.isalnum() or c in "-_.:=@/<>\" "}
    )
    alphabet = literal + list("a0Z _-")
    for _ in range(3):
        words.append("".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 8))
        ))
    return sorted(set(w for w in words if w)), sorted(set(matching))


def _patterns():
    from repro.corpus.data import CATALOG
    from repro.corpus.extract import extract_regex_literals
    from repro.eval import TABLE6_PACKAGES

    seen, out = set(), []
    for entry in CATALOG:
        key = (entry.pattern, entry.flags)
        if key not in seen:
            seen.add(key)
            out.append((entry.pattern, entry.flags, entry.positives,
                        entry.negatives))
    for package in TABLE6_PACKAGES:
        for literal in extract_regex_literals(package.source):
            key = (literal.source, literal.flags)
            if key not in seen:
                seen.add(key)
                out.append((literal.source, literal.flags, (), ()))
    return out


def _agrees(regexp, compiled, examples):
    """Whether matcher and ``re`` give equal ``exec`` outputs on short
    subjects of this pattern (the empirical half of the fragment test)."""
    for length in SHORT_LENGTHS[:5]:
        for seed in range(8):
            subject = build_subject(examples, length, seed)
            kind, out, _ = _outcome(regexp, "exec", subject)
            if kind != "ok" or out != _python_exec(compiled, subject):
                return False
    return True


def _draw_case(regexp, method, examples, length, rng, compiled):
    """A case for one cell and variant, or ``None`` if none stays fast."""
    for _ in range(5):
        seed = rng.randrange(2**31)
        subject = build_subject(examples, length, seed)
        kind, out, seconds = _outcome(regexp, method, subject)
        if seconds > MAX_CASE_S:
            continue
        deep_kind, deep_out, _ = _outcome(regexp, method, subject, 400)
        if (deep_kind, deep_out) != (kind, out):
            continue  # too close to the recursion limit to be stable
        case = {"length": length, "subject_seed": seed}
        if kind == "ok":
            case.update(expected=out, source="matcher")
            return case
        if compiled is None or method != "exec":
            continue
        case.update(expected=_python_exec(compiled, subject), source="re")
        return case
    return None


def _variants(regexp, method, words, length, rng, compiled, count=VARIANTS):
    variants = []
    for _ in range(count):
        case = _draw_case(regexp, method, words, length, rng, compiled)
        if case is not None:
            variants.append(case)
    return variants


def _goes_deep(regexp, positives):
    """Whether a long run of positive words drives the matcher deep: it
    either matches at least 1000 characters or exhausts the stack."""
    kind, out, _ = _outcome(
        regexp, "exec", build_subject(positives, SHORT_LENGTHS[-1], 0)
    )
    if kind == "recursion":
        return True
    if out is None:
        return False
    if isinstance(out, str):  # hashed: the match alone is over the limit
        return True
    whole = out["captures"][0]
    return whole.startswith("sha1:") and int(whole.rsplit(":", 1)[1]) >= 1000


def generate(seed=1909):
    import repro  # noqa: F401  (sets the matcher's recursion limit)
    from repro.regex.matcher import RegExp

    rng = random.Random(seed)
    patterns, skipped, deep = [], 0, 0
    for index, (pattern, flags, positives, negatives) in enumerate(
        _patterns()
    ):
        examples, matching = _examples(
            pattern, flags, positives, negatives, rng
        )
        regexp = RegExp(pattern, flags)
        compiled = _python_regex(pattern, flags)
        if compiled is not None and not _agrees(regexp, compiled, examples):
            compiled = None
        cells = []
        for slot, length in enumerate(SHORT_LENGTHS):
            method = METHODS[(index + slot) % len(METHODS)]
            variants = _variants(regexp, method, examples, length, rng,
                                 compiled)
            skipped += VARIANTS - len(variants)
            if variants:
                cells.append({"method": method, "length": length,
                              "words": "examples", "variants": variants})
        if (compiled is not None and matching and deep < LONG_PATTERNS
                and _goes_deep(regexp, matching)):
            deep += 1
            for length in LONG_LENGTHS:
                variants = _variants(regexp, "exec", matching, length, rng,
                                     compiled, count=1)
                skipped += 1 - len(variants)
                if variants:
                    cells.append({"method": "exec", "length": length,
                                  "words": "positives",
                                  "variants": variants})
        patterns.append({
            "pattern": pattern, "flags": flags, "examples": examples,
            "positives": matching, "cells": cells,
        })
    for pattern, flags, subject in BACKTRACKING:
        regexp = RegExp(pattern, flags)
        kind, out, seconds = _outcome(regexp, "exec", subject)
        if kind != "ok" or seconds > MAX_CASE_S:
            raise SystemExit(f"resize backtracking case {pattern!r}: "
                             f"{kind} in {seconds:.2f} s")
        patterns.append({
            "pattern": pattern, "flags": flags, "examples": [subject],
            "positives": [], "cells": [{
                "method": "exec", "length": len(subject), "words": "examples",
                "variants": [{"length": len(subject), "subject": subject,
                              "expected": out, "source": "matcher"}],
            }],
        })
    return {"seed": seed, "variants": VARIANTS, "skipped_variants": skipped,
            "patterns": patterns}


if __name__ == "__main__":
    sys.path.insert(0, str(CASES_PATH.resolve().parent.parent / "src"))
    data = generate()
    CASES_PATH.write_text(json.dumps(data, sort_keys=True) + "\n")
    cells = sum(len(p["cells"]) for p in data["patterns"])
    print(f"wrote {CASES_PATH}: {len(data['patterns'])} patterns, "
          f"{cells} cells, {data['skipped_variants']} skipped variants")
