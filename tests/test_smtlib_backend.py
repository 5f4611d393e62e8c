"""Tests for the SMT-LIB subprocess backend and the printer round trip.

No real z3/cvc5 is assumed: subprocess plumbing is exercised with fake
solver executables (shell scripts printing canned SMT-LIB output), and
everything else must degrade to UNKNOWN — never crash, never lie.
"""

import os
import stat
import sys
import textwrap

import pytest

from repro.automata.build import erase_captures
from repro.constraints import Eq, InRe, Not, StrConst, StrVar, conj
from repro.constraints.printer import _string_literal, to_smtlib
from repro.constraints.terms import Concat, UNDEF, Undef
from repro.regex import parse_regex
from repro.solver import SAT, UNKNOWN, UNSAT
from repro.solver.backends import SmtLibBackend, make_backend
from repro.solver.backends.smtlib import (
    build_model,
    parse_solver_output,
    unescape_smtlib_string,
)


def membership(pattern: str, var_name: str = "x"):
    node = erase_captures(parse_regex(pattern, "").body)
    return InRe(StrVar(var_name), node)


def fake_solver(tmp_path, stdout: str, name: str = "fakesolver"):
    """Create an executable that ignores its input and prints ``stdout``."""
    path = tmp_path / name
    path.write_text("#!/bin/sh\ncat <<'SMTEOF'\n" + stdout + "\nSMTEOF\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestStringLiteralEscaping:
    """Satellite: SMT-LIB 2.6 ``\\u{...}`` escaping, round-tripped."""

    CASES = [
        "",
        "plain ascii",
        'quote " inside',
        "back\\slash",
        "\\u{41}",  # literal text that *looks* like an escape
        "tab\tnewline\nbell\x07",
        "unicode: é π 🎉",
        "\x00\x1f\x7f",
    ]

    @pytest.mark.parametrize("value", CASES)
    def test_round_trip_through_model_parser(self, value):
        literal = _string_literal(value)
        assert literal.startswith('"') and literal.endswith('"')
        assert unescape_smtlib_string(literal[1:-1]) == value

    def test_backslash_is_never_printed_raw(self):
        # A raw backslash before 'u' would be re-read as an escape.
        assert "\\" not in _string_literal("a\\ub").replace("\\u{5c}", "")

    def test_control_and_non_ascii_use_brace_form(self):
        assert _string_literal("\n") == '"\\u{a}"'
        assert _string_literal("é") == '"\\u{e9}"'

    def test_four_hex_legacy_form_also_parses(self):
        assert unescape_smtlib_string("\\u0041") == "A"


class TestScriptRendering:
    def test_guarded_script_carries_def_guards(self):
        x = StrVar("x")
        script = to_smtlib(
            conj([membership("a+b"), Eq(x, StrConst("ab"))]),
            guarded=True,
            get_values=True,
        )
        assert "(set-option :produce-models true)" in script
        assert "(and x.def (str.in_re x " in script
        assert "(and x.def (= x " in script
        assert "(get-value (x x.def))" in script

    def test_unguarded_script_is_unchanged_for_inspection(self):
        script = to_smtlib(membership("a+b"))
        assert "x.def (str.in_re" not in script
        assert script.endswith("(check-sat)")

    def test_guarded_concat_equality_guards_all_vars(self):
        x, y = StrVar("x"), StrVar("y")
        body = to_smtlib(
            Eq(Concat((x, y)), StrConst("ab")), declare=False, guarded=True
        )
        assert body.startswith("(and x.def y.def (= (str.++ x y)")

    def test_undef_equality_still_def_aware(self):
        x = StrVar("x")
        assert (
            to_smtlib(Eq(x, Undef()), declare=False, guarded=True)
            == "(not x.def)"
        )


class TestOutputParsing:
    def test_verdict_and_values(self):
        status, values = parse_solver_output(
            'sat\n((x "ab")\n (x.def true)\n (|y!0| "")\n (|y!0.def| false))'
        )
        assert status == SAT
        assert values["x"] == "ab"
        assert values["x.def"] == "true"
        assert values["y!0.def"] == "false"

    def test_string_values_cannot_spoof_the_verdict(self):
        status, values = parse_solver_output('unsat\n((x "sat"))')
        assert status == UNSAT
        assert values["x"] == "sat"

    def test_errors_and_garbage_are_ignored(self):
        status, _ = parse_solver_output(
            '(error "model is not available")\nunknown\n<<<garbage'
        )
        assert status == UNKNOWN

    def test_parens_inside_strings_do_not_unbalance(self):
        status, values = parse_solver_output('sat\n((x "(("))')
        assert status == SAT
        assert values["x"] == "(("

    def test_build_model_maps_def_false_to_undef(self):
        x, y = StrVar("x"), StrVar("y")
        formula = conj([Eq(x, StrConst("ab")), Eq(y, Undef())])
        model = build_model(
            formula,
            {"x": "ab", "x.def": "true", "y": "", "y.def": "false"},
        )
        assert model[x] == "ab"
        assert model[y] is UNDEF


class TestSubprocessBackend:
    def test_missing_binary_degrades_to_unknown(self):
        backend = SmtLibBackend("no-such-solver-exists")
        result = backend.solve(membership("a+b"))
        assert result.status == UNKNOWN
        assert backend.last_error

    def test_sat_with_valid_model_is_accepted(self, tmp_path):
        cmd = fake_solver(
            tmp_path, 'sat\n((x "aab") (x.def true))'
        )
        backend = make_backend(f"smtlib:{cmd}")
        result = backend.solve(membership("a+b"))
        assert result.status == SAT
        assert result.model[StrVar("x")] == "aab"

    def test_sat_with_bogus_model_degrades_to_unknown(self, tmp_path):
        cmd = fake_solver(
            tmp_path, 'sat\n((x "zzz") (x.def true))'
        )
        backend = SmtLibBackend(cmd)
        result = backend.solve(membership("a+b"))
        assert result.status == UNKNOWN
        assert "re-validation" in backend.last_error

    def test_unsat_is_trusted(self, tmp_path):
        cmd = fake_solver(tmp_path, "unsat")
        backend = SmtLibBackend(cmd)
        assert backend.solve(membership("a+b")).status == UNSAT

    def test_unknown_and_garbage_degrade(self, tmp_path):
        for stdout in ("unknown", "segfault lol", ""):
            backend = SmtLibBackend(fake_solver(tmp_path, stdout))
            assert backend.solve(membership("a")).status == UNKNOWN

    def test_escaped_model_value_round_trips(self, tmp_path):
        # The fake solver answers with an escaped literal; the parsed
        # model must contain the decoded string.
        cmd = fake_solver(
            tmp_path, 'sat\n((x "a\\u{5c}b") (x.def true))'
        )
        backend = SmtLibBackend(cmd)
        formula = Eq(StrVar("x"), StrConst("a\\b"))
        result = backend.solve(formula)
        assert result.status == SAT
        assert result.model[StrVar("x")] == "a\\b"

    def test_nonclassical_fragment_degrades_before_subprocess(self, tmp_path):
        # Lookaheads have no classical SMT-LIB regex form; the backend
        # must bail out (UNKNOWN) without even invoking the binary.
        backend = SmtLibBackend(fake_solver(tmp_path, "sat"))
        formula = InRe(StrVar("x"), parse_regex("(?=a)a", "").body)
        assert backend.solve(formula).status == UNKNOWN
        assert "unprintable" in backend.last_error

    def test_tallies_recorded(self, tmp_path):
        from repro.solver import SolverStats

        stats = SolverStats()
        cmd = fake_solver(tmp_path, "unsat")
        backend = SmtLibBackend(cmd, stats=stats)
        backend.solve(membership("a"))
        name = f"smtlib:{cmd}"
        assert stats.backend_tallies[name].unsat == 1


#: A stand-in for a real solver binary: logs its argv, then answers
#: ``unsat`` — once for a one-shot script file, or per ``(check-sat)``
#: (echoing the sync markers) when started as an incremental session.
_ARGV_LOGGER = textwrap.dedent(
    """\
    #!{python}
    import re, sys
    with open({log!r}, "a") as log:
        log.write(" ".join(sys.argv[1:]) + "\\n")
    if "-in" not in sys.argv and "--incremental" not in sys.argv:
        print("unsat")
        sys.exit(0)
    for line in sys.stdin:
        line = line.strip()
        if line == "(check-sat)":
            print("unsat", flush=True)
        echo = re.match(r'\\(echo "(.*)"\\)', line)
        if echo:
            print(echo.group(1), flush=True)
    """
)


class TestSolverArgv:
    def test_known_solvers_get_their_flags_per_transport(
        self, tmp_path, monkeypatch
    ):
        """z3 and cvc5 on PATH receive the one-shot and the session
        flags of their own command-line dialect."""
        bindir = tmp_path / "bin"
        bindir.mkdir()
        for name in ("z3", "cvc5"):
            path = bindir / name
            path.write_text(
                _ARGV_LOGGER.format(
                    python=sys.executable, log=str(tmp_path / f"{name}.log")
                )
            )
            path.chmod(path.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv(
            "PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}"
        )
        for name in ("z3", "cvc5"):
            for spec in (
                f"smtlib:{name}?timeout=2.5",
                f"session:{name}?pooled=0&timeout=2.5",
            ):
                backend = make_backend(spec)
                assert backend.solve(membership("a+b")).status == UNSAT
                getattr(backend, "close", lambda: None)()
        argvs = {
            name: [
                line.split()
                for line in (tmp_path / f"{name}.log").read_text().splitlines()
            ]
            for name in ("z3", "cvc5")
        }
        (z3_one_shot, z3_session) = argvs["z3"]
        (cvc5_one_shot, cvc5_session) = argvs["cvc5"]
        assert z3_one_shot[:-1] == ["-smt2", "-T:3"]
        assert z3_one_shot[-1].endswith(".smt2")
        assert z3_session == ["-smt2", "-in", "-t:2500"]
        assert cvc5_one_shot[:-1] == [
            "--lang", "smt2", "--strings-exp", "--tlimit=2500",
        ]
        assert cvc5_one_shot[-1].endswith(".smt2")
        assert cvc5_session == [
            "--lang", "smt2", "--strings-exp", "--incremental",
            "--tlimit-per=2500",
        ]
