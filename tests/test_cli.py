"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main



_OBS_DEFAULTS = {
    "trace": None,
    "trace_format": "jsonl",
    "metrics_json": None,
    "slow_query_ms": None,
}
_FAULT_DEFAULTS = {
    "retry_max": 0,
    "retry_backoff_s": 0.25,
    "quarantine_after": None,
    "fault_plan": None,
}
_CACHE_DEFAULTS = {
    "automata_cache": None,
    "query_cache": None,
    "query_cache_max": None,
}
_POOL_CACHE_DEFAULTS = {
    "no_cache": False,
    "cache_size": 4096,
    "shared_cache": False,
}

#: Every subcommand's parsed namespace (minus ``fn``) given only its
#: required arguments.  Subcommands share option groups but not all of
#: their defaults: --max-tests 50/40, --time-budget 30/10,
#: --job-timeout 300/600 and -w 2/0 differ between them.
PARSED_DEFAULTS = {
    ("solve", "a"): {
        "command": "solve", "pattern": "a", "flags": "", "negate": False,
        "backend": None, **_CACHE_DEFAULTS, **_OBS_DEFAULTS,
    },
    ("exec", "a", "b"): {
        "command": "exec", "pattern": "a", "subject": "b", "flags": "",
    },
    ("analyze", "f.js"): {
        "command": "analyze", "file": "f.js", "level": "refined",
        "max_tests": 50, "time_budget": 30.0, "backend": None,
        **_CACHE_DEFAULTS, **_OBS_DEFAULTS,
    },
    ("batch",): {
        "command": "batch", "files": [], "survey": False, "packages": 200,
        "seed": 1909, "solve_cap": 48, "workers": 2, "job_timeout": 300.0,
        **_POOL_CACHE_DEFAULTS, "level": "refined", "max_tests": 40,
        "time_budget": 10.0, "backend": None, **_CACHE_DEFAULTS,
        "dedup": False, "json": None, **_FAULT_DEFAULTS, **_OBS_DEFAULTS,
    },
    ("fuzz",): {
        "command": "fuzz", "pairs": 50, "seed": 1909, "backend": None,
        "oracle_backend": None, "solver_timeout": 2.0, "artifacts": None,
        "artifacts_max": None, "on_disagreement": "collect",
        "no_shrink": False, "fail_on_find": False, "workers": 0,
        "shards": None, "job_timeout": 600.0, **_CACHE_DEFAULTS,
        "json": None, **_FAULT_DEFAULTS, **_OBS_DEFAULTS,
    },
    ("serve",): {
        "command": "serve", "socket": None, "host": "127.0.0.1",
        "port": None, "workers": 2, "job_timeout": 300.0,
        **_POOL_CACHE_DEFAULTS, **_CACHE_DEFAULTS, "session_idle_s": None,
        "max_queue": 128, "max_inflight": None, "no_single_flight": False,
        "cluster": False, "heartbeat_s": 2.0, "heartbeat_miss": 3,
        **_FAULT_DEFAULTS, **_OBS_DEFAULTS,
    },
    ("worker", "--join", "S"): {
        "command": "worker", "join": "S", "capacity": 1, "workers": 0,
        "worker_id": None, "job_timeout": 300.0, "automata_cache": None,
        "query_cache": None, "no_remote_cache": False, **_FAULT_DEFAULTS,
    },
    ("submit",): {
        "command": "submit", "files": [], "socket": None,
        "host": "127.0.0.1", "port": None, "timeout": 300.0, "wait": False,
        "stream": False, "stats": False, "health": False, "level": "refined",
        "max_tests": 40, "time_budget": 10.0, "backend": None,
        "wait_on_overload": 0.0, "json": None,
    },
    ("survey",): {"command": "survey", "packages": 4000, "seed": 1909},
    ("smtlib", "a"): {
        "command": "smtlib", "pattern": "a", "flags": "", "negate": False,
    },
    ("dot", "a"): {"command": "dot", "pattern": "a", "flags": ""},
}


@pytest.mark.parametrize(
    "argv", list(PARSED_DEFAULTS), ids=lambda argv: argv[0]
)
def test_parsed_defaults(argv):
    parsed = vars(build_parser().parse_args(list(argv)))
    parsed.pop("fn")
    assert parsed == PARSED_DEFAULTS[argv]



class TestSolveCommand:
    def test_solve_matching(self, capsys):
        assert main(["solve", r"(a+)b"]) == 0
        out = capsys.readouterr().out
        assert "input:" in out and "C1" in out

    def test_solve_negated(self, capsys):
        assert main(["solve", "^a+$", "--negate"]) == 0
        assert "input:" in capsys.readouterr().out

    def test_solve_unsat(self, capsys):
        assert main(["solve", "^(?=b)a$"]) == 1

    def test_solve_with_portfolio_backend(self, capsys):
        # smtlib degrades to UNKNOWN without a binary; native still wins.
        assert main(
            ["solve", r"(a+)b", "--backend", "portfolio:native+smtlib"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend: portfolio:native+smtlib" in out
        assert "input:" in out

    def test_solve_with_cached_backend(self, capsys):
        assert main(["solve", "^a+$", "--negate",
                     "--backend", "cached:native"]) == 0
        assert "input:" in capsys.readouterr().out

    def test_solve_with_bad_backend_spec(self, capsys):
        assert main(["solve", "a", "--backend", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown solver backend" in err

    def test_solve_with_route_backend(self, capsys):
        # Works fully without any SMT binary (classical → native).
        assert main(["solve", r"(a+)b", "--backend", "route:z3"]) == 0
        out = capsys.readouterr().out
        assert "input:" in out and "C1" in out

    def test_solve_with_query_cache(self, tmp_path, capsys):
        store = tmp_path / "queries"
        argv = ["solve", "^a+b$", "--query-cache", str(store)]
        assert main(argv) == 0
        assert any(store.rglob("*.qry"))
        assert main(argv) == 0  # warm run replays the stored answer
        assert "input:" in capsys.readouterr().out

    def test_analyze_with_bad_backend_spec(self, tmp_path, capsys):
        program = tmp_path / "p.js"
        program.write_text("var x = 1;\n")
        assert main(
            ["analyze", str(program), "--backend", "native?nope=1"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestExecCommand:
    def test_match(self, capsys):
        assert main(["exec", r"(\d+)", "abc123"]) == 0
        out = capsys.readouterr().out
        assert "match at 3" in out and "'123'" in out

    def test_no_match(self, capsys):
        assert main(["exec", "z", "abc"]) == 1

    def test_flags(self, capsys):
        assert main(["exec", "ABC", "xabcx", "-f", "i"]) == 0


class TestAnalyzeCommand:
    def test_finds_bug(self, tmp_path, capsys):
        program = tmp_path / "prog.js"
        program.write_text(
            'var s = symbol("s", "");\n'
            'if (s === "boom") { assert(false, "found"); }\n'
        )
        code = main(["analyze", str(program), "--max-tests", "10"])
        out = capsys.readouterr().out
        assert code == 2
        assert "found" in out and "coverage" in out

    def test_clean_program(self, tmp_path, capsys):
        program = tmp_path / "ok.js"
        program.write_text("var x = 1 + 2;\n")
        assert main(["analyze", str(program)]) == 0

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.js"
        assert main(["analyze", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("analyze: cannot read ")
        assert str(missing) in err


class TestBatchCommand:
    def test_batch_files_with_workers(self, tmp_path, capsys):
        a = tmp_path / "a.js"
        a.write_text(
            'var s = symbol("s", "");\n'
            'if (/^a+$/.test(s)) { 1; } else { 2; }\n'
        )
        b = tmp_path / "b.js"
        b.write_text('var t = symbol("t", "");\nif (t === "k") { 1; }\n')
        code = main(
            [
                "batch", str(a), str(b),
                "--workers", "2", "--max-tests", "6",
                "--time-budget", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 ok" in out
        assert "query cache:" in out
        assert "a.js" in out and "b.js" in out

    def test_batch_survey_inline_with_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "batch", "--survey", "-n", "40", "--workers", "0",
                "--solve-cap", "8", "--json", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Total Regex" in out
        assert "solved" in out
        import json

        spec = json.loads(out_path.read_text())
        assert spec["statuses"] == {"ok": len(spec["results"])}

    def test_batch_without_input_errors(self, capsys):
        assert main(["batch"]) == 2

    def test_batch_query_cache_persists_across_invocations(
        self, tmp_path, capsys
    ):
        store = tmp_path / "queries"
        argv = [
            "batch", "--survey", "-n", "30", "--workers", "0",
            "--solve-cap", "6", "--query-cache", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert any(store.rglob("*.qry"))  # the store was populated
        assert main(argv) == 0  # warm invocation replays from disk
        out = capsys.readouterr().out
        assert "0 misses" in out

    def test_batch_with_routed_backend(self, capsys):
        code = main(
            [
                "batch", "--survey", "-n", "30", "--workers", "0",
                "--solve-cap", "6", "--backend", "cached:route:z3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Query routing" in out
        assert "cached:route:z3" in out

    def test_batch_with_session_backend_degrades(self, capsys):
        # No z3 binary: every session query answers UNKNOWN, jobs still
        # complete (found=False), and the batch exits cleanly.
        code = main(
            [
                "batch", "--survey", "-n", "20", "--workers", "0",
                "--solve-cap", "4", "--backend", "session:z3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "session:z3" in out

    def test_batch_with_backend_spec(self, tmp_path, capsys):
        program = tmp_path / "p.js"
        program.write_text(
            'var s = symbol("s", "");\n'
            'if (/^ab?$/.test(s)) { 1; } else { 2; }\n'
        )
        code = main(
            [
                "batch", str(program),
                "--workers", "0", "--max-tests", "6",
                "--time-budget", "5", "--backend", "cached:native",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Solver backends" in out
        assert "cached:native" in out


class TestFaultPlanFlag:
    """A bad --fault-plan is one usage error, not a traceback per worker."""

    BAD_PLANS = {
        "malformed-json": '{"rules": [',
        "bad-action": '{"rules": [{"site": "worker:job", '
        '"action": "explode"}]}',
        "unknown-key": '{"rules": [{"site": "worker:job", '
        '"action": "kill", "nht": 2}]}',
    }
    COMMANDS = {
        "batch": ["batch", "--survey", "-n", "5", "--workers", "0"],
        "fuzz": ["fuzz", "-n", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unreadable_plan(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        argv = self.COMMANDS[command] + ["--fault-plan", str(missing)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --fault-plan: cannot read ")
        assert str(missing) in captured.err
        assert "jobs:" not in captured.out  # nothing ran

    @pytest.mark.parametrize("plan", sorted(BAD_PLANS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_invalid_plan(self, command, plan, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(self.BAD_PLANS[plan])
        argv = self.COMMANDS[command] + ["--fault-plan", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --fault-plan {path}: ")
        assert "jobs:" not in captured.out

    def test_valid_plan_still_runs(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"rules": [{"site": "worker:job", '
                        '"action": "delay", "delay_s": 0.0}]}')
        argv = self.COMMANDS["batch"] + ["--fault-plan", str(path)]
        assert main(argv) == 0
        assert "jobs:" in capsys.readouterr().out


class TestSurveyCommand:
    def test_small_survey(self, capsys):
        assert main(["survey", "-n", "120"]) == 0
        out = capsys.readouterr().out
        assert "with capture groups" in out and "Backreferences" in out


class TestSmtlibCommand:
    def test_prints_script(self, capsys):
        assert main(["smtlib", "a+b"]) == 0
        out = capsys.readouterr().out
        assert "(set-logic QF_S)" in out and "(check-sat)" in out

    def test_negated(self, capsys):
        assert main(["smtlib", "a", "--negate"]) == 0
        assert "str.in_re" in capsys.readouterr().out


class TestDotCommand:
    def test_prints_digraph(self, capsys):
        assert main(["dot", "(ab|c)*"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "doublecircle" in out
