"""Conformance fuzzing: generator, oracle, triage, store, job, serve.

The pinned honest-stack corpus (seed 1909) is the suite's soundness
trip-wire: the concrete matcher and the native solver must agree on
every generated pair, under the oracle's direction-aware rules.  The
``planted:`` backend — deliberately unsound, flips SAT to UNSAT when
the pinned word contains ``q`` — exercises the whole find → shrink →
dedupe → persist → report pipeline against a known bug.
"""

import json
import os

import pytest

from repro.conformance import (
    ArtifactStore,
    DifferentialOracle,
    DisagreementArtifact,
    NotADisagreement,
    TriagePipeline,
    artifact_fingerprint,
    coverage_summary,
    generate_pairs,
    register_planted_backend,
    shrink_disagreement,
)
from repro.conformance.oracle import MATCH, NOMATCH, UNDECIDED
from repro.regex.matcher import RegExp
from repro.solver.backends import make_backend
from repro.solver.backends.base import (
    BackendDisagreement,
    BackendError,
    SolverBackend,
)
from repro.solver.core import SAT, UNKNOWN, UNSAT, SolverResult
from repro.solver.stats import SolverStats

#: One oracle timeout for the whole suite — generous enough that the
#: pinned corpus never times out, small enough to keep the suite quick.
TIMEOUT = 1.0


# -- generator ----------------------------------------------------------------


class TestGenerator:
    def test_deterministic_in_seed(self):
        assert generate_pairs(10, seed=3) == generate_pairs(10, seed=3)
        assert generate_pairs(10, seed=3) != generate_pairs(10, seed=4)

    def test_offset_sharding_is_exact(self):
        whole = generate_pairs(15, seed=5)
        sharded = (
            generate_pairs(6, seed=5, offset=0)
            + generate_pairs(6, seed=5, offset=6)
            + generate_pairs(3, seed=5, offset=12)
        )
        assert whole == sharded

    def test_patterns_are_valid(self):
        for pair in generate_pairs(30, seed=11):
            RegExp(pair.pattern, pair.flags)  # must not raise

    def test_inputs_are_bounded_and_meta_free(self):
        from repro.model.preprocess import META_END, META_START

        for pair in generate_pairs(30, seed=11):
            assert pair.inputs
            for word in pair.inputs:
                assert len(word) <= 12
                assert META_START not in word and META_END not in word

    def test_coverage_weighted_toward_hard_features(self):
        summary = coverage_summary(generate_pairs(40, seed=1909))
        assert summary["pairs"] == 40
        for feature in (
            "sticky",
            "unicode",
            "named_groups",
            "backrefs",
            "lookaheads",
            "corpus",
        ):
            assert summary[feature] > 0, feature


# -- oracle -------------------------------------------------------------------


class _FixedBackend(SolverBackend):
    """Answers every query with one fixed status (oracle stubs)."""

    def __init__(self, status, name="fixed"):
        super().__init__(None)
        self.status = status
        self.name = name

    def solve(self, formula):
        return SolverResult(self.status)


class TestOracle:
    def test_honest_pinned_corpus_never_disagrees(self):
        """The seed-1909 corpus: matcher and native solver agree."""
        oracle = DifferentialOracle(["native"], timeout=TIMEOUT)
        for pair in generate_pairs(10, seed=1909):
            oracle.check_pair(pair)
        assert oracle.counters["checks"] > 20
        assert oracle.counters["disagreements"] == 0

    def test_sticky_unicode_named_and_matchall_features(self):
        """Hand-picked feature triples: verdicts line up both ways."""
        from repro.regex.methods import match_all

        oracle = DifferentialOracle(["native"], timeout=TIMEOUT)
        cases = [
            ("(?<w>a+)b", "", "aab"),  # named group, matching
            ("(?<w>a+)b", "", "abc"),  # named group, matching prefix
            (r"(ab)\1", "", "abab"),  # backreference
            (r"(ab)\1", "", "abxb"),  # backreference, no match
            ("a.", "y", "ab"),  # sticky anchors at index 0
            ("b.", "y", "ab"),  # sticky miss (b not at 0)
            ("ab", "u", "ab"),  # unicode mode
            ("a|q", "iu", "Q"),  # case folding under u
        ]
        for pattern, flags, word in cases:
            outcome = oracle.check(pattern, flags, word)
            assert outcome is not None, (pattern, flags, word)
            assert outcome.disagreement is None, outcome
            expected = MATCH if RegExp(pattern, flags).exec(
                word
            ) is not None else NOMATCH
            assert outcome.verdicts["matcher"] == expected
        # matchAll end-to-end: every substring matchAll yields is a
        # word the oracle's membership check must also call a match.
        regexp = RegExp("(?<w>a+)", "g")
        found = [m[0] for m in match_all(regexp, "aa b aaa")]
        assert found == ["aa", "aaa"]
        for word in found:
            outcome = oracle.check("^(?<w>a+)$", "", word)
            assert outcome.verdicts["matcher"] == MATCH
            assert outcome.disagreement is None

    def test_planted_backend_disagrees_on_trigger(self):
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT
        )
        outcome = oracle.check("q", "", "q")
        assert outcome.disagreement is not None
        assert outcome.disagreement.members == ("native", "planted")
        assert outcome.verdicts["native"] == MATCH
        assert outcome.verdicts["planted"] == NOMATCH
        # No trigger character: the planted backend behaves honestly.
        clean = oracle.check("a", "", "a")
        assert clean.disagreement is None

    def test_planted_spec_typos_fail_at_spec_time(self):
        register_planted_backend()
        for spec in (
            "planted:?timeout=abc",
            "planted:?trigger=abc",
            "planted:?timeout=nan",
            "planted:?frobnicate=1",
        ):
            with pytest.raises(BackendError):
                make_backend(spec)
        assert make_backend("planted:?trigger=120").trigger == "x"

    def test_unknown_is_tolerated(self):
        oracle = DifferentialOracle(
            ["native", _FixedBackend(UNKNOWN, "mute")], timeout=TIMEOUT
        )
        outcome = oracle.check("a", "", "a")
        assert outcome.disagreement is None
        assert outcome.verdicts["mute"] == UNDECIDED
        assert oracle.counters["disagreements"] == 0

    def test_matcher_match_vs_backend_unsat_always_flags(self):
        """The completeness direction holds in *every* fragment —
        even lookaround patterns, where the formula over-approximates."""
        oracle = DifferentialOracle(
            [_FixedBackend(UNSAT, "refuter")], timeout=TIMEOUT
        )
        outcome = oracle.check("a(?=b)", "", "ab")  # really matches
        assert outcome.disagreement is not None
        assert outcome.disagreement.members == ("matcher", "refuter")

    def test_overapprox_sat_tolerated_outside_exact_fragment(self):
        """matcher=nomatch + backend=SAT on a lookaround pattern is the
        documented over-approximation, not a disagreement."""
        oracle = DifferentialOracle(
            [_FixedBackend(SAT, "eager")], timeout=TIMEOUT
        )
        outcome = oracle.check("a(?=b)", "", "ax")  # no real match
        assert outcome.disagreement is None
        assert oracle.counters["tolerated_overapprox"] == 1
        # ... but in the exact fragment (no lookarounds) it flags.
        outcome = oracle.check("ab", "", "ax")
        assert outcome.disagreement is not None
        assert outcome.disagreement.members == ("eager", "matcher")

    def test_stats_tally_disagreements(self):
        stats = SolverStats()
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT, stats=stats
        )
        oracle.check("q", "", "q")
        assert stats.disagreement_summary() == {"native|planted": 1}


# -- shrinker -----------------------------------------------------------------


class TestShrinker:
    def test_shrinks_to_minimal_reproducer(self):
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT
        )
        pattern, flags, word, steps = shrink_disagreement(
            oracle.disagrees, "(a|q)+", "i", "aqa"
        )
        assert steps > 0
        # The planted bug keys on 'q' in the word alone, so the minimal
        # witness is the empty pattern on the bare trigger character.
        assert (pattern, flags, word) == ("", "", "q")
        assert oracle.disagrees(pattern, flags, word)

    def test_every_accepted_step_still_disagrees(self):
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT
        )
        pattern, flags, word, _ = shrink_disagreement(
            oracle.disagrees, "(?<g>q+)x?", "", "qq"
        )
        assert oracle.disagrees(pattern, flags, word)
        assert len(word) <= 2 and "q" in word

    def test_refuses_to_shrink_healthy_triples(self):
        oracle = DifferentialOracle(["native"], timeout=TIMEOUT)
        with pytest.raises(NotADisagreement):
            shrink_disagreement(oracle.disagrees, "a", "", "a")


# -- artifact store -----------------------------------------------------------


def _artifact(pattern="", flags="", word="q", **kwargs):
    return DisagreementArtifact(
        fingerprint=artifact_fingerprint(pattern, flags, word),
        pattern=pattern,
        flags=flags,
        word=word,
        **kwargs,
    )


class TestArtifactStore:
    def test_fingerprint_normalizes_flag_order(self):
        assert artifact_fingerprint("a", "gy", "x") == artifact_fingerprint(
            "a", "yg", "x"
        )
        assert artifact_fingerprint("a", "g", "x") != artifact_fingerprint(
            "a", "y", "x"
        )

    def test_record_dedupes_by_fingerprint(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "art"))
        assert store.record(_artifact()) == "new"
        assert store.record(_artifact()) == "dup"
        assert store.record(_artifact()) == "dup"
        assert len(store) == 1
        loaded = store.get(artifact_fingerprint("", "", "q"))
        assert loaded.hits == 3
        assert store.counters()["dup_hits"] == 2

    def test_corrupt_entries_are_evicted(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "art"))
        store.record(_artifact())
        entry = os.path.join(
            store.path, artifact_fingerprint("", "", "q") + ".json"
        )
        with open(entry, "w") as handle:
            handle.write('{"truncat')
        assert store.get(artifact_fingerprint("", "", "q")) is None
        assert not os.path.exists(entry)
        assert store.counters()["corrupt_evictions"] == 1
        # The next record rebuilds the entry from scratch.
        assert store.record(_artifact()) == "new"

    def test_gc_caps_the_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "art"), max_entries=4)
        for i in range(8):
            store.record(_artifact(word=f"w{i}"))
        assert len(store) <= 4
        assert store.counters()["evictions"] > 0

    def test_flood_of_one_bug_leaves_one_file(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "art"), max_entries=4)
        for _ in range(50):
            store.record(_artifact())
        assert len(store) == 1
        assert store.counters()["dup_hits"] == 49


# -- triage pipeline ----------------------------------------------------------


class TestTriagePipeline:
    def test_capture_shrink_dedupe_persist(self, tmp_path):
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT
        )
        store = ArtifactStore(str(tmp_path / "art"))
        triage = TriagePipeline(oracle, store)
        first = oracle.check("(a|q)+", "", "aq").disagreement
        second = oracle.check("qb?", "", "q").disagreement
        r1 = triage.handle(first)
        r2 = triage.handle(second)
        assert r1.status == "new"
        # Both shrink to the same minimal witness → one deduped entry.
        assert r2.status == "dup"
        assert r1.artifact.fingerprint == r2.artifact.fingerprint
        assert len(store) == 1
        assert r1.artifact.origin_pattern == "(a|q)+"
        assert r1.artifact.shrink_steps > 0

    def test_unstored_without_a_store(self):
        oracle = DifferentialOracle(
            ["native", "planted:"], timeout=TIMEOUT
        )
        triage = TriagePipeline(oracle, None, shrink=False)
        result = triage.handle(oracle.check("q", "", "q").disagreement)
        assert result.status == "unstored"
        assert result.artifact.shrink_steps == 0


# -- portfolio collect mode ---------------------------------------------------


class TestPortfolioDisagreement:
    def _portfolio(self, mode, sink=None):
        from repro.solver.backends.portfolio import PortfolioBackend

        stats = SolverStats()
        backend = PortfolioBackend(
            [_FixedBackend(SAT, "yes"), _FixedBackend(UNSAT, "no")],
            stats=stats,
            on_disagreement=mode,
            disagreement_sink=sink,
        )
        return backend, stats

    def _formula(self):
        from repro.constraints import Eq, StrConst, StrVar

        return Eq(StrVar("x"), StrConst("v"))

    def test_raise_mode_is_structured(self):
        backend, _ = self._portfolio("raise")
        with pytest.raises(BackendDisagreement) as exc:
            backend.solve(self._formula())
        detail = exc.value
        assert set(detail.members) == {"yes", "no"}
        assert set(detail.statuses) == {"sat", "unsat"}
        assert detail.fingerprint
        payload = detail.payload()
        assert payload["members"] and payload["fingerprint"]

    def test_collect_mode_resolves_and_tallies(self):
        seen = []
        backend, stats = self._portfolio(
            "collect", sink=lambda formula, detail: seen.append(detail)
        )
        result = backend.solve(self._formula())
        # Neither member is native-backed: first definitive answer wins.
        assert result.status in (SAT, UNSAT)
        assert sum(stats.disagreement_summary().values()) == 1
        assert len(seen) == 1
        assert seen[0].fingerprint

    def test_collect_mode_prefers_native_backed_member(self):
        from repro.solver.backends.native import NativeBackend
        from repro.solver.backends.portfolio import PortfolioBackend

        backend = PortfolioBackend(
            [_FixedBackend(UNSAT, "liar"), NativeBackend(timeout=TIMEOUT)],
            on_disagreement="collect",
        )
        from repro.constraints import Eq, StrConst, StrVar

        # x = "v" is trivially SAT; the liar says UNSAT.  Collect mode
        # must side with the native member's sound answer.
        result = backend.solve(Eq(StrVar("x"), StrConst("v")))
        assert result.status == SAT

    def test_broken_sink_never_crashes_the_race(self):
        def bad_sink(formula, detail):
            raise RuntimeError("recorder down")

        backend, stats = self._portfolio("collect", sink=bad_sink)
        result = backend.solve(self._formula())
        assert result.status in (SAT, UNSAT)
        assert sum(stats.disagreement_summary().values()) == 1


# -- the fuzz job -------------------------------------------------------------


class TestFuzzJob:
    def _planted_job(self, tmp_path, **kwargs):
        from repro.service.jobs import FuzzJob

        defaults = dict(
            job_id="fuzz-t",
            budget=6,
            seed=7,
            oracle_backends=["native", "planted:"],
            solver_timeout=TIMEOUT,
            artifact_dir=str(tmp_path / "art"),
        )
        defaults.update(kwargs)
        return FuzzJob(**defaults)

    def test_planted_campaign_yields_one_deduped_artifact(
        self, tmp_path
    ):
        result = self._planted_job(tmp_path).run()
        assert result.status == "ok"
        p = result.payload
        assert p["disagreements"] > 0
        assert p["artifacts_new"] == 1
        assert p["artifacts_dup"] >= 1
        assert len(p["unique_fingerprints"]) == 1
        assert p["disagreement_tallies"] == {
            "native|planted": p["disagreements"]
        }
        assert p["artifact_store"]["entries"] == 1
        store = ArtifactStore(str(tmp_path / "art"))
        (artifact,) = store.load_all()
        assert (artifact.pattern, artifact.flags, artifact.word) == (
            "",
            "",
            "q",
        )
        assert artifact.hits == p["artifacts_dup"] + 1

    def test_honest_campaign_stays_clean(self):
        from repro.service.jobs import FuzzJob

        result = FuzzJob(
            job_id="fuzz-h", budget=6, seed=1909, solver_timeout=TIMEOUT
        ).run()
        assert result.status == "ok"
        assert result.payload["disagreements"] == 0
        assert result.payload["artifacts_new"] == 0
        assert result.payload["disagreement_tallies"] == {}
        assert result.payload["checks"] > 0

    def test_raise_mode_fails_the_job(self, tmp_path):
        result = self._planted_job(
            tmp_path, budget=4, on_disagreement="raise", shrink=False
        ).run()
        assert result.status == "error"
        assert "BackendDisagreement" in result.error

    def test_spec_round_trip_and_dedup_key(self, tmp_path):
        from repro.service.jobs import job_from_spec

        job = self._planted_job(tmp_path)
        clone = job_from_spec(
            json.loads(json.dumps(job.to_spec()))
        )
        assert clone.to_spec() == job.to_spec()
        assert clone.dedup_key() == job.dedup_key()
        other = self._planted_job(tmp_path, seed=8)
        assert other.dedup_key() != job.dedup_key()

    def test_workload_shards_cover_the_exact_budget(self):
        from repro.service.jobs import fuzz_workload

        jobs = fuzz_workload(budget=20, seed=5, shards=3)
        assert sum(j.budget for j in jobs) == 20
        whole = generate_pairs(20, seed=5)
        sharded = []
        for job in jobs:
            sharded.extend(
                generate_pairs(job.budget, seed=job.seed, offset=job.offset)
            )
        assert sharded == whole

    def test_soundness_table_in_batch_report(self, tmp_path):
        from repro.service import BatchReport, format_batch_report

        result = self._planted_job(tmp_path).run()
        report = format_batch_report(BatchReport(results=[result]))
        assert "== Soundness (conformance)" in report
        assert "native|planted" in report

    def test_clean_report_says_so(self):
        from repro.service import BatchReport, format_batch_report
        from repro.service.jobs import FuzzJob

        result = FuzzJob(
            job_id="fuzz-c", budget=3, seed=1909, solver_timeout=TIMEOUT
        ).run()
        report = format_batch_report(BatchReport(results=[result]))
        assert "no backend disagreements recorded" in report


# -- through the serve daemon -------------------------------------------------


class TestFuzzThroughServe:
    def test_fuzz_job_over_the_socket(self, tmp_path):
        from serve_testing import start_daemon, stop_started

        from repro.serve.client import ServeClient

        server, sock = start_daemon(tmp_path)
        try:
            client = ServeClient(socket_path=sock, timeout=60.0)
            try:
                ack = client.submit(
                    {
                        "kind": "fuzz",
                        "job_id": "fuzz-serve",
                        "budget": 3,
                        "seed": 7,
                        "oracle_backends": ["native", "planted:"],
                        "solver_timeout": TIMEOUT,
                        "artifact_dir": str(tmp_path / "art"),
                    }
                )
                result = client.wait_result(ack["id"])
            finally:
                client.close()
            assert result.status == "ok"
            assert result.payload["checks"] > 0
            assert result.payload["artifacts_new"] in (0, 1)
        finally:
            stop_started()
