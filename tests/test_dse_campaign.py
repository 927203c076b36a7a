"""Tests for the DSE search space, campaign runner, and cache routing."""

import json

import pytest

from repro.apps.otsu.app import ARCHITECTURES, buildable_hw_sets
from repro.dse import (
    CampaignConfig,
    Candidate,
    dse_flow_config,
    evaluate_candidate,
    frontier_dominates,
    otsu_directives_space,
    otsu_space,
    run_campaign,
    sdsoc_baseline_candidate,
)
from repro.dse.campaign import _read_journal, campaign_digest
from repro.dse.space import Axis, SearchSpace, actors_of
from repro.hls import fncache
from repro.sim.burst import PhaseMemo
from repro.util.errors import ReproError


def small_space():
    """A 5-candidate slice of the real space — fast enough for CI."""
    return otsu_space(
        hw_sets=[frozenset(), frozenset({"histogram"})],
        name="otsu-small",
    )


class TestSpace:
    def test_full_space_shape(self):
        space = otsu_space()
        cands = space.candidates()
        # 1 canonical all-software point + every (partition, PIPELINE
        # subset over instantiated actors, DMA policy) combination.
        assert len(cands) == 63
        cids = [c.cid for c in cands]
        assert len(set(cids)) == len(cids)

    def test_enumeration_and_digest_deterministic(self):
        a, b = otsu_space(), otsu_space()
        assert [c.cid for c in a] == [c.cid for c in b]
        assert a.digest() == b.digest()

    def test_directives_space_pins_partition(self):
        space = otsu_directives_space()
        cands = space.candidates()
        assert len(cands) == 8  # 2^3 PIPELINE subsets
        assert len({c.get("hw") for c in cands}) == 1
        assert all(c.get("dma") == "paired" for c in cands)

    def test_candidate_roundtrip_and_cid_stability(self):
        for c in small_space():
            again = Candidate.from_dict(json.loads(json.dumps(c.as_dict())))
            assert again == c
            assert again.cid == c.cid
        # cid ignores key order.
        a = Candidate.make({"x": 1, "y": (2, 3)})
        b = Candidate.make({"y": [2, 3], "x": 1})
        assert a.cid == b.cid

    def test_all_sw_candidate_is_canonical(self):
        allsw = [c for c in otsu_space() if not c.get("hw")]
        assert len(allsw) == 1
        assert allsw[0].get("dma") == "paired"
        assert allsw[0].get("pipelined") == ()

    def test_pipelined_constrained_to_instantiated_actors(self):
        for c in otsu_space():
            assert set(c.get("pipelined")) <= set(actors_of(c.get("hw")))

    def test_frozenset_values_normalize(self):
        a = Candidate.make({"hw": frozenset({"b", "a"})})
        b = Candidate.make({"hw": ("a", "b")})
        assert a == b and a.cid == b.cid
        assert a.label() == "hw=a+b"
        assert Candidate.make({"hw": ()}).label() == "hw=none"
        assert a.get("missing", "x") == "x"

    def test_axis_validation(self):
        with pytest.raises(ReproError):
            Axis("empty", ())
        with pytest.raises(ReproError):
            Axis("dup", (1, 1))
        with pytest.raises(ReproError):
            SearchSpace("s", (Axis("a", (1,)), Axis("a", (2,))))
        space = small_space()
        assert space.axis("dma").values == ("paired", "per-stream")
        with pytest.raises(ReproError):
            space.axis("nope")
        with pytest.raises(ReproError):
            otsu_space(pipeline_mode="bogus")


class TestFlowConfigRouting:
    """The satellite fix: no evaluation may spawn a private cold store."""

    def test_pins_jobs_and_whole_core_cache(self, monkeypatch, tmp_path):
        # Env defaults must not leak into DSE evaluations: a CI job that
        # exports a shared whole-core cache would let candidates bypass
        # the per-function memo entirely.
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", str(tmp_path / "whole"))
        cfg = dse_flow_config(fn_cache_dir=str(tmp_path / "fn"))
        assert cfg.jobs == 1
        assert cfg.cache_dir is None
        assert cfg.fn_cache_dir == str(tmp_path / "fn")
        assert not cfg.integration.one_dma_per_stream
        assert dse_flow_config(one_dma_per_stream=True).integration.one_dma_per_stream

    def test_workers_share_one_persistent_store(self, tmp_path):
        fn_dir = tmp_path / "fn"
        space = otsu_directives_space()
        first, second = space.candidates()[:2]
        a = evaluate_candidate(first, fn_cache_dir=str(fn_dir))
        assert a.fn_cache_misses > 0
        # A different directive config over the same sources must reuse
        # the store the first evaluation populated (frontend memo).
        b = evaluate_candidate(second, fn_cache_dir=str(fn_dir))
        assert b.fn_cache_hits > 0
        # One store on disk, at the configured root.
        assert fn_dir.is_dir()
        stats = fncache.cache_at(fn_dir).stats
        assert stats.hits + stats.misses >= a.fn_cache_misses + b.fn_cache_hits


class TestCampaign:
    def test_serial_vs_parallel_byte_identical(self, tmp_path):
        space = small_space()
        r1 = run_campaign(
            CampaignConfig(
                space=space,
                fn_cache_dir=str(tmp_path / "fn"),
                journal_path=str(tmp_path / "serial.jsonl"),
            )
        )
        rn = run_campaign(
            CampaignConfig(
                space=space,
                jobs=3,
                fn_cache_dir=str(tmp_path / "fn"),
                journal_path=str(tmp_path / "parallel.jsonl"),
            )
        )
        assert r1.digest == rn.digest
        assert r1.frontier_json() == rn.frontier_json()
        assert r1.completed and rn.completed
        assert len(r1.points) == len(space)

    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        space = small_space()
        fn_dir = str(tmp_path / "fn")
        whole = run_campaign(
            CampaignConfig(
                space=space,
                fn_cache_dir=fn_dir,
                journal_path=str(tmp_path / "whole.jsonl"),
            )
        )
        journal = str(tmp_path / "killed.jsonl")
        killed = run_campaign(
            CampaignConfig(
                space=space, fn_cache_dir=fn_dir, journal_path=journal,
                stop_after=2,
            )
        )
        assert not killed.completed and killed.evaluated == 2
        resumed = run_campaign(
            CampaignConfig(
                space=space, fn_cache_dir=fn_dir, journal_path=journal,
                resume=True,
            )
        )
        assert resumed.completed
        assert resumed.resumed == 2
        assert resumed.evaluated == len(space) - 2
        assert resumed.digest == whole.digest
        assert resumed.frontier_json() == whole.frontier_json()

    def test_resume_tolerates_torn_tail(self, tmp_path):
        space = small_space()
        journal = tmp_path / "torn.jsonl"

        def run(**kw):
            return run_campaign(
                CampaignConfig(
                    space=space,
                    fn_cache_dir=str(tmp_path / "fn"),
                    journal_path=str(journal),
                    **kw,
                )
            )

        killed = run(stop_after=2)
        with journal.open("a") as fh:
            fh.write('{"kind": "point", "cid": "tr')  # mid-write kill
        resumed = run(resume=True, stop_after=2)
        assert resumed.resumed == killed.evaluated
        assert resumed.evaluated == 2
        # The points appended after the tear start on their own lines,
        # so the next resume sees all of them.
        final = run(resume=True)
        assert final.resumed == killed.evaluated + resumed.evaluated
        assert final.evaluated == len(space) - final.resumed
        assert final.completed

    def test_resume_rejects_foreign_journal(self, tmp_path):
        journal = tmp_path / "foreign.jsonl"
        run_campaign(
            CampaignConfig(
                space=otsu_directives_space(),
                fn_cache_dir=str(tmp_path / "fn"),
                journal_path=str(journal),
                stop_after=1,
            )
        )
        with pytest.raises(ReproError, match="different campaign"):
            run_campaign(
                CampaignConfig(
                    space=small_space(),
                    fn_cache_dir=str(tmp_path / "fn"),
                    journal_path=str(journal),
                    resume=True,
                )
            )
        with pytest.raises(ReproError, match="no campaign header"):
            headerless = tmp_path / "empty.jsonl"
            headerless.write_text("")
            _read_journal(headerless, "whatever")

    def test_identity_excludes_execution_knobs(self, tmp_path):
        space = small_space()
        base = CampaignConfig(space=space)
        assert base.identity() == CampaignConfig(
            space=space,
            jobs=8,
            fn_cache_dir=str(tmp_path / "elsewhere"),
            journal_path=str(tmp_path / "j.jsonl"),
            stop_after=1,
        ).identity()
        assert base.identity() != CampaignConfig(space=space, width=8).identity()
        assert campaign_digest("id", []) == campaign_digest("id", [])

    def test_directives_sweep_fn_cache_hit_rate(self, tmp_path):
        # The ROADMAP rung this PR closes: a directives-only sweep keeps
        # every C source byte-identical, so the shared per-function
        # store must serve at least half of all lookups even from cold.
        fn_dir = str(tmp_path / "fn")
        result = run_campaign(
            CampaignConfig(
                space=otsu_directives_space(),
                fn_cache_dir=fn_dir,
                journal_path=str(tmp_path / "d.jsonl"),
            )
        )
        assert result.completed
        assert result.fn_cache_hit_rate >= 0.5
        # Cross-checked against the FunctionCache's own counters.
        stats = fncache.cache_at(fn_dir).stats
        assert stats.hits == result.fn_cache_hits
        assert stats.misses == result.fn_cache_misses

    def test_frontier_dominates_sdsoc_baseline(self, tmp_path):
        fn_dir = str(tmp_path / "fn")
        result = run_campaign(
            CampaignConfig(
                space=otsu_space(
                    hw_sets=[
                        frozenset(),
                        frozenset(
                            {"grayScale", "histogram", "otsuMethod", "binarization"}
                        ),
                    ],
                    name="otsu-baseline-slice",
                ),
                fn_cache_dir=fn_dir,
                journal_path=str(tmp_path / "b.jsonl"),
            )
        )
        baseline = evaluate_candidate(
            sdsoc_baseline_candidate(), fn_cache_dir=fn_dir
        )
        assert baseline.candidate == sdsoc_baseline_candidate()
        assert baseline.dma_cells > 0
        assert frontier_dominates(result.front, baseline)
        report = result.frontier_report(baseline=baseline)
        assert report["baseline_dominated"] is True
        assert report["points_evaluated"] == len(result.points)


def arch4_candidate(pipelined):
    """Arch4 with PIPELINE on *pipelined* only (one directive-sweep point)."""
    hw = tuple(sorted(ARCHITECTURES[4]))
    return Candidate.make(
        {"hw": hw, "pipelined": tuple(sorted(pipelined)), "dma": "paired",
         "hp_words": 2}
    )


def pipelined_label(point):
    return "+".join(point.candidate.get("pipelined")) or "none"


class TestDirectiveSweep:
    """The PIPELINE sweep over Arch4, run through the campaign engine."""

    def test_single_config(self):
        none = evaluate_candidate(arch4_candidate(()), width=16, height=16)
        piped = evaluate_candidate(
            arch4_candidate(("grayScale", "computeHistogram", "segment")),
            width=16,
            height=16,
        )
        assert none.correct and piped.correct
        assert piped.cycles < none.cycles  # pipelining pays at system level

    def test_unknown_actor_rejected(self):
        with pytest.raises(ReproError, match="pipelineable"):
            evaluate_candidate(arch4_candidate(("halfProbability",)))

    def test_uninstantiated_actor_rejected(self):
        # A buildable partition without binarization has no segment core
        # to pipeline; the directive must not be dropped silently.
        hw = ("grayScale", "histogram")
        assert frozenset(hw) in buildable_hw_sets()
        cand = Candidate.make(
            {"hw": hw, "pipelined": ("segment",), "dma": "paired",
             "hp_words": 2}
        )
        with pytest.raises(ReproError, match="pipelineable"):
            evaluate_candidate(cand, width=8, height=8)

    def test_full_sweep_monotone_in_best_case(self):
        result = run_campaign(
            CampaignConfig(space=otsu_directives_space(), width=16, height=16)
        )
        points = result.points
        assert len(points) == 8
        by_label = {pipelined_label(p): p for p in points}
        full = by_label["computeHistogram+grayScale+segment"]
        none = by_label["none"]
        assert full.cycles < none.cycles
        # Every configuration produced the right image.
        assert all(p.correct for p in points)
        # A campaign point is exactly the evaluate_candidate point.
        alone = evaluate_candidate(
            arch4_candidate(("grayScale", "computeHistogram", "segment")),
            width=16,
            height=16,
        )
        assert alone.record() == full.record()


class TestPhaseMemo:
    """One memo per campaign; every candidate's simulation is unchanged."""

    @pytest.fixture(autouse=True)
    def _burst_on(self, monkeypatch):
        # The memo serves the burst path only (REPRO_SIM_BURST=0 skips it).
        monkeypatch.delenv("REPRO_SIM_BURST", raising=False)

    def test_otsu_space_differential(self, monkeypatch):
        import repro.dse.evaluate as evaluate

        reports = {}
        inner = evaluate.simulate_application
        current = {}

        def spy(*args, **kwargs):
            report = inner(*args, **kwargs)
            reports[current["run"], current["cid"]] = report
            return report

        monkeypatch.setattr(evaluate, "simulate_application", spy)
        cands = sorted(otsu_space(), key=lambda c: c.cid)
        memos = {"forward": PhaseMemo(), "reverse": PhaseMemo()}
        for run, order, memo in (
            ("none", cands, None),
            ("forward", cands, memos["forward"]),
            ("reverse", cands[::-1], memos["reverse"]),
        ):
            for cand in order:
                current.update(run=run, cid=cand.cid)
                evaluate_candidate(cand, width=8, height=8, phase_memo=memo)

        def replay_phases(run):
            return sum(
                reports[run, c.cid].burst_stats["replay_phases"] for c in cands
            )

        for cand in cands:
            ref = reports["none", cand.cid]
            for run in memos:
                got = reports[run, cand.cid]
                assert got.digest() == ref.digest(), (run, cand.label())
                assert got.cycles == ref.cycles
                assert got.channel_stats == ref.channel_stats
                assert got.hp_words == ref.hp_words
                assert got.burst_stats["word_phases"] == 0
        for memo in memos.values():
            assert memo.hits >= 1
        assert replay_phases("forward") < replay_phases("none")
        assert replay_phases("reverse") < replay_phases("none")

    def test_memo_does_not_outlive_a_campaign(self):
        config = CampaignConfig(space=small_space(), width=8, height=8)
        first, second = run_campaign(config), run_campaign(config)
        assert first.memo_hits > 0
        assert second.memo_hits == first.memo_hits
        assert second.digest == first.digest
        assert sum(p.memo_hits for p in first.points) == first.memo_hits
        # Order-dependent, so kept out of the journal and the digest.
        assert all("memo_hits" not in p.record() for p in first.points)
