"""Journal replay edge cases: kill/resume equivalence, config-change
invalidation, quarantined-cache resume, double-resume idempotency, and a
real ``os._exit`` kill driven through the ``repro build`` CLI.

The invariant under test everywhere: a kill-then-resume pair produces an
artifact tree byte-identical (modulo the volatile ``timing.json``) to an
uninterrupted run — and a *changed* configuration never reuses journal
state, it rebuilds cleanly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.kernels import build_fig4_flow_inputs
from repro.dsl import emit_dsl
from repro.flow import (
    CacheIntegrityWarning,
    FlowConfig,
    RunJournal,
    all_sites,
    materialize,
    resume_flow,
    run_flow,
    verify_workspace,
)
from repro.flow import crashpoints
from repro.flow.crashpoints import CRASH_EXIT_CODE, CrashPlan, armed, crashpoint
from repro.util.errors import FlowInterrupted, ReproError

SIZE = 32


@pytest.fixture(scope="module")
def inputs():
    return build_fig4_flow_inputs(SIZE)


@pytest.fixture(scope="module")
def reference(inputs, tmp_path_factory):
    """Uninterrupted run of the same design: the ground-truth artifacts."""
    graph, sources, directives = inputs
    tmp = tmp_path_factory.mktemp("reference")
    flow = run_flow(
        graph, sources, extra_directives=directives,
        config=FlowConfig(cache_dir=str(tmp / "cache")),
    )
    materialize(flow, tmp / "out")
    return artifact_digest(tmp / "out")


def artifact_digest(out: Path) -> str:
    return json.loads((out / "MANIFEST.json").read_text())["artifact_digest"]


def crash_then_resume(inputs, workdir, site, *, resume_directives=None,
                      resume_config=None):
    """Arm *site*, run until killed, then resume; returns the resumed flow."""
    graph, sources, directives = inputs
    config = FlowConfig(cache_dir=str(workdir / "cache"))
    journal = RunJournal(workdir / "journal")
    interrupted = False
    try:
        with armed(CrashPlan(site)):
            flow = run_flow(
                graph, sources, extra_directives=directives,
                config=config, journal=journal,
            )
            materialize(flow, workdir / "out", journal=journal)
    except FlowInterrupted as exc:
        interrupted = True
        assert exc.step == site
    resumed = resume_flow(
        graph, sources,
        extra_directives=directives if resume_directives is None else resume_directives,
        config=resume_config or config, journal=journal,
    )
    materialize(resumed, workdir / "out", journal=journal)
    journal.close()
    return resumed, interrupted


def fig4_sites():
    graph, _, _ = build_fig4_flow_inputs(SIZE)
    return all_sites([n.name for n in graph.nodes])


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("site", fig4_sites())
    def test_byte_identical_after_resume(self, inputs, reference, tmp_path, site):
        resumed, interrupted = crash_then_resume(inputs, tmp_path, site)
        assert artifact_digest(tmp_path / "out") == reference
        if interrupted:
            assert resumed.timing.resumed
        assert verify_workspace(tmp_path / "out").ok

    def test_resume_skips_committed_hls_steps(self, inputs, reference, tmp_path):
        # Killing at integration means every per-core HLS step committed;
        # the resume must serve all four from journal + cache.
        resumed, interrupted = crash_then_resume(inputs, tmp_path, "integrate:start")
        assert interrupted
        t = resumed.timing
        assert t.resumed and t.steps_skipped >= 4
        assert t.crash_recoveries >= 1  # the interrupted integrate step
        assert artifact_digest(tmp_path / "out") == reference

    def test_uninterrupted_journaled_run_not_marked_resumed(self, inputs, tmp_path):
        graph, sources, directives = inputs
        with RunJournal(tmp_path / "journal") as journal:
            flow = run_flow(
                graph, sources, extra_directives=directives,
                config=FlowConfig(cache_dir=str(tmp_path / "cache")),
                journal=journal,
            )
        assert not flow.timing.resumed
        assert flow.timing.crash_recoveries == 0


class TestConfigChangeInvalidatesJournal:
    def test_check_tcl_change_forces_clean_rebuild(self, inputs, reference, tmp_path):
        graph, sources, directives = inputs
        checked = FlowConfig(cache_dir=str(tmp_path / "cache"))
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("hls:GAUSS:commit")):
                run_flow(
                    graph, sources, extra_directives=directives,
                    config=checked, journal=journal,
                )
        # Same cache, same journal file — but a different check_tcl setting
        # is a different run digest, so the journal is discarded, not replayed.
        unchecked = FlowConfig(cache_dir=str(tmp_path / "cache"), check_tcl=False)
        resumed = resume_flow(
            graph, sources, extra_directives=directives,
            config=unchecked, journal=journal,
        )
        materialize(resumed, tmp_path / "out", journal=journal)
        journal.close()
        assert not resumed.timing.resumed  # clean rebuild, no stale reuse
        assert resumed.timing.crash_recoveries == 0
        assert artifact_digest(tmp_path / "out") == reference  # still correct

    def test_cache_dir_change_forces_clean_rebuild(self, inputs, tmp_path):
        graph, sources, directives = inputs
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("integrate:start")):
                run_flow(
                    graph, sources, extra_directives=directives,
                    config=FlowConfig(cache_dir=str(tmp_path / "cache-a")),
                    journal=journal,
                )
        resumed = resume_flow(
            graph, sources, extra_directives=directives,
            config=FlowConfig(cache_dir=str(tmp_path / "cache-b")),
            journal=journal,
        )
        journal.close()
        assert not resumed.timing.resumed
        # The new cache dir was really used: cold cache, four fresh builds.
        assert resumed.timing.cache_misses >= 4

    def test_directive_change_rebuilds_not_stale_reuse(self, inputs, reference, tmp_path):
        from repro.hls.interfaces import unroll

        graph, sources, directives = inputs
        changed = {k: list(v) for k, v in directives.items()}
        changed.setdefault("GAUSS", []).append(unroll("GAUSS", "i", 4))

        resumed, interrupted = crash_then_resume(
            inputs, tmp_path, "hls:EDGE:commit", resume_directives=changed
        )
        assert interrupted
        assert not resumed.timing.resumed  # journal digest covers directives
        fresh_dir = tmp_path / "fresh"
        fresh = run_flow(
            graph, sources, extra_directives=changed,
            config=FlowConfig(cache_dir=str(fresh_dir / "cache")),
        )
        materialize(fresh, fresh_dir / "out")
        assert artifact_digest(tmp_path / "out") == artifact_digest(fresh_dir / "out")
        assert artifact_digest(tmp_path / "out") != reference


class TestQuarantinedCacheResume:
    def test_resume_over_corrupted_cache_entry(self, inputs, reference, tmp_path):
        graph, sources, directives = inputs
        config = FlowConfig(cache_dir=str(tmp_path / "cache"))
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("integrate:start")):
                run_flow(
                    graph, sources, extra_directives=directives,
                    config=config, journal=journal,
                )
        # All four HLS entries are on disk and journal-committed.  Corrupt
        # one: the resume must quarantine it and rebuild that core rather
        # than serving bad bytes or failing.
        entry = sorted((tmp_path / "cache" / "objects").glob("*/*"))[0]
        entry.write_bytes(entry.read_bytes()[:16])
        with pytest.warns(CacheIntegrityWarning):
            resumed = resume_flow(
                graph, sources, extra_directives=directives,
                config=config, journal=journal,
            )
        materialize(resumed, tmp_path / "out", journal=journal)
        journal.close()
        assert resumed.timing.resumed
        assert list((tmp_path / "cache" / "quarantine").glob("*"))
        assert artifact_digest(tmp_path / "out") == reference


class TestDoubleResume:
    def test_double_resume_is_idempotent(self, inputs, reference, tmp_path):
        graph, sources, directives = inputs
        config = FlowConfig(cache_dir=str(tmp_path / "cache"))

        first, interrupted = crash_then_resume(inputs, tmp_path, "swgen:start")
        assert interrupted and first.timing.resumed
        assert artifact_digest(tmp_path / "out") == reference

        # Resuming an already-complete run must be a pure no-op replay:
        # every step served from journal/cache, nothing recovered, and the
        # promoted tree untouched on disk.
        marker = tmp_path / "out" / "hls" / "repro_cells.v"
        mtime = marker.stat().st_mtime_ns
        journal = RunJournal(tmp_path / "journal")
        second = resume_flow(
            graph, sources, extra_directives=directives,
            config=config, journal=journal,
        )
        materialize(second, tmp_path / "out", journal=journal)
        journal.close()
        assert second.timing.resumed
        assert second.timing.crash_recoveries == 0
        assert second.timing.steps_skipped >= 5  # 4 HLS cores + materialize
        assert artifact_digest(tmp_path / "out") == reference
        assert marker.stat().st_mtime_ns == mtime


class TestCrashEnvironment:
    """A typo in the kill harness's variables must not arm another crash."""

    def test_well_formed_variables_arm_the_named_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CRASH_AT", "integrate:commit@2")
        monkeypatch.setenv("REPRO_FLOW_CRASH_MODE", "kill")
        assert crashpoints._env_plan() == CrashPlan("integrate:commit", 2, "kill")
        monkeypatch.setenv("REPRO_FLOW_CRASH_AT", "swgen:start")
        monkeypatch.delenv("REPRO_FLOW_CRASH_MODE")
        assert crashpoints._env_plan() == CrashPlan("swgen:start", 1, "raise")

    def test_unarmed_visit_parses_no_variable(self, monkeypatch):
        """Only a set ``REPRO_FLOW_CRASH_AT`` makes a visit parse the
        variables; setting it in-process arms the very next visit."""
        parsed = []
        monkeypatch.setattr(crashpoints, "_env_plan", lambda: parsed.append(1))
        monkeypatch.delenv("REPRO_FLOW_CRASH_AT", raising=False)
        monkeypatch.setenv("REPRO_FLOW_CRASH_MODE", "kill")
        crashpoint("hls:EDGE:start")
        assert parsed == []
        monkeypatch.setenv("REPRO_FLOW_CRASH_AT", "integrate:commit")
        crashpoint("hls:EDGE:start")
        assert parsed == [1]

    @pytest.mark.parametrize("mode", ["kil", "EXIT", "sigkill"])
    def test_unknown_mode_is_rejected(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_FLOW_CRASH_AT", "integrate:commit")
        monkeypatch.setenv("REPRO_FLOW_CRASH_MODE", mode)
        with pytest.raises(ReproError, match=f"REPRO_FLOW_CRASH_MODE='{mode}'") as info:
            crashpoint("hls:EDGE:start")
        assert not isinstance(info.value, FlowInterrupted)

    @pytest.mark.parametrize("spec", ["integrate:commit@x", "integrate:commit@0",
                                      "integrate:commit@", "integrate:commit@-1"])
    def test_malformed_hit_count_is_rejected(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_FLOW_CRASH_AT", spec)
        monkeypatch.delenv("REPRO_FLOW_CRASH_MODE", raising=False)
        with pytest.raises(ReproError, match="REPRO_FLOW_CRASH_AT") as info:
            crashpoint("hls:EDGE:start")
        assert spec in str(info.value)
        assert not isinstance(info.value, FlowInterrupted)


class TestRealKillViaCli:
    """Hard ``os._exit`` kill of ``repro build``, resumed by the CLI."""

    @pytest.fixture()
    def project(self, inputs, tmp_path):
        graph, sources, _ = inputs
        (tmp_path / "design.tg").write_text(emit_dsl(graph))
        srcdir = tmp_path / "src"
        srcdir.mkdir()
        for name, text in sources.items():
            (srcdir / f"{name}.c").write_text(text)
        return tmp_path

    def run_build(self, project, *extra, crash_at=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop("REPRO_FLOW_CRASH_AT", None)
        env.pop("REPRO_FLOW_CRASH_MODE", None)
        # A shared cache from the environment would serve the cores and
        # skip the crash-point; each build keeps its own <out>.cache.
        env.pop("REPRO_FLOW_CACHE_DIR", None)
        if crash_at:
            env["REPRO_FLOW_CRASH_AT"] = crash_at
            env["REPRO_FLOW_CRASH_MODE"] = "exit"
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "build", "design.tg",
                "--sources", "src", "--out", "out", *extra,
            ],
            cwd=project, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_kill_resume_matches_clean_build(self, project):
        killed = self.run_build(project, crash_at="hls:EDGE:commit")
        assert killed.returncode == CRASH_EXIT_CODE
        assert not (project / "out" / "MANIFEST.json").exists()

        resumed = self.run_build(project, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from" in resumed.stdout
        assert verify_workspace(project / "out").ok

        clean = self.run_build(project, "--out", "out-clean")
        assert clean.returncode == 0, clean.stderr
        assert artifact_digest(project / "out") == artifact_digest(
            project / "out-clean"
        )

    def test_fresh_build_ignores_stale_journal(self, project):
        killed = self.run_build(project, crash_at="integrate:start")
        assert killed.returncode == CRASH_EXIT_CODE
        # Without --resume the CLI discards the journal and starts clean.
        fresh = self.run_build(project)
        assert fresh.returncode == 0, fresh.stderr
        assert "resumed from" not in fresh.stdout
        assert verify_workspace(project / "out").ok
