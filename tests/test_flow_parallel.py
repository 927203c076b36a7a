"""Differential proof: the content-addressed build cache is
artifact-equivalent to an uncached build.

The headline claim of the build engine is *equivalence*: for any task
graph, ``FlowConfig(cache_dir=...)`` — cold or warm — must produce
byte-identical tcl scripts, address maps, bitstream digests, per-core
artifacts and software sources to the uncached default.  The corpus is
the four Table I architectures plus random graphs from the generator
behind ``test_end_to_end_random.py``.

Also here: the fault-injection suite (a failing synthesis names its
core and leaves no cache entry or journal commit behind).
"""

import pytest

from repro.apps.generator import random_task_graph
from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import build_otsu_app
from repro.flow import BuildCache, FlowConfig, RunJournal, run_flow
from repro.hls.project import HlsProject
from repro.util.errors import FlowError

#: Explicit uncached reference — immune to the REPRO_FLOW_CACHE_DIR env.
SERIAL = FlowConfig(cache_dir=None)
SERIAL_UNCHECKED = FlowConfig(cache_dir=None, check_tcl=False)


def fingerprint(flow) -> dict:
    """Every byte-level artifact that must match across build engines."""
    return {
        "dsl": flow.dsl_text,
        "system_tcl": flow.system_tcl.render(),
        "address_map": flow.design.address_map.render(),
        "bitstream": flow.bitstream.digest,
        "diagram": flow.design.to_diagram(),
        "core_order": list(flow.cores),
        "cores": {
            name: (
                build.hls_tcl.render(),
                build.directives_tcl,
                build.result.verilog,
                build.result.report.render(),
                build.key,
            )
            for name, build in flow.cores.items()
        },
        "sw": dict(flow.image.sources),
        "manifest": flow.image.boot.manifest(),
        "dts": flow.image.boot.dts,
    }


class TestTable1Differential:
    """Uncached vs cached, cold and warm, over Arch1-4."""

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_arch_serial_parallel_cold_warm(self, arch, tmp_path):
        app = build_otsu_app(arch, width=16, height=16)
        kwargs = dict(extra_directives=app.extra_directives)
        serial = run_flow(app.dsl_graph(), app.c_sources, config=SERIAL, **kwargs)
        cached = FlowConfig(cache_dir=str(tmp_path))
        cold = run_flow(app.dsl_graph(), app.c_sources, config=cached, **kwargs)
        warm = run_flow(app.dsl_graph(), app.c_sources, config=cached, **kwargs)

        reference = fingerprint(serial)
        assert fingerprint(cold) == reference
        assert fingerprint(warm) == reference

        n = len(serial.cores)
        assert cold.timing.cache_hits == 0 and cold.timing.cache_misses == n
        assert warm.timing.cache_hits == n and warm.timing.cache_misses == 0
        assert all(b.reused for b in warm.cores.values())
        # Warm cache pays no HLS: modeled build time strictly below cold.
        assert warm.timing.total_s < serial.timing.total_s

    def test_all_archs_share_one_cache(self, tmp_path):
        """A single cache over all four archs reuses cores across archs
        exactly as the paper's by-name scheme did — but content-verified."""
        cache = BuildCache(tmp_path)
        hits = misses = 0
        for arch in (4, 1, 2, 3):
            app = build_otsu_app(arch, width=16, height=16)
            flow = run_flow(
                app.dsl_graph(),
                app.c_sources,
                extra_directives=app.extra_directives,
                config=FlowConfig(cache_dir=None),
                build_cache=cache,
            )
            hits += flow.timing.cache_hits
            misses += flow.timing.cache_misses
        # Arch4 synthesizes all four cores; Arch1-3's cores all hit.
        assert misses == 4
        assert hits == sum(
            len(build_otsu_app(a, width=16, height=16).dsl_graph().nodes)
            for a in (1, 2, 3)
        )


def _random_inputs(seed: int):
    """Vary the graph shape with the seed so the corpus is not uniform."""
    return random_task_graph(
        lite_nodes=seed % 3,
        stream_chains=1 + seed % 2,
        chain_length=2 + (seed // 2) % 2,
        stream_depth=8,
        seed=seed,
    )


class TestRandomGraphDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_serial_parallel_cold_warm(self, seed, tmp_path):
        graph, sources = _random_inputs(seed)
        serial = run_flow(graph, sources, config=SERIAL_UNCHECKED)
        cached = FlowConfig(cache_dir=str(tmp_path), check_tcl=False)
        cold = run_flow(graph, sources, config=cached)
        warm = run_flow(graph, sources, config=cached)

        reference = fingerprint(serial)
        assert fingerprint(cold) == reference
        assert fingerprint(warm) == reference
        assert warm.timing.cache_hits == len(serial.cores)
        assert warm.timing.total_s < serial.timing.total_s

    def test_dsl_text_roundtrip_parallel(self, tmp_path):
        """Text and graph entry points agree on the cached path too."""
        from repro.dsl import emit_dsl

        graph, sources = _random_inputs(7)
        cached = FlowConfig(cache_dir=str(tmp_path), check_tcl=False)
        via_graph = run_flow(graph, sources, config=cached)
        via_text = run_flow(emit_dsl(graph), sources, config=cached)
        assert fingerprint(via_text) == fingerprint(via_graph)


class TestFaultInjection:
    """A failing core fails the flow cleanly: FlowError names the core,
    and neither a cache entry nor a journal commit is written for it."""

    @pytest.fixture
    def inputs(self):
        return build_fig4_flow_inputs(64)

    def _patch_csynth(self, monkeypatch, behaviour):
        real = HlsProject.csynth

        def fake(self, **kwargs):
            hook = behaviour.get(self.name)
            if hook is not None:
                hook(self)
            return real(self, **kwargs)

        monkeypatch.setattr(HlsProject, "csynth", fake)

    def test_raising_core_fails_flow_with_name(self, inputs, monkeypatch, tmp_path):
        graph, sources, directives = inputs

        def boom(project):
            raise RuntimeError("scheduler exploded")

        self._patch_csynth(monkeypatch, {"GAUSS": boom})
        cache = BuildCache(tmp_path / "cache")
        with RunJournal(tmp_path / "journal") as journal:
            with pytest.raises(FlowError, match="'GAUSS'") as info:
                run_flow(
                    graph,
                    sources,
                    extra_directives=directives,
                    config=FlowConfig(cache_dir=None),
                    build_cache=cache,
                    journal=journal,
                )
            committed = journal.committed_steps
        assert isinstance(info.value.__cause__, RuntimeError)
        # No partial entry for the failing core: its content key is absent
        # from the cache and its HLS step was never committed.
        failing_key = (
            HlsProject("GAUSS")
            .add_files(sources["GAUSS"])
            .set_top("GAUSS")
            .content_key(FlowConfig().backend.version)
        )
        assert failing_key not in cache
        assert "hls:GAUSS" not in committed

    def test_failure_deterministic_first_in_declaration_order(
        self, inputs, monkeypatch
    ):
        graph, sources, directives = inputs

        def boom(project):
            raise RuntimeError("boom")

        # Both MUL and GAUSS fail; MUL is declared first, so the error
        # must name MUL on every run.
        self._patch_csynth(monkeypatch, {"MUL": boom, "GAUSS": boom})
        for _ in range(3):
            with pytest.raises(FlowError, match="'MUL'"):
                run_flow(
                    graph,
                    sources,
                    extra_directives=directives,
                    config=FlowConfig(cache_dir=None),
                )

    def test_repro_errors_pass_through_unwrapped(self, inputs, monkeypatch):
        from repro.util.errors import HlsError

        graph, sources, directives = inputs

        def reject(project):
            raise HlsError("unsupported construct")

        self._patch_csynth(monkeypatch, {"GAUSS": reject})
        with pytest.raises(HlsError, match="unsupported construct"):
            run_flow(
                graph,
                sources,
                extra_directives=directives,
                config=FlowConfig(cache_dir=None),
            )


class TestEngineConfig:
    def test_env_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", str(tmp_path))
        config = FlowConfig()
        assert config.cache_dir == str(tmp_path)

    def test_worker_pool_rejected(self):
        with pytest.raises(FlowError, match="jobs"):
            FlowConfig(jobs=2)

    def test_corrupted_cache_entry_rebuilt_in_flow(self, tmp_path):
        """End-to-end: a corrupted entry is rebuilt, artifacts unharmed."""
        graph, sources, directives = build_fig4_flow_inputs(64)
        cached = FlowConfig(cache_dir=str(tmp_path), check_tcl=False)
        first = run_flow(graph, sources, extra_directives=directives, config=cached)
        for entry in (tmp_path / "objects").rglob("*"):
            if entry.is_file():
                entry.write_bytes(entry.read_bytes()[:40])  # truncate all
        again = run_flow(graph, sources, extra_directives=directives, config=cached)
        assert again.bitstream.digest == first.bitstream.digest
        assert again.timing.cache_hits == 0  # nothing served from bad bytes
        assert not any(b.reused for b in again.cores.values())
