"""Tests for the flow orchestrator, baseline, GUI model and workspace."""

import numpy as np
import pytest

from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import build_otsu_app
from repro.flow import (
    FlowConfig,
    estimate_gui_seconds,
    materialize,
    run_flow,
    sdsoc_flow,
)
from repro.flow.buildcache import BuildCache
from repro.flow.orchestrator import FlowHooks
from repro.flow.timing import TimingModel
from repro.tcl.backends import Vivado2014_2
from repro.util.errors import FlowError


@pytest.fixture(scope="module")
def fig4_flow():
    graph, sources, directives = build_fig4_flow_inputs(64)
    return run_flow(graph, sources, extra_directives=directives)


class TestRunFlow:
    def test_produces_all_artifacts(self, fig4_flow):
        assert fig4_flow.bitstream.digest
        assert len(fig4_flow.cores) == 4
        assert fig4_flow.system_tcl.lines_of_code() > 20
        assert "MUL_accel.h" in fig4_flow.image.sources
        assert fig4_flow.timing.total_s > 0

    def test_accepts_dsl_text(self):
        graph, sources, directives = build_fig4_flow_inputs(64)
        from repro.dsl import emit_dsl

        text_result = run_flow(emit_dsl(graph), sources, extra_directives=directives)
        assert text_result.bitstream.digest

    def test_text_and_graph_agree(self, fig4_flow):
        graph, sources, directives = build_fig4_flow_inputs(64)
        from repro.dsl import emit_dsl

        other = run_flow(emit_dsl(graph), sources, extra_directives=directives)
        assert other.bitstream.digest == fig4_flow.bitstream.digest

    def test_missing_source_rejected(self):
        graph, sources, directives = build_fig4_flow_inputs(64)
        del sources["EDGE"]
        with pytest.raises(FlowError, match="no C source"):
            run_flow(graph, sources, extra_directives=directives)

    def test_core_cache_reuse(self, fig4_flow):
        graph, sources, directives = build_fig4_flow_inputs(64)
        cold = FlowConfig(cache_dir=None)
        store = BuildCache()
        run_flow(graph, sources, extra_directives=directives, config=cold,
                 build_cache=store)
        again = run_flow(graph, sources, extra_directives=directives, config=cold,
                         build_cache=store)
        assert all(build.reused for build in again.cores.values())
        assert again.timing.hls_s == 0.0
        assert again.bitstream.digest == fig4_flow.bitstream.digest

    def test_core_cache_same_name_different_directives_not_reused(self):
        """Regression: the core cache used to be keyed by function name
        alone, so two cores sharing a name but differing in directives
        silently aliased.  Reuse is now decided by content digest."""
        from repro.hls.interfaces import unroll

        graph, sources, directives = build_fig4_flow_inputs(64)
        cold = FlowConfig(cache_dir=None)
        store = BuildCache()
        first = run_flow(graph, sources, extra_directives=directives, config=cold,
                         build_cache=store)

        changed = {k: list(v) for k, v in directives.items()}
        changed.setdefault("GAUSS", []).append(unroll("GAUSS", "i", 4))
        second = run_flow(
            graph, sources, extra_directives=changed, config=cold,
            build_cache=store,
        )
        fresh = run_flow(graph, sources, extra_directives=changed, config=cold)

        # The colliding core is rebuilt, not served from the stale entry...
        assert not second.cores["GAUSS"].reused
        assert second.cores["GAUSS"].key != first.cores["GAUSS"].key
        assert (
            second.cores["GAUSS"].directives_tcl
            == fresh.cores["GAUSS"].directives_tcl
        )
        assert second.bitstream.digest == fresh.bitstream.digest
        # ...while content-identical cores still reuse (Section VI-B).
        assert second.cores["MUL"].reused and second.cores["EDGE"].reused

    def test_old_backend(self):
        graph, sources, directives = build_fig4_flow_inputs(64)
        result = run_flow(
            graph,
            sources,
            extra_directives=directives,
            config=FlowConfig(backend=Vivado2014_2()),
        )
        assert "startgroup" in result.system_tcl.render()

    def test_timing_anchors(self, fig4_flow):
        # Paper: ~6 s Scala compile, ~50 s project generation.
        assert 5.0 < fig4_flow.timing.scala_s < 8.0
        assert 40.0 < fig4_flow.timing.project_s < 65.0

    def test_broken_backend_caught_by_tcl_check(self):
        """A backend that emits a corrupted script cannot slip through:
        re-execution either fails or produces a different digest."""
        from repro.tcl.backends import Vivado2015_3
        from repro.util.errors import FlowError, TclError

        class BrokenBackend(Vivado2015_3):
            def connect(self, script, conn, kind):
                # Drop every clock connection from the script.
                from repro.soc.ip import PinKind

                if kind is PinKind.CLOCK_OUT:
                    return
                super().connect(script, conn, kind)

        graph, sources, directives = build_fig4_flow_inputs(64)
        with pytest.raises((FlowError, TclError, Exception)) as exc:
            run_flow(
                graph,
                sources,
                extra_directives=directives,
                config=FlowConfig(backend=BrokenBackend()),
            )
        # The DRC inside the tcl runner catches the undriven clocks.
        assert "undriven" in str(exc.value) or "reproduce" in str(exc.value)

    def test_hook_steps_follow_paper_order(self):
        graph, sources, directives = build_fig4_flow_inputs(64)
        hooks = FlowHooks(sources, extra_directives=directives)
        from repro.dsl import emit_dsl, parse_dsl

        parse_dsl(emit_dsl(graph), hooks=hooks)
        assert hooks.result is not None
        # All four cores synthesized during the nodes section.
        assert set(hooks.cores) == {"MUL", "ADD", "GAUSS", "EDGE"}


class TestSdsocBaseline:
    SRC = """
    void vecop(int a[32], int b[32], int out[32]) {
        for (int i = 0; i < 32; i++) out[i] = a[i] + b[i];
    }
    """

    def test_one_dma_per_parameter(self):
        result = sdsoc_flow({"vecop": self.SRC}, {"vecop"})
        assert result.dma_count == 3  # a, b, out

    def test_more_params_more_resources(self):
        two = """
        void f2(int a[32], int out[32]) {
            for (int i = 0; i < 32; i++) out[i] = a[i] * 2;
        }
        """
        four = """
        void f4(int a[32], int b[32], int c[32], int out[32]) {
            for (int i = 0; i < 32; i++) out[i] = a[i] + b[i] + c[i];
        }
        """
        r2 = sdsoc_flow({"f2": two}, {"f2"})
        r4 = sdsoc_flow({"f4": four}, {"f4"})
        assert r4.dma_count > r2.dma_count
        assert r4.resources.lut > r2.resources.lut
        assert r4.resources.bram18 > r2.resources.bram18

    def test_scalar_function_gets_lite(self):
        result = sdsoc_flow(
            {"s": "int s(int a) { return a * 3; }"}, {"s"}
        )
        assert result.dma_count == 0

    def test_missing_source(self):
        with pytest.raises(FlowError, match="without source"):
            sdsoc_flow({}, {"ghost"})


class TestGuiModel:
    def test_ps_setup_dominates_empty_design(self, fig4_flow):
        t = estimate_gui_seconds(fig4_flow.design)
        assert t > 48.0  # at least the measured PS-only time

    def test_gui_slower_than_tool(self, fig4_flow):
        """The discussion's point: the tool generates the project in
        ~50 s while the GUI route takes much longer."""
        gui = estimate_gui_seconds(fig4_flow.design)
        assert gui > fig4_flow.timing.project_s * 4


class TestWorkspace:
    def test_materialize_layout(self, fig4_flow, tmp_path):
        root = materialize(fig4_flow, tmp_path / "ws")
        assert (root / "taskgraph.tg").exists()
        assert (root / "hls" / "GAUSS" / "script.tcl").exists()
        assert (root / "hls" / "GAUSS" / "GAUSS.v").exists()
        assert (root / "hls" / "GAUSS" / "csynth.rpt").exists()
        assert (root / "vivado" / "system.tcl").exists()
        assert (root / "vivado" / "design.dot").exists()
        assert (root / "sw" / "MUL_accel.c").exists()
        assert (root / "sdcard" / "MANIFEST").exists()
        assert (root / "timing.json").exists()

    def test_materialized_dsl_reparses(self, fig4_flow, tmp_path):
        from repro.dsl import parse_dsl

        root = materialize(fig4_flow, tmp_path / "ws2")
        text = (root / "taskgraph.tg").read_text()
        assert parse_dsl(text) == fig4_flow.graph

    def test_csim_vectors_written_and_replayable(self, fig4_flow, tmp_path):
        import json

        import numpy as np

        root = materialize(fig4_flow, tmp_path / "wsv")
        path = root / "hls" / "GAUSS" / "csim_vectors.json"
        assert path.exists()
        vec = json.loads(path.read_text())
        stim = np.array(vec["inputs"]["in"], dtype=np.int32)
        out = np.zeros(len(stim), dtype=np.int32)
        fig4_flow.cores["GAUSS"].result.run(stim, out)
        assert out.tolist() == vec["outputs"]["out"]
        # Lite-only cores have no vectors.
        assert not (root / "hls" / "MUL" / "csim_vectors.json").exists()

    def test_bitstream_json(self, fig4_flow, tmp_path):
        import json

        root = materialize(fig4_flow, tmp_path / "ws3")
        data = json.loads((root / "vivado" / "bitstream.json").read_text())
        assert data["digest"] == fig4_flow.bitstream.digest


class TestTimingModel:
    def test_scales_with_design(self):
        model = TimingModel()
        from repro.apps.otsu import build_otsu_app

        small = build_otsu_app(1, width=8, height=8)
        big = build_otsu_app(4, width=8, height=8)
        # cache_dir=None: hls_s compares cold builds; a warm environment
        # cache (REPRO_FLOW_CACHE_DIR) would zero both sides.
        cold = FlowConfig(cache_dir=None)
        rs = run_flow(small.dsl_graph(), small.c_sources,
                      extra_directives=small.extra_directives, config=cold)
        rb = run_flow(big.dsl_graph(), big.c_sources,
                      extra_directives=big.extra_directives, config=cold)
        assert model.synthesis_s(rb.design) > model.synthesis_s(rs.design)
        assert rb.timing.hls_s > rs.timing.hls_s


class TestValidateOnce:
    """A flow validates its DSL graph once, in ``integrate``."""

    @staticmethod
    def count_validations(monkeypatch):
        """Route every module-level ``validate_graph`` through a counter
        keyed by the validated graph object."""
        import sys

        from repro.dsl.validate import validate_graph

        calls: dict[int, int] = {}

        def counting(graph):
            calls[id(graph)] = calls.get(id(graph), 0) + 1
            return validate_graph(graph)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "validate_graph", None) is validate_graph:
                monkeypatch.setattr(module, "validate_graph", counting)
        return calls

    def test_flow_validates_its_graph_once(self, monkeypatch):
        g, srcs, dirs = build_fig4_flow_inputs(64)
        calls = self.count_validations(monkeypatch)
        flow = run_flow(g, srcs, extra_directives=dirs, config=FlowConfig(cache_dir=None))
        assert calls[id(flow.graph)] == 1

    def test_invalid_description_keeps_its_error(self):
        from repro.dsl import emit_dsl
        from repro.util.errors import DslValidationError

        g, srcs, dirs = build_fig4_flow_inputs(64)
        text = "".join(
            line + "\n" for line in emit_dsl(g).splitlines() if '("EDGE", "out")' not in line
        )
        with pytest.raises(DslValidationError) as info:
            run_flow(text, srcs, extra_directives=dirs, config=FlowConfig(cache_dir=None))
        assert str(info.value) == "stream port EDGE.out is never linked"

    def test_direct_integrate_validates(self):
        from repro.dsl.ast import NodeDecl, PortDecl, PortKind, TgGraph
        from repro.soc.integrator import integrate
        from repro.util.errors import DslValidationError

        graph = TgGraph("dangling")
        graph.nodes.append(NodeDecl("A", (PortDecl("in", PortKind.STREAM),)))
        with pytest.raises(DslValidationError, match="never linked"):
            integrate(graph, {})

    def test_sdsoc_baseline_validates(self, monkeypatch):
        calls = self.count_validations(monkeypatch)
        sdsoc_flow({"vecop": TestSdsocBaseline.SRC}, {"vecop"})
        assert sum(calls.values()) == 1
