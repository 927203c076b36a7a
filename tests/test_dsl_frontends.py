"""Differential tests of the flow's two DSL front ends.

``run_flow`` executes a :class:`TgGraph` through the embedded builder
(:meth:`TaskGraphBuilder.execute`) and DSL text through the parser.  For
every design below both must fire the same hooks on the same partly
built graph and produce the same artifacts.
"""

import pytest

from repro.apps.audio import build_audio_app
from repro.apps.filters2d import gauss2d_src, sobel2d_src
from repro.apps.generator import random_task_graph
from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import build_otsu_app
from repro.apps.otsu.app import build_otsu_custom
from repro.dse.evaluate import dse_flow_config
from repro.dse.space import otsu_space
from repro.dsl import (
    SOC,
    LinkEdge,
    NodeDecl,
    PortDecl,
    PortKind,
    RecordingHooks,
    TaskGraphBuilder,
    TgGraph,
    emit_dsl,
    graph_from_htg,
    parse_dsl,
)
from repro.dsl import lexer, parser
from repro.flow import FlowConfig, run_flow
from repro.flow.journal import RunJournal
from repro.flow.orchestrator import flow_run_digest
from repro.hls.interfaces import pipeline
from repro.util.errors import DslSyntaxError

COLD = FlowConfig(cache_dir=None, check_tcl=False)


class SnapshotHooks(RecordingHooks):
    """Records each callback with the shape of the graph it was handed."""

    def _rec(self, event, detail=None):
        g = self._graph
        self.events.append((event, detail, g.name, tuple(g.nodes), tuple(g.edges)))

    def on_graph_begin(self, graph):
        self._graph = graph
        super().on_graph_begin(graph)


def _filters2d_graph(width=16, height=12):
    tg = TaskGraphBuilder("edgeApp")
    tg.nodes()
    tg.node("GAUSS2D").is_("in").is_("out").end()
    tg.node("SOBEL2D").is_("in").is_("out").end()
    tg.end_nodes()
    tg.edges()
    tg.link(SOC).to(("GAUSS2D", "in")).end()
    tg.link(("GAUSS2D", "out")).to(("SOBEL2D", "in")).end()
    tg.link(("SOBEL2D", "out")).to(SOC).end()
    tg.end_edges()
    sources = {"GAUSS2D": gauss2d_src(width, height), "SOBEL2D": sobel2d_src(width, height)}
    return tg.graph(), sources


def _designs():
    """(id, graph, sources, directives, config) of every differential case."""
    out = []
    for arch in (1, 2, 3, 4):
        app = build_otsu_app(arch, width=16, height=16)
        out.append(
            (f"otsu-arch{arch}", app.dsl_graph(), app.c_sources, app.extra_directives, COLD)
        )
    graph, sources, directives = build_fig4_flow_inputs(64)
    out.append(("fig4", graph, sources, directives, COLD))
    htg, partition, _beh, sources, _hits = build_audio_app(n=1024, frame=64)
    out.append(
        (
            "audio",
            graph_from_htg(htg, partition),
            sources,
            {"preemph": [pipeline("preemph", "i")], "energy": [pipeline("energy", "i")]},
            COLD,
        )
    )
    graph, sources = _filters2d_graph()
    out.append(("filters2d", graph, sources, {}, COLD))
    for seed in range(20):
        graph, sources = random_task_graph(
            lite_nodes=seed % 3 + 1, stream_chains=seed % 2 + 1,
            chain_length=seed % 4 + 1, seed=seed,
        )
        out.append((f"random-{seed}", graph, sources, {}, COLD))
    return out


def _otsu_space_designs():
    """Every hardware candidate of ``otsu_space()`` — each hardware set
    under both DMA policies and its PIPELINE subsets — with the
    directives and flow config ``evaluate_candidate`` gives it."""
    out = []
    for cand in otsu_space():
        hw = frozenset(cand.get("hw"))
        if not hw:
            continue
        pipelined = set(cand.get("pipelined"))
        app = build_otsu_custom(hw, width=16, height=16)
        directives = {
            actor: [d for d in dirs if d.kind != "pipeline" or actor in pipelined]
            for actor, dirs in app.extra_directives.items()
        }
        config = dse_flow_config(one_dma_per_stream=cand.get("dma") == "per-stream")
        out.append(((hw, cand.get("dma")), app.dsl_graph(), app.c_sources, directives, config))
    return out


def _assert_same_flow(graph, sources, directives, config):
    a = run_flow(graph, sources, extra_directives=directives, config=config)
    b = run_flow(emit_dsl(graph), sources, extra_directives=directives, config=config)
    assert a.bitstream.digest == b.bitstream.digest
    assert a.system_tcl.render() == b.system_tcl.render()
    assert a.image.sources == b.image.sources
    assert a.dsl_text == b.dsl_text == emit_dsl(graph)
    assert {n: c.key for n, c in a.cores.items()} == {n: c.key for n, c in b.cores.items()}
    assert a.graph == b.graph == graph
    # The flow's graph is its own, not the caller's object.
    assert a.graph is not graph


DESIGNS = _designs()


class TestGraphAndTextFlowsAgree:
    @pytest.mark.parametrize("design", DESIGNS, ids=[d[0] for d in DESIGNS])
    def test_design(self, design):
        _name, graph, sources, directives, config = design
        _assert_same_flow(graph, sources, directives, config)

    def test_every_otsu_space_hardware_candidate(self):
        designs = _otsu_space_designs()
        # 10 hardware sets, each under both DMA policies.
        assert len(designs) == 62
        assert len({d[0] for d in designs}) == 2 * 10
        for _name, graph, sources, directives, config in designs:
            _assert_same_flow(graph, sources, directives, config)


class TestHookSequence:
    @pytest.mark.parametrize("design", DESIGNS, ids=[d[0] for d in DESIGNS])
    def test_builder_walk_fires_what_parsing_fires(self, design):
        graph = design[1]
        walked, parsed = SnapshotHooks(), SnapshotHooks()
        rebuilt = TaskGraphBuilder.execute(graph, walked)
        reparsed = parse_dsl(emit_dsl(graph), hooks=parsed)
        assert walked.events == parsed.events
        assert rebuilt == reparsed == graph

    def test_execute_does_not_validate(self):
        # Validation is integrate's job: a dangling link still executes.
        graph = TgGraph(
            "g", [NodeDecl("A", (PortDecl("in", PortKind.STREAM),))]
        )
        graph.edges.append(LinkEdge(SOC, ("B", "x")))
        assert TaskGraphBuilder.execute(graph) == graph


class TestGraphPathNeverParses:
    def test_graph_flow_survives_a_broken_lexer(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise AssertionError("a graph description must not be lexed")

        graph, sources, directives = build_fig4_flow_inputs(64)  # parses FIG4_DSL
        monkeypatch.setattr(lexer, "tokenize", broken)
        monkeypatch.setattr(parser, "tokenize", broken)
        flow = run_flow(graph, sources, extra_directives=directives, config=COLD)
        assert flow.dsl_text == emit_dsl(graph)
        with pytest.raises(AssertionError, match="must not be lexed"):
            run_flow(emit_dsl(graph), sources, extra_directives=directives, config=COLD)

    def test_journal_header_digests_the_emitted_text(self, tmp_path):
        graph, sources, directives = build_fig4_flow_inputs(64)
        journal = RunJournal(tmp_path / "run.journal")
        run_flow(graph, sources, extra_directives=directives, config=COLD,
                 journal=journal)
        journal.close()
        expected = flow_run_digest(emit_dsl(graph), sources, directives, COLD)
        assert journal.run_digest == expected


class TestGraphPathGrammar:
    def test_empty_node_list_rejected(self):
        with pytest.raises(DslSyntaxError, match="node list is empty"):
            run_flow(TgGraph("empty"), {}, config=COLD)

    def test_portless_node_rejected(self):
        graph = TgGraph("bare", [NodeDecl("A", ())])
        with pytest.raises(DslSyntaxError, match="declares no interface"):
            run_flow(graph, {"A": "void A() {}"}, config=COLD)

    def test_text_path_rejects_the_same(self):
        for graph in (TgGraph("empty"), TgGraph("bare", [NodeDecl("A", ())])):
            with pytest.raises(DslSyntaxError):
                run_flow(emit_dsl(graph), {"A": "void A() {}"}, config=COLD)
