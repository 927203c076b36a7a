"""Unit tests of the observability layer: event bus, metrics registry,
Chrome exporter — plus the Table-I acceptance checks (every architecture
emits a structurally valid merged trace, and the word and burst
simulation paths agree byte-for-byte on every ``sim.*`` metric total).
"""

import json

import pytest

from repro.obs import (
    BUS,
    CATEGORIES,
    REGISTRY,
    EventBus,
    MetricsRegistry,
    capture,
    chrome_trace,
    sim_totals,
    sim_totals_digest,
    write_chrome_trace,
)
from repro.obs.events import subsystem_of
from repro.sim.trace import Trace
from tests.obs_invariants import assert_valid_chrome, assert_well_formed


class TestEventBus:
    def test_disabled_bus_swallows_everything(self):
        bus = EventBus()
        assert bus.emit("flow.step", "x") is None
        assert len(bus) == 0

    def test_sequence_is_monotonic_and_fields_sorted(self):
        bus = EventBus()
        bus.enabled = True
        e1 = bus.emit("cache.hit", "k1", tier="memory", b=1, a=2)
        e2 = bus.emit("cache.miss", "k2")
        assert e2.seq == e1.seq + 1
        assert e1.fields == (("a", 2), ("b", 1), ("tier", "memory"))
        assert e1.field("tier") == "memory"
        assert e1.field("nope", 42) == 42

    def test_unknown_category_and_phase_rejected(self):
        bus = EventBus()
        bus.enabled = True
        with pytest.raises(ValueError, match="category"):
            bus.emit("flow.unheard_of", "x")
        with pytest.raises(ValueError, match="phase"):
            bus.emit("flow.step", "x", phase="Q")

    def test_ring_buffer_drops_oldest_and_counts(self):
        bus = EventBus(capacity=4)
        bus.enabled = True
        for i in range(10):
            bus.emit("sim.phase", f"n{i}", cycle=i)
        events = bus.events()
        assert len(events) == 4
        assert bus.dropped == 6
        assert [e.name for e in events] == ["n6", "n7", "n8", "n9"]
        # Monotonicity survives the drops.
        assert_well_formed(events, allow_unclosed_spans=True)

    def test_span_closes_on_error(self):
        bus = EventBus()
        bus.enabled = True
        with pytest.raises(RuntimeError):
            with bus.span("flow.step", "boom"):
                raise RuntimeError("inside")
        phases = [e.phase for e in bus.events()]
        assert phases == ["B", "E"]
        assert_well_formed(bus.events())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)

    def test_capture_scope_restores_state(self):
        assert not BUS.enabled
        with capture() as (bus, registry):
            assert bus is BUS and registry is REGISTRY
            assert BUS.enabled
            bus.emit("journal.commit", "s")
        assert not BUS.enabled
        assert len(BUS.events()) == 1  # events stay for inspection

    def test_describe_and_subsystems(self):
        bus = EventBus()
        bus.enabled = True
        evt = bus.emit("sim.dma", "dma0.mm2s", cycle=7, worker="dma0", nbytes=64)
        assert "cycle=7" in evt.describe()
        assert "nbytes=64" in evt.describe()
        assert evt.subsystem == "sim"
        assert {subsystem_of(c) for c in CATEGORIES} == {
            "flow", "cache", "journal", "sim", "service", "hls", "dse",
        }


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", "h").inc()
        reg.counter("cache.hits").inc(2)
        g = reg.gauge("flow.workers")
        g.set(4)
        g.inc()
        g.dec(2)
        h = reg.histogram("sim.dma.transfer_bytes", buckets=(4, 16))
        h.observe(3)
        h.observe(10)
        h.observe(1000)
        snap = reg.snapshot()
        assert snap["cache.hits"] == {"type": "counter", "value": 3.0}
        assert snap["flow.workers"]["value"] == 3.0
        assert snap["sim.dma.transfer_bytes"]["buckets"] == {
            "4": 1, "16": 1, "+Inf": 1,
        }
        assert snap["sim.dma.transfer_bytes"]["sum"] == 1013.0
        assert json.loads(reg.to_json())  # valid JSON

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="decrease"):
            reg.counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", "lookups served").inc(5)
        reg.gauge("flow.jobs").set(2.5)
        reg.histogram("sim.bytes", buckets=(4, 16)).observe(10)
        text = reg.to_prometheus_text()
        assert "# HELP repro_cache_hits lookups served" in text
        assert "# TYPE repro_cache_hits counter" in text
        assert "repro_cache_hits 5" in text  # integer: no trailing .0
        assert "repro_flow_jobs 2.5" in text
        assert 'repro_sim_bytes_bucket{le="16"} 1' in text
        assert 'repro_sim_bytes_bucket{le="+Inf"} 1' in text
        assert "repro_sim_bytes_count 1" in text

    def test_reset_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {}

    def test_sim_totals_slice_and_digest(self):
        reg = MetricsRegistry()
        reg.counter("sim.cycles").inc(100)
        reg.counter("simulator.kernel_events").inc(9999)
        reg.counter("flow.steps").inc(3)
        totals = sim_totals(reg.snapshot())
        assert set(totals) == {"sim.cycles"}
        base = sim_totals_digest(reg.snapshot())
        # Engine-effort and flow metrics don't move the digest...
        reg.counter("simulator.kernel_events").inc()
        reg.counter("flow.steps").inc()
        assert sim_totals_digest(reg.snapshot()) == base
        # ...but a sim.* total does.
        reg.counter("sim.cycles").inc()
        assert sim_totals_digest(reg.snapshot()) != base


class TestChromeExporter:
    def _bus(self):
        bus = EventBus()
        bus.enabled = True
        return bus

    def test_span_folding_and_metadata(self):
        bus = self._bus()
        with bus.span("flow.step", "hls:A", worker="w0", core="A"):
            bus.emit("cache.miss", "abc", worker="w0")
        obj = chrome_trace(bus.events())
        assert_valid_chrome(obj)
        xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1
        assert xs[0]["name"] == "hls:A"
        assert xs[0]["args"]["core"] == "A"
        assert xs[0]["dur"] >= 0
        instants = [e for e in obj["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["s"] == "t"
        procs = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {"flow", "cache"}

    def test_unfinished_span_becomes_zero_length_marker(self):
        bus = self._bus()
        bus.emit("flow.step", "hls:B", phase="B", worker="w0")
        obj = chrome_trace(bus.events())
        assert_valid_chrome(obj)
        (x,) = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert x["name"] == "hls:B (unfinished)"
        assert x["dur"] == 0.0

    def test_orphan_end_is_skipped(self):
        bus = self._bus()
        bus.emit("flow.step", "lost", phase="E", worker="w0")
        obj = chrome_trace(bus.events())
        assert_valid_chrome(obj)
        assert not [e for e in obj["traceEvents"] if e["ph"] == "X"]

    def test_cycle_events_convert_at_cycles_per_us(self):
        bus = self._bus()
        bus.emit("sim.phase", "n", phase="B", cycle=200, worker="n")
        bus.emit("sim.phase", "n", phase="E", cycle=450, worker="n")
        obj = chrome_trace(bus.events(), cycles_per_us=100.0)
        (x,) = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert x["ts"] == 2.0 and x["dur"] == 2.5
        assert x["args"]["cycle"] == 450

    def test_sim_trace_merges_under_sim_pid(self):
        bus = self._bus()
        bus.emit("sim.dma", "dma0.mm2s", cycle=10, worker="dma0", nbytes=4)
        trace = Trace()
        trace.record("hw:EDGE", "stream", 100, 400)
        trace.record("cpu:main", "sw", 0, 50)
        obj = chrome_trace(bus.events(), sim_trace=trace)
        assert_valid_chrome(obj)
        sim_events = [
            e
            for e in obj["traceEvents"]
            if e["ph"] != "M" and e["pid"] == 4
        ]
        # 1 bus instant + 2 sim spans, on 3 distinct tids.
        assert len(sim_events) == 3
        assert len({e["tid"] for e in sim_events}) == 3

    def test_write_chrome_trace_creates_parents(self, tmp_path):
        bus = self._bus()
        bus.emit("journal.commit", "swgen")
        path = write_chrome_trace(tmp_path / "deep" / "t.json", bus.events())
        assert_valid_chrome(json.loads(path.read_text()))

    def test_empty_trace_is_valid(self):
        assert_valid_chrome(chrome_trace([]))


class TestTableIAcceptance:
    """Acceptance bar: all four architectures, valid traces, word==burst."""

    @pytest.fixture(scope="class")
    def builds(self):
        from repro.apps.otsu import build_otsu_app
        from repro.flow import FlowConfig, run_flow

        out = {}
        for arch in (1, 2, 3, 4):
            app = build_otsu_app(arch, width=32, height=32)
            flow = run_flow(
                app.dsl_graph(),
                app.c_sources,
                extra_directives=app.extra_directives,
                config=FlowConfig(check_tcl=False),
            )
            out[arch] = (app, flow)
        return out

    def _simulate(self, app, flow, burst):
        from repro.sim import simulate_application

        with capture() as (bus, registry):
            report = simulate_application(
                app.htg, app.partition, app.behaviors, {},
                system=flow.system, burst_mode=burst,
            )
        return report, bus.events(), registry.snapshot()

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_trace_structurally_valid_and_stream_well_formed(self, builds, arch):
        app, flow = builds[arch]
        report, events, metrics = self._simulate(app, flow, True)
        assert_well_formed(events, metrics)
        obj = chrome_trace(events, sim_trace=report.trace)
        assert_valid_chrome(obj)
        # The merged trace really carries both domains.
        cats = {e.get("cat") for e in obj["traceEvents"]}
        assert "sim.phase" in cats and "sim" in cats

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_word_and_burst_sim_totals_byte_identical(self, builds, arch):
        app, flow = builds[arch]
        _, word_events, word_metrics = self._simulate(app, flow, False)
        burst_report, _, burst_metrics = self._simulate(app, flow, True)
        assert_well_formed(word_events, word_metrics)
        word_json = json.dumps(sim_totals(word_metrics), sort_keys=True)
        burst_json = json.dumps(sim_totals(burst_metrics), sort_keys=True)
        assert word_json == burst_json  # byte-identical, not just equal
        assert sim_totals_digest(word_metrics) == sim_totals_digest(burst_metrics)
        if arch == 4:  # the deep-pipeline arch must really take the fast path
            assert burst_metrics["simulator.burst_phases"]["value"] > 0


class TestCliObservability:
    @pytest.fixture()
    def project(self, tmp_path):
        (tmp_path / "d.tg").write_text(
            "tg nodes;\n"
            '  tg node "NEG" is "in" is "out" end;\n'
            "tg end_nodes;\n"
            "tg edges;\n"
            "  tg link 'soc to (\"NEG\", \"in\") end;\n"
            "  tg link (\"NEG\", \"out\") to 'soc end;\n"
            "tg end_edges;\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "NEG.c").write_text(
            "void NEG(int in[16], int out[16])"
            " { for (int i = 0; i < 16; i++) out[i] = -in[i]; }"
        )
        return tmp_path

    def test_build_trace_and_metrics_flags(self, project, capsys):
        from repro.cli import main

        code = main(
            [
                "build", str(project / "d.tg"),
                "--sources", str(project / "src"),
                "--out", str(project / "ws"),
                # Own cache: a shared one could serve NEG and skip its HLS step.
                "--cache-dir", str(project / "cache"),
                "--trace", str(project / "t.json"),
                "--metrics", str(project / "m.json"),
            ]
        )
        assert code == 0
        obj = json.loads((project / "t.json").read_text())
        assert_valid_chrome(obj)
        cats = {e.get("cat") for e in obj["traceEvents"]}
        assert {"flow.step", "journal.intent", "journal.commit"} <= cats
        metrics = json.loads((project / "m.json").read_text())
        assert metrics["flow.steps"]["value"] >= 3  # hls + integrate + swgen
        assert metrics["journal.commits"]["value"] >= 3
        assert "chrome trace" in capsys.readouterr().out

    def test_trace_command_merges_sim_spans(self, project, capsys):
        from repro.cli import main

        code = main(
            [
                "trace", str(project / "d.tg"),
                "--sources", str(project / "src"),
                "-o", str(project / "merged.json"),
                "--metrics", str(project / "m.prom"),
            ]
        )
        assert code == 0
        obj = json.loads((project / "merged.json").read_text())
        assert_valid_chrome(obj)
        pids = {e["pid"] for e in obj["traceEvents"]}
        assert {1, 4} <= pids  # flow wall-clock + sim cycle domains
        assert "repro_sim_cycles" in (project / "m.prom").read_text()
        assert "sim totals digest:" in capsys.readouterr().out

    def test_metrics_command_prints_prometheus(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--arch", "1", "--size", "16x16"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_cycles counter" in out
        assert "# sim totals digest:" in out

    def test_metrics_command_json(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--arch", "1", "--size", "16x16", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert "sim.cycles" in payload

    def test_observability_off_by_default(self, project):
        from repro.cli import main

        BUS.clear()
        code = main(
            [
                "build", str(project / "d.tg"),
                "--sources", str(project / "src"),
                "--out", str(project / "ws2"),
            ]
        )
        assert code == 0
        assert not BUS.enabled
        assert len(BUS.events()) == 0
