"""The flow's tcl, software layer, bitstream digest and core keys are
built on first read.

``FlowResult.system_tcl``, ``FlowResult.image`` and ``CoreBuild.hls_tcl``
are not built by the flow itself: each renders the first time it is
read, from the system and cores the flow integrated.  Likewise
``Bitstream.digest`` hashes the design ``run_synthesis`` checked, and
``CoreBuild.key`` digests the core's inputs, only when read.  Two
properties are locked in here:

* **Byte identity.**  Whatever path built the flow (fresh, with or
  without the tcl check, served from a shared build cache, killed and
  resumed, or read only after a simulation ran on the system), every
  artifact equals a direct call of its generator, and so does the
  materialized tree.  Every bitstream's digest is the digest of its
  design as synthesized.
* **The saving.**  A DSE candidate reads none of them, so it calls none
  of the generators, hashes no design and validates its graph once; the
  tcl check renders the system tcl once and the result hands back that
  very script, and it hashes two designs (the integrated and the
  replayed one); a second read renders nothing.
"""

import copy
import gc
import pickle
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.apps.audio import build_audio_app
from repro.apps.filters2d import gauss2d_src, sobel2d_src
from repro.apps.generator import random_task_graph
from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import build_otsu_app
from repro.dse import evaluate_candidate, otsu_space, partition_candidate
from repro.dsl import emit_dsl, graph_from_htg
from repro.dsl.validate import validate_graph
from repro.flow import BuildCache, FlowConfig, RunJournal, materialize, orchestrator
from repro.flow import resume_flow, run_flow
from repro.flow.buildcache import cache_key
from repro.flow.crashpoints import CrashPlan, armed
from repro.flow.orchestrator import CoreBuild
from repro.hls.interfaces import pipeline
from repro.htg.model import HTG, Actor, Phase, StreamChannel, Task
from repro.htg.partition import Partition
from repro.report import build_all_architectures
from repro.sim import simulate_application
from repro.soc import synthesis
from repro.soc.synthesis import Bitstream, _design_digest, run_synthesis
from repro.swgen.petalinux import assemble_image
from repro.tcl.backends import Vivado2014_2, Vivado2015_3
from repro.tcl.generate import generate_hls_tcl, generate_system_tcl
from repro.util.errors import DslValidationError, FlowError, FlowInterrupted

CHECKED = FlowConfig(cache_dir=None)
UNCHECKED = FlowConfig(cache_dir=None, check_tcl=False)


def _filters2d(width=16, height=12, *, linked=True):
    """The 2-D filter pair; unless *linked*, the phase leaves out the
    GAUSS2D -> SOBEL2D channel, so the lowered graph is invalid."""
    sources = {"GAUSS2D": gauss2d_src(width, height), "SOBEL2D": sobel2d_src(width, height)}
    phase = Phase(
        name="vision",
        actors=[
            Actor("GAUSS2D", stream_inputs=("in",), stream_outputs=("out",),
                  c_source=sources["GAUSS2D"]),
            Actor("SOBEL2D", stream_inputs=("in",), stream_outputs=("out",),
                  c_source=sources["SOBEL2D"]),
        ],
        channels=[
            StreamChannel(Phase.BOUNDARY, "gray", "GAUSS2D", "in"),
            *([StreamChannel("GAUSS2D", "out", "SOBEL2D", "in")] if linked else []),
            StreamChannel("SOBEL2D", "out", Phase.BOUNDARY, "edges"),
        ],
        inputs=("gray",),
        outputs=("edges",),
    )
    htg = HTG("edgeApp")
    htg.add(Task("load", outputs=("gray",), io=True, sw_cycles=width * height * 4))
    htg.add(phase)
    htg.add(Task("store", inputs=("edges",), io=True, sw_cycles=width * height * 4))
    htg.add_edge("load", "vision")
    htg.add_edge("vision", "store")
    return graph_from_htg(htg, Partition.from_hw_set(htg, {"vision"})), sources, {}


def _design(name):
    """``(graph, c_sources, extra_directives)`` of one corpus design."""
    if name.startswith("otsu"):
        app = build_otsu_app(int(name[-1]), width=16, height=16)
        return app.dsl_graph(), app.c_sources, app.extra_directives
    if name == "fig4":
        return build_fig4_flow_inputs(16)
    if name == "audio":
        htg, partition, _beh, sources, _hits = build_audio_app(n=128, frame=32)
        directives = {
            "preemph": [pipeline("preemph", "i")],
            "energy": [pipeline("energy", "i")],
        }
        return graph_from_htg(htg, partition), sources, directives
    if name == "filters2d":
        return _filters2d()
    seed = int(name.rsplit("-", 1)[1])
    graph, sources = random_task_graph(
        lite_nodes=2, stream_chains=2, chain_length=3, stream_depth=16, seed=seed
    )
    return graph, sources, {}


CORPUS = [
    "otsu1", "otsu2", "otsu3", "otsu4", "fig4", "audio", "filters2d",
    "random-3", "random-11",
]


def direct_artifacts(flow, backend=None) -> dict[str, object]:
    """Every lazy artifact of *flow* rendered by calling its generator."""
    image = assemble_image(
        flow.system,
        flow.bitstream,
        c_sources={name: b.c_source for name, b in flow.cores.items()},
    )
    return {
        "system_tcl": generate_system_tcl(flow.system, backend or Vivado2015_3()).render(),
        "hls_tcl": {
            name: generate_hls_tcl(name, b.result).render() for name, b in flow.cores.items()
        },
        "sources": dict(image.sources),
        "manifest": image.boot.manifest(),
        "dts": image.boot.dts,
        "dev_nodes": list(image.dev_nodes),
    }


def lazy_artifacts(flow) -> dict[str, object]:
    """The same artifacts read through the result."""
    return {
        "system_tcl": flow.system_tcl.render(),
        "hls_tcl": {name: b.hls_tcl.render() for name, b in flow.cores.items()},
        "sources": dict(flow.image.sources),
        "manifest": flow.image.boot.manifest(),
        "dts": flow.image.boot.dts,
        "dev_nodes": list(flow.image.dev_nodes),
    }


def assert_tree_matches(root: Path, expected: dict[str, object]) -> None:
    """The materialized tree holds exactly the directly rendered bytes."""
    assert (root / "vivado/system.tcl").read_text() == expected["system_tcl"]
    for name, text in expected["hls_tcl"].items():
        assert (root / f"hls/{name}/script.tcl").read_text() == text
    for name, text in expected["sources"].items():
        assert (root / f"sw/{name}").read_text() == text
    assert sorted(p.name for p in (root / "sw").iterdir()) == sorted(expected["sources"])
    assert (root / "sdcard/MANIFEST").read_text() == expected["manifest"] + "\n"
    assert (root / "sdcard/devicetree.dts").read_text() == expected["dts"]


class TestLazyEqualsEager:
    @pytest.mark.parametrize("config", [CHECKED, UNCHECKED], ids=["check_tcl", "no_check"])
    @pytest.mark.parametrize("name", CORPUS)
    def test_fresh_flow(self, name, config, tmp_path):
        graph, sources, directives = _design(name)
        flow = run_flow(graph, sources, extra_directives=directives, config=config)
        expected = direct_artifacts(flow)
        assert lazy_artifacts(flow) == expected
        assert_tree_matches(materialize(flow, tmp_path / "out"), expected)

    @pytest.mark.parametrize("check_tcl", [True, False])
    def test_other_backend(self, check_tcl):
        graph, sources, directives = _design("fig4")
        config = FlowConfig(cache_dir=None, backend=Vivado2014_2(), check_tcl=check_tcl)
        flow = run_flow(graph, sources, extra_directives=directives, config=config)
        assert flow.system_tcl.render() == direct_artifacts(flow, Vivado2014_2())["system_tcl"]
        assert "Vivado 2014.2" in flow.system_tcl.render()

    def test_shared_cache_reuse(self, tmp_path):
        """Arch1-3 reuse Arch4's cores from one shared build cache."""
        builds = build_all_architectures(width=16, height=16, config=CHECKED)
        assert any(b.reused for b in builds[1].flow.cores.values())
        for arch, build in builds.items():
            expected = direct_artifacts(build.flow)
            assert lazy_artifacts(build.flow) == expected
            assert_tree_matches(materialize(build.flow, tmp_path / f"a{arch}"), expected)

    @pytest.mark.parametrize("check_tcl", [True, False])
    def test_killed_at_swgen_then_resumed(self, check_tcl, tmp_path):
        graph, sources, directives = _design("otsu4")
        config = FlowConfig(cache_dir=str(tmp_path / "cache"), check_tcl=check_tcl)
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("swgen:start")):
                run_flow(graph, sources, extra_directives=directives,
                         config=config, journal=journal)
        resumed = resume_flow(graph, sources, extra_directives=directives,
                              config=config, journal=journal)
        assert resumed.timing.resumed
        expected = direct_artifacts(resumed)
        assert lazy_artifacts(resumed) == expected
        out = materialize(resumed, tmp_path / "out", journal=journal)
        journal.close()
        assert_tree_matches(out, expected)
        clean = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        assert direct_artifacts(clean) == expected

    def test_read_after_simulation(self, tmp_path):
        """A simulation on ``flow.system`` leaves the artifacts unchanged."""
        builds = build_all_architectures(width=16, height=16, config=UNCHECKED)
        for arch, build in builds.items():
            before = direct_artifacts(build.flow)
            report = simulate_application(
                build.app.htg, build.app.partition, build.app.behaviors, {},
                system=build.flow.system,
            )
            assert np.array_equal(report.of("binImage"), np.asarray(build.app.golden["binary"]))
            assert lazy_artifacts(build.flow) == before
            assert_tree_matches(materialize(build.flow, tmp_path / f"a{arch}"), before)

        htg, partition, behaviors, sources, hits = build_audio_app(n=128, frame=32)
        flow = run_flow(graph_from_htg(htg, partition), sources, config=UNCHECKED)
        before = direct_artifacts(flow)
        report = simulate_application(htg, partition, behaviors, {}, system=flow.system)
        assert np.array_equal(report.of("hits"), hits)
        assert lazy_artifacts(flow) == before


class TestOldCachePickles:
    def test_pickle_with_rendered_hls_tcl_still_loads(self):
        graph, sources, directives = _design("fig4")
        flow = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        build = flow.cores["GAUSS"]
        script = generate_hls_tcl("GAUSS", build.result)
        # A pickle written when ``hls_tcl`` was a dataclass field carries
        # the script in the instance dict.
        old = CoreBuild(
            name=build.name, result=build.result, directives_tcl=build.directives_tcl,
            modeled_seconds=build.modeled_seconds, c_source=build.c_source,
            backend_version=build.backend_version,
        )
        old.__dict__["hls_tcl"] = script
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded.hls_tcl.render() == script.render()

    def test_new_entries_carry_no_script(self, tmp_path):
        cache = BuildCache(tmp_path)
        graph, sources, directives = _design("fig4")
        flow = run_flow(graph, sources, extra_directives=directives,
                        config=UNCHECKED, build_cache=cache)
        for build in flow.cores.values():
            assert "hls_tcl" not in vars(cache.read(build.key))


def _patch_everywhere(monkeypatch, fn, wrapper) -> None:
    """Bind *wrapper* wherever a ``repro`` module binds *fn*."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)


class _Spy:
    """Counts calls of the three generators wherever ``repro`` binds them."""

    TARGETS = {
        "generate_system_tcl": generate_system_tcl,
        "generate_hls_tcl": generate_hls_tcl,
        "assemble_image": assemble_image,
    }

    def __init__(self, monkeypatch):
        self.calls = {name: 0 for name in self.TARGETS}
        self.returned: dict[str, list] = {name: [] for name in self.TARGETS}
        for name, fn in self.TARGETS.items():
            _patch_everywhere(monkeypatch, fn, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            out = fn(*args, **kwargs)
            self.returned[name].append(out)
            return out

        return wrapper


class TestRenderOnDemand:
    @pytest.mark.parametrize(
        "hw",
        [{"grayScale", "histogram", "otsuMethod", "binarization"}, {"histogram"}],
        ids=["all_hw", "one_actor"],
    )
    def test_dse_candidate_renders_nothing(self, hw, monkeypatch):
        spy = _Spy(monkeypatch)
        point = evaluate_candidate(partition_candidate(hw), width=8, height=8)
        assert point.correct and point.lut > 0
        assert spy.calls == {name: 0 for name in _Spy.TARGETS}

    def test_check_tcl_renders_once_and_hands_it_back(self, monkeypatch):
        spy = _Spy(monkeypatch)
        graph, sources, directives = _design("otsu4")
        flow = run_flow(graph, sources, extra_directives=directives, config=CHECKED)
        assert spy.calls["generate_system_tcl"] == 1
        assert flow.system_tcl is spy.returned["generate_system_tcl"][0]
        assert spy.calls["generate_system_tcl"] == 1
        assert spy.calls["generate_hls_tcl"] == spy.calls["assemble_image"] == 0

    def test_second_read_renders_nothing(self, monkeypatch):
        spy = _Spy(monkeypatch)
        graph, sources, directives = _design("otsu4")
        flow = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        assert spy.calls == {name: 0 for name in _Spy.TARGETS}
        for _ in range(2):
            assert flow.system_tcl is flow.system_tcl
            assert flow.image is flow.image
            for build in flow.cores.values():
                assert build.hls_tcl is build.hls_tcl
        assert spy.calls == {
            "generate_system_tcl": 1,
            "generate_hls_tcl": len(flow.cores),
            "assemble_image": 1,
        }


class _DigestSpy:
    """Counts design digests, graph validations and core cache keys, and
    keeps, for every bitstream ``run_synthesis`` returns, the digest of
    its design at that moment."""

    def __init__(self, monkeypatch):
        self.digests = self.validations = self.keys = 0
        self.synthesized: list[tuple[Bitstream, str]] = []

        def counting_digest(bd):
            self.digests += 1
            return _design_digest(bd)

        def counting_validate(graph):
            self.validations += 1
            return validate_graph(graph)

        def counting_key(*args, **kwargs):
            self.keys += 1
            return cache_key(*args, **kwargs)

        def recording(bd, *args, **kwargs):
            bitstream = run_synthesis(bd, *args, **kwargs)
            self.synthesized.append((bitstream, _design_digest(bd)))
            return bitstream

        monkeypatch.setattr(synthesis, "_design_digest", counting_digest)
        _patch_everywhere(monkeypatch, validate_graph, counting_validate)
        _patch_everywhere(monkeypatch, cache_key, counting_key)
        _patch_everywhere(monkeypatch, run_synthesis, recording)

    def assert_digests_as_synthesized(self) -> None:
        assert self.synthesized
        for bitstream, expected in self.synthesized:
            assert bitstream.digest == expected


class TestDigestAsSynthesized:
    """Read whenever, a bitstream's digest is its design's at synthesis."""

    @pytest.mark.parametrize("config", [CHECKED, UNCHECKED], ids=["check_tcl", "no_check"])
    @pytest.mark.parametrize("name", CORPUS)
    def test_fresh_flow(self, name, config, monkeypatch):
        spy = _DigestSpy(monkeypatch)
        graph, sources, directives = _design(name)
        flow = run_flow(graph, sources, extra_directives=directives, config=config)
        assert flow.bitstream is spy.synthesized[0][0]
        assert len(spy.synthesized) == (2 if config.check_tcl else 1)
        spy.assert_digests_as_synthesized()

    @pytest.mark.parametrize("config", [CHECKED, UNCHECKED], ids=["check_tcl", "no_check"])
    def test_shared_cache_reuse(self, config, monkeypatch):
        spy = _DigestSpy(monkeypatch)
        builds = build_all_architectures(width=16, height=16, config=config)
        assert any(b.reused for b in builds[1].flow.cores.values())
        spy.assert_digests_as_synthesized()

    @pytest.mark.parametrize("check_tcl", [True, False])
    def test_killed_at_swgen_then_resumed(self, check_tcl, monkeypatch, tmp_path):
        spy = _DigestSpy(monkeypatch)
        graph, sources, directives = _design("otsu4")
        config = FlowConfig(cache_dir=str(tmp_path / "cache"), check_tcl=check_tcl)
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("swgen:start")):
                run_flow(graph, sources, extra_directives=directives,
                         config=config, journal=journal)
        resumed = resume_flow(graph, sources, extra_directives=directives,
                              config=config, journal=journal)
        journal.close()
        assert resumed.timing.resumed
        spy.assert_digests_as_synthesized()
        clean = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        assert resumed.bitstream == clean.bitstream

    @pytest.mark.parametrize("check_tcl", [True, False])
    def test_every_hardware_candidate_after_its_simulation(self, check_tcl, monkeypatch):
        spy = _DigestSpy(monkeypatch)
        candidates = [c for c in otsu_space() if c.get("hw")]
        assert len(candidates) == 62
        for candidate in candidates:
            point = evaluate_candidate(candidate, width=8, height=8, check_tcl=check_tcl)
            assert point.correct
        assert len(spy.synthesized) == len(candidates) * (2 if check_tcl else 1)
        spy.assert_digests_as_synthesized()


class TestBitstreamSemantics:
    """The digest compares, prints and pickles like the field it was."""

    @staticmethod
    def _pair():
        """A flow, and a bitstream whose fields equal the flow's but whose
        design lacks one net."""
        graph, sources, directives = _design("fig4")
        flow = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        other = copy.deepcopy(flow.design)
        other.connections = [c for c in other.connections if c.dst_pin != "In0"]
        return flow, run_synthesis(other)

    def test_equality(self):
        flow, other = self._pair()
        again = run_synthesis(flow.design)
        assert again == flow.bitstream and not (again != flow.bitstream)
        assert hash(again) == hash(flow.bitstream)
        assert (other.design, other.utilization) == (again.design, again.utilization)
        assert other != flow.bitstream and not (other == flow.bitstream)
        assert flow.bitstream != flow.bitstream.digest

    def test_repr_ends_with_the_digest(self):
        flow, _ = self._pair()
        bit = flow.bitstream
        assert repr(bit) == (
            f"Bitstream(design={bit.design!r}, part={bit.part!r}, "
            f"utilization={bit.utilization!r}, budget={bit.budget!r}, "
            f"achieved_clock_mhz={bit.achieved_clock_mhz!r}, "
            f"digest={_design_digest(flow.design)!r})"
        )

    def test_pickle_carries_the_digest_not_the_design(self):
        flow, other = self._pair()
        payload = pickle.dumps(flow.bitstream)
        assert b"processing_system7_0" not in payload
        loaded = pickle.loads(payload)
        assert loaded == flow.bitstream and loaded != other
        assert loaded.digest == _design_digest(flow.design)
        assert pickle.loads(pickle.dumps(loaded)) == loaded

    def test_old_pickle_still_loads(self):
        flow, _ = self._pair()
        # A pickle written when ``digest`` was a dataclass field.
        old = object.__new__(Bitstream)
        vars(old).update(
            {name: getattr(flow.bitstream, name)
             for name in ("design", "part", "utilization", "budget",
                          "achieved_clock_mhz", "digest")}
        )
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded == flow.bitstream and loaded.digest == flow.bitstream.digest

    def test_read_digest_lets_the_design_go(self):
        flow, _ = self._pair()
        bitstream, design = flow.bitstream, weakref.ref(flow.design)
        bitstream.digest
        del flow
        gc.collect()
        assert design() is None
        assert bitstream.digest


class TestDigestOnDemand:
    @pytest.mark.parametrize(
        "hw",
        [{"grayScale", "histogram", "otsuMethod", "binarization"}, {"histogram"}],
        ids=["all_hw", "one_actor"],
    )
    def test_dse_candidate_hashes_nothing_and_validates_once(self, hw, monkeypatch):
        spy = _DigestSpy(monkeypatch)
        point = evaluate_candidate(partition_candidate(hw), width=8, height=8)
        assert point.correct and point.lut > 0
        assert (spy.digests, spy.validations, spy.keys) == (0, 1, 0)

    @pytest.mark.parametrize("check_tcl", [True, False])
    def test_flow_hashes_only_what_is_read(self, check_tcl, monkeypatch, tmp_path):
        spy = _DigestSpy(monkeypatch)
        graph, sources, directives = _design("otsu4")
        config = FlowConfig(cache_dir=None, check_tcl=check_tcl)
        flow = run_flow(graph, sources, extra_directives=directives, config=config)
        # The tcl check hashes the integrated and the replayed design.
        assert spy.digests == (2 if check_tcl else 0)
        assert flow.bitstream.digest == flow.bitstream.digest
        materialize(flow, tmp_path / "out")
        assert spy.digests == (2 if check_tcl else 1)

    def test_core_key_on_first_read(self, monkeypatch):
        spy = _DigestSpy(monkeypatch)
        graph, sources, directives = _design("otsu4")
        flow = run_flow(graph, sources, extra_directives=directives, config=UNCHECKED)
        assert spy.keys == 0
        for name, build in flow.cores.items():
            expected = cache_key(
                name, build.c_source, build.directives_tcl, UNCHECKED.backend.version
            )
            assert build.key == build.key == expected
        assert spy.keys == len(flow.cores)

    @pytest.mark.parametrize("front_end", ["text", "graph", "htg"])
    def test_every_front_end_validates_once(self, front_end, monkeypatch):
        if front_end == "htg":
            htg, partition, _beh, sources, _hits = build_audio_app(n=128, frame=32)
            spy = _DigestSpy(monkeypatch)
            description = graph_from_htg(htg, partition)
        else:
            graph, sources, _ = _design("fig4")
            spy = _DigestSpy(monkeypatch)
            description = emit_dsl(graph) if front_end == "text" else graph
        run_flow(description, sources, config=UNCHECKED)
        assert spy.validations == 1

    def test_invalid_lowered_graph_keeps_its_error(self):
        graph, sources, _ = _filters2d(linked=False)
        with pytest.raises(DslValidationError) as info:
            run_flow(graph, sources, config=UNCHECKED)
        assert str(info.value) == "stream port GAUSS2D.out is never linked"


class _Mutated:
    """A system script whose rendered text is edited by *edit*."""

    def __init__(self, script, edit):
        self.text = edit(script.render().splitlines())

    def render(self) -> str:
        return "\n".join(self.text) + "\n"


class TestTclCheckMutants:
    """A script that does not rebuild the integrated design still fails
    the tcl check, however lazily the digests are computed."""

    IRQ = "[get_bd_pins xlconcat_0/In0]"

    @staticmethod
    def _drop(lines):
        return [ln for ln in lines if not ln.endswith(TestTclCheckMutants.IRQ)]

    @staticmethod
    def _after_implementation(lines):
        """Move one interrupt net past ``wait_on_run impl_1``: the final
        design matches, the design as implemented does not."""
        net = [ln for ln in lines if ln.endswith(TestTclCheckMutants.IRQ)]
        assert len(net) == 1 and lines[-1] == "wait_on_run impl_1"
        return TestTclCheckMutants._drop(lines) + net

    @pytest.mark.parametrize("edit", ["_drop", "_after_implementation"])
    def test_mutant_script_raises(self, edit, monkeypatch):
        mutate = getattr(self, edit)
        monkeypatch.setattr(
            orchestrator, "generate_system_tcl",
            lambda system, backend: _Mutated(generate_system_tcl(system, backend), mutate),
        )
        graph, sources, directives = _design("fig4")
        with pytest.raises(FlowError, match="does not reproduce the integrated design"):
            run_flow(graph, sources, extra_directives=directives, config=CHECKED)
