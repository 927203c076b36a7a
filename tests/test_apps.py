"""Tests for the application layer: image I/O, Otsu case study, kernels."""

import numpy as np
import pytest

from repro.apps import (
    pack_rgb,
    read_pgm,
    read_ppm,
    synthetic_scene,
    unpack_rgb,
    write_pgm,
    write_ppm,
)
from repro.apps.generator import random_task_graph
from repro.apps.kernels import (
    build_fig4_flow_inputs,
    edge_reference,
    edge_src,
    fig4_graph,
    gauss_reference,
    gauss_src,
)
from repro.apps.otsu import (
    ARCHITECTURES,
    build_otsu_app,
    golden_binarize,
    golden_grayscale,
    golden_histogram,
    golden_otsu_threshold,
    golden_pipeline,
)
from repro.apps.otsu.app import build_otsu_custom, buildable_hw_sets
from repro.apps.otsu.csrc import all_sources
from repro.dsl import validate_graph
from repro.hls import InterfaceMode, interface, synthesize_function
from repro.hls.interp import run_function
from repro.htg import validate_htg
from repro.util.errors import ReproError


class TestImageIO:
    def test_pack_unpack_roundtrip(self):
        rgb = synthetic_scene(16, 12)
        packed = pack_rgb(rgb)
        assert packed.shape == (16 * 12,)
        back = unpack_rgb(packed, 16, 12)
        assert np.array_equal(back, rgb)

    def test_pack_validates_shape(self):
        with pytest.raises(ReproError):
            pack_rgb(np.zeros((4, 4)))

    def test_pgm_roundtrip_binary(self, tmp_path):
        img = (np.arange(48).reshape(6, 8) * 5 % 256).astype(np.uint8)
        path = tmp_path / "t.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_pgm_roundtrip_ascii(self, tmp_path):
        img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
        path = tmp_path / "t.pgm"
        write_pgm(path, img, binary=False)
        assert np.array_equal(read_pgm(path), img)

    def test_ppm_roundtrip_both(self, tmp_path):
        rgb = synthetic_scene(8, 8)
        for binary in (True, False):
            path = tmp_path / f"t_{binary}.ppm"
            write_ppm(path, rgb, binary=binary)
            assert np.array_equal(read_ppm(path), rgb)

    def test_pgm_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n1 2\n3 4\n")
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"XX\n1 1\n255\n0")
        with pytest.raises(ReproError, match="magic"):
            read_pgm(path)
        with pytest.raises(ReproError, match="magic"):
            read_ppm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ReproError, match="truncated"):
            read_pgm(path)

    def test_scene_deterministic(self):
        a = synthetic_scene(32, 32, seed=1)
        b = synthetic_scene(32, 32, seed=1)
        c = synthetic_scene(32, 32, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scene_is_bimodal_enough(self):
        gray = golden_grayscale(pack_rgb(synthetic_scene(64, 64)))
        thr = golden_otsu_threshold(golden_histogram(gray), gray.size)
        fg = (gray > thr).mean()
        assert 0.05 < fg < 0.6  # threshold separates something meaningful


class TestGoldenOtsu:
    def test_grayscale_range(self):
        gray = golden_grayscale(pack_rgb(synthetic_scene(16, 16)))
        assert gray.min() >= 0 and gray.max() <= 255

    def test_histogram_sums_to_npix(self):
        gray = golden_grayscale(pack_rgb(synthetic_scene(16, 16)))
        hist = golden_histogram(gray)
        assert hist.sum() == gray.size
        assert hist.shape == (256,)

    def test_threshold_matches_exhaustive_numpy(self):
        """The float32 search finds the argmax of between-class variance."""
        gray = golden_grayscale(pack_rgb(synthetic_scene(32, 32)))
        hist = golden_histogram(gray).astype(np.float64)
        npix = gray.size
        best_var, best_t = -1.0, 0
        for t in range(256):
            w_b = hist[: t + 1].sum()
            w_f = npix - w_b
            if w_b == 0 or w_f == 0:
                continue
            m_b = (np.arange(t + 1) * hist[: t + 1]).sum() / w_b
            m_f = (np.arange(t + 1, 256) * hist[t + 1 :]).sum() / w_f
            var = w_b * w_f * (m_b - m_f) ** 2
            if var > best_var:
                best_var, best_t = var, t
        got = golden_otsu_threshold(hist.astype(np.int32), npix)
        assert abs(got - best_t) <= 1  # float32 vs float64 rounding

    def test_binarize(self):
        out = golden_binarize(np.array([0, 100, 200]), 100)
        assert out.tolist() == [0, 0, 255]

    def test_pipeline_keys(self):
        out = golden_pipeline(pack_rgb(synthetic_scene(8, 8)).astype(np.int32))
        assert set(out) == {"gray", "hist", "threshold", "binary"}


class TestOtsuCSources:
    """Each C actor, compiled and interpreted, matches its golden model."""

    @pytest.fixture(scope="class")
    def data(self):
        packed = pack_rgb(synthetic_scene(16, 16)).astype(np.int32)
        return packed, golden_pipeline(packed)

    def compile(self, npix, name):
        from repro.hls.cparse import parse_c
        from repro.hls.lower import lower_function
        from repro.hls.passes import run_default_pipeline
        from repro.hls.sema import analyze

        fn = lower_function(analyze(parse_c(all_sources(npix)[name])), name)
        return run_default_pipeline(fn).fn

    def test_gray_scale(self, data):
        packed, golden = data
        fn = self.compile(len(packed), "grayScale")
        ch = np.zeros(len(packed), dtype=np.int32)
        seg = np.zeros(len(packed), dtype=np.int32)
        run_function(fn, packed, ch, seg)
        assert np.array_equal(ch, golden["gray"])
        assert np.array_equal(seg, golden["gray"])

    def test_compute_histogram(self, data):
        packed, golden = data
        fn = self.compile(len(packed), "computeHistogram")
        hist = np.zeros(256, dtype=np.int32)
        run_function(fn, np.asarray(golden["gray"]), hist)
        assert np.array_equal(hist, golden["hist"])

    def test_half_probability(self, data):
        packed, golden = data
        fn = self.compile(len(packed), "halfProbability")
        prob = np.zeros(1, dtype=np.int32)
        run_function(fn, np.asarray(golden["hist"]), prob)
        assert prob[0] == golden["threshold"]

    def test_segment(self, data):
        packed, golden = data
        fn = self.compile(len(packed), "segment")
        out = np.zeros(len(packed), dtype=np.int32)
        thr = np.array([golden["threshold"]], dtype=np.int32)
        run_function(fn, np.asarray(golden["gray"]), thr, out)
        assert np.array_equal(out, golden["binary"])


class TestOtsuStreamDiscipline:
    """Every case-study actor obeys the AXI-Stream access discipline
    (each stream read/written exactly once, strictly in order)."""

    def test_all_actors_sequential(self):
        from repro.flow import run_flow
        from repro.hls.project import verify_stream_discipline

        app = build_otsu_app(4, width=16, height=16)
        flow = run_flow(
            app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
        )
        g = golden_pipeline(app.packed_scene)
        n = app.npix
        cores = {k: b.result for k, b in flow.cores.items()}
        verify_stream_discipline(
            cores["grayScale"],
            app.packed_scene,
            np.zeros(n, np.int32),
            np.zeros(n, np.int32),
        )
        verify_stream_discipline(
            cores["computeHistogram"], np.asarray(g["gray"]), np.zeros(256, np.int32)
        )
        verify_stream_discipline(
            cores["halfProbability"], np.asarray(g["hist"]), np.zeros(1, np.int32)
        )
        verify_stream_discipline(
            cores["segment"],
            np.asarray(g["gray"]),
            np.array([g["threshold"]], np.int32),
            np.zeros(n, np.int32),
        )

    def test_otsu_buffer_stays_out_of_bram(self):
        """The 16-bit histogram copy maps to LUT-RAM (Table II: Arch2 = 4)."""
        from repro.hls import InterfaceMode, interface, synthesize_function
        from repro.apps.otsu.csrc import half_probability_src

        res = synthesize_function(
            half_probability_src(1024),
            "halfProbability",
            [
                interface("halfProbability", "histogram", InterfaceMode.AXIS),
                interface("halfProbability", "probability", InterfaceMode.AXIS),
            ],
        )
        assert res.resources.bram18 == 0

    def test_large_image_rejected_by_16bit_bins(self):
        from repro.apps.otsu.csrc import half_probability_src

        with pytest.raises(ValueError, match="65536"):
            half_probability_src(1 << 16)


class TestSharedSceneInputs:
    """Apps built from the same synthetic scene share its read-only
    inputs; each app still owns its ``golden`` dict."""

    def test_same_scene_shares_arrays(self):
        a = build_otsu_custom({"histogram"}, width=12, height=10, seed=5)
        b = build_otsu_app(4, width=12, height=10, seed=5)
        assert a.packed_scene is b.packed_scene
        for key in ("gray", "hist", "binary"):
            assert a.golden[key] is b.golden[key]

    def test_other_scene_gets_other_arrays(self):
        a = build_otsu_app(1, width=12, height=10, seed=5)
        b = build_otsu_app(1, width=12, height=10, seed=6)
        assert a.packed_scene is not b.packed_scene
        assert not np.array_equal(a.packed_scene, b.packed_scene)

    def test_shared_arrays_are_read_only(self):
        app = build_otsu_app(2, width=12, height=10, seed=5)
        with pytest.raises(ValueError):
            app.packed_scene[0] = 1
        for key in ("gray", "hist", "binary"):
            with pytest.raises(ValueError):
                app.golden[key][0] = 1
        # readImage hands the packed scene to the simulator unchanged.
        scene = app.behaviors["readImage"].func()
        assert scene is app.packed_scene
        with pytest.raises(ValueError):
            scene += 1

    def test_golden_dict_is_per_app(self):
        a = build_otsu_app(3, width=12, height=10, seed=5)
        b = build_otsu_app(3, width=12, height=10, seed=5)
        threshold = b.golden["threshold"]
        a.golden["threshold"] = -1
        a.golden["extra"] = 0
        del a.golden["binary"]
        assert b.golden["threshold"] == threshold
        assert "extra" not in b.golden and "binary" in b.golden

    def test_rgb_apps_are_not_shared(self):
        from repro.apps.image import synthetic_scene

        rgb = synthetic_scene(12, 10, seed=5)
        a = build_otsu_app(1, rgb=rgb)
        b = build_otsu_app(1, rgb=rgb)
        memo = build_otsu_app(1, width=12, height=10, seed=5)
        assert a.packed_scene is not b.packed_scene
        assert a.packed_scene is not memo.packed_scene
        assert a.golden["gray"] is not b.golden["gray"]
        assert a.packed_scene.flags.writeable
        np.testing.assert_array_equal(a.packed_scene, memo.packed_scene)

    def test_shared_golden_equals_a_fresh_pipeline(self):
        from repro.apps.image import pack_rgb, synthetic_scene

        app = build_otsu_app(4, width=12, height=10, seed=5)
        fresh_packed = pack_rgb(synthetic_scene(12, 10, seed=5))
        fresh = golden_pipeline(fresh_packed)
        np.testing.assert_array_equal(app.packed_scene, fresh_packed)
        assert app.packed_scene.dtype == np.int32
        assert app.golden.keys() == fresh.keys()
        for key, value in fresh.items():
            np.testing.assert_array_equal(app.golden[key], value)


class TestOtsuArchitectures:
    def test_table1_sets(self):
        assert ARCHITECTURES[1] == {"histogram"}
        assert ARCHITECTURES[4] == {
            "grayScale",
            "histogram",
            "otsuMethod",
            "binarization",
        }

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_htg_valid(self, arch):
        app = build_otsu_app(arch, width=8, height=8)
        validate_htg(app.htg)
        app.partition.validate(app.htg)

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_dsl_graph_valid(self, arch):
        app = build_otsu_app(arch, width=8, height=8)
        g = app.dsl_graph()
        validate_graph(g)
        expected_actors = len(ARCHITECTURES[arch])
        assert len(g.nodes) == expected_actors

    def test_arch4_matches_listing4(self):
        """Arch4's DSL graph has exactly the Listing-4 structure."""
        app = build_otsu_app(4, width=8, height=8)
        g = app.dsl_graph()
        names = [n.name for n in g.nodes]
        assert names == ["grayScale", "computeHistogram", "halfProbability", "segment"]
        links = g.links()
        assert len(links) == 6
        assert g.stream_outputs_of("grayScale") == ["imageOutCH", "imageOutSEG"]
        assert g.stream_inputs_of("segment") == ["grayScaleImage", "otsuThreshold"]

    def test_unknown_arch(self):
        with pytest.raises(ReproError, match="Table I"):
            build_otsu_app(7)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ReproError, match="contiguous"):
            build_otsu_custom({"grayScale", "otsuMethod"}, width=8, height=8)

    def test_unknown_function_rejected(self):
        with pytest.raises(ReproError, match="unknown"):
            build_otsu_custom({"blur"}, width=8, height=8)

    def test_all_software_buildable(self):
        app = build_otsu_custom(frozenset(), width=8, height=8)
        assert app.phase_name is None
        assert app.partition.hw_nodes() == []
        validate_htg(app.htg)

    def test_buildable_hw_sets(self):
        sets = buildable_hw_sets()
        assert frozenset() in sets
        assert frozenset({"histogram", "otsuMethod"}) in sets
        assert frozenset({"grayScale", "otsuMethod"}) not in sets
        for arch_set in ARCHITECTURES.values():
            assert arch_set in sets


class TestFig4Kernels:
    def test_graph_valid(self):
        validate_graph(fig4_graph())

    def test_gauss_reference_matches_compiled(self):
        n = 64
        res = synthesize_function(
            gauss_src(n),
            "GAUSS",
            [
                interface("GAUSS", "in", InterfaceMode.AXIS),
                interface("GAUSS", "out", InterfaceMode.AXIS),
            ],
        )
        data = np.random.default_rng(3).integers(0, 255, n).astype(np.int32)
        out = np.zeros(n, dtype=np.int32)
        res.run(data, out)
        assert np.array_equal(out, gauss_reference(data))

    def test_edge_reference_matches_compiled(self):
        n = 64
        res = synthesize_function(
            edge_src(n),
            "EDGE",
            [
                interface("EDGE", "in", InterfaceMode.AXIS),
                interface("EDGE", "out", InterfaceMode.AXIS),
            ],
        )
        data = np.random.default_rng(5).integers(0, 255, n).astype(np.int32)
        out = np.zeros(n, dtype=np.int32)
        res.run(data, out)
        assert np.array_equal(out, edge_reference(data))

    def test_flow_inputs_complete(self):
        graph, sources, directives = build_fig4_flow_inputs(32)
        assert set(sources) == {"MUL", "ADD", "GAUSS", "EDGE"}
        assert "GAUSS" in directives


class TestGenerator:
    def test_generated_graph_valid(self):
        graph, sources = random_task_graph(
            lite_nodes=3, stream_chains=2, chain_length=3, seed=11
        )
        validate_graph(graph)
        assert len(graph.nodes) == 3 + 6
        assert set(sources) == {n.name for n in graph.nodes}

    def test_deterministic(self):
        a = random_task_graph(seed=5)
        b = random_task_graph(seed=5)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_sources_synthesize(self):
        graph, sources = random_task_graph(
            lite_nodes=1, stream_chains=1, chain_length=1, stream_depth=16, seed=2
        )
        for node in graph.nodes:
            dirs = [
                interface(node.name, p.name, InterfaceMode.AXIS)
                for p in node.stream_ports()
            ]
            res = synthesize_function(sources[node.name], node.name, dirs)
            assert res.resources.lut > 0
