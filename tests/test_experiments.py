"""Integration tests: the experiment regenerators reproduce the paper's shapes."""

import numpy as np
import pytest

from repro.report import (
    build_all_architectures,
    compare_code_size,
    regenerate_fig7,
    regenerate_fig9,
    regenerate_fig10,
    regenerate_table1,
    regenerate_table2,
)
from repro.report.experiments import PAPER_TABLE2
from repro.sim import simulate_application


@pytest.fixture(scope="module")
def builds():
    # Pin cache_dir=None: these tests assert the paper's cold-build
    # semantics (Arch4 pays HLS once, the rest reuse its cores), which a
    # warm REPRO_FLOW_CACHE_DIR environment would mask.
    from repro.flow import FlowConfig

    return build_all_architectures(
        width=32, height=32, config=FlowConfig(cache_dir=None)
    )


class TestTable1:
    def test_matches_paper(self, builds):
        t1 = regenerate_table1(builds)
        assert t1.rows[1] == {
            "grayScale": False,
            "histogram": True,
            "otsuMethod": False,
            "binarization": False,
        }
        assert all(t1.rows[4].values())
        assert t1.rows[3]["histogram"] and t1.rows[3]["otsuMethod"]
        assert not t1.rows[3]["grayScale"]

    def test_structure_only_variant(self):
        t1 = regenerate_table1(None)
        assert t1.rows[2] == {
            "grayScale": False,
            "histogram": False,
            "otsuMethod": True,
            "binarization": False,
        }

    def test_render(self, builds):
        text = regenerate_table1(builds).render()
        assert "Arch4" in text and "x" in text


class TestTable2:
    def test_bram_dsp_columns_exact(self, builds):
        """The discrete columns (RAMB18, DSP) match the paper exactly."""
        t2 = regenerate_table2(builds)
        for arch, paper_row in PAPER_TABLE2.items():
            _, _, bram, dsp = t2.measured[arch]
            assert bram == paper_row[2], f"Arch{arch} BRAM"
            assert dsp == paper_row[3], f"Arch{arch} DSP"

    def test_lut_ff_shape(self, builds):
        """LUT/FF keep the paper's ordering and rough ratios."""
        t2 = regenerate_table2(builds)
        assert t2.monotone_in_hw()
        # The Arch2->Arch3 increment is small (histogram core is cheap
        # next to the float otsu core) while Arch1->Arch2 is large.
        lut = {a: t2.measured[a][0] for a in (1, 2, 3, 4)}
        assert (lut[3] - lut[2]) < (lut[2] - lut[1])
        # Within a factor ~2 of the paper's absolute numbers.
        for arch, paper_row in PAPER_TABLE2.items():
            assert 0.3 < t2.measured[arch][0] / paper_row[0] < 2.0
            assert 0.3 < t2.measured[arch][1] / paper_row[1] < 2.0

    def test_render_contains_paper_numbers(self, builds):
        text = regenerate_table2(builds).render()
        assert "(9312)" in text


class TestFig7:
    def test_images_and_threshold(self):
        f7 = regenerate_fig7(width=64, height=64)
        assert f7.gray.shape == (64, 64)
        assert f7.binary.shape == (64, 64)
        assert set(np.unique(f7.binary)) <= {0, 255}
        assert 0 < f7.threshold < 255

    def test_binarization_consistent(self):
        f7 = regenerate_fig7(width=64, height=64)
        expected = np.where(f7.gray > f7.threshold, 255, 0)
        assert np.array_equal(f7.binary, expected.astype(np.uint8))


class TestFig9:
    def test_breakdown_structure(self, builds):
        f9 = regenerate_fig9(builds)
        assert set(f9.breakdown) == {1, 2, 3, 4}
        for row in f9.breakdown.values():
            assert set(row) == {"SCALA", "HLS", "PROJECT", "SYNTH"}

    def test_hls_only_paid_once(self, builds):
        """Arch4 is generated first; the others reuse its cores."""
        f9 = regenerate_fig9(builds)
        assert f9.breakdown[4]["HLS"] > 0
        for arch in (1, 2, 3):
            assert f9.breakdown[arch]["HLS"] == 0.0

    def test_total_in_paper_ballpark(self, builds):
        f9 = regenerate_fig9(builds)
        assert 25 <= f9.total_minutes <= 60  # paper: 42 min

    def test_scala_and_project_anchors(self, builds):
        f9 = regenerate_fig9(builds)
        for row in f9.breakdown.values():
            assert 5.0 <= row["SCALA"] <= 8.0
            assert 40.0 <= row["PROJECT"] <= 65.0

    def test_synthesis_dominates(self, builds):
        f9 = regenerate_fig9(builds)
        for row in f9.breakdown.values():
            assert row["SYNTH"] > row["PROJECT"] > row["SCALA"]

    def test_default_build_reuses_arch4_cores_through_the_cache(self, monkeypatch):
        """With no config, the four builds share one build cache: Arch1-3
        take Arch4's cores from it, and the modeled breakdown is the one
        the name-keyed reuse produced (a reused core costs 0 s)."""
        monkeypatch.delenv("REPRO_FLOW_CACHE_DIR", raising=False)
        default = build_all_architectures(width=24, height=24)
        for arch in (1, 2, 3):
            assert all(core.reused for core in default[arch].flow.cores.values())
        assert not any(core.reused for core in default[4].flow.cores.values())
        f9 = regenerate_fig9(default)
        assert f9.breakdown == {
            1: {"SCALA": 5.9, "HLS": 0.0, "PROJECT": 50.1, "SYNTH": 402.9},
            2: {"SCALA": 5.9, "HLS": 0.0, "PROJECT": 50.1, "SYNTH": 496.9},
            3: {"SCALA": 5.9, "HLS": 0.0, "PROJECT": 51.4, "SYNTH": 529.5},
            4: {"SCALA": 6.1, "HLS": 231.9, "PROJECT": 54.3, "SYNTH": 607.7},
        }
        assert f9.cores[1] == [
            {"name": "computeHistogram", "seconds": 0.0, "source": "cache",
             "fn_cache_hits": 0},
        ]
        assert [c["name"] for c in f9.cores[3]] == [
            "computeHistogram", "halfProbability",
        ]
        for arch in (1, 2, 3):
            assert all(c["source"] == "cache" for c in f9.cores[arch])
        assert all(c["source"] == "synth" for c in f9.cores[4])
        assert f9.cache[4] == {"hits": 0, "misses": 4}
        assert f9.cache_hits == 4
        assert f"{f9.total_minutes:.1f}" == "41.6"

    def test_cold_builds_carry_no_resume_flag(self, builds):
        f9 = regenerate_fig9(builds)
        assert set(f9.resume) == {1, 2, 3, 4}
        assert not any(r.get("resumed") for r in f9.resume.values())
        assert "resumed builds" not in f9.render()

    def test_resumed_build_flagged_in_render(self, builds):
        """A resumed run's phase seconds only cover the re-executed tail;
        the figure must say so rather than pass them off as a cold build."""
        f9 = regenerate_fig9(builds)
        f9.resume[2] = {"resumed": True, "steps_skipped": 3, "crash_recoveries": 1}
        out = f9.render()
        assert "resumed builds (timings are partial)" in out
        assert "Arch2: 3 step(s) skipped, 1 recovered" in out


class TestFig10:
    def test_diagrams_per_arch(self, builds):
        f10 = regenerate_fig10(builds)
        assert set(f10.diagrams) == {1, 2, 3, 4}
        for dot in f10.diagrams.values():
            assert dot.startswith("digraph")
            assert "processing_system7_0" in dot

    def test_arch4_shows_pipeline(self, builds):
        dot = regenerate_fig10(builds).diagrams[4]
        assert '"grayScale_0" -> "computeHistogram_0"' in dot
        assert '"halfProbability_0" -> "segment_0"' in dot


class TestCodeSize:
    def test_ratios_in_paper_band(self, builds):
        cmp = compare_code_size(builds[4].flow)
        assert 2.5 <= cmp.line_ratio <= 8.0  # paper: ~4x
        assert 4.0 <= cmp.char_ratio <= 10.0  # paper: 4-10x


class TestSummary:
    def test_summary_shape_and_claims(self, builds):
        import json

        from repro.report import experiment_summary

        summary = experiment_summary(builds)
        json.dumps(summary)  # JSON-able
        assert summary["table2"]["bram_dsp_exact"] is True
        assert all(summary["simulation"]["bit_exact"].values())
        assert 25 <= summary["fig9"]["total_minutes"] <= 60
        assert 2.5 <= summary["code_size"]["line_ratio"] <= 8.0
        assert summary["table1"]["arch4"]["binarization"] is True


class TestEndToEndCorrectness:
    """Every architecture's simulated output equals the golden pipeline."""

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_arch_output_bit_exact(self, builds, arch):
        build = builds[arch]
        report = simulate_application(
            build.app.htg,
            build.app.partition,
            build.app.behaviors,
            {},
            system=build.flow.system,
        )
        assert np.array_equal(
            report.of("binImage"), np.asarray(build.app.golden["binary"])
        )

    def test_all_archs_same_threshold(self, builds):
        thresholds = {b.app.golden["threshold"] for b in builds.values()}
        assert len(thresholds) == 1

    def test_more_hw_is_faster(self, builds):
        cycles = {}
        for arch, build in builds.items():
            report = simulate_application(
                build.app.htg,
                build.app.partition,
                build.app.behaviors,
                {},
                system=build.flow.system,
            )
            cycles[arch] = report.cycles
        assert cycles[4] < cycles[1]  # full pipeline beats histogram-only
