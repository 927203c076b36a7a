"""Fig. 9 — time breakdown of generating the four architectures.

Regenerates the modeled per-phase generation times.  Shape checks: the
Scala/DSL compile is ~6 s and project generation ~50 s (the paper's
anchors), HLS is paid only once (Arch4 is generated first and its cores
reused), synthesis dominates every build, and the grand total lands in
the paper's ~42-minute ballpark.

The build-engine bench then rebuilds the four architectures through the
content-addressed cache — cold then warm — and checks the engine's
headline numbers: every core hits the cache on the warm pass and the
warm modeled total lands strictly below the uncached total.
"""

from conftest import save_artifact

from repro.report import regenerate_fig9


def test_fig9(benchmark, otsu_builds):
    result = benchmark(regenerate_fig9, otsu_builds)
    text = result.render()
    print("\n" + text)
    save_artifact("fig9.txt", text)

    for arch, row in result.breakdown.items():
        assert 5.0 <= row["SCALA"] <= 8.0
        assert 40.0 <= row["PROJECT"] <= 65.0
        assert row["SYNTH"] > row["PROJECT"]
    assert result.breakdown[4]["HLS"] > 0
    assert all(result.breakdown[a]["HLS"] == 0 for a in (1, 2, 3))
    assert 25 <= result.total_minutes <= 60  # paper: 42 min
    # Per-core breakdown rides along (Arch4 synthesized all four cores).
    assert {c["name"] for c in result.cores[4]} == {
        "grayScale",
        "computeHistogram",
        "halfProbability",
        "segment",
    }
    assert all(c["source"] == "synth" for c in result.cores[4])


def test_fig9_build_engine(benchmark, otsu_builds, tmp_path_factory):
    """Content-addressed cache vs the uncached Fig. 9 build."""
    from repro.report import build_all_architectures

    cache_dir = str(tmp_path_factory.mktemp("buildcache"))

    def cold_then_warm():
        cold = build_all_architectures(width=48, height=48, cache_dir=cache_dir)
        warm = build_all_architectures(width=48, height=48, cache_dir=cache_dir)
        return cold, warm

    cold, warm = benchmark.pedantic(cold_then_warm, rounds=1, iterations=1)
    serial_fig9 = regenerate_fig9(otsu_builds)
    cold_fig9 = regenerate_fig9(cold)
    warm_fig9 = regenerate_fig9(warm)
    text = "\n".join(
        [
            "build engine, cold cache:",
            cold_fig9.render(),
            "",
            "build engine, warm cache:",
            warm_fig9.render(),
        ]
    )
    print("\n" + text)
    save_artifact("fig9_build_engine.txt", text)

    # Identical artifacts (the differential suite proves this in depth;
    # here we spot-check the bitstreams across all four architectures).
    for arch in (1, 2, 3, 4):
        assert (
            cold[arch].flow.bitstream.digest
            == warm[arch].flow.bitstream.digest
            == otsu_builds[arch].flow.bitstream.digest
        )

    # The report carries cache-hit counts.  Arch1-3 reuse Arch4's cores
    # through the same content-addressed cache (Section VI-B), so the
    # cold pass misses exactly once per distinct core and hits the other
    # four lookups; the warm pass hits all eight.
    assert cold_fig9.cache_hits == 4
    assert sum(c["misses"] for c in cold_fig9.cache.values()) == 4
    assert warm_fig9.cache_hits == 8
    assert sum(c["misses"] for c in warm_fig9.cache.values()) == 0

    # A warm cache pays no HLS, so its modeled total is strictly lower.
    assert warm_fig9.total_minutes < serial_fig9.total_minutes
    assert "build cache:" in warm_fig9.render()
