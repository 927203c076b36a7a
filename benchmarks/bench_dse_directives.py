"""X6 — directive-level DSE: PIPELINE subsets over the Arch4 actors.

Partitioning fixes *what* runs in hardware; the per-core directives the
DSL flow forwards to HLS decide *how well*.  Runs the campaign engine
over ``otsu_directives_space()`` — all 2^3 PIPELINE subsets over
grayScale/computeHistogram/segment on the Table-I Arch4 partition — and
reports the latency/area landscape.
"""

import tempfile

from conftest import save_artifact

from repro.dse import CampaignConfig, otsu_directives_space, run_campaign
from repro.util.text import format_table


def _pipelined_label(point):
    return "+".join(point.candidate.get("pipelined")) or "none"


def test_directive_dse(benchmark):
    with tempfile.TemporaryDirectory(prefix="bench-dse-dir-") as td:
        result = benchmark.pedantic(
            lambda: run_campaign(
                CampaignConfig(
                    space=otsu_directives_space(),
                    width=24,
                    height=24,
                    fn_cache_dir=f"{td}/fn",
                )
            ),
            rounds=1,
            iterations=1,
        )
    points = result.points
    rows = [
        (_pipelined_label(p), p.cycles, p.lut, p.ff, p.dsp)
        for p in sorted(points, key=lambda p: p.cycles)
    ]
    text = format_table(
        ["pipelined actors", "cycles", "LUT", "FF", "DSP"],
        rows,
        title="X6 — PIPELINE-directive sweep over Arch4:",
    )
    print("\n" + text)
    save_artifact("dse_directives.txt", text)

    by_label = {_pipelined_label(p): p for p in points}
    full = by_label["computeHistogram+grayScale+segment"]
    none = by_label["none"]
    assert len(points) == 8
    assert all(p.correct for p in points)
    assert full.cycles < none.cycles
    # Pipelining everything is the fastest configuration.
    assert full.cycles == min(p.cycles for p in points)
    # All eight configs share their C sources, so the shared per-function
    # store must carry at least half of all lookups even from cold.
    hit_rate = result.fn_cache_hit_rate
    print(f"fn-cache: {result.fn_cache_hits} hits / "
          f"{result.fn_cache_misses} misses (rate {hit_rate:.2f})")
    assert hit_rate >= 0.5
