"""X6 — directive-level DSE: PIPELINE subsets over the Arch4 actors.

Partitioning fixes *what* runs in hardware; the per-core directives the
DSL flow forwards to HLS decide *how well*.  Sweeps all 2^3 PIPELINE
subsets over grayScale/computeHistogram/segment, runs each system, and
reports the latency/area landscape.
"""

import tempfile

from conftest import save_artifact

from repro.dse import explore_directives
from repro.hls import fncache
from repro.util.text import format_table


def test_directive_dse(benchmark):
    with tempfile.TemporaryDirectory(prefix="bench-dse-dir-") as td:
        points = benchmark.pedantic(
            lambda: explore_directives(width=24, height=24, fn_cache_dir=f"{td}/fn"),
            rounds=1,
            iterations=1,
        )
        stats = fncache.cache_at(f"{td}/fn").stats
    rows = [
        (p.label(), p.cycles, p.lut, p.ff, p.dsp)
        for p in sorted(points, key=lambda p: p.cycles)
    ]
    text = format_table(
        ["pipelined actors", "cycles", "LUT", "FF", "DSP"],
        rows,
        title="X6 — PIPELINE-directive sweep over Arch4:",
    )
    print("\n" + text)
    save_artifact("dse_directives.txt", text)

    by_label = {p.label(): p for p in points}
    full = by_label["computeHistogram+grayScale+segment"]
    none = by_label["none"]
    assert all(p.correct for p in points)
    assert full.cycles < none.cycles
    # Pipelining everything is the fastest configuration.
    assert full.cycles == min(p.cycles for p in points)
    # All eight configs share their C sources, so the shared per-function
    # store must carry at least half of all lookups even from cold.
    hit_rate = stats.hits / (stats.hits + stats.misses)
    print(f"fn-cache: {stats.hits} hits / {stats.misses} misses "
          f"(rate {hit_rate:.2f})")
    assert hit_rate >= 0.5
