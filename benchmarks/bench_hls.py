"""Sub-core HLS compilation cache benchmark — BENCH_hls.json.

Three measurements over the Table-I kernels (48x48 scene) plus the
end-to-end flow on ``bench_flow``'s large random graph, with a
differential gate proving the cached flows stay byte-identical to the
uncached one:

* **cold** — ``synthesize_function`` with the per-function memo layer
  disabled: the reference the speedups are measured against;
* **directives-only** — the DSE hot loop: same source, changed
  directives.  The front-end memo serves the lowered+optimized IR and
  only schedule/bind/latency/RTL re-run.  Gate: >=2x aggregate;
* **warm** — an unchanged function: both memo levels hit and the whole
  synthesis is a single lookup.

The flow leg builds the large random graph (18 cores) once with the
layer off (truly cold) and once as an "otherwise-cold core build" —
no whole-core cache, per-function memo warm — recording the measured
cold-build speedup.

Run standalone (the CI ``hlsbench`` job):

    python benchmarks/bench_hls.py --json BENCH_hls.json \
        --baseline benchmarks/BASELINE_hlsbench.json

Without ``--json`` the results land in ``benchmarks/out/BENCH_hls.json``.
A baseline violation (cold budget, minimum warm hit rate, minimum
directives-only speedup) or any differential mismatch exits non-zero.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.generator import random_task_graph
from repro.apps.otsu import ARCHITECTURES, build_otsu_app
from repro.apps.otsu.csrc import all_sources
from repro.flow import FlowConfig, run_flow
from repro.hls import fncache
from repro.hls.interfaces import allocation
from repro.hls.project import synthesize_function

NPIX = 48 * 48
LARGE = dict(lite_nodes=4, stream_chains=2, chain_length=7)


def _best(fn, repeats):
    """Best-of-N wall clock — robust against scheduler noise in CI."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(repeats=5):
    """Per-kernel cold vs directives-only vs warm synthesis times."""
    rows = []
    for name, src in all_sources(NPIX).items():
        cache = fncache.FunctionCache()
        synthesize_function(src, name, cache=cache)  # warm the front end

        calls = iter(range(10_000))

        def cold():
            synthesize_function(
                src, name, [allocation(name, "add", 64)], cache=None
            )

        def dirs_only():
            # A fresh allocation bound per call keeps the result key
            # unique: the front-end memo hits, the result memo misses.
            r = synthesize_function(
                src,
                name,
                [allocation(name, "add", 1000 + next(calls))],
                cache=cache,
            )
            assert (r.fn_cache_hits, r.fn_cache_misses) == (1, 1)

        def warm():
            r = synthesize_function(
                src, name, [allocation(name, "add", 64)], cache=cache
            )
            assert r.fn_cache_hits == 2

        # Seed the one result key the warm leg replays.
        synthesize_function(src, name, [allocation(name, "add", 64)], cache=cache)
        t_cold = _best(cold, repeats)
        t_dirs = _best(dirs_only, repeats)
        t_warm = _best(warm, repeats)
        rows.append(
            {
                "kernel": name,
                "cold_ms": round(t_cold * 1e3, 3),
                "directives_only_ms": round(t_dirs * 1e3, 3),
                "warm_ms": round(t_warm * 1e3, 3),
                "directives_only_speedup": round(t_cold / t_dirs, 2),
                "warm_speedup": round(t_cold / t_warm, 2),
            }
        )
    agg_cold = sum(r["cold_ms"] for r in rows)
    agg_dirs = sum(r["directives_only_ms"] for r in rows)
    agg_warm = sum(r["warm_ms"] for r in rows)
    return {
        "rows": rows,
        "aggregate_directives_only_speedup": round(agg_cold / agg_dirs, 2),
        "aggregate_warm_speedup": round(agg_cold / agg_warm, 2),
    }


def _reset_fn_layer():
    """Forget all in-process per-function memo state (a fresh process)."""
    from repro.hls import project

    fncache.cache_at(None).clear()
    project._FP_MEMO.clear()


def bench_flow_cold(repeats=3):
    """bench_flow's large graph: fn layer off vs otherwise-cold build.

    The second leg has **no whole-core cache** (every core goes through
    ``csynth``) but a warm per-function memo — the tentpole's "unchanged
    function inside an otherwise-cold core build" case.
    """
    graph, sources = random_task_graph(stream_depth=32, seed=9, **LARGE)
    config = FlowConfig(cache_dir=None, check_tcl=False)

    def run():
        return run_flow(graph, sources, config=config)

    os.environ["REPRO_HLS_FN_CACHE"] = "0"
    try:
        t_off = _best(run, repeats)
    finally:
        del os.environ["REPRO_HLS_FN_CACHE"]

    _reset_fn_layer()
    run()  # warm the process-default memo
    t_warm = _best(run, repeats)
    result = run()
    t = result.timing
    looked = t.fn_cache_hits + t.fn_cache_misses
    return {
        "config": LARGE,
        "cores": len(result.cores),
        "cold_s": round(t_off, 4),
        "fn_warm_s": round(t_warm, 4),
        "cold_speedup": round(t_off / t_warm, 2),
        "warm_hit_rate": round(t.fn_cache_hits / looked, 4) if looked else 0.0,
    }


def _flow_digest(result):
    h = hashlib.sha256(result.bitstream.digest.encode())
    for name in sorted(result.cores):
        build = result.cores[name]
        h.update(name.encode())
        h.update(build.result.verilog.encode())
        h.update(build.hls_tcl.render().encode())
        h.update(build.directives_tcl.encode())
    h.update(result.system_tcl.render().encode())
    return h.hexdigest()


def differential():
    """Byte-identity gate: cached flows == uncached flows, everywhere.

    Each design builds three times — fn layer off, fn layer cold, fn
    layer warm (second run of the same in-process memo) — and every
    artifact digest must agree.
    """
    designs = []
    for arch in sorted(ARCHITECTURES):
        app = build_otsu_app(arch, width=24, height=24)
        designs.append(
            (f"otsu-arch{arch}", app.dsl_graph(), app.c_sources, app.extra_directives)
        )
    for seed in (3, 11):
        graph, sources = random_task_graph(
            stream_depth=16, seed=seed, lite_nodes=2, stream_chains=1, chain_length=3
        )
        designs.append((f"random-seed{seed}", graph, sources, None))

    rows = []
    identical = True
    for label, graph, sources, extra in designs:
        config = FlowConfig(cache_dir=None, check_tcl=False)
        kwargs = {"extra_directives": extra} if extra else {}

        os.environ["REPRO_HLS_FN_CACHE"] = "0"
        try:
            d_off = _flow_digest(run_flow(graph, sources, config=config, **kwargs))
        finally:
            del os.environ["REPRO_HLS_FN_CACHE"]

        _reset_fn_layer()
        d_cold = _flow_digest(run_flow(graph, sources, config=config, **kwargs))
        d_warm = _flow_digest(run_flow(graph, sources, config=config, **kwargs))
        same = d_off == d_cold == d_warm
        identical &= same
        rows.append({"design": label, "digest": d_off[:16], "identical": same})
    return {"designs": rows, "identical": identical}


def check_baseline(report, baseline):
    """Budget/floor comparison for CI; returns the list of violations."""
    errors = []
    speedup = report["kernels"]["aggregate_directives_only_speedup"]
    floor = baseline.get("min_directives_only_speedup", 2.0)
    if speedup < floor:
        errors.append(
            f"directives-only speedup {speedup}x under the {floor}x floor"
        )
    budget = baseline.get("cold_build_budget_s")
    if budget is not None and report["flow"]["cold_s"] > budget:
        errors.append(
            f"cold build of the large graph took {report['flow']['cold_s']}s "
            f"(budget {budget}s)"
        )
    min_rate = baseline.get("min_warm_hit_rate", 1.0)
    if report["flow"]["warm_hit_rate"] < min_rate:
        errors.append(
            f"warm hit rate {report['flow']['warm_hit_rate']} under {min_rate}"
        )
    if report["flow"]["cold_speedup"] <= baseline.get("min_cold_speedup", 1.0):
        errors.append(
            f"fn-warm cold build speedup {report['flow']['cold_speedup']}x "
            "shows no measured improvement"
        )
    if not report["differential"]["identical"]:
        errors.append("differential gate: cached artifacts diverged from uncached")
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="where to write the report JSON")
    ap.add_argument("--baseline", help="baseline file to enforce")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    report = {
        "npix": NPIX,
        "kernels": bench_kernels(args.repeats),
        "flow": bench_flow_cold(max(2, args.repeats - 2)),
        "differential": differential(),
    }

    out = Path(args.json) if args.json else Path(__file__).parent / "out" / "BENCH_hls.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    k = report["kernels"]
    f = report["flow"]
    print(f"directives-only rebuild: {k['aggregate_directives_only_speedup']}x aggregate")
    for row in k["rows"]:
        print(
            f"  {row['kernel']:>18s}: cold {row['cold_ms']:7.2f}ms  "
            f"dirs-only {row['directives_only_ms']:7.2f}ms "
            f"({row['directives_only_speedup']}x)  "
            f"warm {row['warm_ms']:6.2f}ms ({row['warm_speedup']}x)"
        )
    print(
        f"large-graph cold build: {f['cold_s']}s off vs {f['fn_warm_s']}s fn-warm "
        f"({f['cold_speedup']}x, hit rate {f['warm_hit_rate']:.0%})"
    )
    print(
        "differential: "
        + ("all identical" if report["differential"]["identical"] else "DIVERGED")
    )
    print(f"report written to {out}")

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        errors = check_baseline(report, baseline)
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        if errors:
            return 1
    elif not report["differential"]["identical"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
