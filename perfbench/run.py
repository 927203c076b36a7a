#!/usr/bin/env python3
"""The repository benchmark: build, simulate and DSE, measured by a clock.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload build-cold --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
measures half the time untraced and half traced and reports the
per-layer metrics, and writes a Chrome ``trace_event`` file under
``.perfbench_out/``.  ``--smoke`` runs every workload briefly in fresh
interpreters and checks the output schema; ``--pin`` rewrites
``pins.json`` for the default and the held-out seed.

Every time is host ``perf_counter_ns``; the Fig-9 cost model of
``repro.flow.timing`` is never reported.  See README.md in this
directory for the metric, layer and workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("build-cold", "sim-burst", "dse-sweep")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009
#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops the reported statistics rest on, so ten samples lie above p90.
MIN_OPS = 100
#: A loop still short of samples stops this long after its deadline.
OVERRUN_S = 45

#: Ambient knobs that change the program measured.  They are removed
#: before ``repro`` is imported, and the removal is recorded.
PINNED_ENV = (
    "REPRO_FLOW_JOBS",
    "REPRO_FLOW_CACHE_DIR",
    "REPRO_SIM_BURST",
    "REPRO_HLS_FN_CACHE",
    "REPRO_OBS",
)
PINNED_ENV_PREFIX = "REPRO_FLOW_CRASH_"

FALLBACK_REASONS = (
    "fault_touches", "hp_unprovable", "fifo_busy", "engine_busy",
    "no_convergence", "watchdog_budget", "shallow_fifo",
)


def pin_environment() -> list[str]:
    cleared = [
        k for k in sorted(os.environ)
        if k in PINNED_ENV or k.startswith(PINNED_ENV_PREFIX)
    ]
    for k in cleared:
        del os.environ[k]
    return cleared


def import_program():
    """Import ``repro`` from this checkout's ``src`` — never from anywhere
    else — and the workload module.  Exits 2 when the source is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")
    import workloads

    return workloads


# -- measurement -------------------------------------------------------------


def measure(wl, seconds: float):
    """Closed loop: run ops until *seconds* passed and every op key (one
    design, case, candidate or edit of the mix) has enough samples for
    :func:`least_disturbed`.  Returns the ops and the loop wall time."""
    from workloads import Op

    ops = []
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    keep = -(-MIN_OPS // wl.cycle)
    while True:
        t0 = perf_counter_ns()
        try:
            ops.extend(wl.step())
        except Exception as exc:  # noqa: BLE001 - an op that raises fails
            print(f"# op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ops.append(Op(perf_counter_ns() - t0, False, key="<raised>"))
        now = perf_counter_ns()
        if now >= deadline + OVERRUN_S * 1e9:
            return ops, now - start
        if now >= deadline and len(ops) >= keep * wl.cycle:
            counts = Counter(op.key for op in ops)
            if len(counts) >= wl.cycle and min(counts.values()) >= keep:
                return ops, now - start


def least_disturbed(ops, cycle: int):
    """The fastest ``ceil(MIN_OPS / cycle)`` ops of every op key.

    The host is shared: other tenants slow it down by up to ~1.7x for
    seconds at a time, which moves a whole-loop median by tens of
    percent from run to run.  Every key's fastest samples come from the
    least-disturbed moments of the loop, and taking the same number per
    key keeps the op mix of the workload.
    """
    keep = -(-MIN_OPS // cycle)
    by_key: dict[str, list] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    return [op for group in by_key.values() for op in sorted(group, key=lambda o: o.ns)[:keep]]


def _counter_callbacks():
    """Counters read from layer return values in the traced phase."""

    def synth(t, r):
        t.add("fn_hits", r.fn_cache_hits)
        t.add("fn_misses", r.fn_cache_misses)

    def sim(t, r):
        t.add("kernel_events", r.kernel_events)
        stats = r.burst_stats
        t.add("fast_phases", stats["burst_phases"] + stats["prefix_phases"])
        t.add("hw_phases", stats["burst_phases"] + stats["prefix_phases"] + stats["word_phases"])
        for reason, n in stats["fallback_reasons"].items():
            t.add(f"fallback.{reason}", n)

    return {"hls.synth": synth, "sim.simulate": sim}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(setup_ns, ops, loop_ns, cycle: int) -> dict:
    """Latency over the least-disturbed ops; throughput is their rate
    scaled by the share of loop wall time spent inside ops, so loop
    overhead (checks, campaign bookkeeping) still counts."""
    kept = [op.ns for op in least_disturbed(ops, cycle)]
    busy_share = sum(op.ns for op in ops) / loop_ns
    return {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "op_ms.p50": (statistics.median(kept) / 1e6, "ms"),
        "op_ms.p90": (statistics.quantiles(kept, n=10)[8] / 1e6, "ms"),
        "ops_per_s": (len(kept) / (sum(kept) / 1e9) * busy_share, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced_ops, base_sel, traced_sel) -> dict:
    """Layer totals per op of the whole traced half; the op medians and
    the simulation rate come from the least-disturbed ops."""
    n = len(traced_ops)
    table = tracer.layer_table()
    counts = tracer.counts

    def col(layer, key):
        return table[layer][key] / n if layer in table else 0.0

    base_p50 = statistics.median(op.ns for op in base_sel)
    traced_p50 = statistics.median(op.ns for op in traced_sel)
    base_ns = sum(op.ns for op in base_sel)
    m = {
        "trace.op_ms.p50": (traced_p50 / 1e6, "ms"),
        "trace.overhead_ratio": (traced_p50 / base_p50, "ratio"),
        "sim_mcycles_per_s": (sum(op.cycles for op in base_sel) / base_ns * 1e3, "Mcycle/s"),
        "dsl.parse.self_ms": (col("dsl.parse", "self_ms"), "ms/op"),
        "hls.synth.calls": (col("hls.synth", "calls"), "count/op"),
    }
    for layer in ("hls.synth", "hls.frontend", "hls.passes", "hls.schedule", "hls.bind",
                  "hls.rtl", "hls.estimate"):
        m[f"{layer}.ms"] = (col(layer, "ms"), "ms/op")
    m["hls.fncache.self_ms"] = (col("hls.synth", "self_ms"), "ms/op")
    m["hls.fncache.hit_ratio"] = (
        _ratio(counts["fn_hits"], counts["fn_hits"] + counts["fn_misses"]), "ratio")
    m["flow.orchestrator.self_ms"] = (col("flow.orchestrator", "self_ms"), "ms/op")
    for layer in ("soc.integrate", "soc.synthesis", "tcl.generate", "tcl.replay", "swgen",
                  "sim.simulate", "sim.platform"):
        m[f"{layer}.ms"] = (col(layer, "ms"), "ms/op")
    m["sim.solve.calls"] = (col("sim.solve", "calls"), "count/op")
    m["sim.solve.ms"] = (col("sim.solve", "ms"), "ms/op")
    m["sim.commit.ms"] = (col("sim.commit", "ms"), "ms/op")
    m["sim.kernel.self_ms"] = (col("sim.kernel", "self_ms"), "ms/op")
    m["sim.kernel.events"] = (counts["kernel_events"] / n, "count/op")
    m["sim.burst.accept_ratio"] = (_ratio(counts["fast_phases"], counts["hw_phases"]), "ratio")
    for reason in FALLBACK_REASONS:
        m[f"sim.fallback.{reason}"] = (counts[f"fallback.{reason}"] / n, "count/op")
    m["dse.evaluate.ms"] = (col("dse.evaluate", "ms"), "ms/op")
    m["dse.pareto.ms"] = (col("dse.pareto", "ms"), "ms/op")
    return m


def check_pins(name: str, seed: int, digests: dict) -> int:
    """Number of reference digests that differ from the pinned ones."""
    pins = json.loads((HERE / "pins.json").read_text())
    expected = pins.get(name, {}).get(str(seed))
    if expected is None:
        return 0
    keys = set(expected) | set(digests)
    return sum(expected.get(k) != digests.get(k) for k in keys)


def environment(seed: int, workload: str, cleared: list[str]) -> dict:
    import numpy

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "cleared_env": cleared,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def run(args) -> int:
    cleared = pin_environment()
    workloads = import_program()
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    failed = attempted = 0
    setup_ns = []
    for _ in range(SETUP_REPEATS):
        wl = cls(args.seed)
        workloads.clear_hls_memos()
        t0 = perf_counter_ns()
        wl.setup()
        setup_ns.append(perf_counter_ns() - t0)
    attempted += wl.setup_ops
    failed += wl.setup_failures
    mismatched = check_pins(args.workload, args.seed, wl.digests)
    failed += mismatched

    if args.trace:
        base_ops, _ = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install(extra_modules=[workloads], on_result=_counter_callbacks())
        try:
            traced_ops, _ = measure(wl, args.seconds / 2)
        finally:
            tracer.uninstall()
        ops = base_ops + traced_ops
        metrics = per_layer(
            tracer,
            traced_ops,
            least_disturbed(base_ops, wl.cycle),
            least_disturbed(traced_ops, wl.cycle),
        )
    else:
        ops, loop_ns = measure(wl, args.seconds)
        metrics = end_to_end(setup_ns, ops, loop_ns, wl.cycle)
        lat = [op.ns / 1e6 for op in ops]
        whole = {
            "op_ms.p50": statistics.median(lat),
            "op_ms.p90": statistics.quantiles(lat, n=10)[8],
            "ops_per_s": len(ops) / (loop_ns / 1e9),
        }
    attempted += len(ops)
    failed += sum(not op.ok for op in ops)

    env = environment(args.seed, args.workload, cleared)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {
        "fail_ratio": failed / attempted,
        "pin_mismatches": mismatched,
        "timed_ops": len(ops),
    }
    if not args.trace:
        for name in ("op_ms.p50", "op_ms.p90", "ops_per_s"):
            extra[f"whole_loop {name}"] = round(whole[name], 4)
    else:
        spans = tracer.chrome_trace(OUT_DIR / f"trace-{stem}.json")
        extra["trace_file"] = f".perfbench_out/trace-{stem}.json"
        extra["spans"] = spans
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name}: {value}")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({**result, "env": env, **extra}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


# -- self-test and pins -------------------------------------------------------


def smoke(seconds: float) -> int:
    """Run every workload briefly (also ``sim-burst``, which is not in
    ``BENCHMARK.json``), traced and untraced, each in a fresh
    interpreter; check the schema, every metric and its unit, and that
    no op failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(DEFAULT_SEED), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(out)}")
            if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                problems.append(f"{tag}: correct={out['correct']} failed={out['failed']}")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {got}")
            for k, v in out["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{tag}: {k} is not a number")
            print(f"{tag}: ok={not problems} attempted={out['attempted']}")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def write_pins() -> int:
    pin_environment()
    workloads = import_program()
    pins = {}
    for name in WORKLOAD_NAMES:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = workloads.WORKLOADS[name](seed)
            workloads.clear_hls_memos()
            wl.setup()
            if wl.setup_failures:
                sys.exit(f"perfbench: {name} seed {seed} failed its checks; not pinning")
            pins.setdefault(name, {})[str(seed)] = wl.digests
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test every workload")
    ap.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke(1.0)
    if args.pin:
        return write_pins()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
