"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``check``        parse + validate a ``.tg`` description, print a summary
``build``        run the full flow for a ``.tg`` file (C sources looked
                 up as ``<node>.c`` in ``--sources``) and materialize
                 the workspace; journaled + crash-safe, ``--resume``
                 continues a killed build from its run journal;
                 ``--trace``/``--metrics`` export observability data
``trace``        build + simulate a ``.tg`` design with observability on
                 and export a merged Chrome trace (flow wall-clock spans
                 + simulator cycle-domain spans) for chrome://tracing
``metrics``      build + simulate one Table-I architecture and print the
                 metrics registry (Prometheus text or JSON)
``otsu``         build + simulate one Table-I architecture
``simbench``     word-path vs burst-path simulator benchmark: runs every
                 Table-I architecture both ways, requires cycle- and
                 digest-identical results and equal channel_stats,
                 reports events, replayed loop repetitions and speedup
``experiments``  regenerate every table and figure into a directory
``faultcheck``   seeded fault-injection campaign over the Table-I
                 architectures; every scenario must recover or raise a
                 structured diagnostic (same seed => same digest)
``cachecheck``   scrub the shared build cache: verify every entry's
                 integrity, quarantine corrupt ones, report (``--json``
                 emits the full scrub report as JSON)
``crashcheck``   crash-injection campaign: kill the flow at every
                 journal boundary on every Table-I architecture, resume,
                 and require byte-identical artifacts (plus a deliberate
                 cache-corruption leg that must quarantine and rebuild)
``serve``        run the multi-tenant build service on a unix socket:
                 fair-share queueing, admission control, retries,
                 circuit breakers, warm-cache degradation, journal
                 recovery of jobs interrupted by a daemon kill, and
                 every job under a durable, fenced lease;
                 ``--replicas N`` runs N leader-less replica processes
                 over the root with the same flags (``--drain`` exits
                 once every durably-admitted job is terminal)
``submit``       client for ``serve``: submit a ``.tg`` design (plus C
                 sources) as a job for a tenant, optionally wait for it
``servicecheck`` kill-the-daemon chaos campaign: at every journal
                 boundary, kill a two-tenant daemon mid-flight, restart,
                 recover, and require every job's artifacts to be
                 byte-identical to an uninterrupted run; with
                 ``--replicas N`` the victim is a real replica process,
                 SIGKILLed and SIGSTOPped at every boundary, and the
                 survivors must steal its lease and fence its ghost
``dse``          parallel multi-objective design-space exploration:
                 evaluate every candidate (partition × PIPELINE subset ×
                 DMA policy × HP bandwidth) through the real flow +
                 simulator with one shared per-function HLS store, prune
                 to the latency-vs-LUT/FF/BRAM/DSP Pareto frontier;
                 journaled (``--resume``), parallel (``--jobs``),
                 digest-deterministic; ``--baseline`` compares the SDSoC
                 one-DMA-per-stream point
``dsecheck``     deterministic DSE campaign gate: same digest across two
                 runs and across ``--jobs 1/N`` (byte-identical frontier
                 JSON), killed-and-resumed campaign equals uninterrupted,
                 frontier re-derives the winning architectures and
                 dominates the SDSoC baseline, and the directives-only
                 sweep meets the fn-cache hit-rate floor
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.util.errors import ReproError


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.dsl import parse_dsl, validate_graph

    text = Path(args.design).read_text()
    graph = parse_dsl(text, filename=args.design)
    validate_graph(graph)
    lite = [n.name for n in graph.nodes if n.lite_ports() and not n.stream_ports()]
    stream = [n.name for n in graph.nodes if n.stream_ports()]
    print(f"{args.design}: OK — graph {graph.name!r}")
    print(f"  nodes:    {len(graph.nodes)} ({len(lite)} AXI-Lite, {len(stream)} streaming)")
    print(f"  connects: {len(graph.connects())}, links: {len(graph.links())}")
    return 0


def _load_sources(graph, sources_dir: str) -> dict[str, str]:
    src_path = Path(sources_dir)
    sources: dict[str, str] = {}
    missing: list[str] = []
    for node in graph.nodes:
        candidate = src_path / f"{node.name}.c"
        if candidate.exists():
            sources[node.name] = candidate.read_text()
        else:
            missing.append(str(candidate))
    if missing:
        raise ReproError(
            "missing C sources: " + ", ".join(missing)
        )
    return sources


def _cmd_build(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.flow import FlowConfig, RunJournal, materialize, run_flow
    from repro.dsl import parse_dsl
    from repro.tcl.backends import Vivado2014_2, Vivado2015_3

    graph = parse_dsl(Path(args.design).read_text(), filename=args.design)
    sources = _load_sources(graph, args.sources)
    backend = Vivado2014_2() if args.backend == "2014.2" else Vivado2015_3()
    # Builds are journaled and cached by default so a killed invocation
    # can continue with --resume; the journal digest covers the config,
    # so a changed config forces a clean rebuild instead of stale reuse.
    cache_dir = (
        args.cache_dir
        or os.environ.get("REPRO_FLOW_CACHE_DIR")
        or f"{args.out}.cache"
    )
    journal_path = Path(f"{args.out}.journal")
    if not args.resume and journal_path.exists():
        journal_path.unlink()  # an explicit fresh build ignores old state
    config = FlowConfig(backend=backend, cache_dir=cache_dir)
    observe = args.trace or args.metrics
    if observe:
        from repro.obs import capture
    with capture() if observe else nullcontext((None, None)) as (bus, registry):
        with RunJournal(journal_path) as journal:
            result = run_flow(graph, sources, config=config, journal=journal)

            print(result.design.summary())
            print(result.design.address_map.render())
            bit = result.bitstream
            print(f"bitstream: {bit.digest[:16]}...  clock {bit.achieved_clock_mhz} MHz")
            print(
                "modeled generation time: "
                + ", ".join(f"{k}={v}s" for k, v in result.timing.as_row().items())
            )
            t = result.timing
            if t.fn_cache_hits or t.fn_cache_misses:
                per_core = ", ".join(
                    f"{tr.name}={tr.fn_cache_hits}"
                    for tr in t.trace
                    if tr.fn_cache_hits
                )
                print(
                    f"fn-cache: {t.fn_cache_hits} hit(s), "
                    f"{t.fn_cache_misses} miss(es)"
                    + (f" [{per_core}]" if per_core else "")
                )
            if t.resumed:
                print(
                    f"resumed from {journal_path}: {t.steps_skipped} step(s) "
                    f"skipped, {t.crash_recoveries} interrupted step(s) recovered"
                )
            out = materialize(result, args.out, journal=journal)
    print(f"workspace written to {out}/")
    if args.trace:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(args.trace, bus.events())
        print(f"chrome trace ({len(bus.events())} events) written to {path}")
    if args.metrics:
        _write_metrics(registry, args.metrics)
    return 0


def _write_metrics(registry, dest: str) -> None:
    """Write a registry snapshot: ``.json`` -> JSON, otherwise Prometheus."""
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        path.write_text(registry.to_json())
    else:
        path.write_text(registry.to_prometheus_text())
    print(f"metrics snapshot written to {path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.dsl import parse_dsl
    from repro.flow import autosimulate, run_flow
    from repro.obs import capture, sim_totals_digest, write_chrome_trace

    graph = parse_dsl(Path(args.design).read_text(), filename=args.design)
    sources = _load_sources(graph, args.sources)
    with capture() as (bus, registry):
        flow = run_flow(graph, sources)
        result = autosimulate(flow, seed=args.seed)
    report = result.report
    path = write_chrome_trace(args.out, bus.events(), sim_trace=report.trace)
    print(
        f"simulated {report.cycles} cycles; merged trace "
        f"({len(bus.events())} bus events + {len(report.trace.spans)} "
        f"sim spans) written to {path}"
    )
    print(f"sim totals digest: {sim_totals_digest(registry.snapshot())}")
    if args.metrics:
        _write_metrics(registry, args.metrics)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.apps.otsu import build_otsu_app
    from repro.flow import run_flow
    from repro.obs import capture, sim_totals_digest
    from repro.sim import simulate_application

    width, _, height = args.size.partition("x")
    app = build_otsu_app(args.arch, width=int(width), height=int(height or width))
    with capture() as (bus, registry):
        flow = run_flow(
            app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
        )
        simulate_application(
            app.htg, app.partition, app.behaviors, {}, system=flow.system
        )
    if args.json:
        print(registry.to_json(), end="")
    else:
        print(registry.to_prometheus_text(), end="")
    print(f"# sim totals digest: {sim_totals_digest(registry.snapshot())}")
    if args.out:
        _write_metrics(registry, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.dsl import parse_dsl
    from repro.flow import autosimulate, run_flow

    graph = parse_dsl(Path(args.design).read_text(), filename=args.design)
    sources = _load_sources(graph, args.sources)
    flow = run_flow(graph, sources)
    result = autosimulate(flow, seed=args.seed, wait_mode=args.wait_mode)
    print(f"simulated {result.report.cycles} cycles "
          f"({result.report.seconds * 1e6:.1f} us @100MHz)")
    for name, arr in result.stimuli.items():
        print(f"  stimulus {name}: {len(arr)} words (seed {args.seed})")
    for name, arr in result.outputs.items():
        head = ", ".join(str(v) for v in arr[:8])
        print(f"  output   {name}: {len(arr)} words  [{head}{', ...' if len(arr) > 8 else ''}]")
    for name, value in result.lite_returns.items():
        print(f"  lite core {name}(0, ...) -> {value}")
    if args.trace:
        print()
        print(result.report.trace.render())
    return 0


def _cmd_otsu(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.apps.otsu import build_otsu_app
    from repro.flow import run_flow
    from repro.sim import simulate_application

    rgb = None
    if args.image:
        from repro.apps.image import read_pgm, read_ppm

        path = Path(args.image)
        if path.suffix.lower() == ".ppm":
            rgb = read_ppm(path)
        else:
            gray = read_pgm(path)
            rgb = np.stack([gray, gray, gray], axis=-1)
        print(f"binarizing {path} ({rgb.shape[1]}x{rgb.shape[0]})")
    width, _, height = args.size.partition("x")
    app = build_otsu_app(
        args.arch, width=int(width), height=int(height or width), rgb=rgb
    )
    flow = run_flow(
        app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
    )
    r = flow.bitstream.utilization
    print(
        f"Arch{args.arch}: LUT={r.lut} FF={r.ff} RAMB18={r.bram18} DSP={r.dsp}"
    )
    report = simulate_application(
        app.htg, app.partition, app.behaviors, {}, system=flow.system
    )
    ok = np.array_equal(report.of("binImage"), np.asarray(app.golden["binary"]))
    print(
        f"simulated: {report.cycles} cycles ({report.seconds * 1e3:.2f} ms "
        f"@100MHz), output {'bit-exact' if ok else 'WRONG'}, "
        f"threshold={app.golden['threshold']}"
    )
    if args.save:
        from repro.apps.image import write_pgm

        binary = np.asarray(report.of("binImage"), dtype=np.uint8).reshape(
            app.height, app.width
        )
        write_pgm(args.save, binary)
        print(f"binarized image written to {args.save}")
    if args.out:
        from repro.flow import materialize

        print(f"workspace written to {materialize(flow, args.out)}/")
    return 0 if ok else 1


def _fmt_fallback_reasons(reasons: dict) -> str:
    """``fault_touches x1, fifo_busy x2`` -- or ``none``."""
    if not reasons:
        return "none"
    return ", ".join(f"{k} x{v}" for k, v in sorted(reasons.items()))


def _simbench_fault_cycle(report, hw_nodes: list[str]) -> int | None:
    """Pick a mid-phase cycle inside the prefix window of the longest
    hardware phase: late enough to clear every driver kick, early enough
    to land before the phase drains."""
    spans = [
        (end - start, start, end)
        for name in hw_nodes
        for start, end in (report.node_spans.get(name),)
        if report.node_spans.get(name) is not None
    ]
    if not spans:
        return None
    length, start, end = max(spans)
    if length < 20:
        return None
    return start + (length * 9) // 10


#: simbench baseline fields that may fall but never rise: the effort of
#: the burst path.  Every other recorded field must match exactly.
_SIMBENCH_FALLING = ("events_burst", "reps_replayed", "fault_reps_replayed")


def _cmd_simbench(args: argparse.Namespace) -> int:
    import json
    import time

    import numpy as np

    from repro.apps.otsu import build_otsu_app
    from repro.flow import run_flow
    from repro.sim import Fault, FaultPlan, simulate_application

    arches = [int(a) for a in args.arches.split(",")]
    width, _, height = args.size.partition("x")
    width, height = int(width), int(height or width)
    print(f"simbench: arch {arches} at {width}x{height}")
    rows: list[dict] = []
    failures = 0
    for arch in arches:
        app = build_otsu_app(arch, width=width, height=height)
        flow = run_flow(
            app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
        )
        timings: dict[str, float] = {}
        reports = {}
        for label, mode in (("word", False), ("burst", True)):
            t0 = time.perf_counter()
            for _ in range(args.runs):
                reports[label] = simulate_application(
                    app.htg, app.partition, app.behaviors, {},
                    system=flow.system, burst_mode=mode,
                )
            timings[label] = (time.perf_counter() - t0) / args.runs
        word, burst = reports["word"], reports["burst"]
        identical = (
            word.cycles == burst.cycles
            and word.digest() == burst.digest()
            and word.channel_stats == burst.channel_stats
            and np.array_equal(
                burst.of("binImage"), np.asarray(app.golden["binary"])
            )
        )
        stats = burst.burst_stats
        fast = stats["burst_phases"] + stats["prefix_phases"] > 0
        if not identical or (fast and burst.kernel_events >= word.kernel_events):
            failures += 1
        speedup = timings["word"] / timings["burst"] if timings["burst"] else 0.0
        row = {
            "arch": arch,
            "cycles": word.cycles,
            "identical": identical,
            "burst_phases": stats["burst_phases"],
            "prefix_phases": stats["prefix_phases"],
            "word_phases": stats["word_phases"],
            "fallback_reasons": dict(stats["fallback_reasons"]),
            "events_word": word.kernel_events,
            "events_burst": burst.kernel_events,
            "reps_replayed": stats["reps_replayed"],
            "reps_skipped": stats["reps_skipped"],
            "seconds_word": timings["word"],
            "seconds_burst": timings["burst"],
            "speedup": speedup,
            "digest": burst.digest(),
        }
        print(
            f"  arch{arch}: {word.cycles} cycles, "
            f"events {word.kernel_events} -> {burst.kernel_events}, "
            f"replay reps {stats['reps_replayed']} run + "
            f"{stats['reps_skipped']} skipped, "
            f"{timings['word']:.3f}s -> {timings['burst']:.3f}s "
            f"({speedup:.1f}x), "
            f"{'identical' if identical else 'MISMATCH'}"
            + ("" if fast else " (word fallback)")
            + (
                f", fallbacks: {_fmt_fallback_reasons(row['fallback_reasons'])}"
                if row["word_phases"]
                else ""
            )
        )
        # Faulted leg: a mid-phase DRAM flip that under the pre-prefix
        # simulator forced every hardware phase onto the word path.  The
        # prefix-burst engine must keep the flip's phase on the fast
        # path (burst the fault-free prefix, hand live state to the
        # word path) and still be digest-identical to the word run.
        at = _simbench_fault_cycle(word, app.partition.hw_nodes())
        if at is not None:
            plan = FaultPlan(
                (Fault("dram_flip", "*", at_cycle=at, bit=3, word=5),)
            )
            f_reports = {}
            for label, mode in (("word", False), ("burst", True)):
                f_reports[label] = simulate_application(
                    app.htg, app.partition, app.behaviors, {},
                    system=flow.system, burst_mode=mode, faults=plan,
                )
            f_word, f_burst = f_reports["word"], f_reports["burst"]
            f_stats = f_burst.burst_stats
            f_identical = (
                f_word.cycles == f_burst.cycles
                and f_word.digest() == f_burst.digest()
                and f_word.channel_stats == f_burst.channel_stats
            )
            hw_phases = (
                f_stats["burst_phases"]
                + f_stats["prefix_phases"]
                + f_stats["word_phases"]
            )
            # The pre-prefix simulator word-pathed every phase a
            # dram_flip plan could touch -- i.e. all of them.
            legacy_word = hw_phases
            shrunk = f_stats["word_phases"] < legacy_word
            if not f_identical or not shrunk:
                failures += 1
            row.update(
                fault_at=at,
                fault_identical=f_identical,
                fault_burst_phases=f_stats["burst_phases"],
                fault_prefix_phases=f_stats["prefix_phases"],
                fault_word_phases=f_stats["word_phases"],
                fault_fallback_reasons=dict(f_stats["fallback_reasons"]),
                fault_legacy_word_phases=legacy_word,
                fault_reps_replayed=f_stats["reps_replayed"],
                fault_reps_skipped=f_stats["reps_skipped"],
                fault_digest=f_burst.digest(),
            )
            print(
                f"    fault@{at}: phases burst={f_stats['burst_phases']} "
                f"prefix={f_stats['prefix_phases']} "
                f"word={f_stats['word_phases']} (was {legacy_word}), "
                f"replay reps {f_stats['reps_replayed']} run + "
                f"{f_stats['reps_skipped']} skipped, "
                f"{'identical' if f_identical else 'MISMATCH'}, "
                f"fallbacks: "
                f"{_fmt_fallback_reasons(row['fault_fallback_reasons'])}"
            )
        rows.append(row)
    if not any(r["burst_phases"] + r["prefix_phases"] for r in rows):
        print("error: no architecture took the fast path", file=sys.stderr)
        failures += 1
    if args.baseline:
        base_path = Path(args.baseline)
        if not base_path.exists():
            print(f"error: baseline {base_path} not found", file=sys.stderr)
            failures += 1
        else:
            base = json.loads(base_path.read_text())
            base_rows = {int(k): v for k, v in base.get("rows", {}).items()}
            if base.get("size") != f"{width}x{height}":
                print(
                    f"  baseline size {base.get('size')} != run size "
                    f"{width}x{height}; skipping baseline diff"
                )
            else:
                # Every recorded field must match; the burst path may
                # only get cheaper, in kernel events and in the loop
                # repetitions its replays run.
                for row in rows:
                    for key, was in base_rows.get(row["arch"], {}).items():
                        now = row.get(key)
                        if key in _SIMBENCH_FALLING:
                            ok = now is not None and now <= was
                        else:
                            ok = now == was
                        if not ok:
                            print(
                                f"error: arch{row['arch']} {key} {was} -> {now} "
                                f"vs {base_path}",
                                file=sys.stderr,
                            )
                            failures += 1
                print(f"  results diffed against {base_path}")
    if args.json:
        payload = {"size": f"{width}x{height}", "runs": args.runs, "rows": rows}
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  results written to {args.json}")
    if failures:
        print(f"error: {failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_faultcheck(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.apps.otsu import build_otsu_app
    from repro.flow import run_flow
    from repro.sim import (
        FaultPlan,
        RecoveryPolicy,
        campaign_digest,
        simulate_application,
    )

    arches = [int(a) for a in args.arches.split(",")]
    width, _, height = args.size.partition("x")
    policy = RecoveryPolicy(node_budget=args.budget)
    builds = {}
    for arch in arches:
        app = build_otsu_app(arch, width=int(width), height=int(height or width))
        flow = run_flow(
            app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
        )
        builds[arch] = (app, flow)
    print(
        f"faultcheck: {args.scenarios} scenarios over arch {arches} "
        f"(seed {args.seed}, watchdog {args.budget} cycles)"
    )

    records: list[dict] = []
    counts = {"survived": 0, "recovered": 0, "diagnosed": 0, "escaped": 0}
    for k in range(args.scenarios):
        arch = arches[k % len(arches)]
        app, flow = builds[arch]
        plan = FaultPlan.random(
            args.seed * 100_003 + k,
            system=flow.system,
            horizon=args.horizon,
            max_faults=args.max_faults,
        )
        record = {
            "scenario": k,
            "arch": arch,
            "plan": plan.describe(),
            "plan_digest": plan.digest(),
        }
        try:
            report = simulate_application(
                app.htg, app.partition, app.behaviors, {},
                system=flow.system, faults=plan, policy=policy,
            )
        except ReproError as exc:
            outcome = "diagnosed"
            record.update(error=type(exc).__name__, cycles=None, detail=str(exc))
        else:
            correct = np.array_equal(
                report.of("binImage"), np.asarray(app.golden["binary"])
            )
            fired = len(report.fault_events)
            record.update(
                cycles=report.cycles,
                faults_fired=fired,
                recoveries=[e.describe() for e in report.recovery_events],
            )
            if not correct:
                outcome = "escaped"
            elif report.recovery_events:
                outcome = "recovered"
            else:
                outcome = "survived"
        record["outcome"] = outcome
        counts[outcome] += 1
        records.append(record)
        print(f"  #{k:>3} arch{arch} {len(plan)} fault(s) -> {outcome}")

    digest = campaign_digest(records)
    print(
        "  "
        + " ".join(f"{name}={n}" for name, n in counts.items())
    )
    print(f"  campaign digest: {digest}")
    if args.digest_out:
        Path(args.digest_out).write_text(digest + "\n")
        print(f"  digest written to {args.digest_out}")
    if counts["escaped"]:
        print(
            f"error: {counts['escaped']} scenario(s) escaped — corrupted "
            "output with no diagnostic",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cachecheck(args: argparse.Namespace) -> int:
    from repro.flow import BuildCache
    from repro.util.errors import CacheCorrupted

    cache_dir = args.cache_dir or os.environ.get("REPRO_FLOW_CACHE_DIR")
    if not cache_dir:
        raise ReproError(
            "no cache directory: pass --cache-dir or set REPRO_FLOW_CACHE_DIR"
        )
    cache = BuildCache(cache_dir)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the report lists them itself
        report = cache.scrub()
    purged = None
    if args.purge_quarantine:
        purged = cache.purge_quarantine()

    # The sub-core per-function memo persists under <cache_dir>/fn and
    # reuses the same integrity machinery — scrub it alongside.
    fn_section = None
    fn_report = None
    fn_dir = Path(cache_dir) / "fn"
    if fn_dir.is_dir():
        from repro.hls.fncache import FunctionCache

        fn_cache = FunctionCache(fn_dir)
        fn_section = fn_cache.report()  # hit rate reads "since last scrub"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fn_report = fn_cache.scrub()
        fn_section["scrub"] = fn_report.as_dict()
        if args.purge_quarantine:
            fn_section["purged"] = fn_cache._store.purge_quarantine()
    if args.json:
        import json

        payload = report.as_dict()
        payload["cache_dir"] = str(cache_dir)
        if purged is not None:
            payload["purged"] = purged
        if fn_section is not None:
            payload["fn_cache"] = fn_section
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
        if purged is not None:
            print(f"purged {purged} quarantined blob(s)")
        elif cache.quarantined_keys():
            print(
                f"{len(cache.quarantined_keys())} blob(s) in quarantine "
                "(inspect, then `repro cachecheck --purge-quarantine`)"
            )
        if fn_section is not None:
            rate = fn_section["hit_rate"]
            print(
                f"fn-cache: {fn_section['entries']} entr"
                f"{'y' if fn_section['entries'] == 1 else 'ies'}, "
                f"{fn_section['bytes']} bytes, hit rate since last scrub: "
                + (f"{rate:.1%}" if rate is not None else "n/a")
            )
            if fn_report is not None and fn_report.quarantined:
                print(
                    f"fn-cache: {len(fn_report.quarantined)} corrupt "
                    "entr{} quarantined".format(
                        "y" if len(fn_report.quarantined) == 1 else "ies"
                    )
                )
    if args.strict and not report.healthy:
        raise CacheCorrupted(
            f"{len(report.quarantined)} corrupt cache entr"
            f"{'y' if len(report.quarantined) == 1 else 'ies'} quarantined",
            key=report.quarantined[0],
        )
    if args.strict and fn_report is not None and not fn_report.healthy:
        raise CacheCorrupted(
            f"{len(fn_report.quarantined)} corrupt fn-cache entr"
            f"{'y' if len(fn_report.quarantined) == 1 else 'ies'} quarantined",
            key=fn_report.quarantined[0],
        )
    return 0


def _cmd_crashcheck(args: argparse.Namespace) -> int:
    import json
    import tempfile
    import warnings

    from repro.apps.otsu import build_otsu_app
    from repro.flow import (
        CacheIntegrityWarning,
        FlowConfig,
        RunJournal,
        all_sites,
        materialize,
        resume_flow,
        run_flow,
    )
    from repro.flow.crashpoints import CrashPlan, armed
    from repro.sim import campaign_digest
    from repro.util.errors import FlowInterrupted

    arches = [int(a) for a in args.arches.split(",")]
    width, _, height = args.size.partition("x")
    w, h = int(width), int(height or width)

    def _artifact_digest(out: Path) -> str:
        return json.loads((out / "MANIFEST.json").read_text())["artifact_digest"]

    records: list[dict] = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-crashcheck-") as tmpname:
        tmp = Path(tmpname)
        for arch in arches:
            app = build_otsu_app(arch, width=w, height=h)
            graph = app.dsl_graph()

            # The uninterrupted reference run for this architecture.
            ref_dir = tmp / f"arch{arch}-ref"
            ref_config = FlowConfig(cache_dir=str(ref_dir / "cache"))
            ref = run_flow(
                graph, app.c_sources,
                extra_directives=app.extra_directives, config=ref_config,
            )
            materialize(ref, ref_dir / "out")
            ref_digest = _artifact_digest(ref_dir / "out")

            sites = all_sites([n.name for n in graph.nodes])
            print(
                f"arch{arch}: reference artifact {ref_digest[:16]}..., "
                f"killing at {len(sites)} journal boundaries"
            )
            for i, site in enumerate(sites):
                wd = tmp / f"arch{arch}-site{i}"
                config = FlowConfig(cache_dir=str(wd / "cache"))
                journal = RunJournal(wd / "journal")
                outcome = "completed"  # a site may not fire (e.g. swap on a fresh tree)
                try:
                    with armed(CrashPlan(site)):
                        flow = run_flow(
                            graph, app.c_sources,
                            extra_directives=app.extra_directives,
                            config=config, journal=journal,
                        )
                        materialize(flow, wd / "out", journal=journal)
                except FlowInterrupted:
                    outcome = "interrupted"
                resumed = resume_flow(
                    graph, app.c_sources,
                    extra_directives=app.extra_directives,
                    config=config, journal=journal,
                )
                materialize(resumed, wd / "out", journal=journal)
                journal.close()
                match = _artifact_digest(wd / "out") == ref_digest
                failures += 0 if match else 1
                t = resumed.timing
                records.append(
                    {
                        "arch": arch,
                        "site": site,
                        "outcome": outcome,
                        "match": match,
                        "resumed": t.resumed,
                        "steps_skipped": t.steps_skipped,
                        "crash_recoveries": t.crash_recoveries,
                    }
                )
                print(
                    f"  {site:34s} {outcome:12s} resume skipped={t.steps_skipped} "
                    f"recovered={t.crash_recoveries} -> "
                    f"{'ok' if match else 'ARTIFACT MISMATCH'}"
                )

            # Corruption leg: a deliberately corrupted cache entry must be
            # quarantined and transparently rebuilt, never failing the flow.
            entries = sorted((ref_dir / "cache" / "objects").glob("*/*"))
            entry = entries[0]
            raw = entry.read_bytes()
            entry.write_bytes(raw[: len(raw) // 2])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reflow = run_flow(
                    graph, app.c_sources,
                    extra_directives=app.extra_directives, config=ref_config,
                )
                materialize(reflow, ref_dir / "out2")
            warned = any(
                issubclass(wmsg.category, CacheIntegrityWarning) for wmsg in caught
            )
            quarantined = any((ref_dir / "cache" / "quarantine").glob("*"))
            rebuilt_ok = _artifact_digest(ref_dir / "out2") == ref_digest
            ok = warned and quarantined and rebuilt_ok
            failures += 0 if ok else 1
            records.append(
                {
                    "arch": arch,
                    "site": "cache-corruption",
                    "outcome": "quarantined+rebuilt" if ok else "escaped",
                    "match": rebuilt_ok,
                    "quarantined": quarantined,
                    "warned": warned,
                }
            )
            print(
                f"  {'cache-corruption':34s} "
                f"{'quarantined+rebuilt -> ok' if ok else 'ESCAPED'}"
            )

    digest = campaign_digest(records)
    print(f"crashcheck: {len(records)} scenario(s), {failures} failure(s)")
    print(f"  campaign digest: {digest}")
    if args.digest_out:
        Path(args.digest_out).write_text(digest + "\n")
        print(f"  digest written to {args.digest_out}")
    if failures:
        print(
            f"error: {failures} scenario(s) did not reproduce the "
            "uninterrupted artifacts",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json
    import signal

    from repro.service import BuildService, ServiceServer

    if args.replicas > 1:
        return _serve_replicas(args)

    service = BuildService(
        args.root,
        queue_depth=args.queue_depth,
        saturation_backlog=args.saturation_backlog,
        check_tcl=not args.no_check_tcl,
        replica_id=args.replica_id,
        ttl_s=args.ttl,
    )
    counts = service.recover()
    if any(counts.values()):
        print(
            "recovered: "
            + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
    if args.drain:
        async def drain() -> bool:
            try:
                await asyncio.wait_for(service.drain(), args.timeout)
            except asyncio.TimeoutError:
                return False
            return True

        drained = asyncio.run(drain())
        service.close()
        print(_json.dumps(service.report, sort_keys=True))
        if not drained:
            print(f"error: not drained after {args.timeout} s", file=sys.stderr)
        return 0 if drained else 1

    async def go() -> int:
        server = ServiceServer(service, args.socket)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server._shutdown.set)
        print(f"serving on {args.socket} (root {args.root}); ctrl-c to stop")
        await server.serve_until_shutdown()
        service.close()
        print("stopped")
        return 0

    return asyncio.run(go())


def _serve_replicas(args: argparse.Namespace) -> int:
    """``repro serve --replicas N``: N leader-less replica processes,
    each a ``repro serve`` with this command's flags on ``<socket>.rK``."""
    import signal

    from repro.service import spawn_replica

    flags = [
        "--queue-depth", str(args.queue_depth),
        "--ttl", str(args.ttl),
        "--timeout", str(args.timeout),
    ]
    if args.saturation_backlog is not None:
        flags += ["--saturation-backlog", str(args.saturation_backlog)]
    if args.no_check_tcl:
        flags.append("--no-check-tcl")
    if args.drain:
        flags.append("--drain")
    sock_base = Path(args.socket)
    procs = []
    for i in range(args.replicas):
        replica_id = f"r{i}"
        socket_path = sock_base.with_suffix(f".{replica_id}{sock_base.suffix}")
        procs.append(
            spawn_replica(
                args.root, replica_id, flags + ["--socket", str(socket_path)]
            )
        )
        print(f"replica {replica_id} serving on {socket_path}")
    print(f"{args.replicas} replicas over root {args.root}; ctrl-c to stop")
    try:
        rcs = [p.wait() for p in procs]
    except KeyboardInterrupt:
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in procs:
            try:
                p.wait(timeout=10)
            except Exception:
                p.kill()
        print("stopped")
        return 0
    return 0 if all(rc == 0 for rc in rcs) else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.dsl import parse_dsl
    from repro.service import JobSpec, ServiceClient, SimSpec

    dsl = Path(args.design).read_text()
    graph = parse_dsl(dsl, filename=args.design)
    sources = _load_sources(graph, args.sources)
    sim = SimSpec(seed=args.seed) if args.sim else None
    spec = JobSpec(dsl=dsl, sources=sources, sim=sim, deadline_s=args.deadline)
    with ServiceClient(args.socket, timeout_s=args.timeout) as client:
        response = client.submit(args.tenant, spec)
        if not response.get("ok"):
            print(f"error: {response.get('error')}", file=sys.stderr)
            return 1
        record = response["record"]
        print(f"job {record['job_id']} ({record['state']}) for {args.tenant}")
        if args.wait:
            response = client.wait(record["job_id"], timeout=args.timeout)
            if not response.get("ok"):
                print(f"error: {response.get('error')}", file=sys.stderr)
                return 1
            record = response["record"]
            print(
                f"  {record['state']} served_from={record['served_from']} "
                f"attempts={record['attempts']} retries={record['retries']}"
            )
            if record.get("artifact_digest"):
                print(f"  artifact digest: {record['artifact_digest']}")
            if record.get("sim_digest"):
                print(f"  sim digest:      {record['sim_digest']}")
            if record.get("error"):
                print(
                    f"  error at step {record.get('error_step')}: "
                    f"{record['error']}",
                    file=sys.stderr,
                )
            return 0 if record["state"] == "done" else 1
    return 0


def _cmd_servicecheck(args: argparse.Namespace) -> int:
    import json as _json
    import tempfile
    from contextlib import nullcontext

    from repro.service import run_servicecheck
    from repro.service.chaos import run_replicacheck, service_sites

    holder = (
        nullcontext(args.root)
        if args.root
        else tempfile.TemporaryDirectory(prefix="repro-servicecheck-")
    )
    with holder as root:
        if args.replicas > 1:
            sites = service_sites()
            if args.max_sites is not None:
                sites = sites[: args.max_sites]
            report = run_replicacheck(
                root,
                replicas=args.replicas,
                sites=sites,
                ttl_s=args.lease_ttl,
                log=print,
            )
        else:
            report = run_servicecheck(root, log=print)
    print(report.render())
    if args.digest_out:
        Path(args.digest_out).write_text(report.digest + "\n")
        print(f"  digest written to {args.digest_out}")
    if args.replicas > 1 and args.lease_report:
        Path(args.lease_report).write_text(
            _json.dumps(report.lease_report(), indent=2, sort_keys=True) + "\n"
        )
        print(f"  lease report written to {args.lease_report}")
    if not report.ok:
        print(
            f"error: {report.failures} digest failure(s), {report.lost} "
            f"lost job(s), {report.duplicated} duplicated job(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _render_frontier(front) -> str:
    """Fixed-width frontier table (the README's rendered example)."""
    header = f"{'lut':>6} {'ff':>6} {'bram':>5} {'dsp':>4} {'cycles':>8}  candidate"
    lines = [header, "-" * len(header)]
    for p in front:
        lut, ff, bram, dsp, cycles = p.objectives()
        lines.append(
            f"{lut:>6} {ff:>6} {bram:>5} {dsp:>4} {cycles:>8}  {p.label()}"
        )
    return "\n".join(lines)


def _dse_space(name: str):
    from repro.dse import otsu_directives_space, otsu_space

    if name == "full":
        return otsu_space()
    if name == "directives":
        return otsu_directives_space()
    raise ReproError(f"unknown space {name!r} (expected full|directives)")


def _cmd_dse(args: argparse.Namespace) -> int:
    import json as _json
    import tempfile
    from contextlib import nullcontext

    from repro.dse import (
        CampaignConfig,
        evaluate_candidate,
        frontier_dominates,
        run_campaign,
        sdsoc_baseline_candidate,
    )

    width, _, height = args.size.partition("x")
    width, height = int(width), int(height or width)
    space = _dse_space(args.space)
    holder = (
        nullcontext(args.root)
        if args.root
        else tempfile.TemporaryDirectory(prefix="repro-dse-")
    )
    with holder as root:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        config = CampaignConfig(
            space=space,
            width=width,
            height=height,
            jobs=args.jobs,
            fn_cache_dir=str(root / "fn"),
            journal_path=str(root / "campaign.jsonl"),
            resume=args.resume,
        )
        result = run_campaign(config)
        baseline = None
        if args.baseline:
            baseline = evaluate_candidate(
                sdsoc_baseline_candidate(),
                width=width,
                height=height,
                fn_cache_dir=str(root / "fn"),
            )
        report_json = result.frontier_json(baseline=baseline)
        if args.json:
            print(report_json, end="")
        else:
            print(
                f"dse: space {space.name!r} ({len(result.points)} candidates, "
                f"jobs {args.jobs})"
            )
            print(
                f"  evaluated {result.evaluated} new, resumed {result.resumed}, "
                f"frontier {len(result.front)}, pruned {result.pruned}, "
                f"evicted {result.evicted}"
            )
            print(
                f"  fn-cache: {result.fn_cache_hits} hits / "
                f"{result.fn_cache_misses} misses "
                f"(rate {result.fn_cache_hit_rate:.2f})"
            )
            print(_render_frontier(result.front))
            if baseline is not None:
                dominated = frontier_dominates(result.front, baseline)
                lut, ff, bram, dsp, cycles = baseline.objectives()
                print(
                    f"  SDSoC baseline (one DMA per stream): lut {lut} ff {ff} "
                    f"bram {bram} dsp {dsp} cycles {cycles} -> "
                    + ("dominated by frontier" if dominated else "NOT dominated")
                )
            print(f"  campaign digest {result.digest}")
        if args.out:
            Path(args.out).write_text(report_json)
            if not args.json:
                print(f"  frontier report written to {args.out}")
        if args.digest_out:
            Path(args.digest_out).write_text(result.digest + "\n")
    if args.baseline and baseline is not None:
        return 0 if frontier_dominates(result.front, baseline) else 1
    return 0


def _cmd_dsecheck(args: argparse.Namespace) -> int:
    import json as _json
    import tempfile
    from contextlib import nullcontext

    from repro.dse import (
        CampaignConfig,
        evaluate_candidate,
        frontier_dominates,
        otsu_directives_space,
        otsu_space,
        run_campaign,
        sdsoc_baseline_candidate,
    )

    width, _, height = args.size.partition("x")
    width, height = int(width), int(height or width)
    space = otsu_space()
    n = len(space)
    failures: list[str] = []

    def leg(name: str, ok: bool, detail: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures.append(name)

    holder = (
        nullcontext(args.root)
        if args.root
        else tempfile.TemporaryDirectory(prefix="repro-dsecheck-")
    )
    with holder as root:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        fn_dir = str(root / "fn")
        print(f"dsecheck: space {space.name!r}, {n} candidates at {width}x{height}")

        def cfg(tag: str, **kw) -> CampaignConfig:
            return CampaignConfig(
                space=space,
                width=width,
                height=height,
                fn_cache_dir=fn_dir,
                journal_path=str(root / f"{tag}.jsonl"),
                **kw,
            )

        r1 = run_campaign(cfg("serial-a"))
        r2 = run_campaign(cfg("serial-b"))
        leg(
            "rerun-digest",
            r1.digest == r2.digest,
            f"two serial runs: {r1.digest[:12]} vs {r2.digest[:12]}",
        )
        rp = run_campaign(cfg("parallel", jobs=args.jobs))
        leg(
            "parallel-digest",
            rp.digest == r1.digest,
            f"--jobs {args.jobs} vs --jobs 1: {rp.digest[:12]} vs {r1.digest[:12]}",
        )
        leg(
            "parallel-frontier-bytes",
            rp.frontier_json() == r1.frontier_json(),
            "frontier JSON byte-identical across parallelism levels",
        )
        killed = run_campaign(cfg("resume", stop_after=max(1, n // 3)))
        resumed = run_campaign(cfg("resume", resume=True))
        leg(
            "kill-resume",
            (not killed.completed)
            and resumed.completed
            and resumed.resumed == killed.evaluated
            and resumed.digest == r1.digest,
            f"killed after {killed.evaluated}, resumed {resumed.resumed} + "
            f"{resumed.evaluated} new, digest "
            + ("equal" if resumed.digest == r1.digest else "DIFFERS"),
        )
        anchor = [p for p in r1.front if p.objectives()[:4] == (0, 0, 0, 0)]
        fastest = min(r1.front, key=lambda p: p.objectives()[4])
        leg(
            "winning-architectures",
            len(anchor) == 1 and bool(fastest.candidate.get("hw")),
            f"all-software anchor on frontier; fastest point uses hardware "
            f"({fastest.label()}, {fastest.objectives()[4]} cycles)",
        )
        baseline = evaluate_candidate(
            sdsoc_baseline_candidate(),
            width=width,
            height=height,
            fn_cache_dir=fn_dir,
        )
        leg(
            "baseline-dominated",
            frontier_dominates(r1.front, baseline),
            f"SDSoC one-DMA-per-stream point {baseline.objectives()} "
            "strictly dominated by the frontier",
        )
        # Directives-only sweep against a *fresh* store: every candidate
        # shares its sources, so the per-function frontend memo must
        # carry most lookups even from cold.
        dspace = otsu_directives_space()
        rd = run_campaign(
            CampaignConfig(
                space=dspace,
                width=width,
                height=height,
                fn_cache_dir=str(root / "fn-directives"),
                journal_path=str(root / "directives.jsonl"),
            )
        )
        leg(
            "fn-cache-hit-rate",
            rd.fn_cache_hit_rate >= 0.5,
            f"directives sweep: {rd.fn_cache_hits} hits / "
            f"{rd.fn_cache_misses} misses (rate {rd.fn_cache_hit_rate:.2f})",
        )

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "FRONTIER_report.json"
        report_path.write_text(r1.frontier_json(baseline=baseline))
        bench = {
            "space": space.describe(),
            "candidates": n,
            "campaign_digest": r1.digest,
            "frontier_size": len(r1.front),
            "frontier": [p.record() for p in r1.front],
            "baseline": baseline.record(),
            "baseline_dominated": frontier_dominates(r1.front, baseline),
            "directives_sweep": {
                "candidates": len(rd.points),
                "fn_cache_hits": rd.fn_cache_hits,
                "fn_cache_misses": rd.fn_cache_misses,
                "fn_cache_hit_rate": round(rd.fn_cache_hit_rate, 4),
            },
            "legs_failed": failures,
        }
        (out_dir / "BENCH_dse.json").write_text(
            _json.dumps(bench, indent=2, sort_keys=True) + "\n"
        )
        print(f"  reports in {out_dir}/ (FRONTIER_report.json, BENCH_dse.json)")
        if args.digest_out:
            Path(args.digest_out).write_text(r1.digest + "\n")
    if failures:
        print(f"error: {len(failures)} leg(s) failed: {failures}", file=sys.stderr)
        return 1
    print(f"  all legs ok; campaign digest {r1.digest}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.apps.image import write_pgm
    from repro.report import (
        build_all_architectures,
        compare_code_size,
        regenerate_fig7,
        regenerate_fig9,
        regenerate_fig10,
        regenerate_table1,
        regenerate_table2,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    builds = build_all_architectures(width=args.width, height=args.width)
    artifacts = {
        "table1.txt": regenerate_table1(builds).render(),
        "table2.txt": regenerate_table2(builds).render(),
        "fig9.txt": regenerate_fig9(builds).render(),
        "fig10.txt": regenerate_fig10(builds).render(),
        "codesize.txt": compare_code_size(builds[4].flow).render(),
    }
    fig7 = regenerate_fig7()
    artifacts["fig7.txt"] = fig7.render()
    write_pgm(out / "fig7_original.pgm", fig7.gray)
    write_pgm(out / "fig7_filtered.pgm", fig7.binary)
    import json

    from repro.report import experiment_summary

    (out / "summary.json").write_text(
        json.dumps(experiment_summary(builds), indent=2) + "\n"
    )
    for arch, dot in regenerate_fig10(builds).diagrams.items():
        (out / f"fig10_arch{arch}.dot").write_text(dot)
    for name, text in artifacts.items():
        (out / name).write_text(text + "\n")
        print(f"--- {name} ---")
        print(text)
        print()
    print(f"artifacts in {out}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSL-driven accelerator-SoC design flow (IPPS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a .tg description")
    p_check.add_argument("design", help="path to the .tg file")
    p_check.set_defaults(func=_cmd_check)

    p_build = sub.add_parser("build", help="run the full flow for a .tg file")
    p_build.add_argument("design", help="path to the .tg file")
    p_build.add_argument(
        "--sources", required=True, help="directory holding <node>.c files"
    )
    p_build.add_argument("--out", default="workspace", help="output directory")
    p_build.add_argument(
        "--backend", choices=["2014.2", "2015.3"], default="2015.3",
        help="Vivado tcl backend version",
    )
    p_build.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted build from <out>.journal, "
        "re-executing only the uncommitted tail",
    )
    p_build.add_argument(
        "--cache-dir", default=None,
        help="build-cache directory (default: $REPRO_FLOW_CACHE_DIR or <out>.cache)",
    )
    p_build.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export a Chrome trace of the build's flow/cache/journal events",
    )
    p_build.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a metrics snapshot (.json -> JSON, else Prometheus text)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_trace = sub.add_parser(
        "trace",
        help="build + simulate a .tg design and export a merged Chrome trace",
    )
    p_trace.add_argument("design", help="path to the .tg file")
    p_trace.add_argument(
        "--sources", required=True, help="directory with <node>.c files"
    )
    p_trace.add_argument("-o", "--out", default="trace.json", help="trace file")
    p_trace.add_argument("--seed", type=int, default=1, help="stimulus seed")
    p_trace.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="also write a metrics snapshot",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics",
        help="build + simulate one Table-I architecture, print its metrics",
    )
    p_metrics.add_argument("--arch", type=int, default=4, choices=[1, 2, 3, 4])
    p_metrics.add_argument("--size", default="32x32", help="synthetic image size")
    p_metrics.add_argument(
        "--json", action="store_true", help="print JSON instead of Prometheus text"
    )
    p_metrics.add_argument(
        "-o", "--out", default=None, help="also write the snapshot to a file"
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_sim = sub.add_parser(
        "simulate",
        help="build a .tg design and execute it on the simulated board "
        "(behaviours come from the compiled C itself)",
    )
    p_sim.add_argument("design", help="path to the .tg file")
    p_sim.add_argument("--sources", required=True, help="directory with <node>.c files")
    p_sim.add_argument("--seed", type=int, default=1, help="stimulus seed")
    p_sim.add_argument("--wait-mode", choices=["poll", "irq"], default="poll")
    p_sim.add_argument("--trace", action="store_true", help="print the timeline")
    p_sim.set_defaults(func=_cmd_simulate)

    p_otsu = sub.add_parser("otsu", help="build + simulate a Table-I architecture")
    p_otsu.add_argument("--arch", type=int, default=4, choices=[1, 2, 3, 4])
    p_otsu.add_argument("--size", default="64x64", help="synthetic image size, e.g. 64x64")
    p_otsu.add_argument(
        "--image", default=None, help="binarize a real .ppm/.pgm instead"
    )
    p_otsu.add_argument(
        "--save", default=None, help="write the binarized result as PGM"
    )
    p_otsu.add_argument("--out", default=None, help="materialize the workspace here")
    p_otsu.set_defaults(func=_cmd_otsu)

    p_sb = sub.add_parser(
        "simbench",
        help="benchmark the burst fast path against the word-level simulator",
    )
    p_sb.add_argument("--arches", default="1,2,3,4", help="comma-separated list")
    p_sb.add_argument("--size", default="64x64", help="image size, e.g. 128x128")
    p_sb.add_argument("--runs", type=int, default=1, help="timing repetitions")
    p_sb.add_argument("--json", default=None, help="write results as JSON here")
    p_sb.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON to diff against (exit 1 unless every "
        "recorded field matches; events_burst, reps_replayed and "
        "fault_reps_replayed may only fall)",
    )
    p_sb.set_defaults(func=_cmd_simbench)

    p_exp = sub.add_parser(
        "experiments", help="regenerate every table and figure of the paper"
    )
    p_exp.add_argument("--out", default="experiments_out")
    p_exp.add_argument("--width", type=int, default=48, help="case-study image width")
    p_exp.set_defaults(func=_cmd_experiments)

    p_fc = sub.add_parser(
        "faultcheck",
        help="seeded fault-injection campaign over the Table-I architectures",
    )
    p_fc.add_argument(
        "--arches", default="1,2,3,4", help="comma-separated architecture list"
    )
    p_fc.add_argument("--scenarios", type=int, default=20)
    p_fc.add_argument("--seed", type=int, default=1)
    p_fc.add_argument("--size", default="32x32", help="synthetic image size")
    p_fc.add_argument(
        "--max-faults", type=int, default=2, help="faults per scenario plan"
    )
    p_fc.add_argument(
        "--horizon", type=int, default=40_000,
        help="faults arm within this many cycles of the start",
    )
    p_fc.add_argument(
        "--budget", type=int, default=2_000_000,
        help="watchdog cycles per node attempt",
    )
    p_fc.add_argument(
        "--digest-out", default=None, help="write the campaign digest here"
    )
    p_fc.set_defaults(func=_cmd_faultcheck)

    p_cc = sub.add_parser(
        "cachecheck",
        help="scrub the shared build cache: verify, quarantine, report",
    )
    p_cc.add_argument(
        "--cache-dir", default=None,
        help="cache to scrub (default: $REPRO_FLOW_CACHE_DIR)",
    )
    p_cc.add_argument(
        "--purge-quarantine", action="store_true",
        help="delete quarantined blobs after the scrub",
    )
    p_cc.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if the scrub quarantined anything",
    )
    p_cc.add_argument(
        "--json", action="store_true",
        help="emit the full scrub report as JSON instead of text",
    )
    p_cc.set_defaults(func=_cmd_cachecheck)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant build service on a unix socket",
    )
    p_serve.add_argument(
        "--root", default="service_root",
        help="service state directory (cache, tenants, warm index)",
    )
    p_serve.add_argument(
        "--socket", default="service_root/repro.sock",
        help="unix socket path for the JSON-lines API",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=8,
        help="queued jobs allowed per tenant before admission rejects",
    )
    p_serve.add_argument(
        "--saturation-backlog", type=int, default=None,
        help="total backlog at which warm-cache degradation kicks in",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=1,
        help="run N leader-less replica processes over the shared root, "
        "each on <socket>.rK with these flags, coordinating through "
        "durable lease files",
    )
    p_serve.add_argument(
        "--replica-id", default="d0",
        help="this replica's identity (names its leases and records)",
    )
    p_serve.add_argument(
        "--ttl", type=float, default=3.0,
        help="lease heartbeat TTL in seconds before a peer may steal",
    )
    p_serve.add_argument(
        "--drain", action="store_true",
        help="no socket: exit once every durably-admitted job is terminal",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=120.0,
        help="with --drain: give up after this many seconds",
    )
    p_serve.add_argument(
        "--no-check-tcl", action="store_true",
        help="skip tcl golden checks (campaign speed)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a .tg design as a job to a running service"
    )
    p_sub.add_argument("design", help="path to the .tg file")
    p_sub.add_argument(
        "--sources", required=True, help="directory holding <node>.c files"
    )
    p_sub.add_argument(
        "--socket", default="service_root/repro.sock", help="service socket"
    )
    p_sub.add_argument("--tenant", default="default", help="tenant name")
    p_sub.add_argument(
        "--sim", action="store_true", help="also simulate the built design"
    )
    p_sub.add_argument("--seed", type=int, default=1, help="simulation seed")
    p_sub.add_argument(
        "--deadline", type=float, default=None, help="per-job deadline (seconds)"
    )
    p_sub.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    p_sub.add_argument(
        "--timeout", type=float, default=600.0, help="client timeout (seconds)"
    )
    p_sub.set_defaults(func=_cmd_submit)

    p_sc = sub.add_parser(
        "servicecheck",
        help="kill-the-daemon chaos campaign: recovery must reproduce the "
        "uninterrupted artifacts for every tenant's job",
    )
    p_sc.add_argument(
        "--root", default=None,
        help="campaign scratch directory (default: a fresh temp dir)",
    )
    p_sc.add_argument(
        "--digest-out", default=None, help="write the campaign digest here"
    )
    p_sc.add_argument(
        "--replicas", type=int, default=1,
        help="run the multi-replica campaign instead: SIGKILL and "
        "SIGSTOP a victim replica process at every boundary and require "
        "the surviving replicas to steal and fence",
    )
    p_sc.add_argument(
        "--lease-ttl", type=float, default=0.75,
        help="replica campaign: heartbeat TTL before stealing",
    )
    p_sc.add_argument(
        "--max-sites", type=int, default=None,
        help="replica campaign: only the first N kill sites (CI budget)",
    )
    p_sc.add_argument(
        "--lease-report", default=None,
        help="replica campaign: write steals/fences per scenario here (JSON)",
    )
    p_sc.set_defaults(func=_cmd_servicecheck)

    p_dse = sub.add_parser(
        "dse",
        help="parallel multi-objective design-space exploration: evaluate "
        "every candidate (partition x PIPELINE subset x DMA policy x HP "
        "bandwidth) through the flow + simulator, sharing one per-function "
        "HLS store, and print the Pareto frontier",
    )
    p_dse.add_argument(
        "--space", default="full", choices=("full", "directives"),
        help="search space: the full coupled space or the directives-only "
        "slice over the pinned Table-I partition",
    )
    p_dse.add_argument("--size", default="16x16", help="synthetic image size")
    p_dse.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results are identical at any level)",
    )
    p_dse.add_argument(
        "--root", default=None,
        help="campaign directory holding the fn store + journal "
        "(default: a fresh temp dir; required for --resume)",
    )
    p_dse.add_argument(
        "--resume", action="store_true",
        help="continue a killed campaign from its journal under --root",
    )
    p_dse.add_argument(
        "--baseline", action="store_true",
        help="also evaluate the SDSoC one-DMA-per-stream reference point; "
        "exit 1 unless the frontier dominates it",
    )
    p_dse.add_argument(
        "--json", action="store_true",
        help="print the frontier report as JSON instead of a table",
    )
    p_dse.add_argument(
        "--out", default=None, help="write the frontier report JSON here"
    )
    p_dse.add_argument(
        "--digest-out", default=None, help="write the campaign digest here"
    )
    p_dse.set_defaults(func=_cmd_dse)

    p_dck = sub.add_parser(
        "dsecheck",
        help="deterministic DSE campaign gate: digest stable across reruns "
        "and parallelism, kill+resume equals uninterrupted, frontier "
        "dominates the SDSoC baseline, directives sweep hits the fn-cache",
    )
    p_dck.add_argument("--size", default="16x16", help="synthetic image size")
    p_dck.add_argument(
        "--jobs", type=int, default=4, help="worker count for the parallel leg"
    )
    p_dck.add_argument(
        "--root", default=None,
        help="campaign scratch directory (default: a fresh temp dir)",
    )
    p_dck.add_argument(
        "--out", default="benchmarks/out",
        help="directory for FRONTIER_report.json and BENCH_dse.json",
    )
    p_dck.add_argument(
        "--digest-out", default=None, help="write the campaign digest here"
    )
    p_dck.set_defaults(func=_cmd_dsecheck)

    p_kc = sub.add_parser(
        "crashcheck",
        help="kill-at-every-journal-boundary campaign over the Table-I "
        "architectures; resumed artifacts must be byte-identical",
    )
    p_kc.add_argument(
        "--arches", default="1,2,3,4", help="comma-separated architecture list"
    )
    p_kc.add_argument("--size", default="24x24", help="synthetic image size")
    p_kc.add_argument(
        "--digest-out", default=None, help="write the campaign digest here"
    )
    p_kc.set_defaults(func=_cmd_crashcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
