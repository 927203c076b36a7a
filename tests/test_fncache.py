"""The sub-core per-function HLS cache: keys, correctness, integrity.

The contract under test (see DESIGN.md, "Two-level build caching"):

* memo keys are process-stable — two interpreters with different
  ``PYTHONHASHSEED`` values produce identical keys and identical RTL
  for the same source;
* a single-character semantic edit changes the keys, a comment or
  whitespace edit changes neither;
* every cached outcome is byte-identical to what the uncached pipeline
  produces — for fresh caches, warm caches, directives-only rebuilds
  and whole flows;
* corrupt persistent entries quarantine through the shared BuildCache
  machinery and the build recompiles instead of failing.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.apps.otsu.csrc import all_sources
from repro.hls import fncache
from repro.hls.cparse import parse_c
from repro.hls.clex import clex, token_fingerprint
from repro.hls.inline import inline_functions
from repro.hls.interfaces import (
    InterfaceMode, allocation, directives_file, interface, pipeline, unroll,
)
from repro.hls.lower import lower_function
from repro.hls.passes import run_default_pipeline, tag_const_muls
from repro.hls.project import synthesize_function, verify_stream_discipline
from repro.hls.sema import analyze
from repro.hls.types import INT32, intern_scalar
from repro.obs import BUS, capture

NPIX = 24 * 24

SRC = """
int scale_add(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc += a * 3 + b;
    }
    return acc;
}
"""


def _compile(source, top):
    unit = parse_c(source)
    inline_functions(unit)
    fn = lower_function(analyze(unit), top)
    return run_default_pipeline(fn).fn


_KEYS_SNIPPET = """
import sys
sys.path.insert(0, {src_path!r})
from repro.hls import fncache
from repro.hls.project import synthesize_function

cache = fncache.FunctionCache()
result = synthesize_function({source!r}, {top!r}, cache=cache)
print(" ".join(cache._memory))
print(result.verilog)
"""


def _keys_and_rtl_in_subprocess(source, top, hashseed):
    script = _KEYS_SNIPPET.format(
        src_path=str(Path(__file__).resolve().parent.parent / "src"),
        source=source,
        top=top,
    )
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    keys, _, rtl = out.partition("\n")
    return keys.split(), rtl


def _memo_keys(source, top, directives=()):
    """``[front-end key, result key]`` one cold synthesis stores."""
    cache = fncache.FunctionCache()
    synthesize_function(source, top, directives, cache=cache)
    return list(cache._memory)


class TestDigestStability:
    def test_digest_is_process_stable_across_hash_seeds(self):
        a = _keys_and_rtl_in_subprocess(SRC, "scale_add", "0")
        b = _keys_and_rtl_in_subprocess(SRC, "scale_add", "424242")
        assert a[0] == b[0], "memo keys depend on the interpreter hash seed"
        assert a[1] == b[1], "emitted RTL depends on the interpreter hash seed"
        fe_key = fncache.frontend_key(token_fingerprint(clex(SRC)), "scale_add", True)
        r_key = fncache.result_key(fe_key, directives_file([]), None, 256)
        assert a[0] == [fe_key, r_key]
        assert a[0] == _memo_keys(SRC, "scale_add")

    def test_semantic_edit_changes_digest(self):
        base = _memo_keys(SRC, "scale_add")
        edited = _memo_keys(SRC.replace("a * 3", "a * 4"), "scale_add")
        assert not set(base) & set(edited)

    def test_comment_and_whitespace_do_not_change_token_fingerprint(self):
        noisy = SRC.replace(
            "int acc = 0;", "int  acc = 0;  // running total\n    /* x */"
        )
        assert token_fingerprint(clex(SRC)) == token_fingerprint(clex(noisy))
        assert _memo_keys(SRC, "scale_add") == _memo_keys(noisy, "scale_add")

    def test_result_key_covers_the_directive_slice(self):
        plain = _memo_keys(SRC, "scale_add")
        other_fn = _memo_keys(SRC, "scale_add", [pipeline("other", "i")])
        piped = _memo_keys(SRC, "scale_add", [pipeline("scale_add", "i")])
        assert other_fn == plain
        assert piped[0] == plain[0] and piped[1] != plain[1]


class TestFrontendMemo:
    def test_comment_edit_serves_from_frontend_memo(self):
        cache = fncache.FunctionCache()
        cold = synthesize_function(SRC, "scale_add", cache=cache)
        noisy = SRC.replace("return acc;", "return acc;  /* done */")
        warm = synthesize_function(noisy, "scale_add", cache=cache)
        assert warm.fn_cache_hits == 2 and warm.fn_cache_misses == 0
        assert warm.verilog == cold.verilog

    def test_directives_only_rebuild_matches_uncached(self):
        cache = fncache.FunctionCache()
        synthesize_function(SRC, "scale_add", cache=cache)
        for dirs in (
            [allocation("scale_add", "add", 1)],
            [unroll("scale_add", "i", factor=2)],
            [pipeline("scale_add", "i")],
        ):
            served = synthesize_function(SRC, "scale_add", dirs, cache=cache)
            assert served.fn_cache_hits == 1 and served.fn_cache_misses == 1
            reference = synthesize_function(SRC, "scale_add", dirs, cache=None)
            assert served.verilog == reference.verilog
            assert served.report.render() == reference.report.render()

    def test_result_hit_is_byte_identical(self):
        cache = fncache.FunctionCache()
        first = synthesize_function(SRC, "scale_add", cache=cache)
        second = synthesize_function(SRC, "scale_add", cache=cache)
        assert second.fn_cache_hits == 2
        assert second.verilog == first.verilog
        assert second.latency == first.latency

    def test_body_edit_recompiles_only_that_function(self):
        cache = fncache.FunctionCache()
        synthesize_function(SRC, "scale_add", cache=cache)
        edited = SRC.replace("acc += a * 3 + b;", "acc += a * 5 - b;")
        r = synthesize_function(edited, "scale_add", cache=cache)
        assert r.fn_cache_misses == 2  # both memo levels recompiled
        reference = synthesize_function(edited, "scale_add", cache=None)
        assert r.verilog == reference.verilog

    def test_sibling_edit_recompiles_and_matches_uncached(self):
        source = SRC + "\nint twice(int x) { return x + x; }\n"
        cache = fncache.FunctionCache()
        cold = synthesize_function(source, "scale_add", cache=cache)
        edited = source.replace("return x + x;", "return x * 3;")
        r = synthesize_function(edited, "scale_add", cache=cache)
        # Both keys cover the whole token stream: no stale result served.
        assert (r.fn_cache_hits, r.fn_cache_misses) == (0, 2)
        reference = synthesize_function(edited, "scale_add", cache=None)
        assert r.verilog == reference.verilog == cold.verilog
        assert r.report.render() == reference.report.render()

    def test_disabled_via_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_HLS_FN_CACHE", "0")
        assert fncache.active_cache() is None
        r = synthesize_function(SRC, "scale_add")
        assert (r.fn_cache_hits, r.fn_cache_misses) == (0, 0)

    def test_scalar_types_reintern_after_pickle(self):
        fn = _compile(SRC, "scale_add")
        clone = pickle.loads(pickle.dumps(fn, pickle.HIGHEST_PROTOCOL))
        for block in clone.blocks:
            for op in block.ops:
                for v in op.operands:
                    if v.type == INT32:
                        assert v.type is INT32
        assert intern_scalar("int", 32, True) is INT32


STREAM_SRC = """
void scale2(int in[16], int out[16]) {
    int buf[16];
    L1: for (int i = 0; i < 16; i++) {
        buf[i] = in[i] * 3 + 1;
    }
    L2: for (int j = 0; j < 16; j++) {
        out[j] = buf[j] * 5;
    }
}
"""

STREAM_PORTS = [
    interface("scale2", "in", InterfaceMode.AXIS),
    interface("scale2", "out", InterfaceMode.AXIS),
]


def _frontend_entries(cache):
    return [v for v in cache._memory.values() if isinstance(v, fncache.FrontendEntry)]


def _snapshot(fn):
    """Content snapshot of a Function — blocks, ops and their attrs,
    tables and loop flags — through the IR dataclasses' field reprs."""
    return repr(fn)


class TestCachedIrNeverWritten:
    """The front-end entry holds the Function itself, so nothing after
    the front end may write into it: not the loop directives, not
    scheduling, not csim."""

    def test_entry_survives_directives_and_csim(self):
        import numpy as np

        reference = _compile(STREAM_SRC, "scale2")
        tag_const_muls(reference)
        pristine = _snapshot(reference)

        cache = fncache.FunctionCache()
        cold = synthesize_function(
            STREAM_SRC, "scale2",
            STREAM_PORTS + [pipeline("scale2", "L1"), unroll("scale2", "L2", 4)],
            cache=cache,
        )
        assert (cold.fn_cache_hits, cold.fn_cache_misses) == (0, 2)
        (entry,) = _frontend_entries(cache)
        assert _snapshot(entry.fn) == pristine

        warm = synthesize_function(
            STREAM_SRC, "scale2", STREAM_PORTS + [unroll("scale2", "L1", 2)],
            cache=cache,
        )
        assert (warm.fn_cache_hits, warm.fn_cache_misses) == (1, 1)
        assert [(lp.pipeline, lp.unroll) for lp in cold.function.loops] == [
            (True, 1), (False, 4),
        ]
        assert [(lp.pipeline, lp.unroll) for lp in warm.function.loops] == [
            (False, 2), (False, 1),
        ]

        data = np.arange(16, dtype=np.int32)
        for result in (cold, warm):
            verify_stream_discipline(result, data.copy(), np.zeros(16, np.int32))
            out = np.zeros(16, np.int32)
            result.run(data.copy(), out)
            assert list(out) == [(3 * x + 1) * 5 for x in range(16)]

        assert _snapshot(entry.fn) == pristine
        assert [(lp.pipeline, lp.unroll) for lp in entry.fn.loops] == [
            (False, 1), (False, 1),
        ]
        for dirs in (
            STREAM_PORTS + [pipeline("scale2", "L1"), unroll("scale2", "L2", 4)],
            STREAM_PORTS + [unroll("scale2", "L1", 2)],
        ):
            served = synthesize_function(STREAM_SRC, "scale2", dirs, cache=cache)
            uncached = synthesize_function(STREAM_SRC, "scale2", dirs, cache=None)
            assert served.verilog == uncached.verilog

    def test_held_ir_is_tagged(self):
        cache = fncache.FunctionCache()
        synthesize_function(SRC, "scale_add", cache=cache)
        (entry,) = _frontend_entries(cache)
        tagged = [
            op for b in entry.fn.blocks for op in b.ops if op.attrs.get("const_operand")
        ]
        assert tagged, "the front end tags a * 3 before the entry is stored"

    def test_disk_routed_cache_round_trips_the_entry(self, tmp_path):
        cache = fncache.FunctionCache(tmp_path / "fn")
        synthesize_function(STREAM_SRC, "scale2", STREAM_PORTS, cache=cache)
        (entry,) = _frontend_entries(cache)

        fresh = fncache.FunctionCache(tmp_path / "fn")
        key = fncache.frontend_key(token_fingerprint(clex(STREAM_SRC)), "scale2", True)
        loaded = fresh.get(key, stage="frontend", fn_name="scale2")
        assert isinstance(loaded, fncache.FrontendEntry)
        assert loaded is not entry
        assert _snapshot(loaded.fn) == _snapshot(entry.fn)
        assert loaded.converged == entry.converged

        again = synthesize_function(
            STREAM_SRC, "scale2", STREAM_PORTS + [pipeline("scale2", "L1")], cache=fresh
        )
        assert (again.fn_cache_hits, again.fn_cache_misses) == (1, 1)
        uncached = synthesize_function(
            STREAM_SRC, "scale2", STREAM_PORTS + [pipeline("scale2", "L1")], cache=None
        )
        assert again.verilog == uncached.verilog
        assert again.report.render() == uncached.report.render()

    def test_version_2_keys_are_never_served(self, monkeypatch):
        cache = fncache.FunctionCache()
        token_fp = token_fingerprint(clex(SRC))
        current = fncache.frontend_key(token_fp, "scale_add", True)
        # Poison both slots a version-2 layout would have used.
        decoy_src = "int scale_add(int a, int b) { return a - b; }"
        decoy = fncache.FrontendEntry(_compile(decoy_src, "scale_add"), True)
        decoy_result = synthesize_function(decoy_src, "scale_add", cache=None)
        monkeypatch.setattr(fncache, "FN_CACHE_VERSION", "2")
        old_fe = fncache.frontend_key(token_fp, "scale_add", True)
        cache.put(old_fe, decoy, stage="frontend", fn_name="scale_add")
        old_result = fncache.result_key(old_fe, directives_file([]), None, 256)
        cache.put(old_result, decoy_result, stage="result", fn_name="scale_add")
        monkeypatch.undo()
        reference = synthesize_function(SRC, "scale_add", cache=None)

        assert old_fe != current
        served = synthesize_function(SRC, "scale_add", cache=cache)
        assert (served.fn_cache_hits, served.fn_cache_misses) == (0, 2)
        assert served.verilog == reference.verilog
        assert served.run(2, 1) == reference.run(2, 1) == 8 * 7


class TestPipelineConvergence:
    @pytest.mark.parametrize("name", sorted(all_sources(NPIX)))
    def test_table1_kernels_reach_fixpoint(self, name):
        source = all_sources(NPIX)[name]
        unit = parse_c(source)
        inline_functions(unit)
        fn = lower_function(analyze(unit), name)
        pipe = run_default_pipeline(fn)
        assert pipe.converged, f"{name} did not reach a pass fixpoint"
        assert pipe.iterations < 10

    def test_nonconvergence_is_reported(self):
        # Constant folding exposes a new fold each round: this kernel
        # needs two iterations, so max_iters=1 stops before the fixpoint.
        source = "int f(int a){ int x = (1 + 2) * 4; int y = x * a; return y + 0; }"
        unit = parse_c(source)
        inline_functions(unit)
        fn = lower_function(analyze(unit), "f")
        with capture() as (bus, registry):
            pipe = run_default_pipeline(fn, max_iters=1)
        assert not pipe.converged
        events = [e for e in bus.events() if e.category == "hls.pipeline"]
        assert events and events[0].name == "nonconvergence"
        snap = registry.snapshot()
        assert snap["hls.pipeline_nonconverged_total"]["value"] >= 1

    def test_synthesis_result_carries_convergence_flag(self):
        r = synthesize_function(SRC, "scale_add", cache=None)
        assert r.pipeline_converged is True


class TestObservability:
    def test_lookup_events_and_counters(self):
        cache = fncache.FunctionCache()
        with capture() as (bus, registry):
            synthesize_function(SRC, "scale_add", cache=cache)
            synthesize_function(SRC, "scale_add", cache=cache)
        kinds = [e.category for e in bus.events() if e.category.startswith("hls.fn_cache")]
        assert "hls.fn_cache.miss" in kinds
        assert "hls.fn_cache.store" in kinds
        assert "hls.fn_cache.hit" in kinds
        snap = registry.snapshot()
        assert snap["hls.fn_cache_hits_total"]["value"] == 2
        assert snap["hls.fn_cache_misses_total"]["value"] == 2

    def test_no_events_when_disabled(self):
        cache = fncache.FunctionCache()
        assert not BUS.enabled
        synthesize_function(SRC, "scale_add", cache=cache)  # must not raise


class TestPersistence:
    def test_disk_roundtrip_and_stats(self, tmp_path):
        cache = fncache.FunctionCache(tmp_path / "fn")
        r1 = synthesize_function(SRC, "scale_add", cache=cache)

        fresh = fncache.FunctionCache(tmp_path / "fn")  # same dir, cold memory
        r2 = synthesize_function(SRC, "scale_add", cache=fresh)
        assert r2.fn_cache_hits == 2
        assert r2.verilog == r1.verilog
        report = fresh.report()
        assert report["entries"] == 2
        assert report["bytes"] > 0
        # Cumulative since scrub: the cold build's 2 misses (plus its 2
        # stores) and the fresh process's 2 hits.
        assert report["hit_rate"] == 0.5
        assert report["since_scrub"] == {"hits": 2, "misses": 2, "stores": 2}

    def test_corrupt_entry_quarantines_and_recompiles(self, tmp_path):
        import warnings

        cache = fncache.FunctionCache(tmp_path / "fn")
        r1 = synthesize_function(SRC, "scale_add", cache=cache)
        for blob in (tmp_path / "fn" / "objects").rglob("*"):
            if blob.is_file():
                blob.write_bytes(b"garbage" * 16)

        fresh = fncache.FunctionCache(tmp_path / "fn")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r2 = synthesize_function(SRC, "scale_add", cache=fresh)
        assert r2.verilog == r1.verilog  # recompiled, not served corrupt

        scrubbed = fncache.FunctionCache(tmp_path / "fn")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = scrubbed.scrub()
        assert report.healthy or report.quarantined_count >= 0
        assert scrubbed.report()["since_scrub"] == {
            "hits": 0, "misses": 0, "stores": 0,
        }

    def test_memory_bound_holds_with_a_disk_tier(self, tmp_path):
        cache = fncache.FunctionCache(tmp_path / "fn", memory_entries=4)
        for k in range(6):
            synthesize_function(SRC.replace("a * 3", f"a * {k + 3}"), "scale_add",
                                cache=cache)
        assert cache.stats.stores == 12
        # The LRU is the only in-process copy; the disk tier keeps none.
        held = len(cache._memory) + len(cache._store._memory)
        assert held <= 4
        assert len(cache._store) == 12

    def test_scrub_resets_hit_rate_window(self, tmp_path):
        cache = fncache.FunctionCache(tmp_path / "fn")
        synthesize_function(SRC, "scale_add", cache=cache)
        cache.scrub()
        fresh = fncache.FunctionCache(tmp_path / "fn")
        synthesize_function(SRC, "scale_add", cache=fresh)
        rate = fresh.report()["hit_rate"]
        assert rate == 1.0  # the post-scrub window only saw hits


class TestFlowDifferential:
    def test_flow_identical_with_and_without_fn_cache(self, monkeypatch):
        from repro.apps.generator import random_task_graph
        from repro.flow import FlowConfig, run_flow

        graph, sources = random_task_graph(
            stream_depth=16, seed=5, lite_nodes=1, stream_chains=1, chain_length=2
        )
        config = FlowConfig(cache_dir=None, check_tcl=False)

        monkeypatch.setenv("REPRO_HLS_FN_CACHE", "0")
        off = run_flow(graph, sources, config=config)
        monkeypatch.delenv("REPRO_HLS_FN_CACHE")

        cold = run_flow(graph, sources, config=config)
        warm = run_flow(graph, sources, config=config)
        for result in (cold, warm):
            assert result.bitstream.digest == off.bitstream.digest
            for name, build in result.cores.items():
                assert build.result.verilog == off.cores[name].result.verilog
        assert warm.timing.fn_cache_hits > 0

    def test_timing_json_reports_fn_cache(self, tmp_path, monkeypatch):
        from repro.apps.generator import random_task_graph
        from repro.flow import FlowConfig, materialize, run_flow

        monkeypatch.delenv("REPRO_HLS_FN_CACHE", raising=False)

        graph, sources = random_task_graph(
            stream_depth=16, seed=5, lite_nodes=1, stream_chains=1, chain_length=2
        )
        config = FlowConfig(
            cache_dir=str(tmp_path / "cache"), check_tcl=False
        )
        result = run_flow(graph, sources, config=config)
        out = materialize(result, tmp_path / "out")
        timing = json.loads((out / "timing.json").read_text())
        assert "fn_cache" in timing
        assert set(timing["fn_cache"]) == {"hits", "misses"}
        assert all("fn_cache_hits" in core for core in timing["cores"])
        assert (tmp_path / "cache" / "fn").is_dir()


class TestCachePassedByArgument:
    def test_overlapping_flows_keep_their_own_stores(self, tmp_path, monkeypatch):
        from repro.apps.generator import random_task_graph
        from repro.flow import FlowConfig, run_flow
        from repro.hls.project import HlsProject

        monkeypatch.delenv("REPRO_HLS_FN_CACHE", raising=False)
        graph, sources = random_task_graph(
            stream_depth=16, seed=5, lite_nodes=1, stream_chains=1, chain_length=2
        )
        # Both flows are inside their first core synthesis at once.
        barrier = threading.Barrier(2, timeout=60)
        first_call = threading.local()
        csynth = HlsProject.csynth

        def overlapping_csynth(self, **kwargs):
            if not getattr(first_call, "done", False):
                first_call.done = True
                barrier.wait()
            return csynth(self, **kwargs)

        monkeypatch.setattr(HlsProject, "csynth", overlapping_csynth)
        dirs = {tag: str(tmp_path / tag / "fn") for tag in ("a", "b")}
        results, errors = {}, []

        def build(tag):
            try:
                config = FlowConfig(
                    cache_dir=None, check_tcl=False, fn_cache_dir=dirs[tag]
                )
                results[tag] = run_flow(graph, sources, config=config)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(t,)) for t in dirs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors

        for tag, fn_dir in dirs.items():
            timing = results[tag].timing
            stats = fncache.cache_at(fn_dir).stats
            assert (stats.hits, stats.misses) == (
                timing.fn_cache_hits, timing.fn_cache_misses,
            )
            assert stats.stores == 2 * len(results[tag].cores)
        assert fncache.active_cache() is fncache._DEFAULT
        assert results["a"].bitstream.digest == results["b"].bitstream.digest
