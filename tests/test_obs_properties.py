"""Property-based observability checks over seeded random designs.

For arbitrary generated task graphs (same generator the end-to-end
random suite uses), a word-path and a burst-path simulation of the same
built design must:

* both produce well-formed event streams (``assert_well_formed``), and
* agree **byte for byte** on every ``sim.*`` metric total — the
  observability restatement of the burst engine's equivalence theorem
  (the engine-effort ``simulator.*`` metrics are exactly where the two
  paths are allowed to differ).

The flow's own emission is covered too: a full random build under
capture must satisfy the journal-pairing and cache-accounting
invariants, alone and with flows running concurrently on threads.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps.generator import random_task_graph
from repro.flow import BuildCache, FlowConfig, autosimulate, run_flow
from repro.obs import capture, sim_totals, sim_totals_digest
from tests.obs_invariants import assert_well_formed

SEEDS = [0, 3, 8, 21, 34]


def _build(seed, **config_kwargs):
    graph, sources = random_task_graph(
        lite_nodes=1, stream_chains=1, chain_length=3, stream_depth=24, seed=seed
    )
    return run_flow(
        graph, sources, config=FlowConfig(check_tcl=False, **config_kwargs)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_word_and_burst_totals_identical_on_random_designs(seed):
    flow = _build(seed)
    snapshots = {}
    for label, burst in (("word", False), ("burst", True)):
        with capture() as (bus, registry):
            autosimulate(flow, seed=seed, burst_mode=burst)
        assert_well_formed(bus.events(), registry.snapshot())
        snapshots[label] = registry.snapshot()
    word = json.dumps(sim_totals(snapshots["word"]), sort_keys=True)
    burst = json.dumps(sim_totals(snapshots["burst"]), sort_keys=True)
    assert word == burst
    assert sim_totals_digest(snapshots["word"]) == sim_totals_digest(
        snapshots["burst"]
    )


@pytest.mark.parametrize("seed", [1, 5])
def test_distinct_seeds_produce_distinct_sim_digests(seed):
    """The digest is a real fingerprint: different work, different digest."""
    digests = []
    for s in (seed, seed + 100):
        flow = _build(s)
        with capture() as (_, registry):
            autosimulate(flow, seed=s)
        digests.append(sim_totals_digest(registry.snapshot()))
    assert digests[0] != digests[1]


@pytest.mark.parametrize("seed", [2, 13])
def test_random_build_stream_is_well_formed(seed, tmp_path):
    """Serial build with cache + journal: all flow-side invariants hold."""
    from repro.flow import RunJournal

    graph, sources = random_task_graph(
        lite_nodes=1, stream_chains=1, chain_length=3, stream_depth=24, seed=seed
    )
    config = FlowConfig(check_tcl=False, cache_dir=str(tmp_path / "cache"))
    with capture() as (bus, registry):
        with RunJournal(tmp_path / "journal") as journal:
            run_flow(graph, sources, config=config, journal=journal)
        # A warm rebuild: every core is a cache hit committing without a
        # write-ahead intent — the commit-without-intent case the
        # invariant explicitly allows.
        with RunJournal(tmp_path / "journal2") as journal:
            run_flow(graph, sources, config=config, journal=journal)
    events = bus.events()
    metrics = registry.snapshot()
    assert_well_formed(events, metrics)
    assert metrics["cache.hits"]["value"] >= 1
    assert metrics["cache.misses"]["value"] >= 1
    hit_names = [e for e in events if e.category == "cache.hit"]
    assert hit_names, "warm rebuild produced no cache.hit events"


def test_parallel_build_emits_from_worker_threads(tmp_path):
    """Concurrent flows on pool threads (the build service's execution
    shape) emit thread-safely and stay well-formed per worker."""
    designs = [
        random_task_graph(
            lite_nodes=2, stream_chains=2, chain_length=2, stream_depth=16, seed=seed
        )
        for seed in (7, 11)
    ]

    def build(i):
        # Like a service job: a per-job build cache passed in, while
        # both flows share the process-default function memo.
        graph, sources = designs[i]
        return run_flow(
            graph, sources,
            config=FlowConfig(check_tcl=False, cache_dir=None),
            build_cache=BuildCache(tmp_path / f"cache{i}"),
        )

    with capture() as (bus, registry):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(build, range(len(designs))))
    events = bus.events()
    assert_well_formed(events, registry.snapshot())
    workers = {e.worker for e in events if e.category == "flow.step" and e.phase == "B"}
    # The per-core spans really came from pool threads, not the main one.
    assert any("ThreadPoolExecutor" in w for w in workers)
