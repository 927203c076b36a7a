"""Differential proof of the burst fast path (see repro.sim.burst).

The burst engine must be *invisible* except for speed: every test here
runs the same system twice — word-granular and burst — and requires the
``ExecutionReport`` digests (cycles, per-node spans, output bytes,
trace spans, FIFO counters, HP-port words, fault/recovery logs) and the
``channel_stats`` (FIFO high_water included) to be identical, while the
burst run spends strictly fewer kernel events whenever it actually
fast-pathed a phase.
"""

import heapq
import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htg import HTG, Actor, Partition, Phase, StreamChannel as HtgChannel, Task
from repro.sim import Environment, StreamChannel, hw_serialized, simulate_application
from repro.sim import Memory
from repro.sim.accel import ActorTiming, StreamActorSim, StreamEndpoint
from repro.sim.burst import (
    ActorSpec,
    DmaSpec,
    PhaseMemo,
    PhaseSolution,
    _Fifo,
    phase_memo_key,
    replay_phase,
    solve_phase_ex,
)
from repro.sim.dma_engine import DmaEngine, HpPort
from repro.sim.faults import FaultPlan, RecoveryPolicy
from repro.sim.memory import CYCLES_PER_WORD, READ_LATENCY, WRITE_LATENCY
from repro.sim.prefix import (
    DONE,
    plan_mm2s_resume,
    plan_s2mm_resume,
    resume_actor,
    start_resumes,
)
from repro.sim.runtime import Behavior
from tests.test_sim import build_hw_system, build_pipeline_app


def both_modes(htg, part, behaviors, system, **kw):
    word = simulate_application(
        htg, part, behaviors, {}, system=system, burst_mode=False, **kw
    )
    burst = simulate_application(
        htg, part, behaviors, {}, system=system, burst_mode=True, **kw
    )
    return word, burst


def assert_identical(word, burst):
    assert word.cycles == burst.cycles
    assert word.digest() == burst.digest()
    assert word.node_spans == burst.node_spans
    assert word.hp_words == burst.hp_words
    # Token totals and high_water: the replay reproduces both exactly.
    assert word.channel_stats == burst.channel_stats


class TestPipelineDifferential:
    def test_word_and_burst_agree(self):
        htg, behaviors, golden = build_pipeline_app()
        part, system = build_hw_system(htg)
        word, burst = both_modes(htg, part, behaviors, system)
        assert_identical(word, burst)
        assert np.array_equal(burst.of("result"), golden)

    def test_burst_spends_fewer_events(self):
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        word, burst = both_modes(htg, part, behaviors, system)
        if burst.burst_stats["burst_phases"]:
            assert burst.kernel_events * 10 <= word.kernel_events

    def test_env_var_disables_fast_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BURST", "0")
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        assert rep.burst_stats["enabled"] is False
        assert rep.burst_stats["burst_phases"] == 0
        assert rep.burst_stats["word_phases"] == 1

    def test_explicit_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BURST", "0")
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        rep = simulate_application(
            htg, part, behaviors, {}, system=system, burst_mode=True
        )
        assert rep.burst_stats["enabled"] is True


class TestOtsuArchitecturesDifferential:
    """The four Table-I architectures, word vs burst, 16x16."""

    @pytest.fixture(scope="class")
    def builds(self):
        from repro.apps.otsu import build_otsu_app
        from repro.flow import run_flow

        out = {}
        for arch in (1, 2, 3, 4):
            app = build_otsu_app(arch, width=16, height=16)
            flow = run_flow(
                app.dsl_graph(), app.c_sources,
                extra_directives=app.extra_directives,
            )
            out[arch] = (app, flow)
        return out

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_cycle_identical(self, builds, arch):
        app, flow = builds[arch]
        word, burst = both_modes(
            app.htg, app.partition, app.behaviors, flow.system
        )
        assert_identical(word, burst)
        assert np.array_equal(
            burst.of("binImage"), np.asarray(app.golden["binary"])
        )

    def test_arch4_fast_paths(self, builds):
        app, flow = builds[4]
        word, burst = both_modes(
            app.htg, app.partition, app.behaviors, flow.system
        )
        assert burst.burst_stats["burst_phases"] == 1
        assert burst.burst_stats["word_phases"] == 0
        assert burst.kernel_events * 10 <= word.kernel_events

    def test_arch1_contended_port_falls_back(self, builds):
        """mm2s saturates the HP port while s2mm drains: the grant order
        is the kernel's tie order, which the replay runs — so the phase
        stays off the word path, high_water included."""
        app, flow = builds[1]
        word, burst = both_modes(
            app.htg, app.partition, app.behaviors, flow.system
        )
        assert burst.burst_stats["burst_phases"] == 1
        assert burst.burst_stats["replay_phases"] == 1
        assert burst.burst_stats["word_phases"] == 0
        assert burst.burst_stats["fallback_reasons"] == {}
        assert_same_run(word, burst)

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_mid_phase_flip_prefix_bursts(self, builds, arch):
        """A DRAM flip at 90 % of the hardware phase: the fault-free head
        is replayed and committed, the rest runs live — Arch1's phase on
        a saturated HP port included."""
        from repro.sim import Fault

        app, flow = builds[arch]
        clean = simulate_application(app.htg, app.partition, app.behaviors,
                                     {}, system=flow.system, burst_mode=False)
        start, end = max(
            (clean.node_spans[n] for n in app.partition.hw_nodes()),
            key=lambda span: span[1] - span[0],
        )
        plan = FaultPlan((Fault("dram_flip", "*", bit=3, word=5,
                                at_cycle=start + (end - start) * 9 // 10),))
        word, burst = both_modes(
            app.htg, app.partition, app.behaviors, flow.system, faults=plan
        )
        assert burst.burst_stats["prefix_phases"] == 1
        assert burst.burst_stats["word_phases"] == 0
        assert_identical(word, burst)
        if arch == 1:
            assert burst.kernel_events * 8 < word.kernel_events

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_dma_byte_accounting(self, builds, arch, monkeypatch):
        """Every DMA engine ends with the word path's byte counters and
        MM2S/S2MM DMASR: on the burst path of a fault-free run, and on
        the prefix path of simbench's mid-phase dram_flip leg."""
        import repro.sim.runtime as runtime
        from repro.cli import _simbench_fault_cycle
        from repro.sim import Fault
        from repro.sim.dma_engine import MM2S_DMASR, S2MM_DMASR

        platforms = []

        class Captured(runtime.SimPlatform):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                platforms.append(self)

        monkeypatch.setattr(runtime, "SimPlatform", Captured)
        app, flow = builds[arch]

        def run(**kw):
            rep = simulate_application(app.htg, app.partition, app.behaviors,
                                       {}, system=flow.system, **kw)
            return rep, {
                name: (e.bytes_mm2s, e.bytes_s2mm,
                       e.regs[MM2S_DMASR], e.regs[S2MM_DMASR])
                for name, e in platforms[-1].dma_engines.items()
            }

        word, want = run(burst_mode=False)
        burst, got = run(burst_mode=True)
        assert burst.burst_stats["burst_phases"] == 1
        assert all(mm2s or s2mm for mm2s, s2mm, _, _ in want.values())
        assert got == want
        at = _simbench_fault_cycle(word, app.partition.hw_nodes())
        plan = FaultPlan((Fault("dram_flip", "*", at_cycle=at, bit=3, word=5),))
        _, want = run(burst_mode=False, faults=plan)
        prefix, got = run(burst_mode=True, faults=plan)
        assert prefix.burst_stats["prefix_phases"] == 1
        assert got == want


class TestRandomGraphsDifferential:
    """Word vs burst over randomly generated DSL designs."""

    @pytest.mark.parametrize("seed", list(range(20)))
    def test_digest_identical(self, seed):
        from repro.apps.generator import random_task_graph
        from repro.flow import FlowConfig, autosimulate, run_flow

        chains = 1 + seed % 2
        graph, sources = random_task_graph(
            lite_nodes=0,
            stream_chains=chains,
            chain_length=2 + seed % 3,
            stream_depth=16 + 8 * (seed % 4),
            seed=seed,
        )
        flow = run_flow(graph, sources, config=FlowConfig(check_tcl=False))
        word = autosimulate(flow, seed=seed, burst_mode=False)
        burst = autosimulate(flow, seed=seed, burst_mode=True)
        assert word.report.cycles == burst.report.cycles
        assert word.report.digest() == burst.report.digest()
        assert word.report.channel_stats == burst.report.channel_stats
        for name, arr in word.outputs.items():
            assert np.array_equal(arr, burst.outputs[name])


class TestFaultSuppression:
    POLICY = RecoveryPolicy(node_budget=200_000, reset_cycles=50)

    def test_dma_stall_forces_word_path(self):
        htg, behaviors, golden = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        cell = system.dmas[0].cell
        plan = FaultPlan.single("dma_stall", cell, channel="mm2s")
        word, burst = both_modes(
            htg, part, behaviors, system, faults=plan, policy=self.POLICY
        )
        # The armed stall can fire at the phase's first injection point,
        # so attempt 1 runs word-granular (reason: fault_touches) and
        # wedges / recovers at the exact same cycle both ways; the retry
        # finds the one-shot charge spent and full-bursts.
        assert burst.burst_stats["word_phases"] == 1
        assert burst.burst_stats["burst_phases"] == 1
        assert burst.burst_stats["fallback_reasons"] == {"fault_touches": 1}
        assert_identical(word, burst)
        assert [e.describe() for e in word.fault_events] == [
            e.describe() for e in burst.fault_events
        ]
        assert [e.describe() for e in word.recovery_events] == [
            e.describe() for e in burst.recovery_events
        ]
        assert np.array_equal(burst.of("result"), golden)

    def test_unrelated_plan_keeps_fast_path(self):
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        plan = FaultPlan.single("accel_hang", "not_in_this_design")
        word, burst = both_modes(
            htg, part, behaviors, system, faults=plan, policy=self.POLICY
        )
        assert_identical(word, burst)

    def test_dram_flip_before_phase_keeps_fast_path(self):
        # The flip is a background event at exactly cycle 10 — long past
        # by the time the hardware phase starts, so it casts no hazard
        # and the phase full-bursts with identical results.
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        plan = FaultPlan.single("dram_flip", "*", at_cycle=10, word=3)
        word, burst = both_modes(
            htg, part, behaviors, system, faults=plan, policy=self.POLICY
        )
        assert burst.burst_stats["burst_phases"] >= 1
        assert burst.burst_stats["word_phases"] == 0
        assert_identical(word, burst)

    def test_touches_matches_names_and_wildcard(self):
        plan = FaultPlan.single("dma_stall", "dma0")
        assert plan.touches({"dma0", "x"})
        assert not plan.touches({"dma1"})
        assert FaultPlan.single("accel_hang", "*").touches({"anything"})
        assert FaultPlan.single("dram_flip", "buf").touches({"other"})


class TestBurstChannelPrimitives:
    """put_burst/get_burst against the word-granular reference."""

    def run_all(self, env):
        env.run()

    def test_put_burst_fills_then_blocks(self):
        env = Environment()
        ch = StreamChannel(env, "s", capacity=4)
        done = []

        def producer():
            yield ch.put_burst([1, 2, 3, 4, 5, 6])
            done.append(env.now)

        env.process(producer())
        env.run()
        assert not done  # 2 tokens still held by the blocked producer
        assert list(ch._items) == [1, 2, 3, 4]

        got = []

        def consumer():
            for _ in range(6):
                got.append((yield ch.get()))

        env.process(consumer())
        env.run()
        assert got == [1, 2, 3, 4, 5, 6]
        assert done  # producer unblocked once every token was admitted
        assert ch.conserved()
        assert ch.total_put == ch.total_got == 6

    def test_get_burst_waits_for_producers(self):
        env = Environment()
        ch = StreamChannel(env, "s", capacity=2)
        got = []

        def consumer():
            got.append((yield ch.get_burst(5)))

        def producer():
            for v in range(5):
                yield env.timeout(3)
                yield ch.put(v)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [[0, 1, 2, 3, 4]]
        assert ch.conserved()

    def test_burst_to_burst_handoff(self):
        env = Environment()
        ch = StreamChannel(env, "s", capacity=2)
        got = []
        env.process(iter_gen(ch.put_burst(list(range(8)))))
        def consumer():
            got.append((yield ch.get_burst(8)))
        env.process(consumer())
        env.run()
        assert got == [list(range(8))]
        assert ch.conserved()
        assert ch.high_water <= ch.capacity

    def test_word_and_burst_interleave_preserve_order(self):
        env = Environment()
        ch = StreamChannel(env, "s", capacity=3)
        out = []

        def producer():
            yield ch.put(0)
            yield ch.put_burst([1, 2, 3, 4])
            yield ch.put(5)

        def consumer():
            out.append((yield ch.get()))
            out.append((yield ch.get_burst(3)))
            out.append((yield ch.get()))
            out.append((yield ch.get()))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert out == [0, [1, 2, 3], 4, 5]
        assert ch.conserved()

    @given(
        capacity=st.integers(1, 6),
        bursts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_get_burst_matches_word_gets(self, capacity, bursts, data):
        """A burst get against a FIFO with blocked producers leaves the
        same tokens, counters, occupancy and producer wake-up order as
        the same number of word gets issued back-to-back."""

        def setup():
            env = Environment()
            ch = StreamChannel(env, "s", capacity=capacity)
            woken = []
            token = 0
            for i, size in enumerate(bursts):
                evt = ch.put_burst(list(range(token, token + size)))
                evt.add_callback(lambda e, i=i: woken.append(i))
                token += size
            # Below the occupancy, as commit_burst's pinned estimate can
            # be, so the gets' own high_water updates show.
            ch.high_water = 0
            return env, ch, woken

        count = data.draw(st.integers(1, sum(bursts)))
        env_b, burst_ch, woken_b = setup()
        env_w, word_ch, woken_w = setup()
        got = burst_ch.get_burst(count)
        words = [word_ch.get() for _ in range(count)]
        assert got.value == [evt.value for evt in words]
        for ch in (burst_ch, word_ch):
            assert ch.conserved()
        assert (burst_ch.total_put, burst_ch.total_got, burst_ch.high_water) == (
            word_ch.total_put, word_ch.total_got, word_ch.high_water
        )
        assert list(burst_ch._items) == list(word_ch._items)
        assert [p.items[p.pos:] for p in burst_ch._putters] == [
            p.items[p.pos:] for p in word_ch._putters
        ]
        env_b.run()
        env_w.run()
        assert woken_b == woken_w

    def test_empty_burst_rejected(self):
        from repro.util.errors import SimError

        env = Environment()
        ch = StreamChannel(env, "s", capacity=2)
        with pytest.raises(SimError, match="empty burst"):
            ch.put_burst([])
        with pytest.raises(SimError, match="burst get"):
            ch.get_burst(0)

    def test_injector_applies_per_token(self):
        from repro.sim.faults import Fault, FaultInjector, FaultPlan

        env = Environment()
        plan = FaultPlan(faults=(Fault("stream_drop", "s", count=2),))
        ch = StreamChannel(env, "s", capacity=8, injector=FaultInjector(plan, env))
        env.process(iter_gen(ch.put_burst([1, 2, 3, 4])))
        env.run()
        assert ch.dropped == 2
        assert len(ch._items) == 2
        assert ch.conserved()


def iter_gen(evt):
    yield evt


class TestHpBurstAcquire:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acquire_burst_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        counts = [int(v) for v in rng.integers(1, 9, 12)]
        gaps = [int(v) for v in rng.integers(0, 4, 12)]

        def drive(env, hp, burst):
            def proc():
                for n, g in zip(counts, gaps):
                    yield env.timeout(g)
                    if burst:
                        yield hp.acquire_burst(n)
                    else:
                        for _ in range(n):
                            yield hp.acquire()
            env.process(proc())
            env.run()
            return env.now, hp._slot_time, hp._slot_used, hp.total_words

        env_w = Environment()
        word = drive(env_w, HpPort(env_w), False)
        env_b = Environment()
        burst = drive(env_b, HpPort(env_b), True)
        assert word == burst
        assert env_b.events_processed < env_w.events_processed


class TestSolverGuards:
    """What the phase engine refuses, and the contended ports it computes."""

    def test_shallow_fifo_rejected(self, monkeypatch):
        # The runtime keeps a FIFO shallower than two words on the word
        # path as fifo_busy, before the replay is ever asked.
        import functools

        import repro.sim.runtime as runtime

        monkeypatch.setattr(runtime, "StreamChannel",
                            functools.partial(StreamChannel, capacity=1))
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        word, burst = both_modes(htg, part, behaviors, system)
        assert burst.burst_stats["word_phases"] == 1
        assert burst.burst_stats["fallback_reasons"] == {"fifo_busy": 1}
        assert_identical(word, burst)

    def test_count_mismatch_rejected(self):
        env = Environment()
        ch = StreamChannel(env, "c", capacity=8)
        sol, reason = solve_phase_ex(
            0, {ch: 8}, [DmaSpec(0, 4, ch, "mm2s")],
            [ActorSpec(name="a", t0=0, firings=3, depth=1, ii=1,
                       rate_ins=[ch])],
        )
        assert (sol, reason) == (None, "no_convergence")  # a leftover token

    def test_saturated_shared_port_replayed(self):
        # Two mm2s masters at full rate on a 2-word port: every cycle
        # carries 4 wanted words, so the grants follow the kernel's tie
        # order — which the replay runs.
        phases = [random_phase(seed) for seed in range(40)]
        contended = [
            (specs, hp, word) for specs, hp, word, _prefix in phases
            if sum(d.direction == "mm2s" for d in specs[2]) >= 2
            and len({d.kick for d in specs[2]}) < len(specs[2])
        ]
        assert contended
        for (t0, caps, dmas, actors), hp, word in contended:
            got = replay_phase(t0, caps, dmas, actors, **hp)
            assert _outcome(got) == word()

    def test_busy_port_at_entry_replayed(self):
        # A port booked up to cycle 1000: the four words are granted in
        # pairs at 1001 and 1002, and the II-1 actor drains one a cycle.
        env = Environment()
        ch = StreamChannel(env, "c", capacity=64)
        sol, reason = solve_phase_ex(
            0, {ch: 64}, [DmaSpec(0, 4, ch, "mm2s")],
            [ActorSpec(name="a", t0=0, firings=4, depth=0, ii=1,
                       rate_ins=[ch])],
            hp_wpc=2, hp_slot_time=1000, hp_slot_used=2,
        )
        assert reason is None
        assert sol.hp_state == (1002, 2)
        assert sol.finish == 1004


# -- reference: replay_phase before the steady-state skip -------------------
# Its loop and processes kept verbatim (names prefixed; the unchanged
# _Fifo is shared), so the skipping replay is checked against the loop that
# runs every repetition, as well as against the word path.
_WAIT, _PUT, _GET, _ACQUIRE = range(4)


def _ref_dma(spec: DmaSpec, f: _Fifo, pace: tuple):
    """``DmaEngine._run_mm2s`` / ``_run_s2mm``, as opcodes.

    *pace* is what each word waits on: an HP acquire, or a
    ``CYCLES_PER_WORD`` wait when the engine has no HP port.  The op
    tuples live in the generator, not on the FIFO, so a finished replay
    leaves no FIFO-to-itself reference cycle behind.
    """
    if spec.direction == "mm2s":
        put = (_PUT, f)
        yield (_WAIT, READ_LATENCY)
        for _ in range(spec.count):
            yield pace
            yield put
    else:
        get = (_GET, f)
        yield (_WAIT, WRITE_LATENCY)
        for _ in range(spec.count):
            yield get
            yield pace


def _ref_actor(spec: ActorSpec, fifos: dict):
    """``StreamActorSim._run``, as opcodes."""
    for key, n in spec.bulk_ins:
        op = (_GET, fifos[key])
        for _ in range(n):
            yield op
    yield (_WAIT, spec.depth)
    gets = [(_GET, fifos[k]) for k in spec.rate_ins]
    puts = [(_PUT, fifos[k]) for k in spec.rate_outs]
    if spec.firings:
        yield from gets + puts  # the first firing waits no II
    firing = gets + [(_WAIT, spec.ii)] + puts
    for _ in range(spec.firings - 1):
        yield from firing
    word = (_WAIT, CYCLES_PER_WORD)
    for key, n in spec.bulk_outs:
        op = (_PUT, fifos[key])
        for _ in range(n):
            yield word
            yield op


def reference_replay(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int | None = None,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
    cut: int | None = None,
) -> PhaseSolution | None:
    """Run one phase's own kernel entries in the event kernel's order.

    Each word-path process is a generator yielding opcodes, and a
    two-queue loop runs their entries in ``(time, push order)`` exactly
    like :class:`~repro.sim.kernel.Environment` (the rule list is in
    DESIGN.md §8): a heap of timeout triggers due later, a FIFO of this
    cycle's zero-delay entries, due heap entries first.  The driver
    starts every actor at *t0* inside one step, then kicks each DMA from
    the step its ``spec.kick - previous`` timeout resumes — for the
    runtime one ``DRIVER_CALL_OVERHEAD`` apart, like ``cpu.call_driver``.

    *channels* maps keys to capacities.  With *hp_wpc* every DMA word
    acquires a shared HP port of that width, entered in state
    ``(hp_slot_time, hp_slot_used)``; without it each word waits
    ``CYCLES_PER_WORD``.  With *cut* (at or after the last kick) the
    committed state is taken at the end of that cycle and the solution
    also carries the cut fields of :class:`PhaseSolution`.

    Returns ``None`` when a process is still blocked or a FIFO still
    holds tokens at the end.
    """
    kicks = [t0] + [d.kick for d in dmas]
    if any(b < a for a, b in zip(kicks, kicks[1:])):
        raise ValueError("DMA kicks must follow t0 in driver-call order")
    if any(a.t0 != t0 for a in actors):
        raise ValueError("every actor starts at the phase start")
    record = cut is not None
    if record and cut < kicks[-1]:
        raise ValueError("the cut must not precede a DMA kick")
    fifos = {key: _Fifo(cap, record) for key, cap in channels.items()}
    word = (_WAIT, CYCLES_PER_WORD)
    dma_gens = [
        _ref_dma(d, fifos[d.chan], word if hp_wpc is None else (_ACQUIRE, j))
        for j, d in enumerate(dmas)
    ]
    actor_gens = [_ref_actor(a, fifos) for a in actors]
    heap: list = []  # (due, seq, process): a timeout's trigger
    # This cycle's entries in push order: a process to resume, or a
    # 1-tuple holding one whose timeout(0) fired.
    ready: deque = deque()

    def driver():
        for gen in actor_gens:
            ready.append(gen)
        for (prev, kick), gen in zip(zip(kicks, kicks[1:]), dma_gens):
            yield (_WAIT, kick - prev)
            ready.append(gen)

    calls: list = [[] for _ in dmas] if record and hp_wpc is not None else []
    snapshot: tuple | None = None

    def take_snapshot(slot_time: int, slot_used: int, words: int) -> tuple:
        index = {gen: i for i, gen in enumerate(dma_gens + actor_gens)}
        return (
            {key: (f.puts, f.gets, f.high_water) for key, f in fifos.items()},
            (slot_time, slot_used) if words else None,
            words,
            [index[gen] for _due, _seq, gen in sorted(heap)],
        )

    ended: dict = {}
    slot_time = hp_slot_time if hp_slot_time is not None else -1
    slot_used, words, seq, now = hp_slot_used, 0, 0, t0
    horizon = cut if record else float("inf")
    heappush, heappop, resume = heapq.heappush, heapq.heappop, next
    PUT, GET, ACQUIRE = _PUT, _GET, _ACQUIRE
    ready.append(driver())
    while True:
        if not ready:  # this cycle is done: the next cycle's triggers fire
            if not heap:
                break
            if heap[0][0] > horizon:  # every entry of the cut cycle ran
                snapshot = take_snapshot(slot_time, slot_used, words)
                horizon = float("inf")
            now = heap[0][0]
            while heap and heap[0][0] == now:
                ready.append(heappop(heap)[2])
        gen = ready.popleft()
        if gen.__class__ is tuple:  # a timeout(0) fired: its waiter resumes next
            ready.append(gen[0])
            continue
        # Run it.  While no other entry is queued, its resumption would
        # be the very next entry, so it simply continues.
        while True:
            try:
                op, arg = resume(gen)
            except StopIteration:
                ended[gen] = now
                break
            if op is PUT:
                if arg.getters:  # direct handoff: the getter resumes first
                    arg.puts += 1
                    arg.gets += 1
                    if record:
                        arg.P.append(now)
                        arg.G.append(now)
                    ready.append(arg.getters.popleft())
                    ready.append(gen)
                    break
                if arg.n < arg.cap:
                    arg.n += 1
                    arg.puts += 1
                    if arg.n > arg.high_water:
                        arg.high_water = arg.n
                    if record:
                        arg.P.append(now)
                    if ready:
                        ready.append(gen)
                        break
                    continue
                arg.putters.append(gen)
                break
            if op is GET:
                if not arg.n:
                    arg.getters.append(gen)
                    break
                arg.gets += 1
                if record:
                    arg.G.append(now)
                if arg.putters:  # admits the head putter, which resumes first
                    arg.puts += 1  # occupancy back to n: high_water already >= n
                    if record:
                        arg.P.append(now)
                    ready.append(arg.putters.popleft())
                    ready.append(gen)
                    break
                arg.n -= 1
                if ready:
                    ready.append(gen)
                    break
                continue
            if op is ACQUIRE:  # HpPort.acquire at this cycle
                if slot_time < now:
                    slot_time = now
                    slot_used = 0
                if slot_used >= hp_wpc:
                    slot_time += 1
                    slot_used = 0
                slot_used += 1
                words += 1
                if record:
                    calls[arg].append((now, slot_time))
                arg = slot_time - now
            due = now + arg
            if ready or (heap and heap[0][0] <= due) or due > horizon:
                if arg:
                    seq += 1
                    heappush(heap, (due, seq, gen))
                else:
                    ready.append((gen,))
                break
            now = due  # its trigger would be the next entry: skip the queue

    if len(ended) != 1 + len(actor_gens) + len(dma_gens):
        return None  # a process is still blocked
    if any(f.n for f in fifos.values()):
        return None  # tokens left behind
    if snapshot is None:  # no cut, or the phase ended by the cut cycle
        snapshot = take_snapshot(slot_time, slot_used, words)
    channel_state, hp_state, hp_words, sleepers = snapshot
    solution = PhaseSolution(
        finish=max(ended.values()),
        actor_spans=[
            (spec.name, t0, ended[gen]) for spec, gen in zip(actors, actor_gens)
        ],
        channels=channel_state,
        hp_state=hp_state,
        hp_words=hp_words,
    )
    if record:
        solution.timeline = {key: (f.P, f.G) for key, f in fifos.items()}
        solution.dma_calls = calls or [None] * len(dmas)
        solution.cut_sleepers = sleepers
    return solution


def random_phase(seed, *, port=True, long=False):
    """A random phase built twice: word-path objects and specs.

    2-4 DMA masters share one HP port (``wpc`` 1, 2 or 4, reset or busy
    at entry) — or, with ``port=False``, are paced at ``CYCLES_PER_WORD``
    without one — and kick at random offsets; 1-3 actors with random
    depth, II and rate/bulk ports hang off a chain of FIFOs 2-64 deep.
    Transfers carry 2-40 words, or 100-1,500 with *long*, where a FIFO
    may also be 256 or 1,024 deep (deep enough to fill across a phase).
    """
    rng = random.Random(seed)
    env = Environment()
    memory = Memory()
    t0 = rng.randint(1, 400)
    wpc = rng.choice((1, 2, 4))
    hp_port = HpPort(env, words_per_cycle=wpc)
    if rng.random() < 0.5:
        hp_port._slot_time = t0 + rng.randint(0, 3)
        hp_port._slot_used = rng.randint(1, wpc)
    hp = dict(hp_wpc=wpc, hp_slot_time=hp_port._slot_time,
              hp_slot_used=hp_port._slot_used)
    if not port:
        hp, hp_port = {}, None
    n_actors = rng.randint(1, 3)
    low, high = (100, 1500) if long else (1, 40)
    base = rng.randint(max(low, 2), high)

    def count():
        return base if rng.random() < 0.75 else rng.randint(low, max(low, base - 1))

    links = [(("actor", i), ("actor", i + 1), count()) for i in range(n_actors - 1)]
    directions = ["mm2s", "s2mm"] + [
        rng.choice(("mm2s", "s2mm")) for _ in range(rng.randint(0, 2))
    ]
    rng.shuffle(directions)
    for j, d in enumerate(directions):
        actor = ("actor", rng.randrange(n_actors))
        links.append((("dma", j), actor, count()) if d == "mm2s"
                     else (actor, ("dma", j), count()))
    caps = [rng.randint(2, 64) for _ in links]
    if long:
        caps = [rng.choice((cap, cap, 256, 1024)) for cap in caps]
    chans = [StreamChannel(env, f"c{k}", capacity=cap)
             for k, cap in enumerate(caps)]

    ports = [([], []) for _ in range(n_actors)]  # (ins, outs) per actor
    dma_of = {}
    for ch, (src, dst, n) in zip(chans, links):
        data = np.arange(n, dtype=np.int32)
        if src[0] == "actor":
            ports[src[1]][1].append(StreamEndpoint(ch.name, ch, data))
        if dst[0] == "actor":
            ports[dst[1]][0].append(StreamEndpoint(ch.name, ch, data))
        dma = src if src[0] == "dma" else dst
        if dma[0] == "dma":
            dma_of[dma[1]] = (ch, n)

    sims, actor_specs = [], []
    for i, (ins, outs) in enumerate(ports):
        timing = ActorTiming(ii=rng.randint(1, 3), depth=rng.randint(1, 12))
        sims.append(StreamActorSim(env, f"a{i}", inputs=ins, outputs=outs,
                                   timing=timing))
        firings = max([len(e.data) for e in (*ins, *outs)] or [1])
        spec = ActorSpec(name=f"a{i}", t0=t0, firings=firings,
                         depth=timing.depth, ii=timing.ii)
        for e in ins:
            if len(e.data) == firings:
                spec.rate_ins.append(e.channel)
            else:
                spec.bulk_ins.append((e.channel, len(e.data)))
        for e in outs:
            if len(e.data) == firings:
                spec.rate_outs.append(e.channel)
            else:
                spec.bulk_outs.append((e.channel, len(e.data)))
        actor_specs.append(spec)

    kick, kicks, dma_specs, engines = t0, [], [], []
    for j, d in enumerate(directions):
        kick += rng.choice((0, 1, 2, rng.randint(3, 60), 150))
        ch, n = dma_of[j]
        buf = memory.allocate(f"b{j}", np.arange(n, dtype=np.int32))
        engine = DmaEngine(env, f"dma{j}", memory, hp_port=hp_port,
                           **{d: ch})
        start = engine.mm2s_transfer if d == "mm2s" else engine.s2mm_transfer
        kicks.append((kick, start, buf))
        engines.append((engine, buf))
        dma_specs.append(DmaSpec(kick, n, ch, d))

    def word(cuts=()):
        """Run the phase on the kernel: the runtime's driver order.

        Also returns, for every cycle in *cuts* (ascending), each FIFO's
        ``(puts, gets, high_water)`` and the port's
        ``((_slot_time, _slot_used), total_words)`` at its end.
        """
        ended = {}

        def driver():
            yield env.timeout(t0)
            procs = [sim.start() for sim in sims]
            for at, start, buf in kicks:
                yield env.timeout(at - env.now)
                procs.append(start(buf.base, buf.nbytes))
            yield env.all_of(procs)
            ended["finish"] = env.now

        env.process(driver())
        at_cuts = []
        for cut in cuts:
            env.run(until=cut)
            at_cuts.append((
                {ch: (ch.total_put, ch.total_got, ch.high_water) for ch in chans},
                ((hp_port._slot_time, hp_port._slot_used), hp_port.total_words)
                if hp_port else None,
            ))
        env.run()
        outcome = (
            ended["finish"],
            [(s.name, s.started_at, s.finished_at) for s in sims],
            {ch: (ch.total_put, ch.total_got, ch.high_water) for ch in chans},
            (hp_port._slot_time, hp_port._slot_used) if hp_port else None,
            hp_port.total_words if hp_port else 0,
        )
        return (outcome, at_cuts) if cuts else outcome

    specs = (t0, {ch: ch.capacity for ch in chans}, dma_specs, actor_specs)

    def prefix(cut=None):
        """Run the phase as the runtime commits a replayed one: replay
        with *cut*, commit the snapshot at the end of that cycle (at the
        phase end without a cut, as a burst), then resume every
        unfinished process live.  Returns word()'s outcome."""
        sol = replay_phase(*specs, cut=cut, **hp)
        end = sol.finish if cut is None else cut
        ended, spans = {}, {}

        def driver():
            yield env.timeout(end)
            for ch, (puts, gets, high_water) in sol.channels.items():
                if puts:
                    ch.commit_burst(list(range(puts)), gets, high_water)
            if hp_port:
                if sol.hp_state is not None:
                    hp_port._slot_time, hp_port._slot_used = sol.hp_state
                hp_port.total_words += sol.hp_words
            resumes = {}
            for j, (d, (engine, buf)) in enumerate(zip(dma_specs, engines)):
                if d.direction == "mm2s":
                    plan = DONE if cut is None else plan_mm2s_resume(
                        d, sol.dma_calls[j], sol.timeline[d.chan][0], cut
                    )
                    resume = engine.resume_mm2s
                else:
                    plan = DONE if cut is None else plan_s2mm_resume(
                        d, sol.dma_calls[j], sol.timeline[d.chan][1], cut
                    )
                    resume = engine.resume_s2mm
                if plan is not DONE:
                    resumes[j] = (resume(buf.base, buf.nbytes, plan.first,
                                         plan.mode, plan.wake), f"dma{j}")
            tokens = {ch: list(range(len(P)))
                      for ch, (P, _G) in sol.timeline.items()}
            for k, (spec, (name, _t0, finish)) in enumerate(
                zip(actor_specs, sol.actor_spans)
            ):
                spans[name] = {"finish": finish}
                if finish > end:
                    resumes[len(dma_specs) + k] = (
                        resume_actor(env, spec, sol.timeline, tokens, cut,
                                     spans[name]),
                        name,
                    )
            started = start_resumes(env, resumes, sol.cut_sleepers)
            yield env.all_of(list(started.values()))
            ended["finish"] = env.now

        env.process(driver())
        env.run()
        return (
            ended["finish"],
            [(s.name, t0, spans[s.name]["finish"]) for s in sims],
            {ch: (ch.total_put, ch.total_got, ch.high_water) for ch in chans},
            (hp_port._slot_time, hp_port._slot_used) if hp_port else None,
            hp_port.total_words if hp_port else 0,
        )

    return specs, hp, word, prefix


def _outcome(sol):
    return (sol.finish, sol.actor_spans, sol.channels, sol.hp_state,
            sol.hp_words)


def _port_at_cut(sol, hp):
    """``((_slot_time, _slot_used), total_words)`` a port that entered
    the phase in *hp*'s state holds after committing *sol*."""
    entry = (hp["hp_slot_time"], hp["hp_slot_used"])
    return (sol.hp_state or entry, sol.hp_words)


class TestReplayPhase:
    """replay_phase runs a phase's entries exactly as the kernel does."""

    def test_random_phases_match_word_path(self):
        for seed in range(240):
            (t0, caps, dmas, actors), hp, word, _prefix = random_phase(
                seed, port=seed % 4 != 3
            )
            got = replay_phase(t0, caps, dmas, actors, **hp)
            assert got is not None, seed
            assert _outcome(got) == word(), seed

    def test_random_cuts_match_live_state(self):
        """At a random cut the replay's snapshot is the live word run's
        state at the end of that cycle, and its timelines agree."""
        from bisect import bisect_right

        rng = random.Random(20261017)
        for seed in range(160):
            (t0, caps, dmas, actors), hp, word, _prefix = random_phase(
                seed, port=seed % 4 != 3
            )
            full = replay_phase(t0, caps, dmas, actors, **hp)
            cut = rng.randint(dmas[-1].kick, full.finish)
            got = replay_phase(t0, caps, dmas, actors, cut=cut, **hp)
            outcome, [(channels, port)] = word([cut])
            assert _outcome(full) == outcome, seed
            assert (got.finish, got.actor_spans) == outcome[:2], seed
            assert got.channels == channels, (seed, cut)
            for ch, (P, G) in got.timeline.items():
                puts, gets, _hw = got.channels[ch]
                assert (bisect_right(P, cut), bisect_right(G, cut)) == (puts, gets)
            if hp:
                assert _port_at_cut(got, hp) == port, (seed, cut)
            else:
                assert got.hp_state is None and got.hp_words == 0
                assert got.dma_calls == [None] * len(dmas)

    def test_hp_snapshot_matches_live_port_at_every_cut(self):
        """The snapshot's HP state and granted words are the live port's
        at every cycle from the last kick to the finish."""
        for seed in range(8):
            (t0, caps, dmas, actors), hp, word, _prefix = random_phase(seed)
            kick = dmas[-1].kick
            finish = replay_phase(t0, caps, dmas, actors, **hp).finish
            cuts = range(kick, finish + 1)
            _outcome_w, at_cuts = word(cuts)
            for cut, (_channels, port) in zip(cuts, at_cuts):
                got = replay_phase(t0, caps, dmas, actors, cut=cut, **hp)
                assert _port_at_cut(got, hp) == port, (seed, cut)

    def test_random_prefix_resumes_match_word_path(self):
        """Commit the replay's snapshot at a random cut and resume every
        process live, as the runtime's prefix path does — or, without a
        cut, commit the whole phase as a burst: the run ends exactly like
        the word run, high_water and port included."""
        def named(outcome):  # each build has its own channel objects
            finish, spans, channels, *port = outcome
            return finish, spans, {ch.name: v for ch, v in channels.items()}, port

        rng = random.Random(7)
        for seed in range(300):
            port = seed % 4 != 3
            (t0, caps, dmas, actors), hp, word, _ = random_phase(seed, port=port)
            finish = replay_phase(t0, caps, dmas, actors, **hp).finish
            want = named(word())
            for cut in [None] + [rng.randint(dmas[-1].kick, finish)
                                 for _ in range(2)]:
                *_, prefix = random_phase(seed, port=port)
                assert named(prefix(cut)) == want, (seed, cut)

    def test_cut_before_a_kick_rejected(self):
        env = Environment()
        ch = StreamChannel(env, "c", capacity=8)
        actor = ActorSpec(name="a", t0=0, firings=4, depth=1, ii=1,
                          rate_ins=[ch])
        with pytest.raises(ValueError):
            replay_phase(0, {ch: 8}, [DmaSpec(150, 4, ch, "mm2s")], [actor],
                         hp_wpc=2, cut=149)

    def test_drained_fifo_required(self):
        env = Environment()
        ch = StreamChannel(env, "c", capacity=8)
        actor = ActorSpec(name="a", t0=0, firings=3, depth=1, ii=1,
                          rate_ins=[ch])
        args = ({ch: 8}, [DmaSpec(150, 4, ch, "mm2s")], [actor])
        assert replay_phase(0, *args, hp_wpc=2) is None  # a token left over
        actor.firings = 5
        assert replay_phase(0, *args, hp_wpc=2) is None  # the actor starves

    def test_kicks_in_driver_order(self):
        env = Environment()
        a, b = StreamChannel(env, "a"), StreamChannel(env, "b")
        dmas = [DmaSpec(300, 4, a, "mm2s"), DmaSpec(150, 4, b, "s2mm")]
        with pytest.raises(ValueError):
            replay_phase(0, {a: 8, b: 8}, dmas, [], hp_wpc=2)

    def test_otsu_space_replays_equal_word_path(self, monkeypatch):
        """Every hardware phase of the 8x8 Otsu space with HP widths 1, 2
        and 4 is replayed, and equals the word path exactly."""
        import repro.dse.evaluate as evaluate
        from repro.dse.evaluate import evaluate_candidate
        from repro.dse.space import otsu_space

        reports = []
        inner = evaluate.simulate_application

        def spy(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(evaluate, "simulate_application", spy)
        monkeypatch.delenv("REPRO_SIM_BURST", raising=False)
        replayed = []
        for cand in sorted(otsu_space(hp_words=(1, 2, 4)), key=lambda c: c.cid):
            evaluate_candidate(cand, width=8, height=8)
            stats = reports[-1].burst_stats
            assert stats["word_phases"] == 0, cand.label()
            if stats["replay_phases"]:
                replayed.append((cand, reports[-1]))
        # One hardware phase per candidate except the all-software one.
        assert len(replayed) == 186
        assert all(r.burst_stats["replay_phases"] == 1 for _, r in replayed)
        monkeypatch.setenv("REPRO_SIM_BURST", "0")
        for cand, got in replayed:
            evaluate_candidate(cand, width=8, height=8)
            assert_same_run(reports[-1], got)
            assert got.node_spans == reports[-1].node_spans


class TestSteadyStateSkip:
    """The steady-state skip changes nothing but the work: the skipping
    replay, the reference replay and the word path agree on every output
    field, high_water and the HP port included."""

    def test_long_phases_jump_and_match(self):
        rng = random.Random(20261019)
        jumped = {"busy": [], "idle": [], "none": []}
        for seed in range(48):
            (t0, caps, dmas, actors), hp, word, _ = random_phase(
                seed, port=seed % 4 != 3, long=True
            )
            got = replay_phase(t0, caps, dmas, actors, **hp)
            ref = reference_replay(t0, caps, dmas, actors, **hp)
            assert _outcome(got) == _outcome(ref) == word(), seed
            if not hp:
                entry = "none"
            elif hp["hp_slot_time"] is not None and hp["hp_slot_time"] >= t0:
                entry = "busy"
            else:
                entry = "idle"
            jumped[entry].append(got.reps_skipped > 0)
            # A cut replay records the handoff and runs every repetition.
            cut = replay_phase(t0, caps, dmas, actors, **hp,
                               cut=rng.randint(dmas[-1].kick, got.finish))
            assert cut.reps_skipped == 0
            assert (cut.finish, cut.actor_spans) == (got.finish, got.actor_spans)
        assert all(len(runs) >= 8 for runs in jumped.values()), jumped
        for entry, runs in jumped.items():
            assert sum(runs) >= 0.9 * len(runs), entry

    def test_many_long_phases_match_reference(self):
        """Three hundred more long phases against the reference replay
        alone: rarer regimes, such as a FIFO rising again below an
        earlier peak, show up only across this many."""
        for seed in range(48, 348):
            (t0, caps, dmas, actors), hp, _word, _ = random_phase(
                seed, port=seed % 4 != 3, long=True
            )
            got = replay_phase(t0, caps, dmas, actors, **hp)
            ref = reference_replay(t0, caps, dmas, actors, **hp)
            assert _outcome(got) == _outcome(ref), seed

    def test_short_phases_never_jump(self):
        """A loop of at most 8 repetitions asks for one sample, at its
        first repetition, right after its process entered a new segment:
        no two samples of such a phase share a key, so it never jumps."""
        short = 0
        for seed in range(240):
            (t0, caps, dmas, actors), hp, word, _ = random_phase(
                seed, port=seed % 4 != 3
            )
            got = replay_phase(t0, caps, dmas, actors, **hp)
            loops = [d.count for d in dmas] + [
                n for a in actors
                for n in (a.firings - 1, *(n for _k, n in a.bulk_ins + a.bulk_outs))
            ]
            if max(loops) <= 8:
                short += 1
                assert got.reps_skipped == 0, seed
                ref = reference_replay(t0, caps, dmas, actors, **hp)
                assert _outcome(got) == _outcome(ref) == word(), seed
        assert short >= 10

    def test_audio_replay_work_flat_in_length(self):
        """Sixteen times the samples cost the replay at most twice the
        repetitions: after the transient, the steady state is jumped."""
        from repro.apps.audio import build_audio_app
        from repro.dsl import graph_from_htg
        from repro.flow import run_flow
        from repro.hls.interfaces import pipeline

        reps = {}
        for n in (4096, 65536):
            htg, partition, behaviors, sources, hits = build_audio_app(n=n, frame=64)
            flow = run_flow(
                graph_from_htg(htg, partition), sources,
                extra_directives={"preemph": [pipeline("preemph", "i")],
                                  "energy": [pipeline("energy", "i")]},
            )
            report = simulate_application(
                htg, partition, behaviors, {}, system=flow.system, burst_mode=True
            )
            assert np.array_equal(report.of("hits"), hits)
            stats = report.burst_stats
            assert stats["replay_phases"] == 1
            reps[n] = stats["reps_replayed"]
            assert stats["reps_skipped"] > 0
        assert reps[65536] <= 2 * reps[4096], reps


class TestHwSerialized:
    def _htg(self, parallel):
        htg = HTG("t")

        def phase(name):
            return Phase(
                name=name,
                actors=[Actor("A", stream_inputs=("in",),
                              stream_outputs=("out",))],
                channels=[
                    HtgChannel(Phase.BOUNDARY, "x", "A", "in"),
                    HtgChannel("A", "out", Phase.BOUNDARY, "y"),
                ],
                inputs=("x",), outputs=("y",),
            )

        htg.add(Task("src", outputs=("x",), io=True))
        htg.add(phase("p1"))
        htg.add(phase("p2"))
        htg.add(Task("sink", inputs=("y",), io=True))
        htg.add_edge("src", "p1")
        htg.add_edge("src", "p2") if parallel else htg.add_edge("p1", "p2")
        htg.add_edge("p1", "sink") if parallel else None
        htg.add_edge("p2", "sink")
        return htg

    def test_ordered_phases_serialized(self):
        htg = self._htg(parallel=False)
        part = Partition.from_hw_set(htg, {"p1", "p2"})
        assert hw_serialized(htg, part)

    def test_parallel_hw_phases_not_serialized(self):
        htg = self._htg(parallel=True)
        part = Partition.from_hw_set(htg, {"p1", "p2"})
        assert not hw_serialized(htg, part)

    def test_parallel_sw_phases_fine(self):
        htg = self._htg(parallel=True)
        part = Partition.from_hw_set(htg, {"p1"})
        assert hw_serialized(htg, part)


class TestFaultPrefixDifferential:
    """Prefix-bursting faulted phases (see repro.sim.prefix).

    A fault plan that touches a phase no longer forces the whole phase
    onto the word path: the fault-free prefix up to the earliest hazard
    commits in one shot and live FIFO/DMA/HP state is handed to the
    word path at the cut.  Every scenario must stay digest-identical.
    """

    POLICY = RecoveryPolicy(node_budget=200_000, reset_cycles=50)

    def _both(self, plan, n=64):
        htg, behaviors, golden = build_pipeline_app(n=n)
        part, system = build_hw_system(htg)
        word, burst = both_modes(
            htg, part, behaviors, system, faults=plan, policy=self.POLICY
        )
        return word, burst, golden

    def test_mid_phase_stream_flip_prefix_bursts(self):
        # Cycle 430 is inside the n=64 pipe phase's prefix window (past
        # the last driver kick at ~400, before the solved finish at 449).
        plan = FaultPlan.single(
            "stream_flip", "GAUSS.out->EDGE.in", at_cycle=430, bit=4
        )
        word, burst, golden = self._both(plan)
        assert burst.burst_stats["prefix_phases"] == 1
        assert burst.burst_stats["word_phases"] == 0
        assert burst.burst_stats["fallback_reasons"] == {}
        assert_identical(word, burst)
        assert np.array_equal(burst.of("result"), golden)

    def test_fault_at_cycle_zero_word_paths(self):
        # Armed from cycle 0 the hazard precedes the first driver kick:
        # no fault-free prefix exists, so the phase word-paths with the
        # fault_touches reason — and fires identically both ways.
        plan = FaultPlan.single(
            "stream_flip", "GAUSS.out->EDGE.in", at_cycle=0, bit=4
        )
        word, burst, _ = self._both(plan)
        assert burst.burst_stats["word_phases"] == 1
        assert burst.burst_stats["prefix_phases"] == 0
        assert burst.burst_stats["fallback_reasons"] == {"fault_touches": 1}
        assert_identical(word, burst)
        assert [e.describe() for e in word.fault_events] == [
            e.describe() for e in burst.fault_events
        ]

    def test_fault_after_natural_finish_full_bursts(self):
        # The hazard lands beyond the solved finish: the fault can never
        # fire inside the phase, so it full-bursts and the fault stays
        # armed (and silent) in both runs.
        plan = FaultPlan.single(
            "stream_flip", "GAUSS.out->EDGE.in", at_cycle=100_000, bit=4
        )
        word, burst, golden = self._both(plan)
        assert burst.burst_stats["burst_phases"] == 1
        assert burst.burst_stats["prefix_phases"] == 0
        assert burst.burst_stats["word_phases"] == 0
        assert_identical(word, burst)
        assert not burst.fault_events
        assert np.array_equal(burst.of("result"), golden)

    @pytest.mark.parametrize("at, cuts", [(430, [None, 429]), (100_000, [None])])
    def test_replay_cut_only_for_a_hazard_inside_the_phase(
        self, at, cuts, monkeypatch
    ):
        # The phase replays without a cut first; only a hazard at or
        # before its finish (449) costs a second, recording replay.
        import repro.sim.runtime as runtime

        seen = []
        inner = runtime.solve_phase_ex

        def spy(*args, **kwargs):
            seen.append(kwargs.get("cut"))
            return inner(*args, **kwargs)

        monkeypatch.setattr(runtime, "solve_phase_ex", spy)
        plan = FaultPlan.single("stream_flip", "GAUSS.out->EDGE.in",
                                at_cycle=at, bit=4)
        word, burst, _ = self._both(plan)
        assert seen == cuts
        assert_identical(word, burst)

    def test_mid_phase_dram_flip_detected_and_healed(self):
        # The background flip fires right after the committed prefix;
        # the corruption is diagnosed, the phase soft-resets, and the
        # retry full-bursts because the one-shot charge is spent.
        plan = FaultPlan.single("dram_flip", "*", at_cycle=430, word=3, bit=2)
        word, burst, golden = self._both(plan)
        assert burst.burst_stats["prefix_phases"] == 1
        assert burst.burst_stats["burst_phases"] == 1
        assert burst.burst_stats["word_phases"] == 0
        assert_identical(word, burst)
        assert [e.describe() for e in word.recovery_events] == [
            e.describe() for e in burst.recovery_events
        ]
        assert np.array_equal(burst.of("result"), golden)

    def test_random_campaign_digest_matches_word_path(self):
        # The full 24-scenario seeded campaign (the faultcheck seed
        # formula), run word-granular and burst: every scenario's report
        # digest is embedded in its record, so one campaign-digest
        # comparison proves per-scenario identity AND campaign-level
        # determinism across the two execution paths.
        from repro.sim import campaign_digest
        from repro.util.errors import SimError

        htg, behaviors, _ = build_pipeline_app(n=32)
        part, system = build_hw_system(htg)
        campaigns = {}
        for mode in (False, True):
            records = []
            for k in range(24):
                plan = FaultPlan.random(100_003 + k, system=system, horizon=2_000)
                try:
                    rep = simulate_application(
                        htg, part, behaviors, {}, system=system,
                        faults=plan, policy=self.POLICY, burst_mode=mode,
                    )
                except SimError as exc:
                    records.append(
                        {"k": k, "plan": plan.digest(), "outcome": "diagnosed",
                         "error": str(exc)}
                    )
                    continue
                records.append(
                    {"k": k, "plan": plan.digest(),
                     "outcome": "recovered" if rep.recovery_events else "survived",
                     "cycles": rep.cycles, "digest": rep.digest()}
                )
            campaigns[mode] = records
        assert len(campaigns[True]) == 24
        assert campaign_digest(campaigns[False]) == campaign_digest(
            campaigns[True]
        )


class TestTable1FallbackRates:
    """Tier-1 fallback budget: at 128x128 every Table-I architecture
    must full-burst — zero word-fallback phases per reason.  Any new
    bail (fifo_busy, no_convergence, ...) shows up here as an explicit
    diff against the pinned (empty) reason map."""

    PINNED: dict[int, dict] = {1: {}, 2: {}, 3: {}, 4: {}}

    def test_fallback_rates_pinned_at_128(self):
        from repro.apps.otsu import build_otsu_app
        from repro.flow import run_flow

        for arch, pinned in self.PINNED.items():
            app = build_otsu_app(arch, width=128, height=128)
            flow = run_flow(
                app.dsl_graph(), app.c_sources,
                extra_directives=app.extra_directives,
            )
            rep = simulate_application(
                app.htg, app.partition, app.behaviors, {},
                system=flow.system, burst_mode=True,
            )
            stats = rep.burst_stats
            assert stats["fallback_reasons"] == pinned, f"arch{arch}"
            assert stats["word_phases"] == sum(pinned.values())
            assert stats["burst_phases"] >= 1
            assert np.array_equal(
                rep.of("binImage"), np.asarray(app.golden["binary"])
            )


class TestWordPathBaseline:
    """The word path at 64x64 runs exactly the kernel events and lands on
    exactly the report digests pinned in the simbench baseline, so a
    cheaper event kernel cannot skip or add work unnoticed."""

    BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "BASELINE_simbench.json"

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_events_and_digest_pinned(self, arch):
        from repro.apps.otsu import build_otsu_app
        from repro.flow import run_flow

        baseline = json.loads(self.BASELINE.read_text())
        assert baseline["size"] == "64x64"
        pinned = baseline["rows"][str(arch)]
        app = build_otsu_app(arch, width=64, height=64)
        flow = run_flow(
            app.dsl_graph(), app.c_sources, extra_directives=app.extra_directives
        )
        rep = simulate_application(
            app.htg, app.partition, app.behaviors, {},
            system=flow.system, burst_mode=False,
        )
        assert rep.cycles == pinned["cycles"]
        assert rep.kernel_events == pinned["events_word"]
        assert rep.digest() == pinned["digest"]


class TestPhaseSpanAttributes:
    """sim.phase spans carry the execution path and fallback reason."""

    def _phase_fields(self, plan=None):
        from repro.obs import capture

        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        kw = {}
        if plan is not None:
            kw = {"faults": plan,
                  "policy": RecoveryPolicy(node_budget=200_000, reset_cycles=50)}
        with capture() as (bus, _reg):
            simulate_application(
                htg, part, behaviors, {}, system=system, burst_mode=True, **kw
            )
        for e in bus.events():
            if e.category == "sim.phase" and e.phase == "E" and e.name == "pipe":
                return dict(e.fields)
        raise AssertionError("no sim.phase end span for the hw phase")

    def test_burst_path_attribute(self):
        fields = self._phase_fields()
        assert fields["path"] == "burst"
        assert fields["source"] == "replay"
        assert "fallback_reason" not in fields
        assert fields["reps_replayed"] > 0 and fields["reps_skipped"] >= 0

    def test_replay_work_summed_into_burst_stats(self):
        from repro.obs import capture

        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        with capture() as (bus, _reg):
            report = simulate_application(htg, part, behaviors, {},
                                          system=system, burst_mode=True)
        spans = [f for f in (dict(e.fields) for e in bus.events()
                             if e.category == "sim.phase" and e.phase == "E")
                 if "reps_replayed" in f]
        stats = report.burst_stats
        for key in ("reps_replayed", "reps_skipped"):
            assert stats[key] == sum(f[key] for f in spans)
        word = simulate_application(htg, part, behaviors, {}, system=system,
                                    burst_mode=False)
        assert word.burst_stats["reps_replayed"] == 0
        assert word.digest() == report.digest()

    def test_prefix_path_attribute(self):
        plan = FaultPlan.single(
            "stream_flip", "GAUSS.out->EDGE.in", at_cycle=430, bit=4
        )
        fields = self._phase_fields(plan)
        assert fields["path"] == "prefix"
        assert fields["source"] == "replay"
        assert "fallback_reason" not in fields
        assert fields["reps_replayed"] > 0  # both replays, the cut one whole

    def test_replay_source_attribute(self):
        from repro.obs import capture

        app, system = build_otsu_candidate({"binarization", "otsuMethod"})
        with capture() as (bus, _reg):
            simulate_application(app.htg, app.partition, app.behaviors, {},
                                 system=system, burst_mode=True)
        fields = [
            f for f in (dict(e.fields) for e in bus.events()
                        if e.category == "sim.phase" and e.phase == "E")
            if f["kind"] == "hw"
        ]
        assert [(f["path"], f.get("source")) for f in fields] == [
            ("burst", "replay")
        ]
        assert "fallback_reason" not in fields[0]

    def test_word_path_reason_attribute(self):
        plan = FaultPlan.single(
            "stream_flip", "GAUSS.out->EDGE.in", at_cycle=0, bit=4
        )
        fields = self._phase_fields(plan)
        assert fields["path"] == "word"
        assert fields["fallback_reason"] == "fault_touches"


def assert_same_run(ref, got):
    """Everything the phase memo must reproduce, high_water included."""
    assert got.digest() == ref.digest()
    assert got.cycles == ref.cycles
    assert got.channel_stats == ref.channel_stats
    assert got.hp_words == ref.hp_words


def build_otsu_candidate(hw, *, dma="per-stream", width=8):
    """An Otsu DSE candidate's app and integrated system (no PIPELINE)."""
    from repro.apps.otsu.app import build_otsu_custom
    from repro.dse.evaluate import dse_flow_config
    from repro.flow.orchestrator import run_flow

    app = build_otsu_custom(frozenset(hw), width=width, height=width)
    directives = {
        actor: [d for d in dirs if d.kind != "pipeline"]
        for actor, dirs in app.extra_directives.items()
    }
    flow = run_flow(
        app.dsl_graph(),
        app.c_sources,
        extra_directives=directives,
        config=dse_flow_config(one_dma_per_stream=(dma == "per-stream")),
    )
    return app, flow.system


class _UntouchableMemo(PhaseMemo):
    def lookup(self, *args, **kwargs):
        raise AssertionError("phase memo consulted")

    def record(self, *args, **kwargs):
        raise AssertionError("phase memo filled")


class TestPhaseMemo:
    """A phase seen before is committed from the memo, exactly."""

    @pytest.fixture(scope="class")
    def contended(self):
        # Per-stream DMAs on one saturated HP port: the grants follow
        # the kernel's tie order, which the replay fills the memo with.
        return build_otsu_candidate({"binarization", "otsuMethod"})

    @staticmethod
    def run_otsu(app, system, behaviors=None, **kw):
        return simulate_application(
            app.htg, app.partition, behaviors or app.behaviors, {},
            system=system, burst_mode=kw.pop("burst_mode", True), **kw,
        )

    def test_time_shifted_hit_equals_word_path(self, contended):
        app, system = contended
        memo = PhaseMemo()
        first = self.run_otsu(app, system, phase_memo=memo)
        assert first.burst_stats["fallback_reasons"] == {}
        assert first.burst_stats["replay_phases"] == 1
        assert first.burst_stats["memo_hits"] == 0
        assert len(memo) == 1
        # A slower readImage moves the phase to a later t0.
        slow = dict(app.behaviors)
        slow["readImage"] = Behavior(
            app.behaviors["readImage"].func, sw_cycles=lambda: 777
        )
        hit = self.run_otsu(app, system, slow, phase_memo=memo)
        assert hit.node_spans["hwPipeline"][0] != first.node_spans["hwPipeline"][0]
        assert hit.burst_stats["memo_hits"] == 1
        assert hit.burst_stats["word_phases"] == 0
        assert hit.burst_stats["burst_phases"] == 1
        assert hit.burst_stats["replay_phases"] == 0
        assert hit.kernel_events == first.kernel_events
        assert memo.hits == 1
        for burst_mode in (False, True):
            assert_same_run(
                self.run_otsu(app, system, slow, burst_mode=burst_mode), hit
            )

    def test_solver_record_hit_is_identical(self):
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        memo = PhaseMemo()
        runs = [
            simulate_application(htg, part, behaviors, {}, system=system,
                                 burst_mode=True, phase_memo=memo)
            for _ in range(2)
        ]
        assert [r.burst_stats["memo_hits"] for r in runs] == [0, 1]
        assert memo.hits == 1
        assert_same_run(runs[0], runs[1])
        word = simulate_application(htg, part, behaviors, {}, system=system,
                                    burst_mode=False)
        assert_identical(word, runs[1])

    def test_runtime_misses_on_changed_inputs(self):
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        memo = PhaseMemo()

        def run(htg, part, behaviors, system, **kw):
            return simulate_application(htg, part, behaviors, {}, system=system,
                                        burst_mode=True, phase_memo=memo, **kw)

        run(htg, part, behaviors, system)
        assert run(htg, part, behaviors, system,
                   hp_words_per_cycle=1).burst_stats["memo_hits"] == 0
        htg2, behaviors2, _ = build_pipeline_app(n=96)
        part2, system2 = build_hw_system(htg2)
        assert run(htg2, part2, behaviors2, system2).burst_stats["memo_hits"] == 0
        assert len(memo) == 3
        assert memo.hits == 0

    @staticmethod
    def key(*, t0=100, cap=8, ii=1, depth=3, count=16, wpc=2,
            slot_time=-1, slot_used=0):
        env = Environment()
        a, b = StreamChannel(env, "a"), StreamChannel(env, "b")
        dmas = [DmaSpec(t0 + 150, count, a, "mm2s"),
                DmaSpec(t0 + 300, count, b, "s2mm")]
        actors = [ActorSpec(name="x", t0=t0, firings=count, depth=depth,
                            ii=ii, rate_ins=[a], rate_outs=[b])]
        return phase_memo_key(t0, {a: cap, b: cap}, dmas, actors,
                              hp_wpc=wpc, hp_slot_time=slot_time,
                              hp_slot_used=slot_used)

    def test_key_is_relative_to_phase_start(self):
        base = self.key()
        assert self.key(t0=5000) == base
        # A port idle since before t0 is reset by the first call.
        assert self.key(slot_time=99, slot_used=2) == base
        assert self.key(t0=5000, slot_time=4000, slot_used=1) == base
        # A busy entry state is kept, t0-relative.
        assert self.key(slot_time=105, slot_used=1) == self.key(
            t0=900, slot_time=905, slot_used=1
        )

    @pytest.mark.parametrize("change", [
        {"cap": 16},
        {"ii": 2},
        {"depth": 4},
        {"count": 17},
        {"wpc": 1},
        {"slot_time": 100, "slot_used": 1},
        {"slot_time": 105, "slot_used": 1},
    ])
    def test_key_sensitivity(self, change):
        assert self.key(**change) != self.key()

    def test_busy_entry_states_are_distinct(self):
        keys = {self.key(slot_time=100 + d, slot_used=u)
                for d in (0, 5) for u in (1, 2)}
        assert len(keys) == 4

    @pytest.mark.parametrize("gate", ["burst_off", "env_off", "faults", "policy"])
    def test_memo_not_consulted_outside_plain_burst(self, gate, monkeypatch):
        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        kw = {"burst_mode": True}
        if gate == "burst_off":
            kw["burst_mode"] = False
        elif gate == "env_off":
            monkeypatch.setenv("REPRO_SIM_BURST", "0")
            kw = {}
        elif gate == "faults":
            kw["faults"] = FaultPlan.single("accel_hang", "not_in_this_design")
        else:
            kw["policy"] = RecoveryPolicy()
        rep = simulate_application(htg, part, behaviors, {}, system=system,
                                   phase_memo=_UntouchableMemo(), **kw)
        assert rep.burst_stats["memo_hits"] == 0
        if gate in ("faults", "policy"):
            assert rep.burst_stats["burst_phases"] == 1

    def test_hit_span_carries_memo_source(self):
        from repro.obs import capture

        htg, behaviors, _ = build_pipeline_app(n=64)
        part, system = build_hw_system(htg)
        memo = PhaseMemo()
        fields = []
        for _ in range(2):
            with capture() as (bus, _reg):
                simulate_application(htg, part, behaviors, {}, system=system,
                                     burst_mode=True, phase_memo=memo)
            fields += [
                dict(e.fields) for e in bus.events()
                if e.category == "sim.phase" and e.phase == "E"
                and e.name == "pipe"
            ]
        assert [f["path"] for f in fields] == ["burst", "burst"]
        assert [f["source"] for f in fields] == ["replay", "memo"]


def _fifo_state(ch):
    return (ch.total_put, ch.total_got, ch.high_water, len(ch), ch.conserved())


def _shadow_token_commit(ch, count, high_water):
    """The token path's result for a drained commit of *count* tokens on
    a FIFO in *ch*'s state: a fresh FIFO with the same counters."""
    shadow = StreamChannel(Environment(), ch.name, capacity=ch.capacity)
    shadow.total_put, shadow.total_got = ch.total_put, ch.total_got
    shadow.high_water, shadow.flushed = ch.high_water, ch.flushed
    shadow.commit_burst(list(range(count)), count, high_water)
    return _fifo_state(shadow)


class TestDrainedCommit:
    """A burst phase ends with every FIFO drained, so its commit moves
    counters instead of tokens; the counters, ``high_water`` and
    ``conserved()`` must equal what pushing and popping the tokens gives."""

    @pytest.fixture
    def checked(self, monkeypatch):
        real = StreamChannel.commit_drained
        calls = []

        def commit_drained(ch, count, high_water):
            expected = _shadow_token_commit(ch, count, high_water)
            done = real(ch, count, high_water)
            if done:
                assert _fifo_state(ch) == expected, ch.name
                calls.append(ch.name)
            return done

        monkeypatch.setattr(StreamChannel, "commit_drained", commit_drained)
        return calls

    @pytest.mark.parametrize("arch", [1, 2, 3, 4])
    def test_table1_architectures(self, arch, checked, monkeypatch):
        from repro.apps.otsu import build_otsu_app
        from repro.flow import FlowConfig, run_flow

        app = build_otsu_app(arch, width=16, height=16)
        flow = run_flow(app.dsl_graph(), app.c_sources,
                        extra_directives=app.extra_directives,
                        config=FlowConfig(cache_dir=None, check_tcl=False))
        args = (app.htg, app.partition, app.behaviors, {})
        fast = simulate_application(*args, system=flow.system, burst_mode=True)
        assert checked, "no burst phase committed through the counters"
        monkeypatch.setattr(StreamChannel, "commit_drained", lambda *_a: False)
        tokens = simulate_application(*args, system=flow.system, burst_mode=True)
        assert_same_run(tokens, fast)
        assert fast.kernel_events == tokens.kernel_events

    @pytest.mark.parametrize("seed", range(30))
    def test_random_phase(self, seed):
        (t0, caps, dmas, actors), hp, word, _prefix = random_phase(seed)
        sol = replay_phase(t0, caps, dmas, actors, **hp)
        assert sol is not None
        _finish, _spans, counters, _hp_state, _hp_words = word()
        for ch, (puts, gets, high_water) in sol.channels.items():
            assert puts == gets == counters[ch][0] == counters[ch][1]
            fresh = StreamChannel(Environment(), ch.name, capacity=ch.capacity)
            expected = _shadow_token_commit(fresh, puts, high_water)
            assert fresh.commit_drained(puts, high_water)
            assert _fifo_state(fresh) == expected
            assert _fifo_state(fresh)[:3] == counters[ch]

    def test_injector_or_busy_fifo_keeps_the_token_path(self):
        env = Environment()
        faulty = StreamChannel(env, "f", capacity=4, injector=object())
        assert not faulty.commit_drained(3, 2)
        busy = StreamChannel(env, "b", capacity=4)
        busy.put(7)
        assert not busy.commit_drained(3, 2)
        assert (faulty.total_put, busy.total_put, len(busy)) == (0, 1, 1)


class TestNoCyclicGarbage:
    """A finished simulation or replay is freed by reference counting:
    nothing is left for the cycle collector, which would keep it (the
    whole platform, in the case of a simulation) alive until a full
    collection."""

    @staticmethod
    def _cyclic_garbage(run):
        import gc

        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("burst", [True, False])
    def test_simulation(self, burst):
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)

        def run():
            simulate_application(htg, part, behaviors, {}, system=system,
                                 burst_mode=burst)

        assert self._cyclic_garbage(run) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_replay(self, seed):
        specs, hp, _word, _prefix = random_phase(seed)
        assert self._cyclic_garbage(lambda: replay_phase(*specs, **hp)) == 0
