"""Tests for the discrete-event SoC simulator."""

import numpy as np
import pytest

from repro.htg import HTG, Actor, Partition, Phase, StreamChannel as HtgChannel, Task
from repro.dsl import graph_from_htg
from repro.hls import InterfaceMode, interface, synthesize_function
from repro.sim import Environment, Memory, StreamChannel, simulate_application
from repro.sim.axi import AxiLiteBus
from repro.sim.dma_engine import DmaEngine, MM2S_SA, MM2S_LENGTH, MM2S_DMASR
from repro.sim.kernel import Event
from repro.sim.runtime import Behavior
from repro.sim.trace import Trace
from repro.soc import integrate
from repro.soc.address_map import AddressMap
from repro.util.errors import SimError


class TestKernel:
    def test_timeout_ordering(self):
        env = Environment()
        log = []

        def proc(name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(proc("b", 5))
        env.process(proc("a", 2))
        env.run()
        assert log == [(2, "a"), (5, "b")]

    def test_process_composition(self):
        env = Environment()

        def child():
            yield env.timeout(3)
            return 42

        result = {}

        def parent():
            value = yield env.process(child())
            result["v"] = value
            yield env.timeout(1)

        env.process(parent())
        assert env.run() == 4
        assert result["v"] == 42

    def test_all_of(self):
        env = Environment()

        def worker(d):
            yield env.timeout(d)
            return d

        procs = [env.process(worker(d)) for d in (5, 1, 3)]
        out = {}

        def waiter():
            values = yield env.all_of(procs)
            out["values"] = values
            out["at"] = env.now

        env.process(waiter())
        env.run()
        assert out["values"] == [5, 1, 3]
        assert out["at"] == 5

    def test_all_of_empty(self):
        env = Environment()
        out = {}

        def waiter():
            yield env.all_of([])
            out["done"] = env.now

        env.process(waiter())
        env.run()
        assert out["done"] == 0

    def test_same_cycle_fifo_order(self):
        env = Environment()
        log = []

        def proc(name):
            yield env.timeout(7)
            log.append(name)

        for n in "abc":
            env.process(proc(n))
        env.run()
        assert log == ["a", "b", "c"]

    def test_bad_yield_rejected(self):
        env = Environment()

        def proc():
            yield 5  # not an Event

        env.process(proc())
        with pytest.raises(SimError, match="yield"):
            env.run()

    def test_double_trigger(self):
        env = Environment()
        evt = Event(env)
        evt.trigger()
        with pytest.raises(SimError, match="twice"):
            evt.trigger()

    def test_run_until(self):
        env = Environment()

        def proc():
            yield env.timeout(100)

        env.process(proc())
        assert env.run(until=10) == 10

    def test_negative_delay(self):
        env = Environment()
        with pytest.raises(SimError, match="past"):
            env.timeout(-1)

    # Same-cycle order: entries run by (time, push order).  The kernel
    # keeps future entries on a heap and zero-delay ones in a FIFO, so
    # these tests pin the order that split must preserve.

    def test_due_heap_entry_precedes_same_cycle_zero_delay(self):
        env = Environment()
        log = []
        evt = env.timeout(5)
        # Pushed at cycle 5 by the trigger, so after the background
        # entry pushed at cycle 0 for cycle 5.
        evt.add_callback(lambda e: log.append(("callback", env.now)))
        env.schedule_background(5, lambda: log.append(("heap", env.now)))
        env.run()
        assert log == [("heap", 5), ("callback", 5)]

    def test_zero_delay_entries_keep_push_order(self):
        env = Environment()
        log = []

        def note(tag):
            return lambda evt: log.append((tag, evt.value))

        def proc():
            log.append(("proc", env.now))
            return
            yield

        env.timeout(0, "t").add_callback(note("timeout"))
        env.deadline(0, "d").add_callback(note("deadline"))
        cancelled = env.deadline(0, "c")
        cancelled.add_callback(note("cancelled"))
        cancelled.cancel()
        env.schedule_background(0, lambda: log.append(("background", env.now)))
        env.process(proc())
        assert env.run() == 0
        # Triggers run in push order and queue their callbacks behind
        # the entries already waiting in the cycle.
        assert log == [
            ("background", 0), ("proc", 0), ("timeout", "t"), ("deadline", "d"),
        ]
        assert not cancelled.triggered
        # One event per callback run; the cancelled entry is not one.
        assert env.events_processed == 6

    def test_zero_delay_chain_interleaves_with_due_entries(self):
        env = Environment()
        log = []

        def proc(name, delay):
            yield env.timeout(delay)
            log.append((name, env.now))
            yield env.timeout(0)
            log.append((name + "'", env.now))

        env.process(proc("a", 3))
        env.process(proc("b", 3))
        env.process(proc("c", 4))
        env.run()
        assert log == [("a", 3), ("b", 3), ("a'", 3), ("b'", 3), ("c", 4), ("c'", 4)]

    def test_cancelled_deadline_does_not_advance_clock(self):
        env = Environment()
        log = []

        def proc():
            guard = env.deadline(50)
            yield env.timeout(10)
            guard.cancel()
            log.append(env.now)

        env.process(proc())
        assert env.run() == 10
        assert log == [10]
        # A cancelled zero-delay deadline is equally invisible.
        env.deadline(0).cancel()
        assert env.run() == 10
        assert env.events_processed == 3

    def test_cancelled_deadline_ahead_of_live_work(self):
        env = Environment()
        seen = []
        env.deadline(5).cancel()
        env.timeout(8).add_callback(lambda e: seen.append(env.now))
        assert env.run(until=6) == 6
        assert seen == []
        assert env.run() == 8
        assert seen == [8]

    def test_run_until_drains_the_until_cycle(self):
        env = Environment()
        log = []

        def proc():
            log.append(("start", env.now))
            yield env.timeout(3)
            log.append(("at3", env.now))
            yield env.timeout(0)
            log.append(("at3'", env.now))
            yield env.timeout(1)
            log.append(("at4", env.now))

        env.process(proc())
        # until == now: the pending zero-delay start still runs.
        assert env.run(until=0) == 0
        assert log == [("start", 0)]
        # Every entry of the until cycle runs, zero-delay ones included;
        # nothing of the next cycle does.
        assert env.run(until=3) == 3
        assert log[1:] == [("at3", 3), ("at3'", 3)]
        assert env.run() == 4
        assert log[-1] == ("at4", 4)

    def test_background_entries_do_not_hold_the_run_open(self):
        env = Environment()
        fired = []
        env.schedule_background(0, lambda: fired.append(0))
        env.schedule_background(20, lambda: fired.append(20))
        env.timeout(10)
        assert env.run() == 10
        assert fired == [0]


class TestStreamChannel:
    def run_producer_consumer(self, capacity, n, prod_delay=0, cons_delay=0):
        env = Environment()
        ch = StreamChannel(env, "t", capacity=capacity)
        received = []

        def producer():
            for i in range(n):
                if prod_delay:
                    yield env.timeout(prod_delay)
                yield ch.put(i)

        def consumer():
            for _ in range(n):
                if cons_delay:
                    yield env.timeout(cons_delay)
                item = yield ch.get()
                received.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        return ch, received

    def test_order_preserved(self):
        ch, received = self.run_producer_consumer(4, 20)
        assert received == list(range(20))
        assert ch.conserved()

    def test_backpressure_blocks_producer(self):
        env = Environment()
        ch = StreamChannel(env, "t", capacity=2)
        progress = []

        def producer():
            for i in range(5):
                yield ch.put(i)
                progress.append((env.now, i))

        def slow_consumer():
            for _ in range(5):
                yield env.timeout(10)
                yield ch.get()

        env.process(producer())
        env.process(slow_consumer())
        env.run()
        # First two puts immediate; the rest wait on the consumer.
        assert progress[0][0] == 0 and progress[1][0] == 0
        assert progress[2][0] >= 10

    def test_consumer_blocks_on_empty(self):
        ch, received = self.run_producer_consumer(4, 5, prod_delay=7)
        assert received == list(range(5))

    def test_high_water(self):
        ch, _ = self.run_producer_consumer(8, 20, cons_delay=3)
        assert 1 <= ch.high_water <= 8

    def test_conservation_mid_flight(self):
        env = Environment()
        ch = StreamChannel(env, "t", capacity=4)

        def producer():
            for i in range(10):
                yield ch.put(i)

        env.process(producer())
        env.run()
        assert ch.total_put == 4  # capacity reached, rest blocked
        assert ch.conserved()

    def test_capacity_validation(self):
        with pytest.raises(SimError):
            StreamChannel(Environment(), "t", capacity=0)


class TestDma:
    def make(self):
        env = Environment()
        mem = Memory()
        src = mem.allocate("src", np.arange(16, dtype=np.int32))
        dst = mem.allocate("dst", np.zeros(16, dtype=np.int32))
        ch = StreamChannel(env, "loop", capacity=8)
        dma = DmaEngine(env, "dma0", mem, mm2s=ch, s2mm=ch)
        return env, mem, src, dst, ch, dma

    def test_loopback_moves_exact_bytes(self):
        env, mem, src, dst, ch, dma = self.make()
        dma.mm2s_transfer(src.base, src.nbytes)
        dma.s2mm_transfer(dst.base, dst.nbytes)
        env.run()
        assert np.array_equal(dst.data, src.data)
        assert dma.bytes_mm2s == dma.bytes_s2mm == 64
        assert ch.conserved()

    def test_register_programmed_transfer(self):
        env, mem, src, dst, ch, dma = self.make()
        dma.reg_write(MM2S_SA, src.base)
        dma.s2mm_transfer(dst.base, dst.nbytes)
        dma.reg_write(MM2S_LENGTH, src.nbytes)  # kick
        env.run()
        assert np.array_equal(dst.data, src.data)
        assert dma.reg_read(MM2S_DMASR) & 0x2  # idle again

    def test_busy_engine_rejects_second_transfer(self):
        env, mem, src, dst, ch, dma = self.make()
        dma.mm2s_transfer(src.base, src.nbytes)
        with pytest.raises(SimError, match="in flight"):
            dma.mm2s_transfer(src.base, src.nbytes)

    def test_transfer_past_end_rejected(self):
        env, mem, src, dst, ch, dma = self.make()
        with pytest.raises(SimError, match="past end"):
            dma.mm2s_transfer(src.base + 32, 64)

    def test_missing_channel(self):
        env = Environment()
        mem = Memory()
        dma = DmaEngine(env, "d", mem, mm2s=None, s2mm=None)
        with pytest.raises(SimError, match="no MM2S"):
            dma.mm2s_transfer(0, 4)


class TestMemory:
    def test_allocation_and_lookup(self):
        mem = Memory()
        a = mem.allocate("a", np.arange(10, dtype=np.int32))
        b = mem.allocate("b", np.zeros(4, dtype=np.uint8))
        assert a.base % 64 == 0 and b.base % 64 == 0
        assert not (a.base <= b.base < a.end)
        assert mem.at(a.base + 8).name == "a"
        assert mem.buffer("b").nbytes == 4

    def test_duplicate_name(self):
        mem = Memory()
        mem.allocate("a", np.zeros(1))
        with pytest.raises(SimError, match="already"):
            mem.allocate("a", np.zeros(1))

    def test_unmapped_address(self):
        with pytest.raises(SimError, match="no allocated buffer"):
            Memory().at(0x123)

    def test_out_of_memory(self):
        mem = Memory(size=1024 * 1024 + 0x100000)
        with pytest.raises(SimError, match="out of simulated DRAM"):
            mem.allocate("big", np.zeros(80_000_000, dtype=np.uint8))


class TestBus:
    def test_unmapped_segment(self):
        env = Environment()
        amap = AddressMap()
        amap.assign("core")
        bus = AxiLiteBus(env, amap)

        def proc():
            yield from bus.write(amap.of("core").base, 1)

        env.process(proc())
        with pytest.raises(SimError, match="bus error"):
            env.run()


class TestTrace:
    def test_spans_and_utilization(self):
        t = Trace()
        t.record("cpu", "sw", 0, 50)
        t.record("dma", "xfer", 25, 75)
        assert t.makespan() == 75
        assert t.busy("cpu") == 50
        assert t.overlap("cpu", "dma") == 25
        assert t.utilization("dma") == pytest.approx(50 / 75)

    def test_render(self):
        t = Trace()
        t.record("cpu", "sw", 0, 10)
        out = t.render(width=20)
        assert "cpu" in out and "#" in out

    def test_bad_span(self):
        with pytest.raises(ValueError):
            Trace().record("x", "a", 5, 1)


def build_pipeline_app(n=256):
    """load -> [GAUSS -> EDGE] -> store with C sources for the actors."""
    gauss_c = (
        f"void GAUSS(int in[{n}], int out[{n}]) "
        f"{{ for (int i = 0; i < {n}; i++) out[i] = (in[i] * 3) >> 2; }}"
    )
    edge_c = (
        f"void EDGE(int in[{n}], int out[{n}]) "
        f"{{ for (int i = 0; i < {n}; i++) out[i] = in[i] > 40 ? 255 : 0; }}"
    )
    phase = Phase(
        name="pipe",
        actors=[
            Actor("GAUSS", stream_inputs=("in",), stream_outputs=("out",), c_source=gauss_c),
            Actor("EDGE", stream_inputs=("in",), stream_outputs=("out",), c_source=edge_c),
        ],
        channels=[
            HtgChannel(Phase.BOUNDARY, "img", "GAUSS", "in"),
            HtgChannel("GAUSS", "out", "EDGE", "in"),
            HtgChannel("EDGE", "out", Phase.BOUNDARY, "result"),
        ],
        inputs=("img",),
        outputs=("result",),
    )
    htg = HTG("app")
    htg.add(Task("load", outputs=("img",), io=True, sw_cycles=100))
    htg.add(phase)
    htg.add(Task("store", inputs=("result",), io=True, sw_cycles=100))
    htg.add_edge("load", "pipe")
    htg.add_edge("pipe", "store")

    img = np.random.default_rng(7).integers(0, 200, n).astype(np.int32)

    def f_gauss(a):
        return (a * 3) >> 2

    def f_edge(a):
        return np.where(a > 40, 255, 0).astype(np.int32)

    behaviors = {
        "load": Behavior(lambda: img),
        "store": Behavior(lambda r: None),
        "pipe.GAUSS": Behavior(f_gauss),
        "pipe.EDGE": Behavior(f_edge),
    }
    golden = f_edge(f_gauss(img))
    return htg, behaviors, golden


def build_hw_system(htg):
    from repro.hls import pipeline as pipe_directive

    part = Partition.from_hw_set(htg, {"pipe"})
    graph = graph_from_htg(htg, part)
    phase = htg.node("pipe")
    cores = {}
    for actor in phase.actors:
        dirs = [interface(actor.name, p, InterfaceMode.AXIS) for p in actor.ports]
        dirs.append(pipe_directive(actor.name, "i"))  # pipelined, as deployed
        cores[actor.name] = synthesize_function(actor.c_source, actor.name, dirs)
    return part, integrate(graph, cores)


class TestRuntime:
    def test_all_software_run(self):
        htg, behaviors, golden = build_pipeline_app()
        part = Partition.all_software(htg)
        rep = simulate_application(htg, part, behaviors, {})
        assert np.array_equal(rep.of("result"), golden)
        assert rep.cycles > 0

    def test_hw_phase_matches_golden(self):
        htg, behaviors, golden = build_pipeline_app()
        part, system = build_hw_system(htg)
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        assert np.array_equal(rep.of("result"), golden)

    def test_hw_phase_overlaps_actors(self):
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        # Streaming: the two actors are busy simultaneously.
        assert rep.trace.overlap("hw:GAUSS", "hw:EDGE") > 0

    def test_hw_faster_than_sw_for_costly_tasks(self):
        htg, behaviors, _ = build_pipeline_app()
        part_sw = Partition.all_software(htg)
        sw = simulate_application(htg, part_sw, behaviors, {})
        part_hw, system = build_hw_system(htg)
        hw = simulate_application(htg, part_hw, behaviors, {}, system=system)
        assert hw.cycles < sw.cycles

    def test_node_spans_ordered(self):
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        assert rep.node_spans["load"][1] <= rep.node_spans["pipe"][0]
        assert rep.node_spans["pipe"][1] <= rep.node_spans["store"][0]

    def test_hw_without_system_rejected(self):
        htg, behaviors, _ = build_pipeline_app()
        part = Partition.from_hw_set(htg, {"pipe"})
        with pytest.raises(SimError, match="no integrated system"):
            simulate_application(htg, part, behaviors, {})

    def test_missing_behavior_rejected(self):
        htg, behaviors, _ = build_pipeline_app()
        del behaviors["load"]
        part = Partition.all_software(htg)
        with pytest.raises(SimError, match="behaviour"):
            simulate_application(htg, part, behaviors, {})

    def test_seconds_property(self):
        htg, behaviors, _ = build_pipeline_app()
        rep = simulate_application(htg, Partition.all_software(htg), behaviors, {})
        assert rep.seconds == pytest.approx(rep.cycles / 100e6)

    def test_missing_output_raises(self):
        htg, behaviors, _ = build_pipeline_app()
        rep = simulate_application(htg, Partition.all_software(htg), behaviors, {})
        with pytest.raises(SimError):
            rep.of("nonexistent")


class TestBaselineIntegrationSim:
    def test_one_dma_per_stream_still_bit_exact(self):
        """The SDSoC-like integration (per-stream DMAs) simulates correctly."""
        from repro.soc import IntegrationConfig

        htg, behaviors, golden = build_pipeline_app()
        from repro.hls import pipeline as pipe_directive

        part = Partition.from_hw_set(htg, {"pipe"})
        graph = graph_from_htg(htg, part)
        phase = htg.node("pipe")
        cores = {}
        for actor in phase.actors:
            dirs = [interface(actor.name, p, InterfaceMode.AXIS) for p in actor.ports]
            dirs.append(pipe_directive(actor.name, "i"))
            cores[actor.name] = synthesize_function(actor.c_source, actor.name, dirs)
        system = integrate(graph, cores, IntegrationConfig(one_dma_per_stream=True))
        assert len(system.dmas) == 2  # one per boundary stream
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        assert np.array_equal(rep.of("result"), golden)


class TestHwTask:
    def test_lite_core_task(self):
        """A hardware task node (AXI-Lite + m_axi) computes in DRAM."""
        n = 64
        c_src = (
            f"void doubler(int data[{n}], int out[{n}]) "
            f"{{ for (int i = 0; i < {n}; i++) out[i] = data[i] * 2; }}"
        )
        htg = HTG("app")
        htg.add(Task("load", outputs=("data",), io=True, sw_cycles=10))
        htg.add(Task("doubler", inputs=("data",), outputs=("out",), c_source=c_src))
        htg.add(Task("store", inputs=("out",), io=True, sw_cycles=10))
        htg.add_edge("load", "doubler")
        htg.add_edge("doubler", "store")
        part = Partition.from_hw_set(htg, {"doubler"})
        graph = graph_from_htg(htg, part)
        cores = {"doubler": synthesize_function(c_src, "doubler")}
        system = integrate(graph, cores)

        data = np.arange(n, dtype=np.int32)
        behaviors = {
            "load": Behavior(lambda: data),
            "doubler": Behavior(lambda d: d * 2),
            "store": Behavior(lambda o: None),
        }
        rep = simulate_application(htg, part, behaviors, {}, system=system)
        assert np.array_equal(rep.of("out"), data * 2)
        assert rep.trace.busy("hw:doubler") > 0


class TestDevFs:
    def test_nodes_registered(self):
        htg, behaviors, _ = build_pipeline_app()
        part, system = build_hw_system(htg)
        from repro.sim.runtime import SimPlatform

        platform = SimPlatform(system)
        assert "/dev/axidma0" in platform.devfs.listdir()

    def test_open_unknown(self):
        from repro.sim.devfs import DevFs

        with pytest.raises(SimError, match="no such device"):
            DevFs().open("/dev/nope")
