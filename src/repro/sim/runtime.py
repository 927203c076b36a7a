"""Application runtime: execute a partitioned HTG on a simulated platform.

Top-level semantics follow the paper (Section II-A): a node starts only
when all its predecessors finished and their results sit in shared
memory; independent branches may overlap.  Node execution depends on its
mapping:

* **software task/phase** — the CPU is busy for the task's cycle cost
  while the golden behaviour computes the data;
* **hardware task** (AXI-Lite core) — the CPU writes buffer base
  addresses into the core's argument registers, sets ``ap_start`` and
  polls ``ap_done``; the core charges AXI-master traffic + its HLS
  latency and runs the compiled C behaviour against simulated DRAM;
* **hardware phase** (AXI-Stream pipeline) — the CPU issues
  ``writeDMA``/``readDMA`` driver calls; DMA engines stream real data
  through the FIFO network where each actor consumes/produces tokens at
  its II.  Transfers and computation overlap — the benefit the paper's
  stream interfaces exist to deliver.

Every node's behaviour is supplied by a :class:`Behavior` registry entry
(the golden software implementation, also used for output allocation);
hardware data is produced by the HLS-compiled C via the IR interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.htg.model import HTG, Phase, Task
from repro.htg.partition import Partition
from repro.htg.schedule import phase_firing_order, topological_order
from repro.htg.validate import validate_htg
from repro.sim.accel import ActorTiming, LiteAccelSim, StreamActorSim, StreamEndpoint
from repro.sim.axi import AxiLiteBus, StreamChannel
from repro.sim.burst import (
    ActorSpec,
    DmaSpec,
    PhaseMemo,
    hw_serialized,
    phase_memo_key,
    replay_hp_state,
    solve_phase_ex,
)
from repro.sim.prefix import (
    plan_mm2s_resume,
    plan_s2mm_resume,
    resume_actor,
    start_resumes,
)
from repro.sim.cpu import CpuModel, DRIVER_CALL_OVERHEAD
from repro.sim.devfs import DevFs
from repro.sim.dma_engine import (
    _SR_IDLE,
    DmaEngine,
    HpPort,
    MM2S_DMASR,
    S2MM_DMASR,
    SR_IOC_IRQ,
)
from repro.sim.faults import (
    ANY,
    FaultInjector,
    FaultPlan,
    RecoveryEvent,
    RecoveryPolicy,
)
from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.sim.kernel import Environment, Event
from repro.sim.memory import Memory
from repro.sim.trace import Trace
from repro.soc.address_map import AddressMap
from repro.soc.integrator import IntegratedSystem
from repro.util.errors import FaultInjectionError, SimError, SimTimeoutError

#: Default CPI-like scale from interpreter op counts to ARM cycles.
SW_CYCLES_PER_OP = 1.6


@dataclass
class Behavior:
    """Golden software behaviour of one task or actor.

    ``func(*input_arrays)`` returns the output arrays (a tuple in
    declared output order, or a single array).  ``sw_cycles`` optionally
    overrides the software cost model.
    """

    func: Callable[..., object]
    sw_cycles: Callable[..., int] | None = None

    def outputs(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        out = self.func(*inputs)
        if out is None:
            return []
        if isinstance(out, tuple):
            return [np.asarray(o) for o in out]
        return [np.asarray(out)]


@dataclass
class ExecutionReport:
    """Everything a simulation run produced."""

    cycles: int
    data: dict[str, np.ndarray]
    trace: Trace
    node_spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    fclk_mhz: float = 100.0
    #: Stream FIFO statistics: name -> (tokens moved, peak occupancy).
    channel_stats: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Total 32-bit words that crossed the HP port (0 without DMA).
    hp_words: int = 0
    #: Cycle-stamped fault firings (empty without a FaultPlan).
    fault_events: list = field(default_factory=list)
    #: Cycle-stamped recovery actions the runtime took.
    recovery_events: list = field(default_factory=list)
    #: Total kernel events executed — the cost the burst path shrinks.
    kernel_events: int = 0
    #: Fast-path accounting: phases taken burst vs word, and why.
    burst_stats: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cycles / (self.fclk_mhz * 1e6)

    def digest(self) -> str:
        """Stable digest of everything the run *determines*.

        Covers cycles, per-node spans, output bytes, trace spans, FIFO
        token totals, HP-port words and fault/recovery logs — the burst
        and word paths must agree on all of it.  A FIFO's ``high_water``
        is excluded: it depends on same-cycle handoff-vs-queue order,
        which is invisible to timing and data.  Every path reproduces it
        exactly (``channel_stats`` carries it, and the differential
        suites compare it), but every pinned report digest was taken
        without it.  ``kernel_events`` and
        ``burst_stats`` are excluded too — they describe the simulator's
        own effort, not the simulated run.
        """
        payload = {
            "cycles": self.cycles,
            "spans": {k: list(v) for k, v in sorted(self.node_spans.items())},
            "data": {
                k: [
                    str(v.dtype),
                    list(v.shape),
                    hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest(),
                ]
                for k, v in sorted(self.data.items())
            },
            "trace": [
                [s.component, s.activity, s.start, s.end] for s in self.trace.spans
            ],
            "channels": {k: v[0] for k, v in sorted(self.channel_stats.items())},
            "hp_words": self.hp_words,
            "faults": [e.describe() for e in self.fault_events],
            "recovery": [e.describe() for e in self.recovery_events],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def of(self, name: str) -> np.ndarray:
        try:
            return self.data[name]
        except KeyError:
            raise SimError(f"no data item named {name!r} was produced") from None

    def summary(self) -> str:
        """Human-readable run summary: totals + per-node spans."""
        lines = [
            f"execution: {self.cycles} cycles "
            f"({self.seconds * 1e3:.3f} ms @ {self.fclk_mhz:g} MHz)"
        ]
        for name, (start, end) in sorted(self.node_spans.items(), key=lambda kv: kv[1]):
            share = (end - start) / self.cycles if self.cycles else 0.0
            lines.append(f"  {name:<18} {start:>8} .. {end:<8} ({share:5.1%})")
        for evt in self.fault_events:
            lines.append(f"  fault     {evt.describe()}")
        for evt in self.recovery_events:
            lines.append(f"  recovery  {evt.describe()}")
        return "\n".join(lines)


class SimPlatform:
    """Simulated board: env + DRAM + (optionally) the integrated fabric."""

    def __init__(
        self,
        system: IntegratedSystem | None = None,
        *,
        hp_words_per_cycle: int = 2,
        wait_mode: str = "poll",
        cpu_cores: int = 2,
        faults: FaultPlan | None = None,
        burst_mode: bool | None = None,
    ) -> None:
        if wait_mode not in ("poll", "irq"):
            raise SimError(f"unknown wait mode {wait_mode!r}")
        if burst_mode is None:
            burst_mode = os.environ.get("REPRO_SIM_BURST", "1") != "0"
        self.burst_enabled = bool(burst_mode)
        self.env = Environment()
        self.memory = Memory()
        self.trace = Trace()
        self.system = system
        self.devfs = DevFs()
        self.wait_mode = wait_mode
        self.fault_plan = faults
        self.injector = FaultInjector(faults, self.env) if faults else None
        self.channels: dict[object, StreamChannel] = {}
        self.dma_engines: dict[str, DmaEngine] = {}
        self.lite_cores: dict[str, LiteAccelSim] = {}
        self.bus: AxiLiteBus | None = None
        self.cpu: CpuModel | None = None
        self.hp_port: HpPort | None = None
        self.cpu_cores = cpu_cores
        if system is not None:
            self._build_fabric(system, hp_words_per_cycle)
        if self.injector is not None:
            self._schedule_dram_faults()

    def _build_fabric(self, system: IntegratedSystem, hp_words_per_cycle: int) -> None:
        self.bus = AxiLiteBus(
            self.env, system.design.address_map, injector=self.injector
        )
        self.cpu = CpuModel(self.env, self.bus, num_cores=self.cpu_cores)
        any_m_axi = any(core.iface.m_axi_ports for core in system.cores.values())
        if system.dmas or any_m_axi:
            # Every PL master funnels into one HP port (S_AXI_HP0).
            self.hp_port = HpPort(self.env, words_per_cycle=hp_words_per_cycle)
        for link in system.graph.links():
            width = 32
            if isinstance(link.dst, tuple):
                width = system.cores[link.dst[0]].iface.stream(link.dst[1]).width
            elif isinstance(link.src, tuple):
                width = system.cores[link.src[0]].iface.stream(link.src[1]).width
            self.channels[link] = StreamChannel(
                self.env, _link_name(link), width_bits=width, injector=self.injector
            )
        for i, binding in enumerate(system.dmas):
            mm2s = self.channels.get(binding.mm2s_link) if binding.mm2s_link else None
            s2mm = self.channels.get(binding.s2mm_link) if binding.s2mm_link else None
            engine = DmaEngine(
                self.env,
                binding.cell,
                self.memory,
                mm2s=mm2s,
                s2mm=s2mm,
                hp_port=self.hp_port,
                injector=self.injector,
            )
            self.dma_engines[binding.cell] = engine
            self.devfs.register_dma(i, engine)
            self.bus.attach(binding.cell, engine)
        for edge in system.graph.connects():
            cell = system.cell_of[edge.node]
            sim = LiteAccelSim(
                self.env,
                edge.node,
                system.cores[edge.node],
                self.memory,
                hp_port=self.hp_port,
                injector=self.injector,
            )
            self.lite_cores[edge.node] = sim
            self.bus.attach(cell, sim)
            self.devfs.register_core(cell)

    # -- scheduled DRAM faults ------------------------------------------------
    def _schedule_dram_faults(self) -> None:
        """Arm single-bit DRAM flips as background events in cycle time.

        Background scheduling means a flip set past the natural end of
        the run simply never happens — it cannot hold the simulation
        open or distort the final cycle count.
        """
        for fault in self.fault_plan.faults:
            if fault.kind == "dram_flip":
                self.env.schedule_background(fault.at_cycle, self._make_flip(fault))

    def _make_flip(self, fault):
        def flip() -> None:
            names = sorted(self.memory.buffers)
            if not names:
                return
            if fault.target == ANY:
                target = names[fault.word % len(names)]
            elif fault.target in self.memory.buffers:
                target = fault.target
            else:
                return
            buf = self.memory.buffers[target]
            flat = buf.data.reshape(-1).view(np.uint8)
            if flat.size == 0:
                return
            idx = (fault.word * buf.data.itemsize + fault.bit // 8) % flat.size
            flat[idx] ^= np.uint8(1 << (fault.bit % 8))
            self.injector.note(
                "dram_flip", target, detail=f"byte {idx} bit {fault.bit % 8}"
            )

        return flip


def _link_name(link) -> str:
    def end(e):
        return "soc" if not isinstance(e, tuple) else f"{e[0]}.{e[1]}"

    return f"{end(link.src)}->{end(link.dst)}"


class _Runtime:
    def __init__(
        self,
        htg: HTG,
        partition: Partition,
        behaviors: dict[str, Behavior],
        platform: SimPlatform,
        inputs: dict[str, np.ndarray],
        *,
        policy: RecoveryPolicy | None = None,
        phase_memo: PhaseMemo | None = None,
    ) -> None:
        self.htg = htg
        self.partition = partition
        self.behaviors = behaviors
        self.p = platform
        self.data: dict[str, np.ndarray] = {k: np.asarray(v) for k, v in inputs.items()}
        self.node_spans: dict[str, tuple[int, int]] = {}
        #: ``("src" | "dst", endpoint) -> link``, built on first use.
        self._link_index: dict | None = None
        self.policy = policy or RecoveryPolicy()
        #: The retry ladder wraps hardware nodes only when a fault plan
        #: or an explicit policy asks for it — the unguarded path stays
        #: literally the same code, so fault-free runs are identical.
        self._ladder = policy is not None or platform.injector is not None
        self.recovery_events: list[RecoveryEvent] = []
        #: Live hardware a phase holds while executing — what a watchdog
        #: recovery must abandon/reset (procs, channels, DMA engines).
        self._phase_state: dict[str, dict] = {}
        if self.policy.verify_outputs is None:
            self._verify = platform.injector is not None
        else:
            self._verify = self.policy.verify_outputs
        #: Burst fast path: only meaningful when no two hardware nodes
        #: can overlap (the commit-at-phase-end model assumes sole
        #: ownership of the HP port and DMA engines).  Per-phase checks
        #: (fault hazards, idle FIFOs and engines) come later.
        self._burst_base = platform.burst_enabled and hw_serialized(htg, partition)
        self.burst_phases = 0
        self.word_phases = 0
        self.prefix_phases = 0
        #: Fallback accounting: reason -> count (a retried phase counts
        #: once per word-path attempt), phase name -> last reason, and
        #: phase name -> (path, detail) for the obs span attributes, where
        #: detail is the fallback reason of a word phase or the source
        #: ("replay" | "memo") of a burst or prefix phase.
        self.fallback_reasons: dict[str, int] = {}
        self.fallback_phases: dict[str, str] = {}
        self.phase_modes: dict[str, tuple[str, str]] = {}
        #: The phase memo (repro.sim.burst.PhaseMemo) serves only plain
        #: burst runs: with no fault plan and no ladder, neither the
        #: prefix path nor the watchdog budget can arise.
        self.phase_memo = None
        #: AXI-Lite cores may charge their m_axi traffic as one burst
        #: grant only when nothing can interrupt the core mid-window:
        #: serialized hardware and no recovery ladder (a watchdog abandon
        #: between grant and completion would otherwise leave the port
        #: ahead of where the word path would be).
        if self._burst_base and not self._ladder:
            self.phase_memo = phase_memo
            for core in platform.lite_cores.values():
                core.burst_traffic = True

    # -- helpers --------------------------------------------------------
    def behavior_of(self, key: str) -> Behavior:
        b = self.behaviors.get(key)
        if b is None:
            raise SimError(f"no behaviour registered for {key!r}")
        return b

    def gather_inputs(self, names: tuple[str, ...]) -> list[np.ndarray]:
        missing = [n for n in names if n not in self.data]
        if missing:
            raise SimError(f"data items {missing} not yet produced")
        return [self.data[n] for n in names]

    def sw_cost(self, node: Task, behavior: Behavior, inputs: list[np.ndarray]) -> int:
        if behavior.sw_cycles is not None:
            return behavior.sw_cycles(*inputs)
        if node.sw_cycles > 0:
            return node.sw_cycles
        total = sum(int(np.asarray(a).size) for a in inputs) or 1
        return int(total * 12)  # rough per-element software cost

    # -- node executors ---------------------------------------------------------
    def run_sw_task(self, node: Task):
        inputs = self.gather_inputs(node.inputs)
        behavior = self.behavior_of(node.name)
        outputs = behavior.outputs(inputs)
        if len(outputs) != len(node.outputs):
            raise SimError(
                f"{node.name}: behaviour produced {len(outputs)} outputs, "
                f"declared {len(node.outputs)}"
            )
        cost = self.sw_cost(node, behavior, inputs)
        start = self.p.env.now
        if self.p.cpu is not None:
            yield from self.p.cpu.run_software(cost)
        else:
            yield self.p.env.timeout(max(1, cost))
        for name, arr in zip(node.outputs, outputs):
            self.data[name] = arr
        self.p.trace.record(f"cpu:{node.name}", "sw", start, self.p.env.now)

    def run_hw_task(self, node: Task):
        assert self.p.system is not None and self.p.cpu is not None and self.p.bus
        system = self.p.system
        core = system.cores[node.name]
        sim = self.p.lite_cores[node.name]
        behavior = self.behavior_of(node.name)
        inputs = self.gather_inputs(node.inputs)
        golden = behavior.outputs(inputs)

        # Stage inputs into DRAM; allocate zeroed outputs.
        start = self.p.env.now
        scalar_args: dict[int, int] = {}
        for pname, arr in zip(node.inputs, inputs):
            buf = self._ensure_buffer(f"{node.name}.{pname}", arr)
            scalar_args[core.iface.register(pname).offset] = buf.base
        out_bufs = []
        for pname, ref in zip(node.outputs, golden):
            buf = self._ensure_buffer(
                f"{node.name}.{pname}", np.zeros_like(np.asarray(ref))
            )
            scalar_args[core.iface.register(pname).offset] = buf.base
            out_bufs.append((pname, buf))

        base = system.design.address_map.of(system.cell_of[node.name]).base
        irq = sim.done_irq() if self.p.wait_mode == "irq" else None
        yield from self.p.cpu.run_lite_core(base, scalar_args, irq=irq)
        if self._verify:
            self._check_integrity(
                node.name,
                [(pname, buf.data, ref) for (pname, buf), ref in zip(out_bufs, golden)],
            )
        for pname, buf in out_bufs:
            self.data[pname] = buf.data.copy()
        self.p.trace.record(f"hw:{node.name}", "accel", start, self.p.env.now)

    def _check_integrity(self, node: str, triples) -> None:
        """End-to-end result check (the CRC a robust deployment adds).

        Hardware results are bit-exact against the golden behaviour by
        construction, so any mismatch means corrupted data (bit flip,
        truncated stream) — surfaced as a structured error the retry
        ladder can act on instead of letting bad bytes escape.
        """
        bad = [
            pname
            for pname, actual, ref in triples
            if not np.array_equal(np.asarray(actual), np.asarray(ref))
        ]
        if bad:
            raise FaultInjectionError(
                f"integrity check failed for output(s) {bad} of node {node!r} "
                f"at cycle {self.p.env.now}: hardware result differs from the "
                "golden reference",
                cycle=self.p.env.now,
            )

    def _ensure_buffer(self, name: str, arr: np.ndarray):
        mem = self.p.memory
        if name in mem.buffers:
            buf = mem.buffers[name]
            if buf.data.shape != arr.shape or buf.data.dtype != arr.dtype:
                raise SimError(f"buffer {name!r} reused with a different shape")
            buf.data[...] = arr
            return buf
        return mem.allocate(name, arr)

    def run_sw_phase(self, phase: Phase):
        start = self.p.env.now
        channel_data = self._dataflow_outputs(phase)
        total = 0
        for actor in phase.actors:
            b = self.behaviors.get(f"{phase.name}.{actor.name}")
            if b is not None and b.sw_cycles is not None:
                ins = [
                    channel_data[_feeding_channel(phase, actor.name, p)]
                    for p in actor.stream_inputs
                ]
                total += b.sw_cycles(*ins)
            elif actor.sw_cycles > 0:
                total += actor.sw_cycles
            else:
                size = sum(
                    channel_data[_feeding_channel(phase, actor.name, p)].size
                    for p in actor.stream_inputs
                )
                total += int(max(1, size) * 12)
        if self.p.cpu is not None:
            yield from self.p.cpu.run_software(total)
        else:
            yield self.p.env.timeout(max(1, total))
        self._store_phase_outputs(phase, channel_data)
        self.p.trace.record(f"cpu:{phase.name}", "sw-phase", start, self.p.env.now)

    def _phase_layout(self, phase: Phase, channel_data):
        """Endpoints, firing counts and timing for every actor of *phase*.

        Applies the bulk-stall capacity bump exactly like the word path
        always did (idempotent, so planning a burst and then falling back
        to the word path leaves the same fabric state).
        """
        system = self.p.system
        layout = []
        for actor in phase.actors:
            ins, outs = [], []
            for port in actor.stream_inputs:
                ch_key = _feeding_channel(phase, actor.name, port)
                link = self._find_link(dst=(actor.name, port))
                ins.append(
                    StreamEndpoint(port, self.p.channels[link], channel_data[ch_key])
                )
            for port in actor.stream_outputs:
                ch_key = (actor.name, port)
                link = self._find_link(src=(actor.name, port))
                outs.append(
                    StreamEndpoint(port, self.p.channels[link], channel_data[ch_key])
                )
            firings = max([len(e.data) for e in (*ins, *outs)] or [1])
            # An actor stalled on a bulk (reduction) input — e.g. `segment`
            # waiting for the Otsu threshold — must be able to buffer its
            # full-rate inputs meanwhile, or the pipeline deadlocks.  Real
            # designs size that FIFO to the whole stream; mirror that.
            if any(len(e.data) != firings for e in ins):
                for e in ins:
                    if len(e.data) == firings:
                        e.channel.capacity = max(e.channel.capacity, firings)
            timing = ActorTiming.from_synthesis(system.cores[actor.name], firings)
            layout.append((actor, ins, outs, firings, timing))
        return layout

    def run_hw_phase(self, phase: Phase):
        assert self.p.system is not None and self.p.cpu is not None
        channel_data = None
        if self._burst_base:
            channel_data = self._dataflow_outputs(phase)
            path, detail, payload = self._plan_burst_phase(phase, channel_data)
            self.phase_modes[phase.name] = (path, detail)
            if path == "burst":
                yield from self._run_hw_phase_burst(phase, channel_data, *payload)
                return
            if path == "prefix":
                yield from self._run_hw_phase_prefix(phase, channel_data, *payload)
                return
            self.fallback_reasons[detail] = self.fallback_reasons.get(detail, 0) + 1
            self.fallback_phases[phase.name] = detail
        yield from self._run_hw_phase_word(phase, channel_data)

    def _run_hw_phase_word(self, phase: Phase, channel_data=None):
        system = self.p.system
        start = self.p.env.now
        if channel_data is None:
            channel_data = self._dataflow_outputs(phase)

        # Map phase channels onto the system's stream links/FIFOs.
        actors: list[StreamActorSim] = []
        pending: list[Event] = []
        used_channels: set[StreamChannel] = set()
        used_engines: set[DmaEngine] = set()
        self.word_phases += 1
        for actor, ins, outs, firings, timing in self._phase_layout(
            phase, channel_data
        ):
            sim = StreamActorSim(
                self.p.env, actor.name, inputs=ins, outputs=outs, timing=timing
            )
            actors.append(sim)
            used_channels.update(e.channel for e in (*ins, *outs))
            pending.append(sim.start())

        # Driver calls: one writeDMA per boundary input, one readDMA per
        # boundary output (through /dev exactly like the generated app).
        for ch in phase.boundary_inputs():
            arr = self.data[ch.src_port]
            buf = self._ensure_buffer(f"{phase.name}.{ch.src_port}", arr)
            link = self._find_link(dst=(ch.dst_actor, ch.dst_port))
            binding = system.dma_for_input(link)
            handle = self._dma_handle(binding.cell)
            used_engines.add(handle.engine)
            yield from self.p.cpu.call_driver()
            pending.append(handle.writeDMA(buf.base, buf.nbytes))
        out_bufs = []
        for ch in phase.boundary_outputs():
            ref = channel_data[(ch.src_actor, ch.src_port)]
            buf = self._ensure_buffer(
                f"{phase.name}.{ch.dst_port}", np.zeros_like(ref)
            )
            link = self._find_link(src=(ch.src_actor, ch.src_port))
            binding = system.dma_for_output(link)
            handle = self._dma_handle(binding.cell)
            used_engines.add(handle.engine)
            yield from self.p.cpu.call_driver()
            pending.append(handle.readDMA(buf.base, buf.nbytes))
            out_bufs.append((ch.dst_port, buf, ref))

        # Register what a watchdog recovery must clean up, then wait.
        self._phase_state[phase.name] = {
            "procs": list(pending),
            "channels": used_channels,
            "engines": used_engines,
        }
        yield self.p.env.all_of(pending)
        self._phase_state.pop(phase.name, None)
        if self._verify:
            self._check_integrity(
                phase.name, [(name, buf.data, ref) for name, buf, ref in out_bufs]
            )
        for name, buf, _ref in out_bufs:
            self.data[name] = buf.data.copy()
        for sim in actors:
            if sim.started_at is not None and sim.finished_at is not None:
                self.p.trace.record(
                    f"hw:{sim.name}", "stream", sim.started_at, sim.finished_at
                )
        self.p.trace.record(f"phase:{phase.name}", "hw-phase", start, self.p.env.now)

    # -- burst fast path (see repro.sim.burst for the equivalence argument) --
    def _plan_burst_phase(self, phase: Phase, channel_data):
        """Plan *phase*; returns ``(path, detail, args)``.

        ``("burst", source, args)`` runs the whole phase as one commit of
        an outcome the event-order replay computed (*source*
        ``"replay"``) or the phase memo held (``"memo"``);
        ``("prefix", "replay", args)`` burst-commits up to the cycle
        before the earliest fault hazard and resumes the remainder on
        the live word path; ``("word", reason, None)`` — reason from
        :data:`~repro.sim.burst.FALLBACK_REASONS` — runs the word path.
        Pure apart from the idempotent capacity bump: nothing is staged,
        kicked or charged until the plan is accepted, so a fallback
        leaves the simulator exactly where the word path expects it.
        """
        p = self.p
        system = p.system
        t0 = p.env.now
        layout = self._phase_layout(phase, channel_data)

        # Boundary transfers in driver-call order (inputs then outputs),
        # each kicked one DRIVER_CALL_OVERHEAD after the previous call.
        kick = t0
        dma_specs: list[DmaSpec] = []
        in_ctx: list[tuple[str, np.ndarray, DmaEngine]] = []
        out_ctx: list[tuple[str, np.ndarray, DmaEngine, str]] = []
        targets: set[str] = set()
        try:
            for ch in phase.boundary_inputs():
                arr = self.data[ch.src_port]
                link = self._find_link(dst=(ch.dst_actor, ch.dst_port))
                engine = self.p.dma_engines[system.dma_for_input(link).cell]
                kick += DRIVER_CALL_OVERHEAD
                dma_specs.append(
                    DmaSpec(kick, int(arr.size), p.channels[link], "mm2s")
                )
                in_ctx.append((ch.src_port, arr, engine))
                targets.add(engine.name)
            for ch in phase.boundary_outputs():
                ref = np.asarray(channel_data[(ch.src_actor, ch.src_port)])
                link = self._find_link(src=(ch.src_actor, ch.src_port))
                engine = self.p.dma_engines[system.dma_for_output(link).cell]
                kick += DRIVER_CALL_OVERHEAD
                dma_specs.append(
                    DmaSpec(kick, int(ref.size), p.channels[link], "s2mm")
                )
                out_ctx.append((ch.dst_port, ref, engine, ch.src_actor))
                targets.add(engine.name)
        except SimError:
            # Unmappable boundary: let the word path raise the error.
            return ("word", "no_convergence", None)

        channels: dict[StreamChannel, int] = {}
        chan_tokens: dict[StreamChannel, list] = {}
        actor_specs: list[ActorSpec] = []
        for actor, ins, outs, firings, timing in layout:
            spec = ActorSpec(
                name=actor.name, t0=t0, firings=firings,
                depth=timing.depth, ii=timing.ii,
            )
            for e in ins:
                channels[e.channel] = e.channel.capacity
                chan_tokens.setdefault(e.channel, e.data.tolist())
                if len(e.data) == firings:
                    spec.rate_ins.append(e.channel)
                else:
                    spec.bulk_ins.append((e.channel, len(e.data)))
            for e in outs:
                channels[e.channel] = e.channel.capacity
                chan_tokens.setdefault(e.channel, e.data.tolist())
                if len(e.data) == firings:
                    spec.rate_outs.append(e.channel)
                else:
                    spec.bulk_outs.append((e.channel, len(e.data)))
            actor_specs.append(spec)
        targets.update(ch.name for ch in channels)

        # The earliest cycle a fault could fire in-phase.  Everything
        # strictly before it is fault-free and burstable; the cut must
        # also clear the driver-call window (the kicks and descriptor
        # validations are replayed synchronously up to the cut).
        hazard = None
        if p.fault_plan is not None:
            spent = p.injector.spent() if p.injector is not None else None
            hazard = p.fault_plan.earliest_hazard(targets, now=t0, spent=spent)
            if hazard is not None and hazard <= kick:
                return ("word", "fault_touches", None)
        # The FIFOs must be idle and at least two words deep.
        for ch in channels:
            if ch.capacity < 2 or len(ch) or ch._getters or ch._putters:
                return ("word", "fifo_busy", None)
        for _, _, engine in in_ctx:
            if engine._mm2s_busy is not None and not engine._mm2s_busy.triggered:
                return ("word", "engine_busy", None)
        for _, _, engine, _ in out_ctx:
            if engine._s2mm_busy is not None and not engine._s2mm_busy.triggered:
                return ("word", "engine_busy", None)

        hp_args = dict(
            hp_wpc=p.hp_port.words_per_cycle if p.hp_port else None,
            hp_slot_time=p.hp_port._slot_time if p.hp_port else None,
            hp_slot_used=p.hp_port._slot_used if p.hp_port else 0,
        )
        memo, key = self.phase_memo, None
        if memo is not None:
            key = phase_memo_key(t0, channels, dma_specs, actor_specs, **hp_args)
            solution = memo.lookup(key, t0, channels, actor_specs)
            if solution is not None:
                return ("burst", "memo", (solution, in_ctx, out_ctx, chan_tokens))
        # Under a hazard the replay also records the state at the cut.
        cut = hazard - 1 if hazard is not None else None
        solution, reason = solve_phase_ex(
            t0, channels, dma_specs, actor_specs, cut=cut, **hp_args
        )
        if solution is None:
            return ("word", reason, None)
        if key is not None:
            memo.record(key, t0, solution)
        # A watchdog that would expire mid-phase must see the word path
        # wedge word by word, not a single opaque timeout.
        if self._ladder and solution.finish - t0 >= self.policy.node_budget:
            return ("word", "watchdog_budget", None)
        if hazard is not None and hazard <= solution.finish:
            return (
                "prefix", "replay",
                (solution, in_ctx, out_ctx, chan_tokens, dma_specs,
                 actor_specs, cut),
            )
        return ("burst", "replay", (solution, in_ctx, out_ctx, chan_tokens))

    def _run_hw_phase_burst(self, phase: Phase, channel_data, solution,
                            in_ctx, out_ctx, chan_tokens):
        """Replay the phase's CPU work, sleep to the replayed end, commit."""
        p = self.p
        env = p.env
        start = env.now
        self.burst_phases += 1
        # Driver calls cost exactly what the word path charges, and the
        # engines validate each descriptor at its kick cycle (same error,
        # same DMASR latch, same cycle if a transfer is rejected).
        for src_port, arr, engine in in_ctx:
            buf = self._ensure_buffer(f"{phase.name}.{src_port}", arr)
            yield from p.cpu.call_driver()
            engine._validate(buf.base, buf.nbytes, "MM2S", MM2S_DMASR)
            engine.bytes_mm2s += buf.nbytes
        out_bufs = []
        for dst_port, ref, engine, _src_actor in out_ctx:
            buf = self._ensure_buffer(f"{phase.name}.{dst_port}", np.zeros_like(ref))
            yield from p.cpu.call_driver()
            engine._validate(buf.base, buf.nbytes, "S2MM", S2MM_DMASR)
            engine.bytes_s2mm += buf.nbytes
            out_bufs.append((dst_port, buf, ref, engine))
        # The whole phase is one kernel event instead of one per word.
        yield env.timeout(max(0, solution.finish - env.now))
        # ---- commit: the exact final state the word path would reach ----
        for _, _, engine in in_ctx:
            engine.regs[MM2S_DMASR] = _SR_IDLE | SR_IOC_IRQ
        for dst_port, buf, ref, engine in out_bufs:
            buf.data.reshape(-1)[:] = np.asarray(ref).reshape(-1)
            engine.regs[S2MM_DMASR] = _SR_IDLE | SR_IOC_IRQ
        if self._verify:
            self._check_integrity(
                phase.name,
                [(name, buf.data, ref) for name, buf, ref, _ in out_bufs],
            )
        for dst_port, buf, _ref, _eng in out_bufs:
            self.data[dst_port] = buf.data.copy()
        # The phase's traffic crosses each FIFO as one burst event pair;
        # high_water is pinned to the replay's exact peak (a
        # whole-transfer burst would overstate the word path's peak).
        for ch, (puts, gets, high_water) in solution.channels.items():
            if not puts:
                continue
            ch.commit_burst(chan_tokens[ch], gets, high_water)
        if p.hp_port is not None and solution.hp_state is not None:
            p.hp_port._slot_time, p.hp_port._slot_used = solution.hp_state
            p.hp_port.total_words += solution.hp_words
        for name, started, finished in solution.actor_spans:
            p.trace.record(f"hw:{name}", "stream", started, finished)
        p.trace.record(f"phase:{phase.name}", "hw-phase", start, env.now)

    def _run_hw_phase_prefix(self, phase: Phase, channel_data, solution,
                             in_ctx, out_ctx, chan_tokens, dma_specs,
                             actor_specs, cut):
        """Burst-commit the phase up to *cut*, run the rest word by word.

        The cut is the cycle before the earliest fault hazard, so the
        committed prefix is provably fault-free and is the word path's
        own state at the end of the cut (the replay's snapshot), and
        every injection point from the hazard cycle on runs live — see
        :mod:`repro.sim.prefix` for the state-handoff argument.
        """
        p = self.p
        env = p.env
        start = env.now
        self.prefix_phases += 1
        # Driver-call replay: identical CPU cost and descriptor
        # validation cycles as the word path.  Bytes are NOT pre-charged
        # (unlike the full-burst commit): the live remainder may
        # truncate, so each transfer charges at its end like the word
        # path does.
        in_bufs = []
        for src_port, arr, engine in in_ctx:
            buf = self._ensure_buffer(f"{phase.name}.{src_port}", arr)
            yield from p.cpu.call_driver()
            engine._validate(buf.base, buf.nbytes, "MM2S", MM2S_DMASR)
            engine.regs[MM2S_DMASR] = 0x0  # busy
            in_bufs.append(buf)
        out_bufs = []
        for dst_port, ref, engine, _src_actor in out_ctx:
            buf = self._ensure_buffer(f"{phase.name}.{dst_port}", np.zeros_like(ref))
            yield from p.cpu.call_driver()
            engine._validate(buf.base, buf.nbytes, "S2MM", S2MM_DMASR)
            engine.regs[S2MM_DMASR] = 0x0
            out_bufs.append((dst_port, buf, ref, engine))
        # The whole fault-free prefix is one kernel event.
        yield env.timeout(max(0, cut - env.now))
        # ---- commit: the exact word-path state at the end of the cut ----
        for ch, (n_put, n_got, high_water) in solution.cut_channels.items():
            if n_put:
                ch.commit_burst(chan_tokens[ch][:n_put], n_got, high_water)
        if p.hp_port is not None and solution.hp_calls:
            state, done = replay_hp_state(
                solution.hp_calls, p.hp_port.words_per_cycle,
                solution.hp_init, cut,
            )
            p.hp_port._slot_time, p.hp_port._slot_used = state
            p.hp_port.total_words += done
        # ---- spawn the live remainder ----
        # Resumes keyed by index into dma_specs + actor_specs.
        resumes: dict[int, tuple] = {}  # index -> (generator, name)
        busy: dict[int, tuple] = {}  # DMA index -> (engine, busy attribute)
        used_channels = set(solution.timeline)
        used_engines = set()
        for i, (src_port, arr, engine) in enumerate(in_ctx):
            spec = dma_specs[i]
            buf = in_bufs[i]
            plan = plan_mm2s_resume(
                spec, solution.dma_calls[i], solution.timeline[spec.chan][0], cut
            )
            used_engines.add(engine)
            if plan.mode == "done":
                engine.bytes_mm2s += buf.nbytes
                engine.regs[MM2S_DMASR] = _SR_IDLE | SR_IOC_IRQ
                engine._mm2s_busy = None
                continue
            resumes[i] = (
                engine.resume_mm2s(buf.base, buf.nbytes, plan.first,
                                   plan.mode, plan.wake),
                f"{engine.name}.mm2s",
            )
            busy[i] = (engine, "_mm2s_busy")
        n_in = len(in_ctx)
        for j, (dst_port, buf, ref, engine) in enumerate(out_bufs):
            spec = dma_specs[n_in + j]
            plan = plan_s2mm_resume(
                spec, solution.dma_calls[n_in + j],
                solution.timeline[spec.chan][1], cut,
            )
            used_engines.add(engine)
            if plan.committed:
                flat_ref = np.asarray(ref).reshape(-1)
                buf.data.reshape(-1)[:plan.committed] = flat_ref[:plan.committed]
            if plan.mode == "done":
                engine.bytes_s2mm += buf.nbytes
                engine.regs[S2MM_DMASR] = _SR_IDLE | SR_IOC_IRQ
                engine._s2mm_busy = None
                continue
            resumes[n_in + j] = (
                engine.resume_s2mm(buf.base, buf.nbytes, plan.first,
                                   plan.mode, plan.wake),
                f"{engine.name}.s2mm",
            )
            busy[n_in + j] = (engine, "_s2mm_busy")
        actor_states: list[tuple[str, int, int | None, dict]] = []
        for k, (spec, (name, started, finished)) in enumerate(
            zip(actor_specs, solution.actor_spans)
        ):
            if finished <= cut:
                actor_states.append((name, started, finished, {}))
                continue
            span: dict = {}
            resumes[len(dma_specs) + k] = (
                resume_actor(env, spec, solution.timeline, chan_tokens,
                             cut, span),
                f"actor.{name}",
            )
            actor_states.append((name, started, None, span))
        started = start_resumes(env, resumes, solution.cut_sleepers)
        for i, (engine, attr) in busy.items():
            setattr(engine, attr, started[i])
        procs = list(started.values())

        # Register what a watchdog recovery must clean up, then wait.
        self._phase_state[phase.name] = {
            "procs": list(procs),
            "channels": used_channels,
            "engines": used_engines,
        }
        yield env.all_of(procs)
        self._phase_state.pop(phase.name, None)
        if self._verify:
            self._check_integrity(
                phase.name,
                [(name, buf.data, ref) for name, buf, ref, _ in out_bufs],
            )
        for dst_port, buf, _ref, _eng in out_bufs:
            self.data[dst_port] = buf.data.copy()
        for name, started, finished, span in actor_states:
            end = finished if finished is not None else span.get("finish")
            if end is not None:
                p.trace.record(f"hw:{name}", "stream", started, end)
        p.trace.record(f"phase:{phase.name}", "hw-phase", start, env.now)

    def _dma_handle(self, cell: str):
        for path in self.p.devfs.listdir():
            node = self.p.devfs._nodes[path]
            if node.kind == "dma" and node.target == cell:
                return self.p.devfs.open(path)
        raise SimError(f"no /dev node for DMA {cell!r}")

    def _find_link(self, *, src=None, dst=None):
        """The first stream link leaving *src* (or entering *dst*)."""
        assert self.p.system is not None
        index = self._link_index
        if index is None:
            index = self._link_index = {}
            for link in self.p.system.graph.links():
                index.setdefault(("src", link.src), link)
                index.setdefault(("dst", link.dst), link)
        link = index.get(("src", src) if src is not None else ("dst", dst))
        if link is None:
            raise SimError(f"no stream link matching src={src} dst={dst}")
        return link

    # -- functional dataflow execution ----------------------------------------------
    def _dataflow_outputs(self, phase: Phase) -> dict[tuple[str, str], np.ndarray]:
        """Compute every channel's data: key = (producer actor, port);
        boundary inputs use (BOUNDARY, data name)."""
        out: dict[tuple[str, str], np.ndarray] = {}
        for name in phase.inputs:
            out[(Phase.BOUNDARY, name)] = self.data[name]
        for actor_name in phase_firing_order(phase):
            actor = phase.actor(actor_name)
            ins = [
                out[_feeding_channel(phase, actor_name, p)]
                for p in actor.stream_inputs
            ]
            behavior = self.behaviors.get(f"{phase.name}.{actor_name}")
            if behavior is None:
                behavior = self.behaviors.get(actor_name)
            if behavior is None:
                raise SimError(
                    f"no behaviour registered for actor "
                    f"{phase.name}.{actor_name}"
                )
            results = behavior.outputs(ins)
            if len(results) != len(actor.stream_outputs):
                raise SimError(
                    f"{actor_name}: behaviour produced {len(results)} outputs, "
                    f"declared {len(actor.stream_outputs)}"
                )
            for port, arr in zip(actor.stream_outputs, results):
                out[(actor_name, port)] = arr
        return out

    def _store_phase_outputs(self, phase: Phase, channel_data) -> None:
        for ch in phase.boundary_outputs():
            self.data[ch.dst_port] = channel_data[(ch.src_actor, ch.src_port)]

    # -- recovery ladder -------------------------------------------------------------
    def _record(self, name: str, action: str, attempt: int, cause: str = "") -> None:
        self.recovery_events.append(
            RecoveryEvent(
                cycle=self.p.env.now, node=name, action=action,
                attempt=attempt, cause=cause,
            )
        )
        if _BUS.enabled:
            _BUS.emit(
                "sim.recovery",
                action,
                cycle=self.p.env.now,
                worker=name,
                attempt=attempt,
            )
            _METRICS.counter("sim.recoveries", "recovery actions taken").inc()

    def _recover_node(self, name: str, node, cause: BaseException, attempt: int):
        """Soft-reset the hardware a failed attempt holds, charge the cost."""
        env = self.p.env
        self._record(name, "soft-reset", attempt, cause=str(cause))
        if isinstance(node, Task):
            core = self.p.lite_cores.get(name)
            if core is not None:
                core.soft_reset()
        else:
            state = self._phase_state.pop(name, None)
            if state is not None:
                for proc in state["procs"]:
                    if not proc.triggered:
                        env.abandon(proc)
                for engine in state["engines"]:
                    engine.soft_reset()
                for channel in state["channels"]:
                    channel.reset()
        start = env.now
        yield env.timeout(self.policy.reset_cycles)
        self.p.trace.record(f"recover:{name}", "reset", start, env.now)

    def _run_guarded(self, name: str, node, runner):
        """Watchdog -> capture -> soft reset -> retry -> software fallback."""
        env = self.p.env
        policy = self.policy
        cause: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._record(name, "retry", attempt, cause=str(cause))
            tproc = env.process(
                runner(node), name=f"try.{name}#{attempt}", capture_errors=True
            )
            guard = env.deadline(policy.node_budget)
            yield env.any_of([tproc, guard])
            if tproc.triggered and tproc.error is None:
                guard.cancel()
                return
            if tproc.triggered:
                guard.cancel()
                cause = tproc.error
            else:
                env.abandon(tproc)
                cause = SimTimeoutError(
                    f"node {name!r} exceeded its {policy.node_budget}-cycle "
                    f"budget (attempt {attempt}, cycle {env.now})",
                    cycle=env.now,
                    budget=policy.node_budget,
                )
            yield from self._recover_node(name, node, cause, attempt)
        if not policy.fallback:
            self._record(name, "diagnosed", policy.max_attempts, cause=str(cause))
            raise cause
        self._record(name, "fallback", policy.max_attempts, cause=str(cause))
        if isinstance(node, Task):
            yield from self.run_sw_task(node)
        else:
            yield from self.run_sw_phase(node)

    # -- top level -------------------------------------------------------------------
    def launch(self) -> None:
        done: dict[str, Event] = {}

        def node_process(name: str):
            preds = [done[p] for p in self.htg.predecessors(name)]
            yield self.p.env.all_of(preds)
            node = self.htg.node(name)
            start = self.p.env.now
            hw = self.partition.is_hw(name)
            if isinstance(node, Task):
                runner = self.run_hw_task if hw else self.run_sw_task
            else:
                runner = self.run_hw_phase if hw else self.run_sw_phase
            # One ``sim.phase`` span per HTG node, stamped in cycle time.
            # Both simulation paths reach identical node start/end cycles
            # (the burst equivalence argument), so the span set is
            # path-independent.  ``worker=name`` gives each node its own
            # Chrome track; the E lands in a ``finally`` so a fault that
            # escapes the ladder still closes the span.
            kind = "hw" if hw else "sw"
            if _BUS.enabled:
                _BUS.emit(
                    "sim.phase", name, phase="B", cycle=start, worker=name, kind=kind
                )
            try:
                if hw and self._ladder:
                    yield from self._run_guarded(name, node, runner)
                else:
                    yield from runner(node)
            finally:
                if _BUS.enabled:
                    # Hardware phases also report which simulation path
                    # ran them (burst | prefix | word) and either the
                    # fallback reason of a word phase or the source
                    # (replay | memo) of the others — the E span is the
                    # per-phase view of burst_stats.
                    extra = {}
                    mode = self.phase_modes.get(name)
                    if mode is not None:
                        path, detail = mode
                        key = "fallback_reason" if path == "word" else "source"
                        extra = {"path": path, key: detail}
                    _BUS.emit(
                        "sim.phase",
                        name,
                        phase="E",
                        cycle=self.p.env.now,
                        worker=name,
                        kind=kind,
                        **extra,
                    )
            self.node_spans[name] = (start, self.p.env.now)

        for name in topological_order(self.htg):
            done[name] = self.p.env.process(node_process(name), name=f"node.{name}")


def simulate_application(
    htg: HTG,
    partition: Partition,
    behaviors: dict[str, Behavior],
    inputs: dict[str, np.ndarray],
    *,
    system: IntegratedSystem | None = None,
    fclk_mhz: float = 100.0,
    hp_words_per_cycle: int = 2,
    wait_mode: str = "poll",
    cpu_cores: int = 2,
    faults: FaultPlan | None = None,
    policy: RecoveryPolicy | None = None,
    burst_mode: bool | None = None,
    phase_memo: PhaseMemo | None = None,
) -> ExecutionReport:
    """Run *htg* under *partition* and return the execution report.

    *system* is required when the partition maps anything to hardware;
    an all-software partition runs on a bare platform (CPU only).
    *hp_words_per_cycle* sets the shared HP-port bandwidth all DMA
    engines contend for; *wait_mode* selects polling or interrupt-driven
    completion for AXI-Lite cores; *cpu_cores* bounds how many software
    tasks overlap (the Zedboard's A9 is dual-core).

    *faults* arms a deterministic :class:`FaultPlan`; *policy* tunes the
    recovery ladder (watchdog budget, retries, software fallback).
    Either one enables the guarded execution path; with neither, the run
    is byte- and cycle-identical to the unguarded simulator.  The
    deadlock detector is always on: a wedged run raises a structured
    :class:`~repro.util.errors.SimDeadlockError` naming the blocked
    processes instead of returning silently.

    *burst_mode* controls the burst fast path (see :mod:`repro.sim.burst`):
    each hardware phase is computed by an event-order replay and runs as
    a single kernel timeout instead of one event per word — cycle- and
    byte-identical, ~10-100x fewer events (``burst_stats
    ["replay_phases"]`` counts the phases replayed).  ``None`` (default)
    reads ``REPRO_SIM_BURST`` (on unless set to ``0``); a phase falls
    back to the word path automatically whenever exactness would require
    word granularity (an armed fault plan touching it before its last
    driver call, shallow or busy FIFOs, parallel hardware nodes).

    *phase_memo* (a :class:`~repro.sim.burst.PhaseMemo`) lets runs that
    share it simulate each distinct hardware phase once: a phase whose
    t0-relative replay inputs were seen before is committed from the
    memo through the burst path, byte- and cycle-identical to replaying
    it again (``burst_stats["memo_hits"]`` counts them).  It is consulted only on the burst path with no *faults* and
    no *policy*; share one memo across the runs of one campaign, never
    across campaigns.
    """
    validate_htg(htg)
    partition.validate(htg)
    if partition.hw_nodes() and system is None:
        raise SimError("hardware nodes in the partition but no integrated system given")
    platform = SimPlatform(
        system,
        hp_words_per_cycle=hp_words_per_cycle,
        wait_mode=wait_mode,
        cpu_cores=cpu_cores,
        faults=faults,
        burst_mode=burst_mode,
    )
    platform.env.detect_deadlock = True
    if platform.cpu is None:
        platform.cpu = CpuModel(
            platform.env, AxiLiteBus(platform.env, AddressMap()), num_cores=cpu_cores
        )
    runtime = _Runtime(
        htg, partition, behaviors, platform, inputs,
        policy=policy, phase_memo=phase_memo,
    )
    runtime.launch()
    cycles = platform.env.run()
    sources = [detail for _path, detail in runtime.phase_modes.values()]
    if _BUS.enabled:
        # ``sim.*`` totals are *run-determined* — they mirror the fields
        # ExecutionReport.digest() covers, so the word and burst paths
        # must agree on every one of them byte for byte.  The engine's
        # own effort goes under ``simulator.*``: kernel event counts and
        # the burst/word phase split legitimately differ between paths
        # and are excluded from the sim-totals digest.
        _METRICS.counter("sim.runs", "simulations completed").inc()
        _METRICS.counter("sim.cycles", "simulated cycles").inc(cycles)
        _METRICS.counter("sim.nodes", "HTG nodes executed").inc(
            len(runtime.node_spans)
        )
        _METRICS.counter("sim.hp_words", "words across the HP port").inc(
            platform.hp_port.total_words if platform.hp_port else 0
        )
        _METRICS.counter("sim.channel_tokens", "tokens through stream FIFOs").inc(
            sum(ch.total_got for ch in platform.channels.values())
        )
        _METRICS.counter("sim.trace_spans", "trace spans recorded").inc(
            len(platform.trace.spans)
        )
        _METRICS.counter("simulator.kernel_events", "kernel events processed").inc(
            platform.env.events_processed
        )
        _METRICS.counter("simulator.burst_phases", "phases on the burst path").inc(
            runtime.burst_phases
        )
        _METRICS.counter(
            "simulator.prefix_phases", "phases on the prefix-burst path"
        ).inc(runtime.prefix_phases)
        _METRICS.counter("simulator.word_phases", "phases on the word path").inc(
            runtime.word_phases
        )
    return ExecutionReport(
        cycles=cycles,
        data=runtime.data,
        trace=platform.trace,
        node_spans=runtime.node_spans,
        fclk_mhz=fclk_mhz,
        channel_stats={
            ch.name: (ch.total_got, ch.high_water)
            for ch in platform.channels.values()
        },
        hp_words=platform.hp_port.total_words if platform.hp_port else 0,
        fault_events=list(platform.injector.events) if platform.injector else [],
        recovery_events=list(runtime.recovery_events),
        kernel_events=platform.env.events_processed,
        burst_stats={
            "enabled": platform.burst_enabled,
            "hw_serialized": runtime._burst_base or not platform.burst_enabled,
            "burst_phases": runtime.burst_phases,
            "prefix_phases": runtime.prefix_phases,
            "word_phases": runtime.word_phases,
            "memo_hits": sources.count("memo"),
            "replay_phases": sources.count("replay"),
            "fallback_reasons": dict(runtime.fallback_reasons),
            "fallback_phases": dict(runtime.fallback_phases),
        },
    )


def _feeding_channel(phase: Phase, actor: str, port: str) -> tuple[str, str]:
    """Key of the channel feeding (actor, port): (producer, producer port)."""
    for ch in phase.channels:
        if ch.dst_actor == actor and ch.dst_port == port:
            if ch.describes_input():
                return (Phase.BOUNDARY, ch.src_port)
            return (ch.src_actor, ch.src_port)
    raise SimError(f"phase {phase.name!r}: nothing feeds {actor}.{port}")
