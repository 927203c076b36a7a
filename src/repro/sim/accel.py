"""Accelerator simulation models.

Functional behaviour and timing are separated (TLM style):

* **data** flowing through the stream network is real — each actor's
  output tokens are the arrays computed by the HLS interpreter (or the
  registered golden behaviour) for this execution, so the bytes landing
  in DRAM are bit-exact;
* **timing** comes from the HLS schedule: a pipelined actor consumes
  and produces a token every II cycles after a pipeline-fill delay, and
  reduction ports (whose token count differs from the actor's firing
  count) drain/fill in bulk before the first / after the last firing —
  which is exactly what makes ``segment`` stall until ``otsuThreshold``
  arrives in the Otsu case study.

``LiteAccelSim`` models an AXI-Lite task core: argument registers, an
``ap_start``/``ap_done`` handshake, AXI-master traffic for array
parameters, and a compute delay from the latency report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.axi import AxiLiteDevice, StreamChannel
from repro.sim.kernel import Environment, Process
from repro.sim.memory import CYCLES_PER_WORD, Memory, READ_LATENCY, WRITE_LATENCY
from repro.util.errors import SimError


@dataclass
class StreamEndpoint:
    """One connected stream port of an actor, with this run's data."""

    port: str
    channel: StreamChannel
    data: np.ndarray  # tokens this port carries during the run


@dataclass
class ActorTiming:
    """Timing parameters derived from the HLS result."""

    ii: int = 1  # cycles per firing in steady state
    depth: int = 8  # pipeline fill (first-firing latency)

    @classmethod
    def from_synthesis(cls, result, firings: int) -> "ActorTiming":
        """Derive II/depth from a core's latency report."""
        piped = [
            (trips, iter_c, ii)
            for (trips, iter_c, ii) in result.latency.loops.values()
            if ii is not None
        ]
        if piped:
            trips, iter_c, ii = max(piped, key=lambda t: t[0])
            return cls(ii=max(1, ii), depth=max(1, iter_c))
        total = max(1, result.latency.cycles)
        ii = max(1, round(total / max(1, firings)))
        return cls(ii=ii, depth=min(total, 4 * ii))


class StreamActorSim:
    """Event process of one dataflow actor."""

    def __init__(
        self,
        env: Environment,
        name: str,
        *,
        inputs: list[StreamEndpoint],
        outputs: list[StreamEndpoint],
        timing: ActorTiming,
    ) -> None:
        self.env = env
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.timing = timing
        self.firings = max(
            [len(ep.data) for ep in (*inputs, *outputs)] or [1]
        )
        self.started_at: int | None = None
        self.finished_at: int | None = None

    def _rate(self, ep: StreamEndpoint) -> int:
        """Tokens per firing: 1 for full-rate ports, 0 for bulk ports."""
        return 1 if len(ep.data) == self.firings else 0

    def start(self) -> Process:
        return self.env.process(self._run(), name=f"actor.{self.name}")

    def _run(self):
        self.started_at = self.env.now
        # Bulk inputs (reductions feeding us, e.g. the Otsu threshold)
        # must fully arrive before the first firing.
        for ep in self.inputs:
            if self._rate(ep) == 0:
                for _ in range(len(ep.data)):
                    yield ep.channel.get()
        yield self.env.timeout(self.timing.depth)  # pipeline fill
        # Unbox token arrays once up front instead of one numpy-scalar
        # .item() call per firing.
        rate_outs = [
            (ep, ep.data.tolist())
            for ep in self.outputs
            if self._rate(ep) == 1
        ]
        for f in range(self.firings):
            for ep in self.inputs:
                if self._rate(ep) == 1:
                    yield ep.channel.get()
            if f > 0:
                yield self.env.timeout(self.timing.ii)
            for ep, tokens in rate_outs:
                yield ep.channel.put(tokens[f])
        # Bulk outputs (e.g. a histogram) leave after the last firing.
        for ep in self.outputs:
            if self._rate(ep) == 0:
                for item in ep.data.tolist():
                    yield self.env.timeout(CYCLES_PER_WORD)
                    yield ep.channel.put(item)
        self.finished_at = self.env.now


#: ap_ctrl register bits (Vivado HLS layout).
CTRL_START = 0x1
CTRL_DONE = 0x2
CTRL_IDLE = 0x4


class LiteAccelSim(AxiLiteDevice):
    """AXI-Lite task accelerator: register file + compute process."""

    def __init__(
        self,
        env: Environment,
        name: str,
        result,  # SynthesisResult
        memory: Memory,
        *,
        arg_buffers: dict[str, str] | None = None,
        hp_port=None,
        injector=None,
    ) -> None:
        self.env = env
        self.name = name
        self.result = result
        self.memory = memory
        self.hp_port = hp_port
        self.injector = injector
        #: m_axi param name -> DRAM buffer name (bound before each run).
        self.arg_buffers = dict(arg_buffers or {})
        self.regs: dict[int, int] = {0x00: CTRL_IDLE}
        self._proc: Process | None = None
        self._irq_waiters: list = []
        self.runs = 0
        #: When set (by the runtime, only when this core is the sole HP
        #: master in its phase), m_axi traffic is charged as one burst
        #: grant instead of one event per word — cycle-identical for a
        #: solo master (see HpPort.acquire_burst).
        self.burst_traffic = False

    def soft_reset(self) -> None:
        """ap_rst_n pulse: abort a wedged run, return to idle."""
        if self._proc is not None and not self._proc.triggered:
            self.env.abandon(self._proc)
        self._proc = None
        self._irq_waiters = []
        self.regs = {0x00: CTRL_IDLE}

    def done_irq(self):
        """Event triggering at the next ap_done (the core's interrupt line)."""
        from repro.sim.kernel import Event

        evt = Event(self.env)
        self._irq_waiters.append(evt)
        return evt

    # -- register interface ---------------------------------------------------
    def reg_read(self, offset: int) -> int:
        return self.regs.get(offset, 0)

    def reg_write(self, offset: int, value: int) -> None:
        self.regs[offset] = value
        if offset == 0x00 and (value & CTRL_START):
            if self._proc is not None and not self._proc.triggered:
                raise SimError(f"core {self.name!r} started while busy")
            self.regs[0x00] = 0  # busy: not idle, not done
            self._proc = self.env.process(self._compute(), name=f"core.{self.name}")

    # -- behaviour --------------------------------------------------------------
    def _gather_args(self) -> tuple[list[object], int]:
        """Collect positional args for the interpreter + AXI traffic words."""
        args: list[object] = []
        traffic_words = 0
        iface = self.result.iface
        for pname, ptype in self.result.function.params:
            if pname in self.result.function.array_params:
                buf_name = self.arg_buffers.get(pname)
                if buf_name is None:
                    # Base-address register points into DRAM.
                    reg = iface.register(pname)
                    addr = self.regs.get(reg.offset, 0)
                    buf = self.memory.at(addr)
                else:
                    buf = self.memory.buffer(buf_name)
                args.append(buf.data.reshape(-1))
                traffic_words += buf.data.size
            else:
                reg = iface.register(pname)
                raw = self.regs.get(reg.offset, 0)
                if ptype.is_float:
                    import struct

                    args.append(struct.unpack("<f", struct.pack("<I", raw & 0xFFFFFFFF))[0])
                else:
                    args.append(raw)
        return args, traffic_words

    def _compute(self):
        if self.injector is not None and self.injector.fire("accel_hang", self.name):
            yield self.env.event()  # ap_done never rises
            return
        args, traffic_words = self._gather_args()
        # Bus traffic for m_axi parameters + the core's compute latency.
        # The master shares the HP port with every DMA in the design.
        if traffic_words:
            yield self.env.timeout(READ_LATENCY + WRITE_LATENCY)
            if self.hp_port is None:
                yield self.env.timeout(traffic_words * CYCLES_PER_WORD)
            elif self.burst_traffic:
                yield self.hp_port.acquire_burst(traffic_words)
            else:
                for _ in range(traffic_words):
                    yield self.hp_port.acquire()
        yield self.env.timeout(max(1, self.result.latency.cycles))
        ret = self.result.run(*args)  # mutates DRAM-backed arrays in place
        if ret is not None:
            reg = self.result.iface.register("return")
            if isinstance(ret, float):
                import struct

                ret = struct.unpack("<I", struct.pack("<f", ret))[0]
            self.regs[reg.offset] = int(ret) & 0xFFFFFFFF
        self.runs += 1
        self.regs[0x00] = CTRL_DONE | CTRL_IDLE
        waiters, self._irq_waiters = self._irq_waiters, []
        for evt in waiters:
            evt.trigger(None)
