"""Discrete-event SoC simulator (the board substitute).

Lets the generated systems *run*: a cycle-granular event kernel
(:mod:`kernel`), DRAM (:mod:`memory`), AXI-Lite transactions and
AXI-Stream FIFOs with backpressure (:mod:`axi`), DMA engines
(:mod:`dma_engine`), accelerator models combining the HLS functional
behaviour with the scheduled timing (:mod:`accel`), a CPU model
(:mod:`cpu`), the ``/dev`` + ``readDMA``/``writeDMA`` driver surface
(:mod:`devfs`), and an application runtime executing a partitioned HTG
on an integrated system (:mod:`runtime`).

The functional and timing models are deliberately separated (classic
TLM style): data moved through DMAs and streams is real — the output
buffers in simulated DRAM are compared bit-for-bit against the golden
software pipeline — while timing comes from the HLS schedule (II,
pipeline depth, latency) and calibrated bus costs.
"""

from repro.sim.axi import AxiLiteBus, StreamChannel
from repro.sim.burst import (
    FALLBACK_REASONS,
    PhaseMemo,
    PhaseSolution,
    hw_serialized,
)
from repro.sim.faults import (
    Fault,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RecoveryEvent,
    RecoveryPolicy,
    campaign_digest,
)
from repro.sim.kernel import Environment, Event, Process
from repro.sim.memory import Memory
from repro.sim.runtime import ExecutionReport, SimPlatform, simulate_application

__all__ = [
    "AxiLiteBus",
    "Environment",
    "FALLBACK_REASONS",
    "Event",
    "ExecutionReport",
    "Fault",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Memory",
    "PhaseMemo",
    "PhaseSolution",
    "Process",
    "RecoveryEvent",
    "RecoveryPolicy",
    "SimPlatform",
    "StreamChannel",
    "campaign_digest",
    "hw_serialized",
    "simulate_application",
]
