"""Deterministic wall-clock model of the flow phases (Fig. 9).

Absolute tool runtimes are testbed-specific, so we model them: the
constants are anchored to what the paper reports — compiling the Scala
task graph takes ~6 s, generating the Vivado project ~50 s (vs. 48 s for
a human just instantiating the PS in the GUI), and generating all four
Otsu architectures ~42 minutes in total, dominated by HLS and
synthesis/implementation.  Within an architecture the model scales with
design size: HLS time with the core's IR size and FU mix, implementation
time with the post-synthesis LUT count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.project import SynthesisResult
from repro.soc.blockdesign import BlockDesign

#: Phase labels, in the order Fig. 9 stacks them.
PHASES = ("SCALA", "HLS", "PROJECT", "SYNTH")


@dataclass(frozen=True)
class CoreTrace:
    """How one core's build was satisfied — the per-core Fig. 9 record.

    *source* is ``synth`` (HLS ran) or ``cache`` (reused from the
    content-addressed build cache).
    """

    name: str
    seconds: float
    source: str = "synth"
    #: Per-function memo lookups (front-end / result stage) that served
    #: this core's synthesis — non-zero only when source == "synth".
    fn_cache_hits: int = 0


@dataclass
class FlowTiming:
    """Modeled seconds per phase for one architecture build.

    ``hls_s`` is the sum of every synthesized core's modeled cost; cores
    are built one after another, so ``total_s`` is the modeled build
    time.  These are Fig. 9 model figures, never a measured clock.
    """

    scala_s: float = 0.0
    hls_s: float = 0.0
    project_s: float = 0.0
    synth_s: float = 0.0
    #: Per-core HLS breakdown (reused cores appear with 0.0).
    hls_cores: dict[str, float] = field(default_factory=dict)
    #: Content-addressed build-cache hits / misses (0/0 without a cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Sub-core per-function memo hits / misses across all synthesized
    #: cores (the layer beneath the whole-core cache; see repro.hls.fncache).
    fn_cache_hits: int = 0
    fn_cache_misses: int = 0
    #: True when this run continued an existing run journal (resume).
    resumed: bool = False
    #: Journal-committed steps satisfied without re-executing the work
    #: (cache-served HLS cores, already-promoted workspaces).
    steps_skipped: int = 0
    #: Steps the prior run left started-but-uncommitted — the
    #: interrupted tail this run recovered.
    crash_recoveries: int = 0
    #: Per-core build records, in graph declaration order.
    trace: list[CoreTrace] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.scala_s + self.hls_s + self.project_s + self.synth_s

    def as_row(self) -> dict[str, float]:
        return {
            "SCALA": round(self.scala_s, 1),
            "HLS": round(self.hls_s, 1),
            "PROJECT": round(self.project_s, 1),
            "SYNTH": round(self.synth_s, 1),
            "TOTAL": round(self.total_s, 1),
        }

    def report(self) -> dict:
        """Full build-engine record: phases, per-core trace, cache, resume."""
        return {
            **self.as_row(),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "fn_cache": {"hits": self.fn_cache_hits, "misses": self.fn_cache_misses},
            "resume": {
                "resumed": self.resumed,
                "steps_skipped": self.steps_skipped,
                "crash_recoveries": self.crash_recoveries,
            },
            "cores": [
                {
                    "name": t.name,
                    "seconds": round(t.seconds, 1),
                    "source": t.source,
                    "fn_cache_hits": t.fn_cache_hits,
                }
                for t in self.trace
            ],
        }


@dataclass(frozen=True)
class TimingModel:
    """Calibrated constants; defaults reproduce the paper's anchors."""

    # Scala/DSL compilation: ~6 s for the case-study descriptions.
    scala_base_s: float = 5.6
    scala_per_line_s: float = 0.03

    # Vivado HLS: tool start-up plus scheduling/binding effort.
    hls_base_s: float = 32.0
    hls_per_op_s: float = 0.35
    hls_float_core_extra_s: float = 28.0

    # Vivado project generation: ~50 s per architecture.
    project_base_s: float = 41.0
    project_per_cell_s: float = 0.9
    project_per_conn_s: float = 0.12

    # Synthesis + place&route + bitstream.
    synth_base_s: float = 252.0
    synth_per_lut_s: float = 0.045

    def scala_compile_s(self, dsl_lines: int) -> float:
        return self.scala_base_s + self.scala_per_line_s * dsl_lines

    def hls_core_s(self, result: SynthesisResult) -> float:
        n_ops = sum(len(b.ops) for b in result.function.blocks)
        t = self.hls_base_s + self.hls_per_op_s * n_ops
        if any(cls.startswith("f") for cls in result.binding.fu_counts):
            t += self.hls_float_core_extra_s
        return t

    def project_generation_s(self, design: BlockDesign) -> float:
        return (
            self.project_base_s
            + self.project_per_cell_s * len(design.cells)
            + self.project_per_conn_s * len(design.connections)
        )

    def synthesis_s(self, design: BlockDesign) -> float:
        return self.synth_base_s + self.synth_per_lut_s * design.total_resources().lut
