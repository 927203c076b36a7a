"""Candidate evaluation: run the flow + simulator per candidate.

Two evaluation surfaces live here:

* the PR 0 partition-only helpers (:class:`DsePoint`,
  :func:`evaluate_hw_set`, :func:`explore`) kept for back-compat; and
* the campaign evaluator (:func:`evaluate_candidate`) over full
  :class:`~repro.dse.space.Candidate` points — partition × PIPELINE
  subset × DMA policy × HP-port bandwidth.

Every flow config a DSE evaluation uses comes from one factory,
:func:`dse_flow_config`, which pins the cache routing **explicitly**:
the whole-core build cache is off (a whole-core hit would bypass the
per-function memo entirely and hide regressions the campaign is meant
to measure), ``fn_cache_dir`` routes every worker at the one shared
persistent :class:`~repro.hls.fncache.FunctionCache` store (the
campaign parallelizes across candidates, not inside them).
Constructing ad-hoc ``FlowConfig()`` instances here was the PR 10 bug:
the env-default ``cache_dir`` field meant parallel workers could each
spawn a private cold store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.otsu.app import build_otsu_custom, buildable_hw_sets
from repro.dse.space import Candidate
from repro.flow.orchestrator import FlowConfig, run_flow
from repro.sim.burst import PhaseMemo
from repro.sim.runtime import simulate_application
from repro.soc.integrator import IntegrationConfig
from repro.util.errors import ReproError


def dse_flow_config(
    *,
    fn_cache_dir: str | None = None,
    one_dma_per_stream: bool = False,
    check_tcl: bool = False,
) -> FlowConfig:
    """The one flow config every DSE evaluation routes through.

    ``cache_dir`` is pinned (not env-defaulted): candidate evaluations
    must be identical no matter which worker process — or CI
    environment — runs them.
    """
    return FlowConfig(
        check_tcl=check_tcl,
        cache_dir=None,
        fn_cache_dir=str(fn_cache_dir) if fn_cache_dir is not None else None,
        integration=IntegrationConfig(one_dma_per_stream=one_dma_per_stream),
    )


@dataclass(frozen=True)
class DsePoint:
    """One evaluated partition."""

    hw: frozenset[str]
    lut: int
    ff: int
    bram18: int
    dsp: int
    cycles: int
    correct: bool

    def objectives(self) -> tuple[int, int, int, int, int]:
        return (self.lut, self.ff, self.bram18, self.dsp, self.cycles)

    def label(self) -> str:
        return "+".join(sorted(self.hw)) if self.hw else "all-sw"


@dataclass(frozen=True)
class EvalPoint:
    """One evaluated search-space candidate."""

    candidate: Candidate
    lut: int
    ff: int
    bram18: int
    dsp: int
    cycles: int
    correct: bool
    dma_cells: int
    fn_cache_hits: int
    fn_cache_misses: int
    #: Hardware phases committed from the campaign's phase memo.
    memo_hits: int = 0

    @property
    def cid(self) -> str:
        return self.candidate.cid

    def objectives(self) -> tuple[int, int, int, int, int]:
        return (self.lut, self.ff, self.bram18, self.dsp, self.cycles)

    def label(self) -> str:
        return self.candidate.label()

    def record(self) -> dict:
        """Journaled form.  Deliberately **excludes** fn-cache and
        phase-memo counters: per-point hit/miss splits depend on
        evaluation order under parallelism, and the journal feeds the
        campaign digest."""
        return {
            "cid": self.cid,
            "candidate": self.candidate.as_dict(),
            "lut": self.lut,
            "ff": self.ff,
            "bram18": self.bram18,
            "dsp": self.dsp,
            "cycles": self.cycles,
            "correct": self.correct,
            "dma_cells": self.dma_cells,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "EvalPoint":
        return cls(
            candidate=Candidate.from_dict(rec["candidate"]),
            lut=rec["lut"],
            ff=rec["ff"],
            bram18=rec["bram18"],
            dsp=rec["dsp"],
            cycles=rec["cycles"],
            correct=rec["correct"],
            dma_cells=rec["dma_cells"],
            fn_cache_hits=0,
            fn_cache_misses=0,
        )


def evaluate_candidate(
    candidate: Candidate,
    *,
    width: int = 16,
    height: int = 16,
    fn_cache_dir: str | None = None,
    check_tcl: bool = False,
    phase_memo: PhaseMemo | None = None,
) -> EvalPoint:
    """Build, synthesize, integrate and simulate one candidate.

    *phase_memo* is the campaign's :class:`~repro.sim.burst.PhaseMemo`:
    a hardware phase another candidate of the same campaign already
    replayed is committed from it instead (same cycles
    and bytes; see :func:`~repro.sim.runtime.simulate_application`).
    ``None`` simulates every phase afresh.
    """
    hw = frozenset(candidate.get("hw", ()))
    pipelined = frozenset(candidate.get("pipelined", ()))
    dma = candidate.get("dma", "paired")
    hp_words = int(candidate.get("hp_words", 2))
    app = build_otsu_custom(hw, width=width, height=height)

    dma_cells = 0
    if hw:
        directives = {
            actor: [
                d
                for d in dirs
                if d.kind != "pipeline" or actor in pipelined
            ]
            for actor, dirs in app.extra_directives.items()
        }
        flow = run_flow(
            app.dsl_graph(),
            app.c_sources,
            extra_directives=directives,
            config=dse_flow_config(
                fn_cache_dir=fn_cache_dir,
                one_dma_per_stream=(dma == "per-stream"),
                check_tcl=check_tcl,
            ),
        )
        system = flow.system
        usage = flow.bitstream.utilization
        dma_cells = sum(
            1 for c in system.design.cells.values() if "axi_dma" in c.vlnv
        )
        fn_hits = flow.timing.fn_cache_hits
        fn_misses = flow.timing.fn_cache_misses
    else:
        system = None
        from repro.hls.resources import ResourceUsage

        usage = ResourceUsage()
        fn_hits = fn_misses = 0
    report = simulate_application(
        app.htg,
        app.partition,
        app.behaviors,
        {},
        system=system,
        hp_words_per_cycle=hp_words,
        phase_memo=phase_memo,
    )
    correct = bool(
        np.array_equal(report.of("binImage"), np.asarray(app.golden["binary"]))
    )
    return EvalPoint(
        candidate=candidate,
        lut=usage.lut,
        ff=usage.ff,
        bram18=usage.bram18,
        dsp=usage.dsp,
        cycles=report.cycles,
        correct=correct,
        dma_cells=dma_cells,
        fn_cache_hits=fn_hits,
        fn_cache_misses=fn_misses,
        memo_hits=report.burst_stats["memo_hits"],
    )


def evaluate_hw_set(
    hw: frozenset[str] | set[str],
    *,
    width: int = 32,
    height: int = 32,
    config: FlowConfig | None = None,
) -> DsePoint:
    """Build, synthesize and simulate one candidate partition."""
    hw = frozenset(hw)
    app = build_otsu_custom(hw, width=width, height=height)
    if hw:
        flow = run_flow(
            app.dsl_graph(),
            app.c_sources,
            extra_directives=app.extra_directives,
            config=config or dse_flow_config(),
        )
        system = flow.system
        usage = flow.bitstream.utilization
    else:
        system = None
        from repro.hls.resources import ResourceUsage

        usage = ResourceUsage()
    report = simulate_application(
        app.htg, app.partition, app.behaviors, {}, system=system
    )
    correct = bool(
        np.array_equal(report.of("binImage"), np.asarray(app.golden["binary"]))
    )
    return DsePoint(
        hw=hw,
        lut=usage.lut,
        ff=usage.ff,
        bram18=usage.bram18,
        dsp=usage.dsp,
        cycles=report.cycles,
        correct=correct,
    )


def explore(
    *,
    width: int = 32,
    height: int = 32,
    candidates: list[frozenset[str]] | None = None,
) -> list[DsePoint]:
    """Evaluate every buildable partition (or the given *candidates*)."""
    candidates = candidates if candidates is not None else buildable_hw_sets()
    points = [evaluate_hw_set(hw, width=width, height=height) for hw in candidates]
    wrong = [p.label() for p in points if not p.correct]
    if wrong:
        raise ReproError(f"candidates produced wrong output: {wrong}")
    return points
