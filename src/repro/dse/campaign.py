"""Parallel, journaled, resumable DSE campaigns.

A campaign evaluates every candidate of a :class:`SearchSpace` through
the real flow + simulator and streams the results into a Pareto
frontier.  Three properties are engineered in, and `repro dsecheck`
gates on all of them:

**Determinism.**  The campaign *identity* digests the space description
(axes, constraints, candidate cids), the image geometry, the objective
vector, and the engine version — everything that decides *what* gets
evaluated, and nothing that only decides *how fast* (worker count,
store location).  The campaign *digest* adds the evaluation records
sorted by candidate id, with order- and machine-dependent fields
(wall-clock, per-point fn-cache splits) excluded.  Two runs of the same
campaign — serial, parallel, or resumed — produce byte-identical
frontier reports and equal digests.

**Parallelism.**  Candidates fan out over a process pool (fork start
method: workers inherit the warmed interpreter).  Every worker routes
HLS through the one shared persistent per-function store at
``fn_cache_dir`` via :func:`~repro.dse.evaluate.dse_flow_config`, so a
candidate that re-synthesizes a function another candidate already
compiled hits the frontend/result memos instead of spawning a private
cold store.  Each worker (or the serial loop) also holds one
:class:`~repro.sim.burst.PhaseMemo` for the campaign's lifetime, so a
hardware phase repeated across candidates is simulated once per worker.

**Resumability.**  An append-only JSONL journal records the campaign
header plus one record per evaluated point.  A killed campaign resumed
against the same journal re-derives the identity, skips every cid
already journaled (tolerating a torn final line), evaluates the rest,
and lands on the same digest as an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.dse.evaluate import EvalPoint, evaluate_candidate
from repro.dse.pareto import OBJECTIVES, ParetoFront, dominates
from repro.dse.space import Candidate, SearchSpace, sdsoc_baseline_candidate
from repro.flow.journal import open_for_append, stable_digest
from repro.sim.burst import PhaseMemo
from repro.util.errors import ReproError

#: Bumped whenever the evaluation semantics change — part of the
#: campaign identity, so stale journals refuse to resume.
ENGINE_VERSION = 1


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a space plus execution knobs.

    Only ``space``, ``width`` and ``height`` shape the results; the
    rest (worker count, store/journal locations, stop_after) shape the
    execution and are deliberately excluded from the identity digest.
    """

    space: SearchSpace
    width: int = 16
    height: int = 16
    jobs: int = 1
    fn_cache_dir: str | None = None
    journal_path: str | None = None
    resume: bool = False
    #: Evaluate at most this many *new* candidates, then stop with
    #: ``completed=False`` — the kill-mid-campaign simulation hook.
    stop_after: int | None = None
    check_tcl: bool = False

    def identity(self) -> str:
        return stable_digest(
            {
                "engine": ENGINE_VERSION,
                "space": self.space.describe(),
                "cids": sorted(c.cid for c in self.space),
                "width": self.width,
                "height": self.height,
                "objectives": list(OBJECTIVES),
            }
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    identity: str
    points: list[EvalPoint]  # every evaluated point, sorted by cid
    front: list[EvalPoint]
    digest: str
    evaluated: int  # newly evaluated this run
    resumed: int  # loaded back from the journal
    completed: bool
    fn_cache_hits: int
    fn_cache_misses: int
    pruned: int
    evicted: int
    #: Hardware phases served from the phase memo (order-dependent
    #: under a pool, so not part of any digest).
    memo_hits: int = 0

    @property
    def fn_cache_hit_rate(self) -> float:
        total = self.fn_cache_hits + self.fn_cache_misses
        return self.fn_cache_hits / total if total else 0.0

    def frontier_report(self, *, baseline: EvalPoint | None = None) -> dict:
        """Deterministic report dict (no wall-clock, no cache splits)."""
        report = {
            "identity": self.identity,
            "digest": self.digest,
            "objectives": list(OBJECTIVES),
            "points_evaluated": len(self.points),
            "frontier": [p.record() for p in self.front],
            "pruned": len(self.points) - len(self.front),
        }
        if baseline is not None:
            report["baseline"] = baseline.record()
            report["baseline_dominated"] = frontier_dominates(
                self.front, baseline
            )
        return report

    def frontier_json(self, *, baseline: EvalPoint | None = None) -> str:
        """Byte-stable JSON rendering of :meth:`frontier_report`."""
        return (
            json.dumps(
                self.frontier_report(baseline=baseline),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )


def frontier_dominates(front: list[EvalPoint], point: EvalPoint) -> bool:
    """True if some frontier point strictly dominates *point*."""
    return any(dominates(p, point) for p in front)


def sdsoc_baseline_point(
    *,
    width: int = 16,
    height: int = 16,
    fn_cache_dir: str | None = None,
) -> EvalPoint:
    """Evaluate the SDSoC one-DMA-per-stream reference candidate."""
    return evaluate_candidate(
        sdsoc_baseline_candidate(),
        width=width,
        height=height,
        fn_cache_dir=fn_cache_dir,
    )


def campaign_digest(identity: str, points: list[EvalPoint]) -> str:
    """Digest over identity + cid-sorted evaluation records."""
    return stable_digest(
        {
            "identity": identity,
            "points": [p.record() for p in sorted(points, key=lambda p: p.cid)],
        }
    )


# -- journal ---------------------------------------------------------------


def _read_journal(path: Path, identity: str) -> list[EvalPoint]:
    """Load journaled points, tolerating a torn final line."""
    points: list[EvalPoint] = []
    header_seen = False
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            # Torn tail from a mid-write kill: everything before it is
            # intact (appends are line-buffered), so just stop here.
            break
        kind = rec.get("kind")
        if kind == "campaign":
            if rec.get("identity") != identity:
                raise ReproError(
                    "journal belongs to a different campaign: "
                    f"{rec.get('identity')!r} != {identity!r}"
                )
            header_seen = True
        elif kind == "point":
            points.append(EvalPoint.from_record(rec))
    if not header_seen:
        raise ReproError(f"journal {path} has no campaign header")
    return points


def _worker_evaluate(payload: tuple, phase_memo: PhaseMemo | None) -> EvalPoint:
    """Evaluate one candidate against the calling process's phase memo."""
    cand_dict, width, height, fn_cache_dir, check_tcl = payload
    return evaluate_candidate(
        Candidate.from_dict(cand_dict),
        width=width,
        height=height,
        fn_cache_dir=fn_cache_dir,
        check_tcl=check_tcl,
        phase_memo=phase_memo,
    )


#: A pool worker's phase memo, set by :func:`_init_pool_worker` in the
#: worker process only; it dies with the pool at the end of the campaign.
_pool_memo: PhaseMemo | None = None


def _init_pool_worker() -> None:
    global _pool_memo
    _pool_memo = PhaseMemo()


def _pool_evaluate(payload: tuple) -> EvalPoint:
    """Top-level (picklable) pool task."""
    return _worker_evaluate(payload, _pool_memo)


def _pool_context():
    """Prefer fork (workers inherit the warmed interpreter state)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run (or resume) one campaign; returns the full result."""
    identity = config.identity()
    candidates = sorted(config.space, key=lambda c: c.cid)
    journal = Path(config.journal_path) if config.journal_path else None

    done: list[EvalPoint] = []
    if journal is not None and config.resume and journal.exists():
        done = _read_journal(journal, identity)
    resumed = len(done)
    done_cids = {p.cid for p in done}
    pending = [c for c in candidates if c.cid not in done_cids]
    if config.stop_after is not None:
        pending = pending[: config.stop_after]

    journal_fh = None
    if journal is not None:
        journal.parent.mkdir(parents=True, exist_ok=True)
        if config.resume and journal.exists():
            journal_fh = open_for_append(journal)
        else:
            journal_fh = journal.open("w")
            journal_fh.write(
                json.dumps(
                    {
                        "kind": "campaign",
                        "identity": identity,
                        "engine": ENGINE_VERSION,
                        "space": config.space.describe(),
                        "width": config.width,
                        "height": config.height,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            journal_fh.flush()

    new_points: list[EvalPoint] = []
    try:
        payloads = [
            (
                c.as_dict(),
                config.width,
                config.height,
                config.fn_cache_dir,
                config.check_tcl,
            )
            for c in pending
        ]
        if config.jobs > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(
                max_workers=min(config.jobs, len(payloads)),
                mp_context=_pool_context(),
                initializer=_init_pool_worker,
            ) as pool:
                for point in pool.map(_pool_evaluate, payloads):
                    new_points.append(point)
                    _journal_point(journal_fh, point)
        else:
            # One memo per campaign: a later campaign starts cold.
            memo = PhaseMemo()
            for payload in payloads:
                point = _worker_evaluate(payload, memo)
                new_points.append(point)
                _journal_point(journal_fh, point)
    finally:
        if journal_fh is not None:
            journal_fh.close()

    points = done + new_points
    wrong = [p.label() for p in points if not p.correct]
    if wrong:
        raise ReproError(f"candidates produced wrong output: {wrong}")

    front = ParetoFront()
    for p in sorted(points, key=lambda p: p.cid):
        front.add(p)

    points_sorted = sorted(points, key=lambda p: p.cid)
    return CampaignResult(
        identity=identity,
        points=points_sorted,
        front=front.front(),
        digest=campaign_digest(identity, points_sorted),
        evaluated=len(new_points),
        resumed=resumed,
        completed=len(points) == len(candidates),
        fn_cache_hits=sum(p.fn_cache_hits for p in new_points),
        fn_cache_misses=sum(p.fn_cache_misses for p in new_points),
        pruned=front.pruned,
        evicted=front.evicted,
        memo_hits=sum(p.memo_hits for p in new_points),
    )


def _journal_point(fh, point: EvalPoint) -> None:
    if fh is None:
        return
    fh.write(json.dumps({"kind": "point", **point.record()}, sort_keys=True) + "\n")
    fh.flush()


__all__ = [
    "ENGINE_VERSION",
    "CampaignConfig",
    "CampaignResult",
    "campaign_digest",
    "frontier_dominates",
    "run_campaign",
    "sdsoc_baseline_point",
]
