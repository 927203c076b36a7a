"""Greedy partitioning heuristic.

A simple hill-climber over the buildable hardware sets: starting from
all-software, repeatedly move the function whose acceleration buys the
most cycles per LUT, while the result stays buildable and keeps
improving.  Benchmarked against the exhaustive Pareto front (the
exhaustive space is tiny for the case study, which is exactly why it
makes a good correctness reference).
"""

from __future__ import annotations

from typing import Callable

from repro.apps.otsu.app import buildable_hw_sets
from repro.dse.evaluate import EvalPoint, evaluate_candidate
from repro.dse.space import partition_candidate


def greedy_partition(
    *,
    width: int = 32,
    height: int = 32,
    lut_budget: int | None = None,
    evaluator: Callable[[frozenset[str]], EvalPoint] | None = None,
    fn_cache_dir: str | None = None,
) -> list[EvalPoint]:
    """Greedy trajectory from all-software; returns the visited points.

    The last element is the heuristic's chosen solution.  *evaluator*
    maps a hardware set to its point and can replace the full
    flow+simulation of :func:`~repro.dse.space.partition_candidate`
    (for tests); *lut_budget* caps the area; *fn_cache_dir* shares one
    per-function memo store across the trajectory's flow runs.
    """
    if evaluator is None:

        def evaluator(hw: frozenset[str]) -> EvalPoint:  # noqa: F811
            return evaluate_candidate(
                partition_candidate(hw),
                width=width,
                height=height,
                fn_cache_dir=fn_cache_dir,
            )

    buildable = set(buildable_hw_sets())
    current = evaluator(frozenset())
    trajectory = [current]
    remaining = {"grayScale", "histogram", "otsuMethod", "binarization"}

    while remaining:
        best: EvalPoint | None = None
        best_gain = 0.0
        for func in sorted(remaining):
            candidate_set = frozenset(current.hw | {func})
            if candidate_set not in buildable:
                continue
            point = evaluator(candidate_set)
            if lut_budget is not None and point.lut > lut_budget:
                continue
            delta_cycles = current.cycles - point.cycles
            delta_lut = max(1, point.lut - current.lut)
            gain = delta_cycles / delta_lut
            if delta_cycles > 0 and gain > best_gain:
                best, best_gain = point, gain
        if best is None:
            break
        current = best
        trajectory.append(current)
        remaining -= current.hw
    return trajectory
