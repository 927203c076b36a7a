"""The four Otsu architectures of Table I.

Each architecture is an HTG + partition: the functions selected for
hardware (Table I) are grouped, in pipeline order, into a single
dataflow phase whose actors carry the Listing-4 names; the remaining
functions stay as software tasks.  ``Arch4`` reproduces Listing 4
exactly, including the double gray stream (``imageOutCH`` to the
histogram, ``imageOutSEG`` to the segmenter).

Software cycle costs model an ARM Cortex-A9 at the PL clock (per-pixel
costs in the tens of cycles — conversion and binarization are cheap,
the histogram's random-access increments and the float threshold search
cost more).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.apps.image import pack_rgb, synthetic_scene
from repro.apps.otsu import csrc
from repro.apps.otsu.golden import (
    golden_binarize,
    golden_grayscale,
    golden_histogram,
    golden_otsu_threshold,
    golden_pipeline,
)
from repro.dsl.ast import TgGraph
from repro.dsl.from_htg import graph_from_htg
from repro.hls.interfaces import Directive, allocation, pipeline
from repro.htg.model import HTG, Actor, Phase, StreamChannel, Task
from repro.htg.partition import Partition
from repro.sim.runtime import Behavior
from repro.util.errors import ReproError

#: Table I — functions implemented as hardware cores per architecture.
ARCHITECTURES: dict[int, frozenset[str]] = {
    1: frozenset({"histogram"}),
    2: frozenset({"otsuMethod"}),
    3: frozenset({"histogram", "otsuMethod"}),
    4: frozenset({"grayScale", "histogram", "otsuMethod", "binarization"}),
}

#: Software cost factors (cycles) for the ARM side.
SW_COST = {
    "readImage": lambda npix: npix * 8,
    "writeImage": lambda npix: npix * 8,
    "grayScale": lambda npix: npix * 30,
    "histogram": lambda npix: npix * 14,
    "otsuMethod": lambda npix: 256 * 48,
    "binarization": lambda npix: npix * 10,
}

#: Pipeline order of the accelerable functions (Table I names).
_CHAIN = ("grayScale", "histogram", "otsuMethod", "binarization")

#: Data item produced by each function.
_PRODUCES = {
    "grayScale": "grayImage",
    "histogram": "histData",
    "otsuMethod": "threshold",
    "binarization": "binImage",
}
#: Data items consumed by each function.
_CONSUMES = {
    "grayScale": ("rgbImage",),
    "histogram": ("grayImage",),
    "otsuMethod": ("histData",),
    "binarization": ("grayImage", "threshold"),
}


@dataclass
class OtsuApplication:
    """One Table-I architecture, ready to synthesize and simulate."""

    arch: int
    width: int
    height: int
    htg: HTG
    partition: Partition
    phase_name: str | None
    c_sources: dict[str, str]
    behaviors: dict[str, Behavior]
    extra_directives: dict[str, list[Directive]]
    packed_scene: np.ndarray
    golden: dict[str, np.ndarray | int] = field(default_factory=dict)

    @property
    def npix(self) -> int:
        return self.width * self.height

    def dsl_graph(self) -> TgGraph:
        """The DSL description of this architecture (paper Listing 4 style)."""
        return graph_from_htg(self.htg, self.partition, name=f"otsuArch{self.arch}")


def _build_phase(hw_funcs: list[str], npix: int) -> Phase:
    """The dataflow phase holding the given hardware functions."""
    actors: list[Actor] = []
    channels: list[StreamChannel] = []
    inputs: list[str] = []
    outputs: list[str] = []

    def add_boundary_in(data: str, actor: str, port: str) -> None:
        if data not in inputs:
            inputs.append(data)
        channels.append(StreamChannel(Phase.BOUNDARY, data, actor, port))

    def add_boundary_out(actor: str, port: str, data: str) -> None:
        if data not in outputs:
            outputs.append(data)
        channels.append(StreamChannel(actor, port, Phase.BOUNDARY, data))

    hw = set(hw_funcs)
    # grayScale needs its dual-output form whenever a second consumer of
    # the gray image exists (in hardware or waiting in shared memory).
    gray_dual = "grayScale" in hw and ("histogram" in hw or "binarization" in hw)
    if "grayScale" in hw:
        if gray_dual:
            actors.append(
                Actor(
                    "grayScale",
                    stream_inputs=("imageIn",),
                    stream_outputs=("imageOutCH", "imageOutSEG"),
                    c_source=csrc.gray_scale_src(npix),
                )
            )
        else:
            actors.append(
                Actor(
                    "grayScale",
                    stream_inputs=("imageIn",),
                    stream_outputs=("imageOut",),
                    c_source=csrc.gray_scale_single_src(npix),
                )
            )
        add_boundary_in("rgbImage", "grayScale", "imageIn")
        ch_port = "imageOutCH" if gray_dual else "imageOut"
        if "histogram" in hw:
            pass  # connected below, in the histogram branch
        else:
            add_boundary_out("grayScale", ch_port, "grayImage")
        if gray_dual:
            if "binarization" in hw:
                pass  # connected below, in the binarization branch
            else:
                add_boundary_out("grayScale", "imageOutSEG", "grayImage")
    if "histogram" in hw:
        actors.append(
            Actor(
                "computeHistogram",
                stream_inputs=("grayScaleImage",),
                stream_outputs=("histogram",),
                c_source=csrc.compute_histogram_src(npix),
            )
        )
        if "grayScale" in hw:
            channels.append(
                StreamChannel("grayScale", "imageOutCH", "computeHistogram", "grayScaleImage")
            )
        else:
            add_boundary_in("grayImage", "computeHistogram", "grayScaleImage")
    if "otsuMethod" in hw:
        actors.append(
            Actor(
                "halfProbability",
                stream_inputs=("histogram",),
                stream_outputs=("probability",),
                c_source=csrc.half_probability_src(npix),
            )
        )
        if "histogram" in hw:
            channels.append(
                StreamChannel("computeHistogram", "histogram", "halfProbability", "histogram")
            )
        else:
            add_boundary_in("histData", "halfProbability", "histogram")
    if "binarization" in hw:
        actors.append(
            Actor(
                "segment",
                stream_inputs=("grayScaleImage", "otsuThreshold"),
                stream_outputs=("segmentedGrayImage",),
                c_source=csrc.segment_src(npix),
            )
        )
        if "grayScale" in hw:
            channels.append(
                StreamChannel("grayScale", "imageOutSEG", "segment", "grayScaleImage")
            )
        else:
            add_boundary_in("grayImage", "segment", "grayScaleImage")
        if "otsuMethod" in hw:
            channels.append(
                StreamChannel("halfProbability", "probability", "segment", "otsuThreshold")
            )
        else:
            add_boundary_in("threshold", "segment", "otsuThreshold")

    # Outputs: every datum a software consumer still needs leaves through
    # the boundary (grayImage exports are handled in the grayScale branch).
    if "binarization" in hw:
        add_boundary_out("segment", "segmentedGrayImage", "binImage")
    if "otsuMethod" in hw and "binarization" not in hw:
        add_boundary_out("halfProbability", "probability", "threshold")
    if "histogram" in hw and "otsuMethod" not in hw:
        add_boundary_out("computeHistogram", "histogram", "histData")

    return Phase(
        name="hwPipeline",
        actors=actors,
        channels=channels,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )


@lru_cache(maxsize=8)
def _synthetic_inputs(
    width: int, height: int, seed: int
) -> tuple[np.ndarray, dict[str, np.ndarray | int]]:
    """The packed synthetic scene and its golden pipeline, shared by
    every app built with the same ``(width, height, seed)``.

    All three steps are pure functions of those three numbers, and a DSE
    campaign builds one app per candidate from the same scene.  The
    arrays are read-only: ``readImage`` hands ``packed`` straight to the
    simulator, so a write through any alias raises instead of corrupting
    the next app's input.
    """
    packed = pack_rgb(synthetic_scene(width, height, seed=seed)).astype(np.int32)
    golden = golden_pipeline(packed)
    for value in (packed, *golden.values()):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return packed, golden


def _hw_is_contiguous(hw: frozenset[str]) -> bool:
    idx = sorted(_CHAIN.index(f) for f in hw if f != "binarization")
    core = [i for i in idx]
    return all(b - a == 1 for a, b in zip(core, core[1:]))


def _hw_is_acyclic(hw: frozenset[str]) -> bool:
    """A phase must not need a software stage's output that itself
    depends on the phase: hardware binarization with a software
    otsuMethod downstream of hardware gray/histogram is circular."""
    if "binarization" in hw and "otsuMethod" not in hw:
        return not ({"grayScale", "histogram"} & hw)
    return True


def buildable_hw_sets() -> list[frozenset[str]]:
    """All hardware subsets the phase builder supports (DSE search space).

    The accelerable functions must be contiguous in the pipeline (a
    phase is one connected dataflow); the empty set is the all-software
    solution.
    """
    from itertools import combinations

    out: list[frozenset[str]] = [frozenset()]
    for r in range(1, len(_CHAIN) + 1):
        for combo in combinations(_CHAIN, r):
            hw = frozenset(combo)
            if _hw_is_contiguous(hw) and _hw_is_acyclic(hw):
                out.append(hw)
    return out


def build_otsu_app(
    arch: int,
    *,
    width: int = 64,
    height: int = 64,
    seed: int = 2016,
    rgb: "np.ndarray | None" = None,
) -> OtsuApplication:
    """Build architecture *arch* (1-4, Table I).

    Uses the synthetic width×height scene unless *rgb* supplies a real
    (H, W, 3) image.
    """
    if arch not in ARCHITECTURES:
        raise ReproError(f"unknown architecture {arch}; Table I defines 1..4")
    return build_otsu_custom(
        ARCHITECTURES[arch], arch=arch, width=width, height=height, seed=seed, rgb=rgb
    )


def build_otsu_custom(
    hw: frozenset[str] | set[str],
    *,
    arch: int = 0,
    width: int = 64,
    height: int = 64,
    seed: int = 2016,
    rgb: "np.ndarray | None" = None,
) -> OtsuApplication:
    """Build an Otsu solution with an arbitrary hardware set (DSE entry).

    ``hw`` must be a subset of the four accelerable functions and
    contiguous in the pipeline (see :func:`buildable_hw_sets`).  *rgb*
    supplies a real (H, W, 3) image instead of the synthetic scene (its
    shape overrides *width*/*height*).
    """
    hw = frozenset(hw)
    unknown = hw - set(_CHAIN)
    if unknown:
        raise ReproError(f"unknown functions in hw set: {sorted(unknown)}")
    if not _hw_is_contiguous(hw):
        raise ReproError("hardware functions must be contiguous in the pipeline")
    if not _hw_is_acyclic(hw):
        raise ReproError(
            "hardware binarization with software otsuMethod downstream of "
            "hardware stages would make the phase cyclic"
        )
    if rgb is not None:
        rgb = np.asarray(rgb)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ReproError("rgb image must be (H, W, 3)")
        height, width = rgb.shape[:2]
        packed = pack_rgb(rgb.astype(np.uint8)).astype(np.int32)
        golden = golden_pipeline(packed)
    else:
        packed, shared = _synthetic_inputs(width, height, seed)
        golden = dict(shared)  # each app owns its dict; the arrays are shared
    npix = width * height

    htg = HTG(f"otsuArch{arch}")
    htg.add(Task("readImage", outputs=("rgbImage",), io=True,
                 sw_cycles=SW_COST["readImage"](npix)))
    htg.add(Task("writeImage", inputs=("binImage",), io=True,
                 sw_cycles=SW_COST["writeImage"](npix)))

    phase: Phase | None = None
    if hw:
        phase = _build_phase([f for f in _CHAIN if f in hw], npix)
        htg.add(phase)

    # Software tasks for the functions not in hardware.
    for func in _CHAIN:
        if func in hw:
            continue
        htg.add(
            Task(
                func,
                inputs=_CONSUMES[func],
                outputs=(_PRODUCES[func],),
                sw_cycles=SW_COST[func](npix),
            )
        )

    # Precedence edges, derived from data production/consumption.
    producer: dict[str, str] = {"rgbImage": "readImage"}
    for func in _CHAIN:
        node = phase.name if (phase is not None and func in hw) else func
        producer[_PRODUCES[func]] = node
    if phase is not None:
        for item in phase.outputs:
            producer[item] = phase.name

    def consumers_of(node_name: str) -> tuple[str, ...]:
        if phase is not None and node_name == phase.name:
            return phase.inputs
        if node_name == "writeImage":
            return ("binImage",)
        return _CONSUMES.get(node_name, ())

    for node_name in list(htg.nodes):
        for item in consumers_of(node_name):
            src = producer[item]
            if src != node_name and (src, node_name) not in htg.edges:
                htg.add_edge(src, node_name)

    partition = Partition.from_hw_set(htg, {phase.name} if phase is not None else set())

    # Behaviours: software tasks + actor functional models.
    behaviors: dict[str, Behavior] = {
        "readImage": Behavior(lambda: packed, sw_cycles=lambda: SW_COST["readImage"](npix)),
        "writeImage": Behavior(lambda img: None,
                               sw_cycles=lambda img: SW_COST["writeImage"](npix)),
        "grayScale": Behavior(golden_grayscale,
                              sw_cycles=lambda a: SW_COST["grayScale"](npix)),
        "histogram": Behavior(golden_histogram,
                              sw_cycles=lambda a: SW_COST["histogram"](npix)),
        "otsuMethod": Behavior(
            lambda hist: np.array([golden_otsu_threshold(hist, npix)], dtype=np.int32),
            sw_cycles=lambda a: SW_COST["otsuMethod"](npix),
        ),
        "binarization": Behavior(
            lambda gray, thr: golden_binarize(gray, int(np.asarray(thr).reshape(-1)[0])),
            sw_cycles=lambda a, b: SW_COST["binarization"](npix),
        ),
    }
    if phase is not None:
        # Dataflow actors (hardware functional models).
        if phase.has_actor("grayScale"):
            if len(phase.actor("grayScale").stream_outputs) == 2:
                behaviors[f"{phase.name}.grayScale"] = Behavior(
                    lambda p: (golden_grayscale(p), golden_grayscale(p))
                )
            else:
                behaviors[f"{phase.name}.grayScale"] = Behavior(golden_grayscale)
        behaviors[f"{phase.name}.computeHistogram"] = Behavior(golden_histogram)
        behaviors[f"{phase.name}.halfProbability"] = Behavior(
            lambda hist: np.array([golden_otsu_threshold(hist, npix)], dtype=np.int32)
        )
        behaviors[f"{phase.name}.segment"] = Behavior(
            lambda gray, thr: golden_binarize(gray, int(np.asarray(thr).reshape(-1)[0]))
        )

    extra_directives: dict[str, list[Directive]] = {
        "grayScale": [
            allocation("grayScale", "mul_small", 1),
            pipeline("grayScale", "i"),
        ],
        "computeHistogram": [pipeline("computeHistogram", "i")],
        "segment": [pipeline("segment", "i")],
        "halfProbability": [],
    }

    c_sources = (
        {a.name: a.c_source for a in phase.actors if a.c_source is not None}
        if phase is not None
        else {}
    )

    return OtsuApplication(
        arch=arch,
        width=width,
        height=height,
        htg=htg,
        partition=partition,
        phase_name=phase.name if phase is not None else None,
        c_sources=c_sources,
        behaviors=behaviors,
        extra_directives={
            k: v for k, v in extra_directives.items() if k in c_sources
        },
        packed_scene=packed,
        golden=golden,
    )
