"""Composable search-space description for design-space exploration.

A :class:`SearchSpace` is a cartesian product of named :class:`Axis`
values filtered by named constraints — the COSMOS-style coordinate
space the campaign runner sweeps: *what* runs in hardware (the
partition), *how* each core is synthesized (HLS directive configs),
and how the memory system is provisioned (DMA policy, HP-port
bandwidth).  Candidates are plain JSON-able value maps with a stable
content id (:attr:`Candidate.cid`), so a campaign journal written by
one process can be resumed — or verified — by any other.

The Otsu case study gets two factory presets:

* :func:`otsu_space` — the full coupled space: every buildable
  partition × every PIPELINE subset over the actors that partition
  instantiates × DMA pairing policy × HP-port words/cycle;
* :func:`otsu_directives_space` — the directives-only slice (partition
  pinned to the Table-I Arch4 set), the fn-cache hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterator

from repro.flow.journal import stable_digest
from repro.util.errors import ReproError

#: Table-I function -> Listing-4 actor whose main loop can PIPELINE.
PIPELINEABLE_ACTOR_OF = {
    "grayScale": "grayScale",
    "histogram": "computeHistogram",
    "binarization": "segment",
}

#: DMA provisioning policies: the paper's paired dual-channel DMA vs
#: the SDSoC-like one-DMA-per-boundary-stream baseline.
DMA_POLICIES = ("paired", "per-stream")


def _canon_value(value: object) -> object:
    """JSON-canonical form of one (frozen) axis value: tuples -> lists."""
    if isinstance(value, tuple):
        return [_canon_value(v) for v in value]
    return value


def _freeze_value(value: object) -> object:
    """Hashable in-memory form of one axis value (lists become tuples)."""
    if isinstance(value, (tuple, list)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    return value


@dataclass(frozen=True)
class Candidate:
    """One point of a search space: a frozen axis-name -> value map."""

    values: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, mapping: dict[str, object]) -> "Candidate":
        return cls(
            tuple(sorted((k, _freeze_value(v)) for k, v in mapping.items()))
        )

    @classmethod
    def from_dict(cls, mapping: dict[str, object]) -> "Candidate":
        """Rebuild a candidate from its JSON form (journal resume)."""
        return cls.make(mapping)

    def get(self, axis: str, default: object = None) -> object:
        for k, v in self.values:
            if k == axis:
                return v
        return default

    def as_dict(self) -> dict[str, object]:
        """JSON-canonical dict — the journaled form; also the cid input."""
        return {k: _canon_value(v) for k, v in self.values}

    @cached_property
    def cid(self) -> str:
        """Stable content id of this candidate (order-independent)."""
        return stable_digest(self.as_dict())[:16]

    def label(self) -> str:
        """Human-readable one-liner for tables and logs."""
        parts = []
        for k, v in self.values:
            if isinstance(v, tuple):
                parts.append(f"{k}={'+'.join(str(x) for x in v) or 'none'}")
            else:
                parts.append(f"{k}={v}")
        return " ".join(parts)


@dataclass(frozen=True)
class Axis:
    """One named dimension of the space with its finite value set."""

    name: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ReproError(f"axis {self.name!r} has no values")
        frozen = tuple(_freeze_value(v) for v in self.values)
        if len(set(frozen)) != len(frozen):
            raise ReproError(f"axis {self.name!r} has duplicate values")
        object.__setattr__(self, "values", frozen)


@dataclass(frozen=True)
class Constraint:
    """A named predicate over a candidate-value dict.

    The name (not the function) participates in the space description —
    and therefore in the campaign identity digest — so two processes
    agreeing on the description agree on the candidate list.
    """

    name: str
    predicate: Callable[[dict[str, object]], bool]

    def __call__(self, values: dict[str, object]) -> bool:
        return bool(self.predicate(values))


@dataclass(frozen=True)
class SearchSpace:
    """Axes × constraints; enumerates candidates deterministically."""

    name: str
    axes: tuple[Axis, ...]
    constraints: tuple[Constraint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ReproError(f"space {self.name!r} has duplicate axis names")

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise ReproError(f"space {self.name!r} has no axis {name!r}")

    def __iter__(self) -> Iterator[Candidate]:
        """Candidates in axis-declaration × value-declaration order."""
        names = [a.name for a in self.axes]
        for combo in product(*(a.values for a in self.axes)):
            values = dict(zip(names, combo))
            if all(c(values) for c in self.constraints):
                yield Candidate.make(values)

    def candidates(self) -> list[Candidate]:
        return list(self)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def describe(self) -> dict:
        """JSON description — part of the campaign identity digest."""
        return {
            "name": self.name,
            "axes": {a.name: _canon_value(a.values) for a in self.axes},
            "constraints": [c.name for c in self.constraints],
        }

    def digest(self) -> str:
        """Digest over the description *and* the enumerated candidates."""
        return stable_digest(
            {
                "space": self.describe(),
                "cids": [c.cid for c in self],
            }
        )


def _subsets(items: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """All subsets of *items*, each sorted, smallest first."""
    out: list[tuple[str, ...]] = []
    for mask in range(1 << len(items)):
        out.append(tuple(sorted(items[i] for i in range(len(items)) if mask >> i & 1)))
    return tuple(sorted(set(out), key=lambda s: (len(s), s)))


def actors_of(hw: tuple[str, ...] | frozenset[str]) -> tuple[str, ...]:
    """Pipelineable actor names instantiated by hardware set *hw*."""
    return tuple(
        sorted(
            PIPELINEABLE_ACTOR_OF[f] for f in hw if f in PIPELINEABLE_ACTOR_OF
        )
    )


def otsu_space(
    *,
    hw_sets: "list[frozenset[str]] | None" = None,
    pipeline_mode: str = "subsets",
    dma_policies: tuple[str, ...] = DMA_POLICIES,
    hp_words: tuple[int, ...] = (2,),
    name: str = "otsu-full",
) -> SearchSpace:
    """The coupled Otsu search space.

    *hw_sets* defaults to every buildable partition (including the
    all-software solution).  *pipeline_mode* selects the directive axis:
    ``"subsets"`` sweeps every PIPELINE subset over the instantiated
    actors, ``"extremes"`` only none-vs-all, ``"all"`` pins every
    pipelineable actor on.  Coupling constraints keep the product
    honest: a PIPELINE set must address actors the partition actually
    instantiates, and the all-software candidate is canonicalized to one
    DMA/HP configuration (those axes do not exist without hardware).
    """
    from repro.apps.otsu.app import buildable_hw_sets

    if hw_sets is None:
        hw_sets = buildable_hw_sets()
    hw_values = tuple(
        sorted((tuple(sorted(hw)) for hw in hw_sets), key=lambda h: (len(h), h))
    )
    all_actors = tuple(sorted(PIPELINEABLE_ACTOR_OF.values()))
    if pipeline_mode == "subsets":
        pipe_values = _subsets(all_actors)
    elif pipeline_mode == "extremes":
        pipe_values = ((), all_actors)
    elif pipeline_mode == "all":
        pipe_values = (all_actors,)
    else:
        raise ReproError(f"unknown pipeline_mode {pipeline_mode!r}")

    def _pipelined_present(values: dict[str, object]) -> bool:
        present = set(actors_of(values["hw"]))
        return set(values["pipelined"]) <= present

    def _allsw_canonical(values: dict[str, object]) -> bool:
        if values["hw"]:
            return True
        return (
            values["dma"] == dma_policies[0]
            and values["hp_words"] == hp_words[0]
            and values["pipelined"] == ()
        )

    return SearchSpace(
        name=name,
        axes=(
            Axis("hw", hw_values),
            Axis("pipelined", pipe_values),
            Axis("dma", tuple(dma_policies)),
            Axis("hp_words", tuple(hp_words)),
        ),
        constraints=(
            Constraint("pipelined-subset-of-instantiated", _pipelined_present),
            Constraint("all-sw-canonical", _allsw_canonical),
        ),
    )


def otsu_directives_space(
    *,
    hw: frozenset[str] | None = None,
    name: str = "otsu-directives",
) -> SearchSpace:
    """Directives-only slice: partition pinned (default Table-I Arch4).

    Every candidate shares every C source byte-for-byte and differs only
    in its PIPELINE directive subset — the per-function frontend memo's
    hot loop.
    """
    from repro.apps.otsu.app import ARCHITECTURES

    hw = frozenset(ARCHITECTURES[4]) if hw is None else frozenset(hw)
    return otsu_space(
        hw_sets=[hw],
        pipeline_mode="subsets",
        dma_policies=("paired",),
        hp_words=(2,),
        name=name,
    )


def partition_candidate(hw: frozenset[str] | set[str] | tuple[str, ...]) -> Candidate:
    """The partition-sweep point for hardware set *hw*: every actor it
    instantiates pipelined, paired DMAs, two HP words per cycle — the
    Table-I build of that partition."""
    hw = tuple(sorted(hw))
    return Candidate.make(
        {"hw": hw, "pipelined": actors_of(hw), "dma": "paired", "hp_words": 2}
    )


def sdsoc_baseline_candidate(
    space_hp_words: int = 2,
) -> Candidate:
    """The SDSoC-policy reference point: Table-I Arch4 functions in
    hardware, every actor pipelined, one DMA per boundary stream."""
    from repro.apps.otsu.app import ARCHITECTURES

    hw = tuple(sorted(ARCHITECTURES[4]))
    return Candidate.make(
        {
            "hw": hw,
            "pipelined": actors_of(hw),
            "dma": "per-stream",
            "hp_words": space_hp_words,
        }
    )


__all__ = [
    "Axis",
    "Candidate",
    "Constraint",
    "DMA_POLICIES",
    "PIPELINEABLE_ACTOR_OF",
    "SearchSpace",
    "actors_of",
    "otsu_directives_space",
    "otsu_space",
    "partition_candidate",
    "sdsoc_baseline_candidate",
]
