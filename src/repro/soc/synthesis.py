"""Simulated logic synthesis, place & route, and bitstream generation.

Aggregates the block design's calibrated per-cell resource estimates,
checks them against the device budget (the Zedboard's xc7z020 by
default), models a routed clock result, and emits a deterministic
:class:`Bitstream` artifact whose "contents" are a digest of the design
— two identical designs produce identical bitstreams, which the tcl
round-trip test exploits.

The digest is computed on first read of :attr:`Bitstream.digest`, from
the block design :func:`run_synthesis` checked: a caller that only ranks
the design by its utilization (the DSE engine) never hashes it.  The
design must therefore not change after synthesis, or the digest would
describe a design that was never implemented.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.hls.resources import ResourceUsage
from repro.soc.blockdesign import BlockDesign
from repro.soc.ip import PinKind
from repro.util.errors import SocError


@dataclass(frozen=True)
class DeviceBudget:
    """Resource capacity of one FPGA part."""

    part: str
    lut: int
    ff: int
    bram18: int
    dsp: int


#: The Zedboard device (Zynq XC7Z020: 53,200 LUT / 106,400 FF /
#: 140 BRAM36 = 280 RAMB18 / 220 DSP48E1).
XC7Z020 = DeviceBudget("xc7z020clg484-1", lut=53_200, ff=106_400, bram18=280, dsp=220)


@dataclass(frozen=True, eq=False, repr=False)
class Bitstream:
    """The output artifact of the implementation flow.

    :attr:`digest` is computed on first read from the design
    :func:`run_synthesis` checked, and then kept in place of the design;
    that design must not change in between.  Equality, ``repr``, hashing
    and pickles cover the five fields and the digest, as if the digest
    were a sixth field: a pickle carries the digest, never the design.
    """

    design: str
    part: str
    utilization: ResourceUsage
    budget: DeviceBudget
    achieved_clock_mhz: float
    #: The synthesized design until :attr:`digest` is read, then ``None``.
    _bd: BlockDesign | None = None

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the synthesized design's canonical text."""
        digest = _design_digest(self._bd)
        object.__setattr__(self, "_bd", None)
        return digest

    def _fields(self) -> tuple:
        return (
            self.design,
            self.part,
            self.utilization,
            self.budget,
            self.achieved_clock_mhz,
            self.digest,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Bitstream(design={self.design!r}, part={self.part!r}, "
            f"utilization={self.utilization!r}, budget={self.budget!r}, "
            f"achieved_clock_mhz={self.achieved_clock_mhz!r}, digest={self.digest!r})"
        )

    def __getstate__(self) -> dict:
        return {**vars(self), "digest": self.digest, "_bd": None}

    def utilization_percent(self) -> dict[str, float]:
        b = self.budget
        u = self.utilization
        return {
            "LUT": 100.0 * u.lut / b.lut,
            "FF": 100.0 * u.ff / b.ff,
            "RAMB18": 100.0 * u.bram18 / b.bram18,
            "DSP": 100.0 * u.dsp / b.dsp,
        }


#: pin kind -> its digest spelling (``Enum.value`` is a property lookup).
_KIND_TAG = {kind: kind.value for kind in PinKind}


def _design_digest(bd: BlockDesign) -> str:
    """SHA-256 of the design's canonical text: cells and their pins by
    name, connections by key, address ranges by base — hashed as one
    string."""
    tag = _KIND_TAG
    parts: list[str] = []
    for name in sorted(bd.cells):
        cell = bd.cells[name]
        parts.append(f"cell {name} {cell.vlnv} {sorted(cell.params.items())!r}\n")
        parts.extend(
            [f"  pin {pin.name} {tag[pin.kind]} {pin.data_width}\n" for pin in cell.pins]
        )
    parts.extend([f"conn {key}\n" for key in sorted([c.key() for c in bd.connections])])
    parts.extend(
        [
            f"addr {rng.name} {rng.base:#x} {rng.size:#x}\n"
            for rng in sorted(bd.address_map.ranges, key=lambda r: r.base)
        ]
    )
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def run_synthesis(
    bd: BlockDesign,
    budget: DeviceBudget = XC7Z020,
    *,
    target_clock_mhz: float = 100.0,
) -> Bitstream:
    """Synthesize/implement *bd*; raises :class:`SocError` if it won't fit.

    The bitstream hashes *bd* when its :attr:`~Bitstream.digest` is first
    read, so *bd* must not change after this call.
    """
    usage = bd.total_resources()
    for field_name in ("lut", "ff", "bram18", "dsp"):
        used = getattr(usage, field_name)
        cap = getattr(budget, field_name)
        if used > cap:
            raise SocError(
                f"design {bd.name!r} does not fit {budget.part}: "
                f"{field_name.upper()} {used} > {cap}"
            )

    # Routed-clock model: congestion degrades timing as LUTs fill up.
    fill = usage.lut / budget.lut
    achieved = target_clock_mhz * (1.0 if fill < 0.7 else max(0.6, 1.0 - (fill - 0.7)))

    return Bitstream(
        design=bd.name,
        part=budget.part,
        utilization=usage,
        budget=budget,
        achieved_clock_mhz=round(achieved, 2),
        _bd=bd,
    )
