"""AXI DMA core model.

The paper's tool "adds a DMA core for managing I/O via AXI-Stream"
(Section IV-A): the DMA bridges shared DDR (through a PS7 HP port) and
the accelerators' AXI-Stream pipelines.  A full core has two channels —
MM2S (memory → stream) and S2MM (stream → memory) — each backed by a
data FIFO, which is where the RAMB18 blocks of the base platform go.

The single-channel policy the paper contrasts with SDSoC (Section VII)
is expressed by instantiating cores with only one direction enabled.
"""

from __future__ import annotations

from functools import lru_cache

from repro.hls.resources import ResourceUsage
from repro.soc.ip import InterfacePin, IpCore, PinKind
from repro.util.errors import IntegrationError

#: Calibrated per-direction costs of the AXI DMA (xc7z020 numbers).
_CHANNEL_COST = ResourceUsage(lut=630, ff=880, bram18=2)
_BASE_COST = ResourceUsage(lut=210, ff=260)


@lru_cache(maxsize=64)
def _dma_parts(
    mm2s: bool, s2mm: bool, mm2s_width: int, s2mm_width: int
) -> tuple[tuple[InterfacePin, ...], ResourceUsage]:
    """Pins and cost of one DMA configuration (immutable, so shared)."""
    pins = [
        InterfacePin("s_axi_lite_aclk", PinKind.CLOCK_IN),
        InterfacePin("axi_resetn", PinKind.RESET_IN),
        InterfacePin("S_AXI_LITE", PinKind.AXI_LITE_SLAVE),
    ]
    resources = _BASE_COST
    if mm2s:
        pins.append(InterfacePin("M_AXI_MM2S", PinKind.AXI_FULL_MASTER))
        pins.append(InterfacePin("M_AXIS_MM2S", PinKind.AXIS_MASTER, mm2s_width))
        pins.append(InterfacePin("mm2s_introut", PinKind.INTERRUPT_OUT))
        resources = resources + _CHANNEL_COST
    if s2mm:
        pins.append(InterfacePin("M_AXI_S2MM", PinKind.AXI_FULL_MASTER))
        pins.append(InterfacePin("S_AXIS_S2MM", PinKind.AXIS_SLAVE, s2mm_width))
        pins.append(InterfacePin("s2mm_introut", PinKind.INTERRUPT_OUT))
        resources = resources + _CHANNEL_COST
    return tuple(pins), resources


def axi_dma(
    name: str,
    *,
    mm2s: bool = True,
    s2mm: bool = True,
    mm2s_width: int = 32,
    s2mm_width: int = 32,
) -> IpCore:
    """Build an AXI DMA cell with the requested channels and stream widths."""
    if not (mm2s or s2mm):
        raise IntegrationError(f"DMA {name!r} must enable at least one channel")
    pins, resources = _dma_parts(mm2s, s2mm, mm2s_width, s2mm_width)
    return IpCore(
        name=name,
        vlnv="xilinx.com:ip:axi_dma:7.1",
        pins=list(pins),
        resources=resources,
        params={
            "c_include_mm2s": int(mm2s),
            "c_include_s2mm": int(s2mm),
            "c_m_axis_mm2s_tdata_width": mm2s_width,
            "c_s_axis_s2mm_tdata_width": s2mm_width,
        },
    )
