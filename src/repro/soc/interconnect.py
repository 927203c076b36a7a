"""AXI interconnect model.

Two instances appear in a typical generated design (and in the paper's
Fig. 10 diagrams): the GP-side interconnect fanning the PS7's M_AXI_GP0
out to all AXI-Lite control slaves, and the HP-side ("mem") interconnect
funneling the DMA masters into S_AXI_HP0.
"""

from __future__ import annotations

from functools import lru_cache

from repro.hls.resources import ResourceUsage
from repro.soc.ip import InterfacePin, IpCore, PinKind
from repro.util.errors import IntegrationError

_BASE = ResourceUsage(lut=240, ff=330)
_PER_SLAVE_PORT = ResourceUsage(lut=120, ff=160)  # one per attached master
_PER_MASTER_PORT = ResourceUsage(lut=150, ff=190)  # one per attached slave


@lru_cache(maxsize=64)
def _interconnect_parts(
    num_masters_in: int, num_slaves_out: int, lite: bool
) -> tuple[tuple[InterfacePin, ...], ResourceUsage]:
    """Pins and cost of one interconnect shape (immutable, so shared)."""
    in_kind = PinKind.AXI_LITE_SLAVE if lite else PinKind.AXI_FULL_SLAVE
    out_kind = PinKind.AXI_LITE_MASTER if lite else PinKind.AXI_FULL_MASTER
    pins = [
        InterfacePin("ACLK", PinKind.CLOCK_IN),
        InterfacePin("ARESETN", PinKind.RESET_IN),
    ]
    for i in range(num_masters_in):
        pins.append(InterfacePin(f"S{i:02d}_AXI", in_kind))
    for i in range(num_slaves_out):
        pins.append(InterfacePin(f"M{i:02d}_AXI", out_kind))
    resources = (
        _BASE
        + _PER_SLAVE_PORT.scaled(num_masters_in)
        + _PER_MASTER_PORT.scaled(num_slaves_out)
    )
    return tuple(pins), resources


def axi_interconnect(
    name: str,
    *,
    num_masters_in: int,
    num_slaves_out: int,
    lite: bool,
) -> IpCore:
    """An N-in (from masters), M-out (to slaves) AXI interconnect.

    ``lite`` selects the protocol of the attached buses: AXI4-Lite for
    the control plane, full AXI4 for the memory plane.
    """
    if num_masters_in < 1 or num_slaves_out < 1:
        raise IntegrationError(
            f"interconnect {name!r} needs at least one input and one output"
        )
    pins, resources = _interconnect_parts(num_masters_in, num_slaves_out, lite)
    return IpCore(
        name=name,
        vlnv="xilinx.com:ip:axi_interconnect:2.1",
        pins=list(pins),
        resources=resources,
        params={
            "NUM_SI": num_masters_in,
            "NUM_MI": num_slaves_out,
            "PROTOCOL": "AXI4LITE" if lite else "AXI4",
        },
    )


@lru_cache(maxsize=64)
def _concat_pins(width: int) -> tuple[InterfacePin, ...]:
    """Pins of a *width*-input concat block (immutable, so shared)."""
    return (InterfacePin("dout", PinKind.INTERRUPT_OUT),) + tuple(
        InterfacePin(f"In{i}", PinKind.INTERRUPT_IN) for i in range(width)
    )


def axis_interrupt_concat(name: str, width: int) -> IpCore:
    """Concat block gathering interrupt lines into the PS7 IRQ_F2P port."""
    return IpCore(
        name=name,
        vlnv="xilinx.com:ip:xlconcat:2.1",
        pins=list(_concat_pins(width)),
        resources=ResourceUsage(lut=0, ff=0),
        params={"NUM_PORTS": width},
    )
