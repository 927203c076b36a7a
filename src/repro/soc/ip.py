"""IP-core model: cells with typed bus-interface pins.

Every block-design cell is an :class:`IpCore` holding named
:class:`InterfacePin` entries.  Pin kinds are paired master/slave so the
block design can check connection legality (an AXI-Stream master only
drives an AXI-Stream slave, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.hls.resources import ResourceUsage
from repro.util.errors import IntegrationError


class PinKind(Enum):
    AXI_LITE_MASTER = "axi_lite_master"
    AXI_LITE_SLAVE = "axi_lite_slave"
    AXI_FULL_MASTER = "axi_full_master"
    AXI_FULL_SLAVE = "axi_full_slave"
    AXIS_MASTER = "axis_master"
    AXIS_SLAVE = "axis_slave"
    CLOCK_OUT = "clock_out"
    CLOCK_IN = "clock_in"
    RESET_OUT = "reset_out"
    RESET_IN = "reset_in"
    INTERRUPT_OUT = "interrupt_out"
    INTERRUPT_IN = "interrupt_in"


#: master kind -> compatible slave kind.
MATING: dict[PinKind, PinKind] = {
    PinKind.AXI_LITE_MASTER: PinKind.AXI_LITE_SLAVE,
    PinKind.AXI_FULL_MASTER: PinKind.AXI_FULL_SLAVE,
    PinKind.AXIS_MASTER: PinKind.AXIS_SLAVE,
    PinKind.CLOCK_OUT: PinKind.CLOCK_IN,
    PinKind.RESET_OUT: PinKind.RESET_IN,
    PinKind.INTERRUPT_OUT: PinKind.INTERRUPT_IN,
}

DRIVER_KINDS = frozenset(MATING)


@dataclass(frozen=True)
class InterfacePin:
    """One bus interface (or clock/reset pin) of an IP core."""

    name: str
    kind: PinKind
    data_width: int = 32

    def is_driver(self) -> bool:
        return self.kind in DRIVER_KINDS


@dataclass
class IpCore:
    """A block-design cell.

    ``vlnv`` follows the Xilinx vendor:library:name:version convention so
    the tcl backends can reference real IP identifiers.  ``is_hard``
    marks silicon blocks (the PS7) that consume no PL resources.
    """

    name: str
    vlnv: str
    pins: list[InterfacePin] = field(default_factory=list)
    resources: ResourceUsage = field(default_factory=ResourceUsage)
    params: dict[str, object] = field(default_factory=dict)
    is_hard: bool = False

    def pin(self, name: str) -> InterfacePin:
        for p in self.pins:
            if p.name == name:
                return p
        raise IntegrationError(f"cell {self.name!r} has no pin {name!r}")

    def has_pin(self, name: str) -> bool:
        return any(p.name == name for p in self.pins)

    def pins_of_kind(self, kind: PinKind) -> list[InterfacePin]:
        return [p for p in self.pins if p.kind is kind]


# Pins are immutable, so the cell factories share them between cells
# (each cell still gets its own ``pins`` list).
_RESET_PINS = (
    InterfacePin("slowest_sync_clk", PinKind.CLOCK_IN),
    InterfacePin("ext_reset_in", PinKind.RESET_IN),
    InterfacePin("peripheral_aresetn", PinKind.RESET_OUT),
)
_RESET_COST = ResourceUsage(lut=19, ff=33)
_HLS_CONTROL_PINS = (
    InterfacePin("ap_clk", PinKind.CLOCK_IN),
    InterfacePin("ap_rst_n", PinKind.RESET_IN),
)
_HLS_LITE_PINS = (
    InterfacePin("s_axi_ctrl", PinKind.AXI_LITE_SLAVE),
    InterfacePin("interrupt", PinKind.INTERRUPT_OUT),
)


def proc_sys_reset(name: str = "rst_ps7_0_100M") -> IpCore:
    """Processor system reset block (one per clock domain)."""
    return IpCore(
        name=name,
        vlnv="xilinx.com:ip:proc_sys_reset:5.0",
        pins=list(_RESET_PINS),
        resources=_RESET_COST,
    )


def hls_core(name: str, vlnv_name: str, synthesis_result) -> IpCore:
    """Wrap a :class:`~repro.hls.project.SynthesisResult` as a cell.

    Pin set mirrors the resolved interface: an AXI-Lite slave when the
    core has a register file, one AXIS pin per stream, one AXI master
    per ``m_axi`` array port, plus clock/reset/interrupt.
    """
    iface = synthesis_result.iface
    pins = list(_HLS_CONTROL_PINS)
    if iface.has_lite():
        pins.extend(_HLS_LITE_PINS)
    for s in iface.streams:
        kind = PinKind.AXIS_SLAVE if s.direction == "in" else PinKind.AXIS_MASTER
        pins.append(InterfacePin(s.name, kind, data_width=s.width))
    for port in iface.m_axi_ports:
        pins.append(InterfacePin(f"m_axi_{port}", PinKind.AXI_FULL_MASTER))
    return IpCore(
        name=name,
        vlnv=f"xilinx.com:hls:{vlnv_name}:1.0",
        pins=pins,
        resources=synthesis_result.resources,
        params={"top": synthesis_result.top},
    )
