"""Design-rule checks on a finished block design.

Checks mirror what Vivado's ``validate_bd_design`` catches:

* every clock/reset sink is driven exactly once;
* every AXI-Stream slave has exactly one driver; every AXI-Stream
  master drives exactly one sink (point-to-point);
* every AXI-Lite/full slave has at most one attached master;
* every AXI-Lite slave reachable from the GP interconnect has an
  address segment, and vice versa;
* no dangling AXI master interfaces.
"""

from __future__ import annotations

from repro.soc.blockdesign import BlockDesign, Connection
from repro.soc.ip import PinKind
from repro.util.errors import DrcError

#: (cell, pin) -> the connections on that pin, in connection order.
PinNets = dict[tuple[str, str], list[Connection]]


def run_drc(bd: BlockDesign) -> None:
    """Run all checks; raises :class:`DrcError` with the first violation."""
    drivers: PinNets = {}
    sinks: PinNets = {}
    for c in bd.connections:
        drivers.setdefault((c.dst_cell, c.dst_pin), []).append(c)
        sinks.setdefault((c.src_cell, c.src_pin), []).append(c)
    _check_single_drivers(bd, drivers)
    _check_stream_topology(bd, drivers, sinks)
    _check_master_fanout(bd, drivers, sinks)
    _check_addressing(bd, drivers)


def _check_single_drivers(bd: BlockDesign, drivers: PinNets) -> None:
    for cell in bd.cells.values():
        for pin in cell.pins:
            if pin.kind in (PinKind.CLOCK_IN, PinKind.RESET_IN):
                n = len(drivers.get((cell.name, pin.name), ()))
                if n == 0:
                    raise DrcError(f"{cell.name}.{pin.name}: {pin.kind.value} undriven")
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: {pin.kind.value} driven {n} times"
                    )


def _check_stream_topology(bd: BlockDesign, drivers: PinNets, sinks: PinNets) -> None:
    for cell in bd.cells.values():
        for pin in cell.pins_of_kind(PinKind.AXIS_SLAVE):
            n = len(drivers.get((cell.name, pin.name), ()))
            if n != 1:
                raise DrcError(
                    f"{cell.name}.{pin.name}: stream input has {n} drivers (needs 1)"
                )
        for pin in cell.pins_of_kind(PinKind.AXIS_MASTER):
            n = len(sinks.get((cell.name, pin.name), ()))
            if n != 1:
                raise DrcError(
                    f"{cell.name}.{pin.name}: stream output feeds {n} sinks (needs 1)"
                )


def _check_master_fanout(bd: BlockDesign, drivers: PinNets, sinks: PinNets) -> None:
    for cell in bd.cells.values():
        for kind in (PinKind.AXI_LITE_MASTER, PinKind.AXI_FULL_MASTER):
            for pin in cell.pins_of_kind(kind):
                n = len(sinks.get((cell.name, pin.name), ()))
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: AXI master drives {n} slaves"
                    )
                if n == 0:
                    raise DrcError(f"{cell.name}.{pin.name}: dangling AXI master")
        for kind in (PinKind.AXI_LITE_SLAVE, PinKind.AXI_FULL_SLAVE):
            for pin in cell.pins_of_kind(kind):
                n = len(drivers.get((cell.name, pin.name), ()))
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: AXI slave has {n} masters"
                    )


def _check_addressing(bd: BlockDesign, drivers: PinNets) -> None:
    assigned = {r.name for r in bd.address_map.ranges}
    # Lite slaves attached to an interconnect output must be addressed.
    for cell in bd.cells.values():
        for pin in cell.pins_of_kind(PinKind.AXI_LITE_SLAVE):
            nets = drivers.get((cell.name, pin.name))
            if not nets:
                continue
            src = bd.cell(nets[0].src_cell)
            if src.vlnv.startswith("xilinx.com:ip:axi_interconnect"):
                if cell.name not in assigned:
                    raise DrcError(
                        f"{cell.name}: AXI-Lite slave reachable from the bus "
                        "but has no address segment"
                    )
    for name in assigned:
        if name not in bd.cells:
            raise DrcError(f"address segment {name!r} references no cell")
