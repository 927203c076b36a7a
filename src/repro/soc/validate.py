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

_CLOCK_IN, _RESET_IN = PinKind.CLOCK_IN, PinKind.RESET_IN
_AXIS_SLAVE, _AXIS_MASTER = PinKind.AXIS_SLAVE, PinKind.AXIS_MASTER
_LITE_MASTER, _FULL_MASTER = PinKind.AXI_LITE_MASTER, PinKind.AXI_FULL_MASTER
_LITE_SLAVE, _FULL_SLAVE = PinKind.AXI_LITE_SLAVE, PinKind.AXI_FULL_SLAVE


def _note(first: list, check: int, rank: tuple[int, int, int], msg: str) -> None:
    """Keep *msg* if it precedes the check's first violation so far."""
    held = first[check]
    if held is None or rank < held[0]:
        first[check] = (rank, msg)


def run_drc(bd: BlockDesign) -> None:
    """Run all checks; raises :class:`DrcError` with the first violation.

    One walk over every cell's pins.  "First" is the order of four
    sequential passes — clock/reset drivers, stream topology, AXI master
    fan-out, then addressing — each over the cells in design order and,
    per cell, over pin kinds in turn (stream slaves before masters; lite
    masters, full masters, lite slaves, then full slaves), each kind in
    pin order.  A violation is ranked ``(cell, kind, pin)`` within its
    check.
    """
    drivers: PinNets = {}
    sinks: PinNets = {}
    for c in bd.connections:
        drivers.setdefault((c.dst_cell, c.dst_pin), []).append(c)
        sinks.setdefault((c.src_cell, c.src_pin), []).append(c)
    # Per check (streams, fan-out): (rank, message) of its first
    # violation.  Clock/reset violations precede both and raise at once.
    first: list = [None, None]
    # (cell, driving cell) of every driven lite slave, for addressing.
    lite_driven: list[tuple[str, str]] = []
    for ci, cell in enumerate(bd.cells.values()):
        name = cell.name
        for pi, pin in enumerate(cell.pins):
            kind = pin.kind
            if kind is _CLOCK_IN or kind is _RESET_IN:
                n = len(drivers.get((name, pin.name), ()))
                if n == 0:
                    raise DrcError(f"{name}.{pin.name}: {kind.value} undriven")
                if n > 1:
                    raise DrcError(f"{name}.{pin.name}: {kind.value} driven {n} times")
            elif kind is _AXIS_SLAVE:
                n = len(drivers.get((name, pin.name), ()))
                if n != 1:
                    _note(first, 0, (ci, 0, pi),
                          f"{name}.{pin.name}: stream input has {n} drivers (needs 1)")
            elif kind is _AXIS_MASTER:
                n = len(sinks.get((name, pin.name), ()))
                if n != 1:
                    _note(first, 0, (ci, 1, pi),
                          f"{name}.{pin.name}: stream output feeds {n} sinks (needs 1)")
            elif kind is _LITE_MASTER or kind is _FULL_MASTER:
                n = len(sinks.get((name, pin.name), ()))
                if n != 1:
                    _note(first, 1, (ci, int(kind is _FULL_MASTER), pi),
                          f"{name}.{pin.name}: AXI master drives {n} slaves" if n
                          else f"{name}.{pin.name}: dangling AXI master")
            elif kind is _LITE_SLAVE or kind is _FULL_SLAVE:
                nets = drivers.get((name, pin.name))
                if nets:
                    if len(nets) > 1:
                        _note(first, 1, (ci, 2 + (kind is _FULL_SLAVE), pi),
                              f"{name}.{pin.name}: AXI slave has {len(nets)} masters")
                    if kind is _LITE_SLAVE:
                        lite_driven.append((name, nets[0].src_cell))
    for held in first:
        if held is not None:
            raise DrcError(held[1])
    _check_addressing(bd, lite_driven)


def _check_addressing(bd: BlockDesign, lite_driven: list[tuple[str, str]]) -> None:
    assigned = {r.name for r in bd.address_map.ranges}
    # Lite slaves attached to an interconnect output must be addressed.
    for name, src_cell in lite_driven:
        src = bd.cell(src_cell)
        if src.vlnv.startswith("xilinx.com:ip:axi_interconnect"):
            if name not in assigned:
                raise DrcError(
                    f"{name}: AXI-Lite slave reachable from the bus "
                    "but has no address segment"
                )
    for name in assigned:
        if name not in bd.cells:
            raise DrcError(f"address segment {name!r} references no cell")
