"""Block-design graph: cells + typed connections + the address map.

This is the in-memory equivalent of a Vivado ``.bd``: what the
integrator builds directly and what the tcl interpreter
(:mod:`repro.tcl.runner`) rebuilds from the generated script — the two
must match exactly, which an integration test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.resources import ResourceUsage
from repro.soc.address_map import AddressMap
from repro.soc.ip import MATING, IpCore, PinKind
from repro.util.errors import IntegrationError


@dataclass(frozen=True)
class Connection:
    """Directed net: (driver cell, driver pin) -> (sink cell, sink pin)."""

    src_cell: str
    src_pin: str
    dst_cell: str
    dst_pin: str

    def key(self) -> tuple[str, str, str, str]:
        return (self.src_cell, self.src_pin, self.dst_cell, self.dst_pin)


@dataclass
class BlockDesign:
    name: str
    part: str = "xc7z020clg484-1"
    cells: dict[str, IpCore] = field(default_factory=dict)
    #: The nets, in connection order — the source of truth.  Callers may
    #: reassign the list or append, insert and remove in place; an edit
    #: that keeps both its length and its last element (``l[0] = c``)
    #: must reassign the list instead, or the duplicate check misses it.
    connections: list[Connection] = field(default_factory=list)
    address_map: AddressMap = field(default_factory=AddressMap)
    #: Keys of ``connections`` for the duplicate check, valid while the
    #: list is the same object with the same length and last element as
    #: when the index was taken (see :meth:`_connection_keys`).
    _keys: set = field(default_factory=set, init=False, repr=False, compare=False)
    _keys_of: tuple = field(default=(None, 0, None), init=False, repr=False, compare=False)

    # -- construction --------------------------------------------------------
    def add_cell(self, core: IpCore) -> IpCore:
        if core.name in self.cells:
            raise IntegrationError(f"duplicate cell name {core.name!r}")
        self.cells[core.name] = core
        return core

    def cell(self, name: str) -> IpCore:
        try:
            return self.cells[name]
        except KeyError:
            raise IntegrationError(f"no cell named {name!r}") from None

    def connect(self, src_cell: str, src_pin: str, dst_cell: str, dst_pin: str) -> Connection:
        """Connect a driver pin to a compatible sink pin (type-checked)."""
        src = self.cell(src_cell).pin(src_pin)
        dst = self.cell(dst_cell).pin(dst_pin)
        if not src.is_driver():
            raise IntegrationError(
                f"{src_cell}.{src_pin} ({src.kind.value}) cannot drive a connection"
            )
        expected = MATING[src.kind]
        if dst.kind is not expected:
            raise IntegrationError(
                f"cannot connect {src_cell}.{src_pin} ({src.kind.value}) to "
                f"{dst_cell}.{dst_pin} ({dst.kind.value}); expected {expected.value}"
            )
        if src.kind is PinKind.AXIS_MASTER and src.data_width != dst.data_width:
            raise IntegrationError(
                f"stream width mismatch: {src_cell}.{src_pin} is "
                f"{src.data_width} bits, {dst_cell}.{dst_pin} is {dst.data_width}"
            )
        conn = Connection(src_cell, src_pin, dst_cell, dst_pin)
        key = conn.key()
        keys = self._connection_keys()
        if key in keys:
            raise IntegrationError(f"duplicate connection {key}")
        conns = self.connections
        conns.append(conn)
        keys.add(key)
        self._keys_of = (conns, len(conns), conn)
        return conn

    def _connection_keys(self) -> set:
        """The key index of ``connections``, re-taken from the list when
        it was reassigned, resized or had its last element replaced
        since the index was last taken."""
        conns = self.connections
        held, n, last = self._keys_of
        if held is not conns or n != len(conns) or (n and conns[-1] is not last):
            self._keys = {c.key() for c in conns}
            self._keys_of = (conns, len(conns), conns[-1] if conns else None)
        return self._keys

    # -- queries ----------------------------------------------------------------
    def total_resources(self) -> ResourceUsage:
        total = ResourceUsage()
        for core in self.cells.values():
            if not core.is_hard:
                total = total + core.resources
        return total

    # -- presentation (Fig. 10 analogue) ---------------------------------------
    def to_diagram(self) -> str:
        """Graphviz dot text of the block design (bus connections only)."""
        bus_kinds = {
            PinKind.AXI_LITE_MASTER,
            PinKind.AXI_FULL_MASTER,
            PinKind.AXIS_MASTER,
        }
        lines = [f"digraph {self.name} {{", "  rankdir=LR;"]
        for cell in self.cells.values():
            shape = "box3d" if cell.is_hard else "box"
            lines.append(f'  "{cell.name}" [shape={shape}];')
        for c in self.connections:
            kind = self.cell(c.src_cell).pin(c.src_pin).kind
            if kind not in bus_kinds:
                continue
            style = "dashed" if kind is PinKind.AXI_LITE_MASTER else "solid"
            color = "blue" if kind is PinKind.AXIS_MASTER else "black"
            lines.append(
                f'  "{c.src_cell}" -> "{c.dst_cell}" '
                f'[label="{c.src_pin}", style={style}, color={color}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        r = self.total_resources()
        return (
            f"block design {self.name!r}: {len(self.cells)} cells, "
            f"{len(self.connections)} connections, "
            f"{len(self.address_map.ranges)} address segments, "
            f"LUT={r.lut} FF={r.ff} BRAM18={r.bram18} DSP={r.dsp}"
        )
