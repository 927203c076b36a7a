"""AST of the task-graph DSL.

A program describes a graph ``G = {N, E}`` (paper Section III): ``N`` is
the list of hardware cores with their ports, ``E`` the list of
interconnections.  Two port kinds exist, matching the two AXI protocols
the paper targets:

* ``i``  — AXI-Lite memory-mapped port (commands / scalar parameters);
* ``is`` — AXI-Stream port (continuous data stream).

Edges come in two flavours: ``connect`` attaches a core's AXI-Lite
interface to the system bus, ``link ... to ...`` creates a point-to-point
AXI-Stream connection whose endpoints are either ``(node, port)`` pairs
or the special token ``'soc`` denoting the processing system (reached
through a DMA core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class PortKind(Enum):
    """Interface protocol of a declared port."""

    LITE = "i"
    STREAM = "is"


class _SocToken:
    """Singleton for the ``'soc`` endpoint (the system bus / PS side)."""

    _instance: "_SocToken | None" = None

    def __new__(cls) -> "_SocToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "'soc"

    def __deepcopy__(self, memo: dict) -> "_SocToken":
        return self


#: The ``'soc`` endpoint used in ``link`` edges.
SOC = _SocToken()

#: A stream endpoint: either :data:`SOC` or a ``(node, port)`` pair.
Endpoint = _SocToken | tuple[str, str]


@dataclass(frozen=True)
class PortDecl:
    """A named port of a node with its protocol kind."""

    name: str
    kind: PortKind

    def is_stream(self) -> bool:
        return self.kind is PortKind.STREAM

    def is_lite(self) -> bool:
        return self.kind is PortKind.LITE


@dataclass(frozen=True)
class NodeDecl:
    """One hardware core: name plus ordered port declarations."""

    name: str
    ports: tuple[PortDecl, ...] = ()

    def port(self, name: str) -> PortDecl:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"node {self.name!r} has no port {name!r}")

    def lite_ports(self) -> tuple[PortDecl, ...]:
        return tuple(p for p in self.ports if p.is_lite())

    def stream_ports(self) -> tuple[PortDecl, ...]:
        return tuple(p for p in self.ports if p.is_stream())


@dataclass(frozen=True)
class ConnectEdge:
    """``tg connect "NODE"`` — attach NODE's AXI-Lite interface to the bus."""

    node: str


@dataclass(frozen=True)
class LinkEdge:
    """``tg link SRC to DST end`` — a point-to-point AXI-Stream channel."""

    src: Endpoint
    dst: Endpoint

    def from_soc(self) -> bool:
        return isinstance(self.src, _SocToken)

    def to_soc(self) -> bool:
        return isinstance(self.dst, _SocToken)


@dataclass
class TgGraph:
    """A complete DSL program: ``object <name> extends App { nodes edges }``."""

    name: str
    nodes: list[NodeDecl] = field(default_factory=list)
    edges: list[ConnectEdge | LinkEdge] = field(default_factory=list)

    # -- queries ----------------------------------------------------------
    def node(self, name: str) -> NodeDecl:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"graph {self.name!r} has no node {name!r}")

    def has_node(self, name: str) -> bool:
        return any(n.name == name for n in self.nodes)

    def connects(self) -> list[ConnectEdge]:
        return [e for e in self.edges if isinstance(e, ConnectEdge)]

    def links(self) -> list[LinkEdge]:
        return [e for e in self.edges if isinstance(e, LinkEdge)]

    def links_of(self, node: str) -> list[LinkEdge]:
        out = []
        for e in self.links():
            for end in (e.src, e.dst):
                if isinstance(end, tuple) and end[0] == node:
                    out.append(e)
                    break
        return out

    def stream_inputs_of(self, node: str) -> list[str]:
        """Port names of *node* that receive data over a link."""
        return [
            e.dst[1] for e in self.links() if isinstance(e.dst, tuple) and e.dst[0] == node
        ]

    def stream_outputs_of(self, node: str) -> list[str]:
        """Port names of *node* that send data over a link."""
        return [
            e.src[1] for e in self.links() if isinstance(e.src, tuple) and e.src[0] == node
        ]
