"""Semantic validation of a parsed/built task-graph description.

Rules (each violation raises :class:`DslValidationError`):

* node names are unique; port names are unique within a node;
* ``connect`` references an existing node that declares at least one
  AXI-Lite (``i``) port, and each node is connected at most once;
* every ``link`` endpoint references an existing node and an
  AXI-Stream (``is``) port;
* a stream port is used by exactly one link, and only in one direction
  (a port used as a link source is an output, as a destination an
  input — AXI-Stream is point-to-point);
* every declared stream port is linked (dangling streams would leave an
  unconnected interface in the block design);
* every node with only ``i`` ports is reachable from the bus via a
  ``connect`` edge;
* stream links form no cycle, and every weakly-connected stream
  component touches ``'soc`` at least once (otherwise no data could ever
  enter or leave the pipeline);
* no self-links.
"""

from __future__ import annotations

from repro.dsl.ast import PortKind, TgGraph
from repro.util.errors import DslValidationError


def _check_endpoint(
    port_kinds: dict[str, dict[str, PortKind]], end: object, role: str
) -> None:
    if not isinstance(end, tuple):
        return  # 'soc — always fine
    node_name, port_name = end
    kinds = port_kinds.get(node_name)
    if kinds is None:
        raise DslValidationError(f"link {role} references unknown node {node_name!r}")
    kind = kinds.get(port_name)
    if kind is None:
        raise DslValidationError(
            f"link {role} references unknown port {port_name!r} of node {node_name!r}"
        )
    if kind is not PortKind.STREAM:
        raise DslValidationError(
            f"link {role} uses AXI-Lite port {node_name}.{port_name}; "
            "links require 'is' (AXI-Stream) ports"
        )


def validate_graph(graph: TgGraph) -> None:
    """Validate *graph*; raises :class:`DslValidationError` on violation."""
    # --- nodes --------------------------------------------------------------
    #: node name -> port name -> kind: every later lookup is one probe.
    port_kinds: dict[str, dict[str, PortKind]] = {}
    for node in graph.nodes:
        if node.name in port_kinds:
            raise DslValidationError(f"duplicate node name {node.name!r}")
        kinds = port_kinds[node.name] = {}
        for p in node.ports:
            if p.name in kinds:
                raise DslValidationError(
                    f"node {node.name!r}: duplicate port name {p.name!r}"
                )
            kinds[p.name] = p.kind

    # --- connect edges --------------------------------------------------------
    connected: set[str] = set()
    for edge in graph.connects():
        kinds = port_kinds.get(edge.node)
        if kinds is None:
            raise DslValidationError(f"connect references unknown node {edge.node!r}")
        if PortKind.LITE not in kinds.values():
            raise DslValidationError(
                f"connect on node {edge.node!r} which has no AXI-Lite port"
            )
        if edge.node in connected:
            raise DslValidationError(f"node {edge.node!r} connected to the bus twice")
        connected.add(edge.node)

    # --- link edges -------------------------------------------------------------
    used_src: set[tuple[str, str]] = set()
    used_dst: set[tuple[str, str]] = set()
    for edge in graph.links():
        _check_endpoint(port_kinds, edge.src, "source")
        _check_endpoint(port_kinds, edge.dst, "destination")
        if edge.from_soc() and edge.to_soc():
            raise DslValidationError("link from 'soc to 'soc is meaningless")
        if (
            isinstance(edge.src, tuple)
            and isinstance(edge.dst, tuple)
            and edge.src[0] == edge.dst[0]
        ):
            raise DslValidationError(f"self-link on node {edge.src[0]!r}")
        if isinstance(edge.src, tuple):
            if edge.src in used_src:
                raise DslValidationError(
                    f"stream output {edge.src[0]}.{edge.src[1]} linked twice"
                )
            used_src.add(edge.src)
        if isinstance(edge.dst, tuple):
            if edge.dst in used_dst:
                raise DslValidationError(
                    f"stream input {edge.dst[0]}.{edge.dst[1]} linked twice"
                )
            used_dst.add(edge.dst)

    both = used_src & used_dst
    if both:
        n, p = sorted(both)[0]
        raise DslValidationError(
            f"stream port {n}.{p} is used both as a source and a destination"
        )

    # --- coverage -------------------------------------------------------------
    for node in graph.nodes:
        for p in node.stream_ports():
            key = (node.name, p.name)
            if key not in used_src and key not in used_dst:
                raise DslValidationError(
                    f"stream port {node.name}.{p.name} is never linked"
                )
        if node.lite_ports() and not node.stream_ports() and node.name not in connected:
            raise DslValidationError(
                f"node {node.name!r} has only AXI-Lite ports but no connect edge; "
                "the GPP could never reach it"
            )

    # --- stream topology --------------------------------------------------------
    _check_stream_topology(graph)


def _check_stream_topology(graph: TgGraph) -> None:
    """Acyclicity and 'soc-reachability of the stream-link graph."""
    links = graph.links()
    if not links:
        return

    # Node-level stream graph (ignoring 'soc for the cycle check).
    edges: set[tuple[str, str]] = set()
    nodes: set[str] = set()
    touches_soc: set[str] = set()
    for e in links:
        if isinstance(e.src, tuple):
            nodes.add(e.src[0])
        if isinstance(e.dst, tuple):
            nodes.add(e.dst[0])
        if isinstance(e.src, tuple) and isinstance(e.dst, tuple):
            edges.add((e.src[0], e.dst[0]))
        elif isinstance(e.src, tuple):
            touches_soc.add(e.src[0])
        elif isinstance(e.dst, tuple):
            touches_soc.add(e.dst[0])

    # Kahn's algorithm for cycle detection.
    indeg = {n: 0 for n in nodes}
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for s, d in sorted(edges):
        indeg[d] += 1
        succ[s].append(d)
    ready = [n for n in sorted(nodes) if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for d in succ[n]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    if seen != len(nodes):
        stuck = sorted(n for n, k in indeg.items() if k > 0)
        raise DslValidationError(f"stream links form a cycle involving {stuck}")

    # Weakly-connected components must touch 'soc.
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for s, d in edges:
        union(s, d)
    roots_with_soc = {find(n) for n in touches_soc}
    for n in sorted(nodes):
        if find(n) not in roots_with_soc:
            raise DslValidationError(
                f"stream pipeline containing {n!r} never touches 'soc; "
                "data could neither enter nor leave it"
            )
