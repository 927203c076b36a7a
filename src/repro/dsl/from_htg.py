"""Lower a partitioned HTG into a task-graph DSL description.

This implements the mapping of paper Section III: software nodes
disappear from the description; a hardware *task* becomes a node whose
function parameters are AXI-Lite ``i`` ports plus a ``connect`` edge;
a hardware *phase* is replaced by its dataflow actors as ``is``-port
nodes, internal channels become ``link`` edges and boundary channels
become links to/from ``'soc`` (reaching shared memory through DMA).

The lowered graph is not validated here: a flow validates it once, in
``integrate``; a caller that uses it otherwise can call
:func:`~repro.dsl.validate.validate_graph` itself.
"""

from __future__ import annotations

from repro.dsl.ast import SOC, ConnectEdge, LinkEdge, NodeDecl, PortDecl, PortKind, TgGraph
from repro.htg.model import HTG, Phase, Task
from repro.htg.partition import Partition
from repro.util.errors import DslValidationError


def graph_from_htg(htg: HTG, partition: Partition, *, name: str | None = None) -> TgGraph:
    """Build the DSL graph for *htg* under *partition* (not validated;
    see the module docstring)."""
    partition.validate(htg)
    graph = TgGraph(name or htg.name)

    for node_name, node in htg.nodes.items():
        if not partition.is_hw(node_name):
            continue
        if isinstance(node, Task):
            ports = tuple(
                PortDecl(p, PortKind.LITE) for p in (*node.inputs, *node.outputs)
            )
            if not ports:
                raise DslValidationError(
                    f"hardware task {node_name!r} declares no parameters"
                )
            graph.nodes.append(NodeDecl(node.name, ports))
            graph.edges.append(ConnectEdge(node.name))
        elif isinstance(node, Phase):
            _lower_phase(graph, node)
    return graph


def _lower_phase(graph: TgGraph, phase: Phase) -> None:
    for actor in phase.actors:
        if graph.has_node(actor.name):
            raise DslValidationError(
                f"actor name {actor.name!r} collides with another hardware node"
            )
        ports = tuple(
            PortDecl(p, PortKind.STREAM)
            for p in (*actor.stream_inputs, *actor.stream_outputs)
        )
        graph.nodes.append(NodeDecl(actor.name, ports))
    for ch in phase.channels:
        src = SOC if ch.describes_input() else (ch.src_actor, ch.src_port)
        dst = SOC if ch.describes_output() else (ch.dst_actor, ch.dst_port)
        graph.edges.append(LinkEdge(src, dst))


__all__ = ["graph_from_htg"]
