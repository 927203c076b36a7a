"""Embedded (host-language) front-end of the task-graph DSL.

This mirrors the Scala embedding: each DSL keyword is an executable
method and "executing" the description drives the tool-flow through
:class:`~repro.dsl.actions.ActionHooks`.  The paper's Listing 4 becomes::

    tg = TaskGraphBuilder("otsu", hooks=flow_hooks)
    tg.nodes()
    tg.node("grayScale").is_("imageIn").is_("imageOutCH").is_("imageOutSEG").end()
    tg.node("computeHistogram").is_("grayScaleImage").is_("histogram").end()
    ...
    tg.end_nodes()
    tg.edges()
    tg.link(SOC).to(("grayScale", "imageIn")).end()
    ...
    tg.end_edges()
    graph = tg.graph()

``is`` is a Python keyword, hence the trailing underscore (``is_``); the
alias ``stream`` is also provided, and ``lite`` aliases ``i``.

The builder enforces the Listing-1 grammar dynamically: calling a keyword
out of sequence raises :class:`DslSyntaxError`, exactly as the textual
parser would reject the equivalent program.
"""

from __future__ import annotations

from enum import Enum

from repro.dsl.actions import ActionHooks
from repro.dsl.ast import SOC, ConnectEdge, Endpoint, LinkEdge, NodeDecl, PortDecl, PortKind, TgGraph
from repro.dsl.validate import validate_graph
from repro.util.errors import DslSyntaxError


class _State(Enum):
    START = "start"
    NODES = "nodes"
    IN_NODE = "in_node"
    BETWEEN = "between"  # after end_nodes, before edges
    EDGES = "edges"
    IN_LINK = "in_link"
    IN_LINK_TO = "in_link_to"
    DONE = "done"


class TaskGraphBuilder:
    """Keyword-at-a-time construction of a :class:`TgGraph`.

    Every method models one DSL keyword and fires the corresponding
    :class:`ActionHooks` callback at the moment it executes, so a flow
    implementation observes the same event order as the textual parser.
    """

    def __init__(self, name: str = "anonymous", hooks: ActionHooks | None = None) -> None:
        self._graph = TgGraph(name)
        self._hooks = hooks or ActionHooks()
        self._state = _State.START
        self._node_name: str | None = None
        self._node_ports: list[PortDecl] = []
        self._link_src: Endpoint | None = None
        self._link_dst: Endpoint | None = None
        self._hooks.on_graph_begin(self._graph)

    # -- state helpers ------------------------------------------------------
    def _require(self, *states: _State) -> None:
        if self._state not in states:
            raise DslSyntaxError(
                f"keyword not allowed here (builder state is {self._state.value!r})"
            )

    # -- nodes section ------------------------------------------------------
    def nodes(self) -> "TaskGraphBuilder":
        """``tg nodes`` — open the node list."""
        self._require(_State.START)
        self._state = _State.NODES
        self._hooks.on_nodes_begin(self._graph)
        return self

    def node(self, name: str) -> "TaskGraphBuilder":
        """``tg node "NAME"`` — open one node declaration."""
        self._require(_State.NODES)
        self._state = _State.IN_NODE
        self._node_name = name
        self._node_ports = []
        self._hooks.on_node_begin(self._graph, name)
        return self

    def i(self, port: str) -> "TaskGraphBuilder":
        """``i "PORT"`` — declare an AXI-Lite port on the open node."""
        self._require(_State.IN_NODE)
        decl = PortDecl(port, PortKind.LITE)
        self._node_ports.append(decl)
        assert self._node_name is not None
        self._hooks.on_interface(self._graph, self._node_name, decl)
        return self

    lite = i

    def is_(self, port: str) -> "TaskGraphBuilder":
        """``is "PORT"`` — declare an AXI-Stream port on the open node."""
        self._require(_State.IN_NODE)
        decl = PortDecl(port, PortKind.STREAM)
        self._node_ports.append(decl)
        assert self._node_name is not None
        self._hooks.on_interface(self._graph, self._node_name, decl)
        return self

    stream = is_

    def end_nodes(self) -> "TaskGraphBuilder":
        """``tg end_nodes`` — close the node list."""
        self._require(_State.NODES)
        if not self._graph.nodes:
            raise DslSyntaxError("node list is empty (grammar requires Node+)")
        self._state = _State.BETWEEN
        self._hooks.on_nodes_end(self._graph)
        return self

    # -- edges section ------------------------------------------------------
    def edges(self) -> "TaskGraphBuilder":
        """``tg edges`` — open the edge list."""
        self._require(_State.BETWEEN)
        self._state = _State.EDGES
        self._hooks.on_edges_begin(self._graph)
        return self

    def connect(self, node: str) -> "TaskGraphBuilder":
        """``tg connect "NODE"`` — attach NODE's AXI-Lite interface to the bus."""
        self._require(_State.EDGES)
        edge = ConnectEdge(node)
        self._graph.edges.append(edge)
        self._hooks.on_connect(self._graph, edge)
        return self

    def link(self, src: Endpoint) -> "TaskGraphBuilder":
        """``tg link SRC`` — open a stream link from *src*."""
        self._require(_State.EDGES)
        self._state = _State.IN_LINK
        self._link_src = src
        self._hooks.on_link_begin(self._graph, src)
        return self

    def to(self, dst: Endpoint) -> "TaskGraphBuilder":
        """``to DST`` — set the destination of the open link."""
        self._require(_State.IN_LINK)
        self._state = _State.IN_LINK_TO
        self._link_dst = dst
        return self

    def end_edges(self) -> "TaskGraphBuilder":
        """``tg end_edges`` — close the edge list and finish the program."""
        self._require(_State.EDGES)
        self._state = _State.DONE
        self._hooks.on_edges_end(self._graph)
        self._hooks.on_graph_end(self._graph)
        return self

    # -- shared ``end`` keyword ----------------------------------------------
    def end(self) -> "TaskGraphBuilder":
        """``end`` — closes whichever construct is open (node or link)."""
        if self._state is _State.IN_NODE:
            assert self._node_name is not None
            if not self._node_ports:
                raise DslSyntaxError(f"node {self._node_name!r} declares no interface")
            node = NodeDecl(self._node_name, tuple(self._node_ports))
            self._graph.nodes.append(node)
            self._node_name = None
            self._node_ports = []
            self._state = _State.NODES
            self._hooks.on_node_end(self._graph, node)
            return self
        if self._state is _State.IN_LINK_TO:
            assert self._link_src is not None and self._link_dst is not None
            edge = LinkEdge(self._link_src, self._link_dst)
            self._graph.edges.append(edge)
            self._link_src = None
            self._link_dst = None
            self._state = _State.EDGES
            self._hooks.on_link_end(self._graph, edge)
            return self
        raise DslSyntaxError("'end' with no open node or link")

    # -- executing an existing graph -------------------------------------------
    @classmethod
    def execute(cls, graph: TgGraph, hooks: ActionHooks | None = None) -> TgGraph:
        """Run *graph* keyword by keyword through a builder firing *hooks*.

        The walk issues the keywords ``emit_dsl(graph)`` would print, in
        the same order, so *hooks* see the call sequence (and the partly
        built graph) that parsing that text fires — without printing or
        lexing it.  Returns the rebuilt graph, not validated.
        """
        tg = cls(graph.name, hooks=hooks)
        tg.nodes()
        for node in graph.nodes:
            tg.node(node.name)
            for port in node.ports:
                if port.kind is PortKind.LITE:
                    tg.i(port.name)
                else:
                    tg.is_(port.name)
            tg.end()
        tg.end_nodes()
        tg.edges()
        for edge in graph.edges:
            if isinstance(edge, ConnectEdge):
                tg.connect(edge.node)
            elif isinstance(edge, LinkEdge):
                tg.link(edge.src).to(edge.dst).end()
        tg.end_edges()
        return tg.graph(validate=False)

    # -- result ---------------------------------------------------------------
    def graph(self, *, validate: bool = True) -> TgGraph:
        """Return the finished graph (after ``end_edges``)."""
        if self._state is not _State.DONE:
            raise DslSyntaxError(
                f"description is incomplete (builder state is {self._state.value!r})"
            )
        if validate:
            validate_graph(self._graph)
        return self._graph
