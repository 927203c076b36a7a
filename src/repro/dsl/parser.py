"""Recursive-descent parser for the textual task-graph DSL.

Implements the EBNF of Listing 1::

    DSL        := object <Project> extends App Graph
    Graph      := { Nodes Edges }
    Nodes      := tg nodes ; Node+ tg end_nodes ;
    Edges      := tg edges ; Edge* tg end_edges ;
    Node       := tg node <NodeName> Interface+ end ;
    Interface  := i <PortName> | is <PortName>
    Edge       := AXI-Lite | AXI-Stream
    AXI-Lite   := tg connect <Name> ;
    AXI-Stream := tg link Port to Port end ;
    Port       := 'soc | ( <NodeName> , <PortName> )

Two liberties w.r.t. the listing, both strictly additive: a trailing
``;`` is accepted (and in the paper's own Listing 4 every statement is
``;``-terminated), and the ``object ... extends App { ... }`` wrapper may
be omitted for fragments (the graph is then named ``anonymous``).

Parsing also drives an optional :class:`~repro.dsl.actions.ActionHooks`
instance, firing the same callbacks as the embedded builder, so that
"executing" a textual description coordinates the tool-flow exactly as
the Scala original does.  The flow parses only descriptions given as
text: an already-built :class:`TgGraph` is executed through the embedded
builder (:meth:`~repro.dsl.builder.TaskGraphBuilder.execute`) instead of
being printed and parsed back.
"""

from __future__ import annotations

from repro.dsl.actions import ActionHooks
from repro.dsl.ast import SOC, ConnectEdge, Endpoint, LinkEdge, NodeDecl, PortDecl, PortKind, TgGraph
from repro.dsl.lexer import TokKind, Token, tokenize
from repro.util.errors import DslSyntaxError


class _Parser:
    def __init__(self, tokens: list[Token], hooks: ActionHooks | None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.hooks = hooks or ActionHooks()

    # -- token plumbing ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    # The expect/accept helpers read the token in place and step past it
    # directly: a token they match is never the end-of-input token.
    def expect_kw(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.KEYWORD or tok.value != word:
            raise DslSyntaxError(f"expected keyword {word!r}, found {tok.value!r}", tok.loc)
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.PUNCT or tok.value != ch:
            raise DslSyntaxError(f"expected {ch!r}, found {tok.value!r}", tok.loc)
        self.pos += 1
        return tok

    def expect_string(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.STRING:
            raise DslSyntaxError(f"expected quoted {what}, found {tok.value!r}", tok.loc)
        self.pos += 1
        return tok.value

    def accept_punct(self, ch: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is TokKind.PUNCT and tok.value == ch:
            self.pos += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------
    def parse_program(self) -> TgGraph:
        name = "anonymous"
        wrapped = False
        if self.peek().is_kw("object"):
            self.advance()
            tok = self.peek()
            # Any word (even a DSL keyword other than 'extends') can name
            # the project: the position is unambiguous.
            if tok.kind in (TokKind.IDENT, TokKind.STRING) or (
                tok.kind is TokKind.KEYWORD and tok.value != "extends"
            ):
                name = tok.value
                self.advance()
            else:
                raise DslSyntaxError(
                    f"expected project name after 'object', found {tok.value!r}", tok.loc
                )
            self.expect_kw("extends")
            self.expect_kw("App")
            self.expect_punct("{")
            wrapped = True
        graph = TgGraph(name)
        self.hooks.on_graph_begin(graph)
        self.parse_nodes(graph)
        self.parse_edges(graph)
        if wrapped:
            self.expect_punct("}")
        tok = self.peek()
        if tok.kind is not TokKind.EOF:
            raise DslSyntaxError(f"unexpected trailing input {tok.value!r}", tok.loc)
        self.hooks.on_graph_end(graph)
        return graph

    def parse_nodes(self, graph: TgGraph) -> None:
        self.expect_kw("tg")
        self.expect_kw("nodes")
        self.accept_punct(";")
        self.hooks.on_nodes_begin(graph)
        while True:
            tok = self.peek()
            if not tok.is_kw("tg"):
                raise DslSyntaxError(f"expected 'tg', found {tok.value!r}", tok.loc)
            nxt = self.tokens[self.pos + 1]
            if nxt.is_kw("end_nodes"):
                self.advance()
                self.advance()
                self.accept_punct(";")
                break
            self.parse_node(graph)
        if not graph.nodes:
            raise DslSyntaxError("node list is empty (grammar requires Node+)", tok.loc)
        self.hooks.on_nodes_end(graph)

    def parse_node(self, graph: TgGraph) -> None:
        self.expect_kw("tg")
        tok = self.expect_kw("node")
        name = self.expect_string("node name")
        self.hooks.on_node_begin(graph, name)
        ports: list[PortDecl] = []
        while True:
            tok = self.peek()
            if tok.is_kw("i") or tok.is_kw("is"):
                kind = PortKind.LITE if tok.value == "i" else PortKind.STREAM
                self.advance()
                pname = self.expect_string("port name")
                port = PortDecl(pname, kind)
                ports.append(port)
                self.hooks.on_interface(graph, name, port)
                continue
            break
        self.expect_kw("end")
        self.accept_punct(";")
        if not ports:
            raise DslSyntaxError(f"node {name!r} declares no interface", tok.loc)
        node = NodeDecl(name, tuple(ports))
        graph.nodes.append(node)
        self.hooks.on_node_end(graph, node)

    def parse_edges(self, graph: TgGraph) -> None:
        self.expect_kw("tg")
        self.expect_kw("edges")
        self.accept_punct(";")
        self.hooks.on_edges_begin(graph)
        while True:
            tok = self.peek()
            if not tok.is_kw("tg"):
                raise DslSyntaxError(f"expected 'tg', found {tok.value!r}", tok.loc)
            nxt = self.tokens[self.pos + 1]
            if nxt.is_kw("end_edges"):
                self.advance()
                self.advance()
                self.accept_punct(";")
                break
            if nxt.is_kw("connect"):
                self.parse_connect(graph)
            elif nxt.is_kw("link"):
                self.parse_link(graph)
            else:
                raise DslSyntaxError(
                    f"expected 'connect' or 'link', found {nxt.value!r}", nxt.loc
                )
        self.hooks.on_edges_end(graph)

    def parse_connect(self, graph: TgGraph) -> None:
        self.expect_kw("tg")
        self.expect_kw("connect")
        name = self.expect_string("node name")
        self.accept_punct(";")
        edge = ConnectEdge(name)
        graph.edges.append(edge)
        self.hooks.on_connect(graph, edge)

    def parse_link(self, graph: TgGraph) -> None:
        self.expect_kw("tg")
        self.expect_kw("link")
        src = self.parse_port()
        self.hooks.on_link_begin(graph, src)
        self.expect_kw("to")
        dst = self.parse_port()
        self.expect_kw("end")
        self.accept_punct(";")
        edge = LinkEdge(src, dst)
        graph.edges.append(edge)
        self.hooks.on_link_end(graph, edge)

    def parse_port(self) -> Endpoint:
        tok = self.peek()
        if tok.kind is TokKind.SYMBOL:
            if tok.value != "soc":
                raise DslSyntaxError(f"unknown symbol '{tok.value} (only 'soc exists)", tok.loc)
            self.advance()
            return SOC
        if tok.is_punct("("):
            self.advance()
            node = self.expect_string("node name")
            self.expect_punct(",")
            port = self.expect_string("port name")
            self.expect_punct(")")
            return (node, port)
        raise DslSyntaxError(
            f"expected 'soc or (node, port), found {tok.value!r}", tok.loc
        )


def parse_dsl(
    text: str, *, filename: str = "<dsl>", hooks: ActionHooks | None = None
) -> TgGraph:
    """Parse (and, via *hooks*, "execute") a textual DSL program."""
    return _Parser(tokenize(text, filename), hooks).parse_program()
