"""Recursive-descent parser for the synthesizable C subset.

Grammar (informal)::

    unit      := (global_const | funcdef)*
    global    := 'const' type IDENT '=' expr ';'
    funcdef   := type IDENT '(' params? ')' block
    params    := param (',' param)*
    param     := type IDENT array_suffix?
    block     := '{' stmt* '}'
    stmt      := decl | if | while | do-while | for | return | break
               | continue | block | simple ';'
    decl      := 'const'? type IDENT (array_suffix | '=' expr)? ';'
    simple    := assignment | expr
    assignment:= lvalue ('='|'+='|...) expr | lvalue '++' | '++' lvalue ...

    expr      := ternary;  standard C precedence for binary operators.

Pointer parameters (``int *a``) are accepted and treated as unsized
arrays, matching how Vivado HLS maps them onto bus/stream interfaces.
"""

from __future__ import annotations

from repro.hls import cast as A
from repro.hls.clex import CTokKind, CToken, clex
from repro.hls.types import SPELLINGS, ArrayType, CType, INT32, ScalarType
from repro.util.errors import CSyntaxError

# Binary operator precedence (higher binds tighter).
_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_COMPOUND = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
             "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

#: Intrinsic functions the frontend knows.
INTRINSICS = frozenset({"min", "max", "abs", "sqrtf", "fabsf"})


class _CParser:
    def __init__(self, tokens: list[CToken]) -> None:
        self.toks = tokens
        self.pos = 0
        self._switch_counter = 0

    # -- plumbing --------------------------------------------------------
    def peek(self, k: int = 0) -> CToken:
        if not k:  # ``advance`` never moves past EOF, so ``pos`` is in range
            return self.toks[self.pos]
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def advance(self) -> CToken:
        tok = self.toks[self.pos]
        if tok.kind is not CTokKind.EOF:
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> CToken:
        tok = self.peek()
        if not tok.is_op(op):
            raise CSyntaxError(f"expected {op!r}, found {tok.value!r}", tok.loc)
        return self.advance()

    def expect_ident(self) -> CToken:
        tok = self.peek()
        if tok.kind is not CTokKind.IDENT:
            raise CSyntaxError(f"expected identifier, found {tok.value!r}", tok.loc)
        return self.advance()

    def at_type(self, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok.kind is CTokKind.KEYWORD and tok.value in SPELLINGS

    def parse_scalar_type(self) -> ScalarType:
        tok = self.peek()
        if not self.at_type():
            raise CSyntaxError(f"expected a type, found {tok.value!r}", tok.loc)
        self.advance()
        return SPELLINGS[tok.value]

    # -- top level --------------------------------------------------------
    def parse_unit(self) -> A.TranslationUnit:
        start = self.peek().loc
        consts: list[A.GlobalConst] = []
        funcs: list[A.FuncDef] = []
        while self.peek().kind is not CTokKind.EOF:
            if self.peek().is_kw("const"):
                consts.append(self.parse_global_const())
            else:
                funcs.append(self.parse_funcdef())
        return A.TranslationUnit(start, consts, funcs)

    def parse_global_const(self) -> A.GlobalConst:
        loc = self.advance().loc  # const
        ctype = self.parse_scalar_type()
        name = self.expect_ident().value
        self.expect_op("=")
        value = self.parse_expr()
        self.expect_op(";")
        return A.GlobalConst(loc, name, ctype, value)

    def parse_funcdef(self) -> A.FuncDef:
        loc = self.peek().loc
        ret = self.parse_scalar_type()
        name = self.expect_ident().value
        self.expect_op("(")
        params: list[A.Param] = []
        if not self.peek().is_op(")"):
            params.append(self.parse_param())
            while self.peek().is_op(","):
                self.advance()
                params.append(self.parse_param())
        self.expect_op(")")
        body = self.parse_block()
        return A.FuncDef(loc, name, ret, params, body)

    def parse_param(self) -> A.Param:
        loc = self.peek().loc
        elem = self.parse_scalar_type()
        is_pointer = False
        if self.peek().is_op("*"):
            self.advance()
            is_pointer = True
        name = self.expect_ident().value
        ctype: CType = elem
        if self.peek().is_op("["):
            self.advance()
            size: int | None = None
            if not self.peek().is_op("]"):
                size = self._const_int_token()
            self.expect_op("]")
            dims = [size]
            while self.peek().is_op("["):
                self.advance()
                dims.append(self._const_int_token())
                self.expect_op("]")
            if len(dims) == 1:
                ctype = ArrayType(elem, size)
            else:
                if any(d is None for d in dims):
                    raise CSyntaxError(
                        "multi-dimensional parameters need every dimension sized",
                        loc,
                    )
                total = 1
                for d in dims:
                    total *= d  # type: ignore[operator]
                ctype = ArrayType(elem, total, tuple(dims))  # type: ignore[arg-type]
        elif is_pointer:
            ctype = ArrayType(elem, None)
        return A.Param(loc, name, ctype)

    def _const_int_token(self) -> int:
        tok = self.peek()
        if tok.kind is not CTokKind.INT:
            raise CSyntaxError(
                f"expected integer literal, found {tok.value!r}", tok.loc
            )
        self.advance()
        return int(tok.value, 0)

    # -- statements ------------------------------------------------------------
    def parse_block(self) -> A.Block:
        loc = self.expect_op("{").loc
        stmts: list[A.Stmt] = []
        while not self.peek().is_op("}"):
            if self.peek().kind is CTokKind.EOF:
                raise CSyntaxError("unexpected end of file inside block", self.peek().loc)
            stmts.append(self.parse_stmt())
        self.expect_op("}")
        return A.Block(loc, stmts)

    def _as_block(self, stmt: A.Stmt) -> A.Block:
        if isinstance(stmt, A.Block):
            return stmt
        return A.Block(stmt.loc, [stmt])

    def parse_stmt(self) -> A.Stmt:
        tok = self.peek()
        if tok.is_op("{"):
            return self.parse_block()
        if tok.is_kw("if"):
            return self.parse_if()
        if tok.is_kw("while"):
            return self.parse_while()
        if tok.is_kw("do"):
            return self.parse_do_while()
        if tok.is_kw("for"):
            return self.parse_for()
        if tok.is_kw("switch"):
            return self.parse_switch()
        # Vivado-style loop label: `NAME: for (...)` / `NAME: while (...)`.
        if (
            tok.kind is CTokKind.IDENT
            and self.peek(1).is_op(":")
            and (self.peek(2).is_kw("for") or self.peek(2).is_kw("while"))
        ):
            label = self.advance().value
            self.advance()  # ':'
            loop = self.parse_for() if self.peek().is_kw("for") else self.parse_while()
            loop.label = label  # type: ignore[union-attr]
            return loop
        if tok.is_kw("return"):
            self.advance()
            value = None if self.peek().is_op(";") else self.parse_expr()
            self.expect_op(";")
            return A.Return(tok.loc, value)
        if tok.is_kw("break"):
            self.advance()
            self.expect_op(";")
            return A.Break(tok.loc)
        if tok.is_kw("continue"):
            self.advance()
            self.expect_op(";")
            return A.Continue(tok.loc)
        if tok.is_kw("const") or self.at_type():
            stmt = self.parse_decl()
            self.expect_op(";")
            return stmt
        stmt = self.parse_simple()
        self.expect_op(";")
        return stmt

    def parse_decl(self) -> A.Decl:
        loc = self.peek().loc
        const = False
        if self.peek().is_kw("const"):
            const = True
            self.advance()
        elem = self.parse_scalar_type()
        name = self.expect_ident().value
        ctype: CType = elem
        init: A.Expr | None = None
        init_list: list[A.Expr] | None = None
        if self.peek().is_op("["):
            dims: list[int] = []
            while self.peek().is_op("["):
                self.advance()
                dims.append(self._const_int_token())
                self.expect_op("]")
            total = 1
            for d in dims:
                total *= d
            ctype = ArrayType(elem, total, tuple(dims) if len(dims) > 1 else None)
            if self.peek().is_op("="):
                self.advance()
                self.expect_op("{")
                init_list = []
                if not self.peek().is_op("}"):
                    init_list.append(self.parse_expr())
                    while self.peek().is_op(","):
                        self.advance()
                        if self.peek().is_op("}"):
                            break  # trailing comma
                        init_list.append(self.parse_expr())
                self.expect_op("}")
        elif self.peek().is_op("="):
            self.advance()
            init = self.parse_expr()
        return A.Decl(loc, name, ctype, init, const, init_list)

    def parse_if(self) -> A.If:
        loc = self.advance().loc
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then = self._as_block(self.parse_stmt())
        other = None
        if self.peek().is_kw("else"):
            self.advance()
            other = self._as_block(self.parse_stmt())
        return A.If(loc, cond, then, other)

    def parse_while(self) -> A.While:
        loc = self.advance().loc
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        body = self._as_block(self.parse_stmt())
        return A.While(loc, cond, body)

    def parse_do_while(self) -> A.DoWhile:
        loc = self.advance().loc
        body = self._as_block(self.parse_stmt())
        if not self.peek().is_kw("while"):
            raise CSyntaxError("expected 'while' after do-body", self.peek().loc)
        self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        self.expect_op(";")
        return A.DoWhile(loc, body, cond)

    def parse_for(self) -> A.For:
        loc = self.advance().loc
        self.expect_op("(")
        init: A.Stmt | None = None
        if not self.peek().is_op(";"):
            init = self.parse_decl() if (self.at_type() or self.peek().is_kw("const")) else self.parse_simple()
        self.expect_op(";")
        cond: A.Expr | None = None
        if not self.peek().is_op(";"):
            cond = self.parse_expr()
        self.expect_op(";")
        step: A.Stmt | None = None
        if not self.peek().is_op(")"):
            step = self.parse_simple()
        self.expect_op(")")
        body = self._as_block(self.parse_stmt())
        return A.For(loc, init, cond, step, body)

    def parse_switch(self) -> A.Stmt:
        """``switch`` desugars to an if/else-if chain on a temporary.

        Fallthrough is not supported: every non-empty case must end with
        ``break`` (checked here), matching what most HLS coding guides
        require anyway.
        """
        loc = self.advance().loc
        self.expect_op("(")
        scrutinee = self.parse_expr()
        self.expect_op(")")
        self.expect_op("{")

        arms: list[tuple[list[A.Expr] | None, A.Block]] = []
        while not self.peek().is_op("}"):
            labels: list[A.Expr] | None = []
            is_default = False
            # One or more stacked labels select the same body.
            while True:
                if self.peek().is_kw("case"):
                    self.advance()
                    labels.append(self.parse_expr())  # type: ignore[union-attr]
                    self.expect_op(":")
                elif self.peek().is_kw("default"):
                    self.advance()
                    self.expect_op(":")
                    is_default = True
                else:
                    break
            if not labels and not is_default:
                raise CSyntaxError(
                    f"expected 'case' or 'default', found {self.peek().value!r}",
                    self.peek().loc,
                )
            body_stmts: list[A.Stmt] = []
            saw_break = False
            while not (
                self.peek().is_op("}")
                or self.peek().is_kw("case")
                or self.peek().is_kw("default")
            ):
                stmt = self.parse_stmt()
                if isinstance(stmt, A.Break):
                    saw_break = True
                    break
                body_stmts.append(stmt)
            if body_stmts and not saw_break and not self._ends_in_return(body_stmts):
                raise CSyntaxError(
                    "switch cases must end in 'break' or 'return' "
                    "(fallthrough is not supported)",
                    self.peek().loc,
                )
            arms.append((None if is_default else labels, A.Block(loc, body_stmts)))
        self.expect_op("}")

        # Desugar: evaluate the scrutinee once into a temporary, then
        # build the if/else-if chain back to front.
        tmp = f"__switch{self._switch_counter}"
        self._switch_counter += 1
        decl = A.Decl(loc, tmp, INT32, scrutinee)
        chain: A.Block | None = None
        default_body = next((b for ls, b in arms if ls is None), None)
        if default_body is not None:
            chain = default_body
        for labels, body in reversed(arms):
            if labels is None:
                continue
            cond: A.Expr | None = None
            for lab in labels:
                eq = A.Binary(loc, "==", A.Name(loc, tmp), lab)
                cond = eq if cond is None else A.Binary(loc, "||", cond, eq)
            assert cond is not None
            chain = A.Block(loc, [A.If(loc, cond, body, chain)])
        return A.Block(loc, [decl, chain] if chain is not None else [decl])

    @staticmethod
    def _ends_in_return(stmts: list[A.Stmt]) -> bool:
        return bool(stmts) and isinstance(stmts[-1], A.Return)

    def parse_simple(self) -> A.Stmt:
        """Assignment, inc/dec, or a bare expression."""
        loc = self.peek().loc
        # Prefix ++/--.
        if self.peek().is_op("++") or self.peek().is_op("--"):
            op = self.advance().value
            target = self.parse_lvalue()
            one = A.IntLit(loc, 1)
            return A.Assign(loc, target, A.Binary(loc, op[0], self._lval_expr(target), one))
        expr = self.parse_expr()
        tok = self.peek()
        if tok.is_op("=") or tok.value in _COMPOUND:
            target = self._require_lvalue(expr)
            self.advance()
            value = self.parse_expr()
            if tok.value in _COMPOUND:
                value = A.Binary(tok.loc, _COMPOUND[tok.value], self._lval_expr(target), value)
            return A.Assign(loc, target, value)
        if tok.is_op("++") or tok.is_op("--"):
            target = self._require_lvalue(expr)
            self.advance()
            one = A.IntLit(loc, 1)
            return A.Assign(
                loc, target, A.Binary(loc, tok.value[0], self._lval_expr(target), one)
            )
        return A.ExprStmt(loc, expr)

    def parse_lvalue(self) -> A.Name | A.Index:
        expr = self.parse_unary()
        return self._require_lvalue(expr)

    def _require_lvalue(self, expr: A.Expr) -> A.Name | A.Index:
        if isinstance(expr, (A.Name, A.Index)):
            return expr
        raise CSyntaxError("expression is not assignable", expr.loc)

    @staticmethod
    def _lval_expr(target: A.Name | A.Index) -> A.Expr:
        """A fresh read-expression for the lvalue (for desugaring)."""
        import copy

        return copy.deepcopy(target)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> A.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(1)
        if self.peek().is_op("?"):
            loc = self.advance().loc
            then = self.parse_expr()
            self.expect_op(":")
            other = self.parse_ternary()
            return A.Ternary(loc, cond, then, other)
        return cond

    def parse_binary(self, min_prec: int) -> A.Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.value) if tok.kind is CTokKind.OP else None
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = A.Binary(tok.loc, tok.value, left, right)

    def parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.is_op("-") or tok.is_op("!") or tok.is_op("~"):
            self.advance()
            return A.Unary(tok.loc, tok.value, self.parse_unary())
        if tok.is_op("+"):
            self.advance()
            return self.parse_unary()
        # Cast: '(' type ')' unary
        if tok.is_op("(") and self.at_type(1):
            self.advance()
            target = self.parse_scalar_type()
            self.expect_op(")")
            return A.Cast(tok.loc, target, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while self.peek().is_op("["):
            loc = self.advance().loc
            index = self.parse_expr()
            self.expect_op("]")
            if not isinstance(expr, (A.Name, A.Index)):
                raise CSyntaxError("only named arrays can be indexed", loc)
            expr = A.Index(loc, expr, index)
        return expr

    def parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind is CTokKind.INT:
            self.advance()
            return A.IntLit(tok.loc, int(tok.value, 0))
        if tok.kind is CTokKind.FLOAT:
            self.advance()
            return A.FloatLit(tok.loc, float(tok.value))
        if tok.is_kw("true"):
            self.advance()
            return A.BoolLit(tok.loc, True)
        if tok.is_kw("false"):
            self.advance()
            return A.BoolLit(tok.loc, False)
        if tok.kind is CTokKind.IDENT:
            self.advance()
            if self.peek().is_op("("):
                # Intrinsic or user-function call; user calls are
                # flattened by repro.hls.inline before semantic analysis.
                self.advance()
                args: list[A.Expr] = []
                if not self.peek().is_op(")"):
                    args.append(self.parse_expr())
                    while self.peek().is_op(","):
                        self.advance()
                        args.append(self.parse_expr())
                self.expect_op(")")
                return A.Call(tok.loc, tok.value, args)
            return A.Name(tok.loc, tok.value)
        if tok.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise CSyntaxError(f"unexpected token {tok.value!r}", tok.loc)


def parse_c(
    text: str,
    filename: str = "<c>",
    *,
    tokens: list[CToken] | None = None,
) -> A.TranslationUnit:
    """Parse a C translation unit; raises :class:`CSyntaxError`.

    *tokens* lets a caller that already lexed *text* (the per-function
    compilation cache fingerprints the token stream before deciding
    whether to parse at all) hand the list over instead of lexing twice.
    """
    return _CParser(tokens if tokens is not None else clex(text, filename)).parse_unit()
