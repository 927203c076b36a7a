"""Three-address IR with a control-flow graph.

Design notes
------------
Scalar variables (parameters and locals) live in named *slots* accessed
through ``vread``/``vwrite`` ops rather than SSA phis: this keeps
lowering and interpretation simple while still exposing per-basic-block
dataflow to the scheduler (slot hazards become ordering edges).  Local
arrays are named memories accessed through ``load``/``store``.

Opcodes
-------
===========  =========================================================
``const``    attrs ``value``; materializes a literal
``vread``    attrs ``var``; read a variable slot
``vwrite``   attrs ``var``; operands ``(value,)``
``load``     attrs ``array``; operands ``(index,)``
``store``    attrs ``array``; operands ``(index, value)``
``add sub mul div mod shl shr and or xor``  binary arithmetic
``neg not lnot``                            unary arithmetic
``cmp``      attrs ``pred`` in lt/le/gt/ge/eq/ne
``select``   operands ``(cond, a, b)``
``cast``     attrs ``to``; numeric conversion
``sqrt``     float square root (intrinsic unit)
``br``       operands ``(cond,)``; attrs ``then``/``els`` (block names)
``jmp``      attrs ``target``
``ret``      operands ``()`` or ``(value,)``
===========  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.types import ArrayType, CType, ScalarType
from repro.util.errors import HlsError

TERMINATORS = frozenset({"br", "jmp", "ret"})

#: Opcodes with no side effects (eligible for DCE / const-folding).
PURE_OPS = frozenset(
    {
        "const",
        "add",
        "sub",
        "mul",
        "div",
        "mod",
        "shl",
        "shr",
        "and",
        "or",
        "xor",
        "neg",
        "not",
        "lnot",
        "cmp",
        "select",
        "cast",
        "sqrt",
    }
)

BINARY_OPS = frozenset({"add", "sub", "mul", "div", "mod", "shl", "shr", "and", "or", "xor"})
UNARY_OPS = frozenset({"neg", "not", "lnot"})


@dataclass(eq=False)
class Value:
    """An SSA-ish value produced by exactly one op."""

    vid: int
    type: ScalarType

    def __repr__(self) -> str:
        return f"%{self.vid}:{self.type}"


@dataclass(eq=False)
class Op:
    opcode: str
    result: Value | None = None
    operands: tuple[Value, ...] = ()
    attrs: dict = field(default_factory=dict)

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    def is_pure(self) -> bool:
        return self.opcode in PURE_OPS

    def __repr__(self) -> str:
        res = f"{self.result} = " if self.result is not None else ""
        ops = ", ".join(repr(o) for o in self.operands)
        attrs = f" {self.attrs}" if self.attrs else ""
        return f"{res}{self.opcode}({ops}){attrs}"


@dataclass(eq=False)
class Block:
    name: str
    ops: list[Op] = field(default_factory=list)

    def terminator(self) -> Op:
        if not self.ops or not self.ops[-1].is_terminator():
            raise HlsError(f"block {self.name!r} has no terminator")
        return self.ops[-1]

    def body(self) -> list[Op]:
        """Ops excluding the terminator."""
        if self.ops and self.ops[-1].is_terminator():
            return self.ops[:-1]
        return list(self.ops)

    def successors(self) -> list[str]:
        term = self.terminator()
        if term.opcode == "jmp":
            return [term.attrs["target"]]
        if term.opcode == "br":
            return [term.attrs["then"], term.attrs["els"]]
        return []


@dataclass
class LoopInfo:
    """Structural loop metadata recorded during lowering."""

    header: str
    blocks: list[str]  # header + body blocks + latch
    latch: str
    exit: str
    #: Compile-time trip count, if the loop matched the affine pattern.
    trip_count: int | None = None
    #: Directives (set via the directive file before scheduling).
    pipeline: bool = False
    unroll: int = 1
    #: Source label: name of the induction variable if known.
    ivar: str | None = None
    #: Explicit source label (`L1: for (...)`) if the code names the loop.
    label: str | None = None


@dataclass(eq=False)
class Function:
    name: str
    ret: ScalarType
    params: list[tuple[str, CType]]
    blocks: list[Block] = field(default_factory=list)
    #: Scalar slots: every parameter and local scalar, name -> type.
    slots: dict[str, ScalarType] = field(default_factory=dict)
    #: Local arrays: name -> ArrayType (sized).
    arrays: dict[str, ArrayType] = field(default_factory=dict)
    #: Initial contents for arrays with brace initializers (ROM tables);
    #: unspecified trailing elements are zero.
    array_init: dict[str, list] = field(default_factory=dict)
    #: Array parameters (unsized allowed): subset of params, name -> ArrayType.
    array_params: dict[str, ArrayType] = field(default_factory=dict)
    loops: list[LoopInfo] = field(default_factory=list)
    _next_vid: int = 0

    # -- construction helpers ------------------------------------------------
    def new_value(self, type_: ScalarType) -> Value:
        v = Value(self._next_vid, type_)
        self._next_vid += 1
        return v

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise HlsError(f"function {self.name!r} has no block {name!r}")

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise HlsError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def loop_of_block(self, block_name: str) -> LoopInfo | None:
        """Innermost loop containing *block_name* (loops list is outer-first)."""
        found: LoopInfo | None = None
        for loop in self.loops:
            if block_name in loop.blocks:
                found = loop
        return found

    # -- debugging ---------------------------------------------------------------
    def dump(self) -> str:
        lines = [f"func {self.name}({', '.join(n for n, _ in self.params)}) -> {self.ret}"]
        for b in self.blocks:
            lines.append(f"  {b.name}:")
            for op in b.ops:
                lines.append(f"    {op!r}")
        return "\n".join(lines)

    def verify(self) -> None:
        """Structural invariants: unique block names, terminators present,
        branch targets exist, every operand defined before use (per a
        def-before-use walk in CFG order is overkill; we check defs are
        unique and targets exist)."""
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise HlsError(f"function {self.name!r}: duplicate block names")
        defined: set[int] = set()
        for b in self.blocks:
            if not b.ops or not b.ops[-1].is_terminator():
                raise HlsError(f"block {b.name!r} lacks a terminator")
            for i, op in enumerate(b.ops):
                if op.is_terminator() and i != len(b.ops) - 1:
                    raise HlsError(f"block {b.name!r}: terminator mid-block")
                if op.result is not None:
                    if op.result.vid in defined:
                        raise HlsError(f"value %{op.result.vid} defined twice")
                    defined.add(op.result.vid)
            for target in b.successors():
                if target not in names:
                    raise HlsError(f"branch to unknown block {target!r}")

