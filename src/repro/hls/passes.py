"""IR optimization passes.

All passes are local (per basic block) and conservative; they run to a
fixpoint through :func:`run_default_pipeline`:

* ``forward_slots`` — within a block, a ``vread`` following a ``vwrite``
  of the same variable forwards the written value; duplicate ``vread``\\ s
  merge; a ``vwrite`` made dead by a later ``vwrite`` in the same block
  (with no intervening read) is dropped.
* ``constant_fold`` — pure ops with all-constant operands are evaluated
  with the interpreter's own arithmetic (:func:`~repro.hls.interp.eval_pure`).
* ``strength_reduce`` — multiplications/divisions/modulo by powers of two
  become shifts/masks (signedness-aware); algebraic identities
  (``x*1``, ``x+0``, ``x&0`` ...) simplify.  This is what keeps DSP
  counts honest in the resource model.
* ``cse`` — local common-subexpression elimination (commutative-aware).
* ``dead_slot_stores`` — writes to variables never read anywhere go away.
* ``dce`` — pure ops whose results are never used are removed.

Passes rewrite operand references through a replacement map instead of
inserting copy ops, so the IR never grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hls.interp import eval_pure
from repro.hls.ir import Block, Function, Op, Value
from repro.hls.types import ScalarType
from repro.util.errors import HlsError


def _apply_replacements(fn: Function, repl: dict[int, Value]) -> None:
    """Rewrite all operand references through *repl* in one pass.

    The map is flattened first (each chain walked once, results shared
    across entries), then applied with plain dict lookups; an op's
    operand tuple is rebuilt only when one of its operands actually
    changed, so untouched ops cost one membership test per operand
    instead of a new tuple per op per pass invocation.
    """
    if not repl:
        return
    resolved: dict[int, Value] = {}
    for vid in repl:
        if vid in resolved:
            continue
        chain = [vid]
        v = repl[vid]
        while v.vid in repl and v.vid not in resolved:
            if v.vid in chain:  # pragma: no cover - defensive
                raise HlsError("replacement cycle")
            chain.append(v.vid)
            v = repl[v.vid]
        v = resolved.get(v.vid, v)
        for c in chain:
            resolved[c] = v
    for block in fn.blocks:
        for op in block.ops:
            operands = op.operands
            for v in operands:
                if v.vid in resolved:
                    op.operands = tuple(resolved.get(o.vid, o) for o in operands)
                    break


def _const_map(fn: Function) -> dict[int, int | float]:
    """vid -> value for every ``const`` op (one scan, shared by passes)."""
    return {
        op.result.vid: op.attrs["value"]
        for block in fn.blocks
        for op in block.ops
        if op.opcode == "const"
    }


def forward_slots(fn: Function) -> bool:
    """Local load/store forwarding on variable slots; returns True if changed."""
    changed = False
    repl: dict[int, Value] = {}
    for block in fn.blocks:
        last_write: dict[str, Value] = {}
        last_read: dict[str, Value] = {}
        pending_write: dict[str, Op] = {}
        dead: set[int] = set()
        for op in block.ops:
            if op.opcode == "vwrite":
                var = op.attrs["var"]
                if var in pending_write:
                    # Previous write is overwritten with no read in between.
                    dead.add(id(pending_write[var]))
                    changed = True
                pending_write[var] = op
                last_write[var] = op.operands[0]
                last_read.pop(var, None)
            elif op.opcode == "vread":
                var = op.attrs["var"]
                if var in last_write:
                    src = last_write[var]
                    if src.type == op.result.type:
                        repl[op.result.vid] = src
                        dead.add(id(op))
                        changed = True
                    pending_write.pop(var, None)
                elif var in last_read:
                    repl[op.result.vid] = last_read[var]
                    dead.add(id(op))
                    changed = True
                else:
                    last_read[var] = op.result
                    pending_write.pop(var, None)
        if dead:
            block.ops = [op for op in block.ops if id(op) not in dead]
    _apply_replacements(fn, repl)
    return changed


def constant_fold(fn: Function) -> bool:
    """Fold pure ops with all-constant operands; returns True if changed."""
    changed = False
    const_vals = _const_map(fn)
    for block in fn.blocks:
        for op in block.ops:
            if (
                op.opcode in ("const",)
                or not op.is_pure()
                or op.result is None
                or not op.operands
            ):
                continue
            if all(v.vid in const_vals for v in op.operands):
                args = tuple(const_vals[v.vid] for v in op.operands)
                try:
                    value = eval_pure(op.opcode, op.attrs, args, op.result.type)
                except HlsError:
                    continue  # e.g. constant division by zero: leave for runtime
                op.opcode = "const"
                op.operands = ()
                op.attrs = {"value": value}
                const_vals[op.result.vid] = value
                changed = True
    return changed


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


def strength_reduce(fn: Function) -> bool:
    """Shift/mask rewrites and algebraic identities; returns True if changed."""
    changed = False
    const_ops = _const_map(fn)
    repl: dict[int, Value] = {}

    def make_const(block: Block, idx: int, value: int, t: ScalarType) -> Value:
        v = fn.new_value(t)
        block.ops.insert(idx, Op("const", v, (), {"value": value}))
        const_ops[v.vid] = value
        return v

    for block in fn.blocks:
        i = 0
        while i < len(block.ops):
            op = block.ops[i]
            i += 1
            if op.result is None or op.result.type.is_float:
                continue
            t = op.result.type
            if op.opcode == "mul":
                for self_idx, const_idx in ((0, 1), (1, 0)):
                    cv = const_ops.get(op.operands[const_idx].vid)
                    if isinstance(cv, int):
                        if cv == 1:
                            repl[op.result.vid] = op.operands[self_idx]
                            op.opcode = "const"
                            op.operands = ()
                            op.attrs = {"value": 0}
                            changed = True
                            break
                        if cv == 0:
                            op.opcode = "const"
                            op.operands = ()
                            op.attrs = {"value": 0}
                            const_ops[op.result.vid] = 0
                            changed = True
                            break
                        if _is_pow2(cv):
                            shift = make_const(block, i - 1, cv.bit_length() - 1, t)
                            i += 1
                            op.opcode = "shl"
                            op.operands = (op.operands[self_idx], shift)
                            changed = True
                            break
            elif op.opcode == "div" and not t.signed:
                cv = const_ops.get(op.operands[1].vid)
                if isinstance(cv, int) and _is_pow2(cv) and cv > 1:
                    shift = make_const(block, i - 1, cv.bit_length() - 1, t)
                    i += 1
                    op.opcode = "shr"
                    op.operands = (op.operands[0], shift)
                    changed = True
            elif op.opcode == "mod" and not t.signed:
                cv = const_ops.get(op.operands[1].vid)
                if isinstance(cv, int) and _is_pow2(cv):
                    mask = make_const(block, i - 1, cv - 1, t)
                    i += 1
                    op.opcode = "and"
                    op.operands = (op.operands[0], mask)
                    changed = True
            elif op.opcode in ("add", "sub"):
                cv = const_ops.get(op.operands[1].vid)
                if cv == 0:
                    repl[op.result.vid] = op.operands[0]
                    op.opcode = "const"
                    op.operands = ()
                    op.attrs = {"value": 0}
                    changed = True
                elif op.opcode == "add" and const_ops.get(op.operands[0].vid) == 0:
                    repl[op.result.vid] = op.operands[1]
                    op.opcode = "const"
                    op.operands = ()
                    op.attrs = {"value": 0}
                    changed = True
    _apply_replacements(fn, repl)
    return changed


def cse(fn: Function) -> bool:
    """Local common-subexpression elimination.

    Within a block, two pure ops with the same opcode, operands and
    attributes compute the same value; later occurrences are replaced by
    the first.  Commutative ops match under operand swap.  Duplicate
    ``load``\\ s of the same (array, index) merge too, invalidated by any
    intervening store to that array — which, besides saving a port, is
    what makes ``in[i] + in[i]`` legal on an AXI-Stream input.  Returns
    True if anything was eliminated.
    """
    commutative = {"add", "mul", "and", "or", "xor"}
    changed = False
    repl: dict[int, Value] = {}
    for block in fn.blocks:
        seen: dict[tuple, Value] = {}
        seen_loads: dict[tuple[str, int], Value] = {}
        keep: list[Op] = []
        for op in block.ops:
            if op.opcode == "load":
                key2 = (op.attrs["array"], op.operands[0].vid)
                prior_load = seen_loads.get(key2)
                if prior_load is not None and prior_load.type == op.result.type:
                    repl[op.result.vid] = prior_load
                    changed = True
                    continue
                seen_loads[key2] = op.result
                keep.append(op)
                continue
            if op.opcode == "store":
                arr = op.attrs["array"]
                seen_loads = {
                    k: v for k, v in seen_loads.items() if k[0] != arr
                }
                keep.append(op)
                continue
            if not op.is_pure() or op.result is None or op.opcode == "const":
                keep.append(op)
                continue
            operands = tuple(v.vid for v in op.operands)
            if op.opcode in commutative and len(operands) == 2:
                operands = tuple(sorted(operands))
            if op.opcode == "cmp":
                key = (op.opcode, op.attrs["pred"], operands)
            elif op.opcode == "cast":
                key = (op.opcode, op.attrs["to"].name, operands)
            else:
                key = (op.opcode, operands)
            prior = seen.get(key)
            if prior is not None and prior.type == op.result.type:
                repl[op.result.vid] = prior
                changed = True
                continue
            seen[key] = op.result
            keep.append(op)
        block.ops = keep
    _apply_replacements(fn, repl)
    return changed


def dce(fn: Function) -> bool:
    """Remove pure ops with unused results; returns True if changed."""
    changed = False
    while True:
        used: set[int] = set()
        for block in fn.blocks:
            for op in block.ops:
                for v in op.operands:
                    used.add(v.vid)
        removed = False
        for block in fn.blocks:
            keep: list[Op] = []
            for op in block.ops:
                if (
                    op.is_pure()
                    and op.result is not None
                    and op.result.vid not in used
                ):
                    removed = True
                    changed = True
                    continue
                keep.append(op)
            block.ops = keep
        if not removed:
            return changed


def dead_slot_stores(fn: Function) -> bool:
    """Remove ``vwrite`` ops to variables never read anywhere.

    Variable slots are invisible outside the function (results leave via
    ``ret`` or array stores), so a write to a never-read slot is dead.
    Returns True if anything was removed.
    """
    read_vars = {
        op.attrs["var"]
        for block in fn.blocks
        for op in block.ops
        if op.opcode == "vread"
    }
    changed = False
    for block in fn.blocks:
        keep = []
        for op in block.ops:
            if op.opcode == "vwrite" and op.attrs["var"] not in read_vars:
                changed = True
                continue
            keep.append(op)
        block.ops = keep
    return changed


def tag_const_muls(fn: Function, *, small_bits: int = 18) -> int:
    """Tag integer multiplications with a small constant operand.

    A DSP48E1 multiplies 25×18 bits; a multiplication by a constant that
    fits 18 bits occupies a single slice, while a general 32×32 product
    needs three.  The scheduler and the resource model treat tagged ops
    as the cheaper ``mul_small`` class.  Returns the number of tagged ops.
    """
    const_vals = _const_map(fn)
    limit = 1 << (small_bits - 1)
    tagged = 0
    for block in fn.blocks:
        for op in block.ops:
            if op.opcode != "mul" or op.result is None or op.result.type.is_float:
                continue
            for v in op.operands:
                cv = const_vals.get(v.vid)
                if isinstance(cv, int) and -limit <= cv < limit:
                    op.attrs["const_operand"] = True
                    tagged += 1
                    break
    return tagged


#: The standard pass order; repeated until nothing changes.
DEFAULT_PASSES = (
    forward_slots,
    constant_fold,
    strength_reduce,
    cse,
    dead_slot_stores,
    dce,
)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one :func:`run_default_pipeline` invocation.

    ``converged`` is True when an iteration completed with no pass
    reporting a change — a genuine fixpoint.  False means the iteration
    bound cut the pipeline off while passes were still rewriting: the IR
    is valid (it is verified either way) but not fully optimized, which
    the caller should surface rather than silently accept.
    """

    fn: Function
    converged: bool
    iterations: int


def run_default_pipeline(fn: Function, *, max_iters: int = 10) -> PipelineResult:
    """Run the default pass pipeline to a fixpoint (bounded).

    Non-convergence within *max_iters* is **reported**, not swallowed:
    the returned :class:`PipelineResult` carries the flag and, when
    observability is enabled, an ``hls.pipeline`` event records the
    function and iteration bound.
    """
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        changed = False
        for pass_fn in DEFAULT_PASSES:
            changed |= pass_fn(fn)
        if not changed:
            converged = True
            break
    fn.verify()
    if not converged:
        from repro.obs.events import BUS as _BUS

        if _BUS.enabled:
            from repro.obs.metrics import REGISTRY as _METRICS

            _BUS.emit(
                "hls.pipeline",
                "nonconvergence",
                fn=fn.name,
                max_iters=max_iters,
            )
            _METRICS.counter(
                "hls.pipeline_nonconverged_total",
                "pass pipelines stopped by the iteration bound, not a fixpoint",
            ).inc()
    return PipelineResult(fn, converged, iterations)
