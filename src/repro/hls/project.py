"""The Vivado-HLS-like project front door.

:class:`HlsProject` mirrors the tcl workflow the paper's tool generates
(Section IV-B steps 2-4): create a project, add sources, set the top
function, append interface/loop directives, then ``csynth()``.  It also
renders the two tcl artifacts the real flow would feed Vivado HLS — the
project script and the directives file.

:func:`synthesize_function` is the one-call variant used throughout the
tests and the flow orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.hls import fncache
from repro.hls.bind import Binding, bind_function
from repro.hls.clex import clex, token_fingerprint
from repro.hls.cparse import parse_c
from repro.hls.inline import inline_functions
from repro.hls.fsm import Fsm, build_fsm
from repro.hls.interfaces import (
    Directive,
    InterfaceMode,
    InterfaceSpec,
    allocation_limits,
    directives_file,
    interface,
    loop_directives,
    partition_specs,
    resolve_interfaces,
)
from repro.hls.interp import ExecStats, Interpreter
from repro.hls.ir import Function
from repro.hls.latency import LatencyReport, function_latency
from repro.hls.lower import lower_function
from repro.hls.passes import run_default_pipeline, tag_const_muls
from repro.hls.report import SynthesisReport
from repro.hls.resources import ResourceUsage, estimate_core
from repro.hls.rtl import emit_core
from repro.hls.schedule import CLOCK_NS, FunctionSchedule, schedule_function
from repro.hls.sema import analyze
from repro.util.errors import HlsError


@dataclass
class SynthesisResult:
    """Everything produced by one ``csynth`` run of one core."""

    top: str
    function: Function
    schedule: FunctionSchedule
    binding: Binding
    fsm: Fsm
    iface: InterfaceSpec
    resources: ResourceUsage
    latency: LatencyReport
    verilog: str
    directives: list[Directive]
    report: SynthesisReport
    #: True when the pass pipeline reached a genuine fixpoint.
    pipeline_converged: bool = True
    #: Per-function memo lookups that served this synthesis (0-2: the
    #: front-end stage and the full-result stage) and the complement.
    fn_cache_hits: int = 0
    fn_cache_misses: int = 0

    def interpreter(self) -> Interpreter:
        """Executable model of the core (used by csim and the simulator)."""
        return Interpreter(self.function)

    def run(self, *args):
        """Execute the core's behaviour on concrete arguments."""
        return self.interpreter().run(*args)


#: Sentinel: "use the process-default cache" (pass ``None`` to disable).
_ACTIVE_CACHE = object()

#: Token fingerprints of recently seen sources — the DSE hot loop calls
#: ``synthesize_function`` with the same text over and over, and lexing
#: just to recompute a known fingerprint would dominate a memo hit.
_FP_MEMO: "OrderedDict[str, str]" = __import__("collections").OrderedDict()
_FP_MEMO_CAP = 128


def _source_fingerprint(source: str) -> tuple[str, list | None]:
    """Token fingerprint of *source*, plus the token list when this call
    had to lex (``None`` on a memo hit) so a cold compile can hand it to
    the parser instead of lexing again."""
    fp = _FP_MEMO.get(source)
    if fp is not None:
        _FP_MEMO.move_to_end(source)
        return fp, None
    tokens = clex(source)
    fp = _FP_MEMO[source] = token_fingerprint(tokens)
    while len(_FP_MEMO) > _FP_MEMO_CAP:
        _FP_MEMO.popitem(last=False)
    return fp, tokens


def synthesize_function(
    source: str,
    top: str,
    directives: list[Directive] | tuple[Directive, ...] = (),
    *,
    limits: dict[str, int] | None = None,
    default_trip: int = 256,
    optimize: bool = True,
    cache: "fncache.FunctionCache | None" = _ACTIVE_CACHE,  # type: ignore[assignment]
) -> SynthesisResult:
    """Full HLS pipeline for one C function; see module docstring.

    The pipeline is memoized at two levels through *cache* (default: the
    process-wide :func:`repro.hls.fncache.active_cache`): the front end
    (token fingerprint → lowered, optimized and ``const_operand``-tagged
    IR) and the full result
    (front-end key + directives slice → :class:`SynthesisResult`).  Both
    serve exactly what an uncached run would compute — every stage is
    deterministic in the cached key — so artifacts stay byte-identical.
    """
    if cache is _ACTIVE_CACHE:
        cache = fncache.active_cache()
    dir_list = list(directives)
    hits = misses = 0

    entry = None
    tokens = None
    if cache is not None:
        fp, tokens = _source_fingerprint(source)
        fe_key = fncache.frontend_key(fp, top, optimize)
        entry = cache.get(fe_key, stage="frontend", fn_name=top)
        if entry is not None:
            hits += 1
        else:
            misses += 1
    fn = None
    converged = True
    if entry is None:
        unit = parse_c(source, tokens=tokens)
        inline_functions(unit)
        sema = analyze(unit)
        fn = lower_function(sema, top)
        if optimize:
            pipe = run_default_pipeline(fn)
            converged = pipe.converged
        tag_const_muls(fn)
        if cache is not None:
            entry = fncache.FrontendEntry(fn, converged)
            cache.put(fe_key, entry, stage="frontend", fn_name=top)

    if cache is not None:
        slice_tcl = directives_file([d for d in dir_list if d.function == top])
        r_key = fncache.result_key(fe_key, slice_tcl, limits, default_trip)
        if hits:  # the front end hit, so the result may too
            cached = cache.get(r_key, stage="result", fn_name=top)
            if cached is not None:
                return replace(
                    cached,
                    directives=dir_list,
                    fn_cache_hits=hits + 1,
                    fn_cache_misses=misses,
                )
        else:
            # The result key embeds the front-end key that just missed.
            cache.count_miss(r_key, stage="result", fn_name=top)
        misses += 1
        # The entry is never written: loop directives go on a copy.
        fn = entry.materialize()
        converged = entry.converged
    loop_directives(fn, dir_list)
    limits = {**allocation_limits(top, dir_list), **(limits or {})}
    partitions = partition_specs(top, dir_list)
    for array, (kind, factor) in partitions.items():
        if array not in fn.arrays and array not in fn.array_params:
            raise HlsError(f"{top}: array_partition on unknown array {array!r}")
        if kind == "complete":
            size = fn.arrays.get(array, fn.array_params.get(array)).size or 1024
            limits.setdefault(f"mem:{array}", 2 * size)
        else:
            limits.setdefault(f"mem:{array}", 2 * factor)
    schedule = schedule_function(fn, limits=limits)
    binding = bind_function(fn, schedule)
    fsm = build_fsm(fn, schedule)
    iface = resolve_interfaces(fn, dir_list)
    latency = function_latency(fn, schedule, default_trip=default_trip, limits=limits)
    resources = estimate_core(
        fn,
        schedule,
        binding,
        iface,
        fsm.num_states,
        partitioned={a for a, (k, _) in partitions.items() if k == "complete"},
    )
    verilog = emit_core(fn, schedule, binding, fsm, iface)
    report = SynthesisReport(
        core=top,
        clock_ns=CLOCK_NS,
        states=fsm.num_states,
        latency=latency,
        resources=resources,
        registers=binding.total_register_bits(),
        fu_counts=dict(binding.fu_counts),
    )
    result = SynthesisResult(
        top=top,
        function=fn,
        schedule=schedule,
        binding=binding,
        fsm=fsm,
        iface=iface,
        resources=resources,
        latency=latency,
        verilog=verilog,
        directives=dir_list,
        report=report,
        pipeline_converged=converged,
        fn_cache_hits=hits,
        fn_cache_misses=misses,
    )
    if cache is not None:
        cache.put(r_key, result, stage="result", fn_name=top)
    return result


@dataclass
class HlsProject:
    """A Vivado-HLS-style project: sources + top + directives.

    The method names follow the tcl commands the paper's tool emits:
    ``add_files``, ``set_top``, ``csynth_design`` (as :meth:`csynth`).
    """

    name: str
    sources: list[str] = field(default_factory=list)
    top: str | None = None
    directives: list[Directive] = field(default_factory=list)
    clock_ns: float = CLOCK_NS
    part: str = "xc7z020clg484-1"  # the Zedboard device
    _result: SynthesisResult | None = None

    # -- tcl-like API ------------------------------------------------------
    def add_files(self, source: str) -> "HlsProject":
        self.sources.append(source)
        return self

    def set_top(self, top: str) -> "HlsProject":
        self.top = top
        return self

    def add_directive(self, directive: Directive) -> "HlsProject":
        self.directives.append(directive)
        return self

    def stream_port(self, port: str) -> "HlsProject":
        """Declare *port* as AXI-Stream (the DSL's ``is`` keyword)."""
        if self.top is None:
            raise HlsError("set_top before declaring interfaces")
        return self.add_directive(interface(self.top, port, InterfaceMode.AXIS))

    def lite_port(self, port: str) -> "HlsProject":
        """Declare *port* as AXI-Lite (the DSL's ``i`` keyword)."""
        if self.top is None:
            raise HlsError("set_top before declaring interfaces")
        return self.add_directive(interface(self.top, port, InterfaceMode.S_AXILITE))

    # -- synthesis -----------------------------------------------------------
    def csynth(
        self,
        *,
        limits: dict[str, int] | None = None,
        default_trip: int = 256,
        cache: "fncache.FunctionCache | None" = _ACTIVE_CACHE,  # type: ignore[assignment]
    ) -> SynthesisResult:
        """Synthesize the top function; *cache* as for
        :func:`synthesize_function`."""
        if self.top is None:
            raise HlsError(f"project {self.name!r}: no top function set")
        if not self.sources:
            raise HlsError(f"project {self.name!r}: no sources added")
        self._result = synthesize_function(
            "\n".join(self.sources),
            self.top,
            self.directives,
            limits=limits,
            default_trip=default_trip,
            cache=cache,
        )
        return self._result

    @property
    def result(self) -> SynthesisResult:
        if self._result is None:
            raise HlsError(f"project {self.name!r}: csynth has not run")
        return self._result

    def csim(self, *args):
        """C-simulation: execute the synthesized behaviour on *args*."""
        return self.result.run(*args)

    def content_key(self, backend_version: str = "") -> str:
        """Content digest of this project's build inputs.

        Everything ``csynth`` depends on — source text, top name,
        directives in application order — plus the tcl backend version;
        the key of the flow's content-addressed build cache.
        """
        from repro.flow.buildcache import cache_key  # lazy: avoid layer cycle

        if self.top is None:
            raise HlsError(f"project {self.name!r}: no top function set")
        return cache_key(
            self.top, "\n".join(self.sources), self.directives_tcl(), backend_version
        )

    # -- artifacts ---------------------------------------------------------------
    def script_tcl(self) -> str:
        """The Vivado HLS project script the paper's tool generates."""
        lines = [
            f"open_project {self.name}",
            f"set_top {self.top}",
            f"add_files {self.name}/{self.top}.c",
            "open_solution solution1",
            f"set_part {{{self.part}}}",
            f"create_clock -period {self.clock_ns:g} -name default",
            f"source {self.name}/directives.tcl",
            "csynth_design",
            "export_design -format ip_catalog",
            "exit",
        ]
        return "\n".join(lines) + "\n"

    def directives_tcl(self) -> str:
        return directives_file(self.directives)


def verify_stream_discipline(result: SynthesisResult, *args) -> None:
    """Check every AXI-Stream port is accessed strictly sequentially.

    Runs the core's behaviour on *args* with access tracking and raises
    :class:`HlsError` if a stream input is not read exactly
    ``0, 1, ..., n-1`` (or an output not written in that order) — the
    discipline a real axis interface physically enforces.  Local arrays
    and ``m_axi`` ports may be accessed randomly.
    """
    _, stats = result.interpreter().run(*args, track_access=True)
    for stream in result.iface.streams:
        atype = result.function.array_params[stream.name]
        expected = list(range(atype.size or 0))
        if stream.direction == "in":
            accesses = stats.reads.get(stream.name, [])
            kind = "read"
            if stats.writes.get(stream.name):
                raise HlsError(
                    f"{result.top}: stream input {stream.name!r} is written"
                )
        else:
            accesses = stats.writes.get(stream.name, [])
            kind = "written"
            if stats.reads.get(stream.name):
                raise HlsError(
                    f"{result.top}: stream output {stream.name!r} is read back"
                )
        if accesses != expected:
            preview = accesses[:8]
            raise HlsError(
                f"{result.top}: stream port {stream.name!r} must be {kind} "
                f"sequentially 0..{len(expected) - 1}; observed order starts "
                f"{preview}"
            )


#: Approximate ARM Cortex-A9 cycles per executed IR op, by class.  Loads
#: hit the L1 most of the time; integer division and every float op go
#: through multi-cycle units (the A9 FPU is not single-cycle).
_SW_OP_CYCLES = {
    "div": 12.0,
    "mod": 12.0,
    "mul": 2.0,
    "load": 3.0,
    "store": 2.0,
    "sqrt": 16.0,
    "br": 2.0,  # branch misprediction amortized
}
_SW_DEFAULT_OP_CYCLES = 1.0
_SW_FLOAT_EXTRA = 3.0  # fadd/fmul/fdiv executed on the VFP


def estimate_sw_cycles(result: SynthesisResult, *args, scale: float = 1.0) -> int:
    """Software-execution cost proxy: per-opcode-weighted dynamic count.

    Runs the core's behaviour on *args* and converts the executed IR ops
    into an estimated ARM Cortex-A9 cycle count using a per-class CPI
    table (divisions, float ops and memory accesses cost more than ALU
    ops).  Used by the DSE cost model when no measured ``sw_cycles`` is
    available.
    """
    _, stats = result.interpreter().run(*args, collect_stats=True)
    assert isinstance(stats, ExecStats)
    total = 0.0
    has_float = any(cls.startswith("f") for cls in result.binding.fu_counts)
    for opcode, n in stats.by_opcode.items():
        cost = _SW_OP_CYCLES.get(opcode, _SW_DEFAULT_OP_CYCLES)
        if has_float and opcode in ("add", "sub", "mul", "div"):
            cost += _SW_FLOAT_EXTRA
        total += n * cost
    return int(total * scale)


__all__ = [
    "HlsProject",
    "SynthesisResult",
    "estimate_sw_cycles",
    "synthesize_function",
    "verify_stream_discipline",
]
