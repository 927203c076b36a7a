"""Generated application skeleton (`main.c`).

Flow step 5 of paper Section II: "the application that runs on the GPP
is updated to take advantage of the new hardware accelerators".  This
module emits the C main that a designer would start from — opening the
DMA devices, invoking each AXI-Lite core through its generated API, and
moving every boundary stream through ``writeDMA``/``readDMA``.

Every hardware interaction is wrapped in the retry ladder a deployed
system needs: bounded waits (``<core>_wait_timeout``,
``readDMA_timeout``/``writeDMA_timeout``), a soft reset between
attempts, and a **working software fallback** once the retry budget is
spent.  The fallback is not a TODO stub: when the cores' C sources are
available (the flow always passes them), each core's function is
embedded as ``<core>_golden`` — the exact C the HLS engine synthesized,
renamed — and the fallback branches call it with the same arguments and
buffers the hardware would have used, chained along the stream topology
for the DMA pipeline.  Register writes likewise initialize from the
core's real register map: one named variable per argument register,
annotated with its offset and width, instead of a ``0 /* TODO */``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.soc.integrator import IntegratedSystem

_CTRL_NAMES = {"CTRL", "GIE", "IER", "ISR"}


@lru_cache(maxsize=64)
def _golden_source(name: str, source: str) -> str:
    """The core's C source with its top function renamed ``<name>_golden``.

    The rename is token-exact (word boundaries), so recursive calls keep
    pointing at the golden copy and unrelated identifiers that merely
    contain the name are untouched.  Memoized: every candidate of a DSE
    campaign embeds the same few cores.
    """
    renamed = re.sub(rf"\b{re.escape(name)}\b", f"{name}_golden", source)
    return (
        f"/* Golden software version of {name!r} — the synthesized C itself,\n"
        " * kept callable for the hardware-failure fallback path. */\n"
        f"static {renamed.strip()}\n"
    )


def _stream_chain(system: IntegratedSystem) -> list[str]:
    """Stream nodes in dataflow order (producer before consumer)."""
    nodes = [n.name for n in system.graph.nodes if n.stream_ports()]
    deps: dict[str, set[str]] = {n: set() for n in nodes}
    for link in system.graph.links():
        if isinstance(link.src, tuple) and isinstance(link.dst, tuple):
            deps[link.dst[0]].add(link.src[0])
    ordered: list[str] = []
    while deps:
        ready = sorted(n for n, d in deps.items() if d <= set(ordered))
        if not ready:  # cycle — validated earlier, but never loop here
            ordered += sorted(deps)
            break
        ordered.append(ready[0])
        del deps[ready[0]]
    return ordered


def _port_buffers(
    system: IntegratedSystem, buffer_of: dict[int, str]
) -> tuple[dict[tuple[str, str], str], list[str]]:
    """Map every stream ``(node, port)`` to a C buffer name.

    Boundary ports reuse the DMA buffers; core-to-core links get
    dedicated ``sw_tmp<k>`` intermediates (declared by the caller).
    Returns ``(mapping, intermediate buffer names)``.
    """
    mapping: dict[tuple[str, str], str] = {}
    temps: list[str] = []
    for binding in system.dmas:
        if binding.mm2s_link is not None and isinstance(binding.mm2s_link.dst, tuple):
            mapping[binding.mm2s_link.dst] = buffer_of[id(binding.mm2s_link)]
        if binding.s2mm_link is not None and isinstance(binding.s2mm_link.src, tuple):
            mapping[binding.s2mm_link.src] = buffer_of[id(binding.s2mm_link)]
    for link in system.graph.links():
        if isinstance(link.src, tuple) and isinstance(link.dst, tuple):
            name = f"sw_tmp{len(temps)}"
            temps.append(name)
            mapping[link.src] = name
            mapping[link.dst] = name
    return mapping, temps


def _golden_call(core: str, result, args_of) -> str:
    """Render ``<core>_golden(...)`` with per-parameter arguments.

    *args_of* maps a parameter name to its C expression; parameters it
    does not know (unbound scalars) pass 0.
    """
    exprs = [args_of.get(pname, "0") for pname, _ in result.function.params]
    return f"{core}_golden({', '.join(exprs)})"


def generate_main_c(
    system: IntegratedSystem,
    *,
    buffer_words: int = 1024,
    c_sources: dict[str, str] | None = None,
) -> str:
    """Render the application skeleton for *system*.

    *c_sources* (node -> C text) enables the golden-software fallbacks;
    the flow passes the exact sources it synthesized.  Without a source
    for a core, its fallback branch reports and continues — but never
    emits a TODO.
    """
    c_sources = c_sources or {}
    lines = [
        "/* Auto-generated application skeleton.",
        " * Replace the buffer setup with real application data. */",
        "#include <stdio.h>",
        "#include <stdint.h>",
        "",
        '#include "dma_api.h"' if system.dmas else "",
    ]
    for edge in system.graph.connects():
        lines.append(f'#include "{edge.node}_accel.h"')
    lines += [
        "",
        "/* Recovery ladder: watchdog -> reset -> retry -> software fallback. */",
        "#define ACCEL_TIMEOUT 10000000u /* watchdog budget per attempt */",
        "#define ACCEL_RETRIES 3",
    ]

    # Golden software fallbacks: the synthesized C itself, renamed.
    golden: set[str] = set()
    for node in system.graph.nodes:
        source = c_sources.get(node.name)
        if source:
            lines += ["", _golden_source(node.name, source).rstrip()]
            golden.add(node.name)
    lines += [
        "",
        "int main(void) {",
    ]

    # DMA devices.
    for i, binding in enumerate(system.dmas):
        lines.append(f'    int dma{i} = openDMA("/dev/axidma{i}");')
    if system.dmas:
        lines.append("")

    # Buffers for every boundary stream.
    buf_id = 0
    buffer_of: dict[int, str] = {}
    for i, binding in enumerate(system.dmas):
        if binding.mm2s_link is not None:
            name = f"in_buf{buf_id}"
            lines.append(f"    static int32_t {name}[{buffer_words}];")
            buffer_of[id(binding.mm2s_link)] = name
            buf_id += 1
        if binding.s2mm_link is not None:
            name = f"out_buf{buf_id}"
            lines.append(f"    static int32_t {name}[{buffer_words}];")
            buffer_of[id(binding.s2mm_link)] = name
            buf_id += 1
    if buffer_of:
        lines.append("")

    # AXI-Lite invocations (the control pattern the API wraps), each
    # under the retry ladder: bounded wait, reset between attempts,
    # golden-software fallback once the budget is spent.
    for edge in system.graph.connects():
        core = edge.node
        result = system.cores[core]
        arg_regs = [
            r
            for r in result.iface.registers
            if r.name not in _CTRL_NAMES and r.direction == "in"
        ]
        has_return = any(r.name == "return" for r in result.iface.registers)
        lines.append(f"    /* invoke {core} (retry, then software fallback) */")
        lines.append("    {")
        if arg_regs:
            lines.append(f"        /* {core} argument registers (from the register map) */")
        for reg in arg_regs:
            lines.append(
                f"        uint32_t {core}_arg_{reg.name} = 0u; "
                f"/* reg {reg.name} @ 0x{reg.offset:02X}, {reg.width} bits */"
            )
        if has_return:
            lines.append(f"        uint32_t {core}_result = 0u;")
        lines.append("        int attempt, ok = 0;")
        lines.append(
            "        for (attempt = 1; attempt <= ACCEL_RETRIES && !ok; ++attempt) {"
        )
        for reg in arg_regs:
            lines.append(f"            {core}_set_{reg.name}({core}_arg_{reg.name});")
        lines.append(f"            {core}_start();")
        lines.append(f"            ok = {core}_wait_timeout(ACCEL_TIMEOUT) == 0;")
        lines.append(f"            if (!ok) {core}_reset();")
        lines.append("        }")
        if has_return:
            lines.append(f"        if (ok) {core}_result = {core}_get_return();")
        lines.append("        if (!ok) {")
        lines.append(
            f'            fprintf(stderr, "{core}: hardware gave up, '
            'falling back to software\\n");'
        )
        if core in golden:
            args_of = {r.name: f"{core}_arg_{r.name}" for r in arg_regs}
            call = _golden_call(core, result, args_of)
            if has_return:
                lines.append(f"            {core}_result = {call};")
            else:
                lines.append(f"            {call};")
        else:
            lines.append(f"            /* no C source was supplied for {core} */")
        lines.append("        }")
        if has_return:
            lines.append(f'        printf("{core} -> %u\\n", {core}_result);')
        lines.append("    }")
        lines.append("")

    # Stream transfers: start every read first, then push the inputs
    # (the S2MM channel must be armed before data can drain into it).
    # A timed-out transfer resets every engine and the whole set is
    # retried; persistent failure falls back to the software pipeline —
    # the golden functions chained along the stream topology.
    if system.dmas:
        port_buf, temps = _port_buffers(system, buffer_of)
        chain = _stream_chain(system)
        lines.append("    {")
        lines.append("        int attempt, ok = 0;")
        lines.append(
            "        for (attempt = 1; attempt <= ACCEL_RETRIES && !ok; ++attempt) {"
        )
        lines.append("            ok = 1;")
        for i, binding in enumerate(system.dmas):
            if binding.s2mm_link is not None:
                buf = buffer_of[id(binding.s2mm_link)]
                lines.append(
                    f"            ok &= readDMA_timeout(dma{i}, {buf}, "
                    f"sizeof {buf}, ACCEL_TIMEOUT) >= 0;   /* arm S2MM */"
                )
        for i, binding in enumerate(system.dmas):
            if binding.mm2s_link is not None:
                buf = buffer_of[id(binding.mm2s_link)]
                dst = binding.mm2s_link.dst
                label = f"{dst[0]}.{dst[1]}" if isinstance(dst, tuple) else "soc"
                lines.append(
                    f"            ok &= writeDMA_timeout(dma{i}, {buf}, "
                    f"sizeof {buf}, ACCEL_TIMEOUT) >= 0;  /* -> {label} */"
                )
        lines.append("            if (!ok) {")
        for i, _ in enumerate(system.dmas):
            lines.append(
                f"                resetDMA(dma{i}); /* clear wedged channels */"
            )
        lines.append("            }")
        lines.append("        }")
        lines.append("        if (!ok) {")
        lines.append(
            '            fprintf(stderr, "DMA pipeline gave up, '
            'falling back to software\\n");'
        )
        if chain and all(node in golden for node in chain):
            for name in temps:
                lines.append(f"            static int32_t {name}[{buffer_words}];")
            lines.append(
                "            /* software pipeline: golden cores chained "
                "along the stream links */"
            )
            for node in chain:
                result = system.cores[node]
                args_of = {
                    pname: f"(int *){port_buf[(node, pname)]}"
                    for pname, _ in result.function.params
                    if (node, pname) in port_buf
                }
                lines.append(
                    f"            {_golden_call(node, result, args_of)};"
                )
        else:
            lines.append(
                "            /* no C sources were supplied for the pipeline */"
            )
        lines.append("        }")
        lines.append("    }")
        lines.append("")
        for i, _ in enumerate(system.dmas):
            lines.append(f"    closeDMA(dma{i});")
    lines += ["    return 0;", "}"]
    return "\n".join(ln for ln in lines if ln is not None) + "\n"
