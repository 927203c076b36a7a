"""A mini tcl interpreter executing generated Vivado scripts.

This closes the loop the real flow closes inside Vivado: the script
produced by :func:`~repro.tcl.generate.generate_system_tcl` is parsed
command by command and replayed against a fresh
:class:`~repro.soc.blockdesign.BlockDesign`; ``validate_bd_design`` runs
the DRC and ``wait_on_run impl_1`` runs the simulated implementation,
yielding a bitstream.  The integration tests assert the rebuilt design's
bitstream digest equals the integrator's — the generated tcl is machine-
checked, not just pretty-printed.  A bitstream otherwise hashes its
design on first read; the runner reads the digest at ``wait_on_run``,
because the commands after it may still edit the design.

Cells are materialized through an *IP repository*: vlnv (version
ignored) → factory(name, params).  Built-in Xilinx IP is pre-registered;
HLS cores are registered by the flow after ``export_design`` exactly as
Vivado's ``update_ip_catalog`` would pick them up.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.soc.blockdesign import BlockDesign
from repro.soc.dma import axi_dma
from repro.soc.interconnect import axi_interconnect, axis_interrupt_concat
from repro.soc.ip import IpCore, proc_sys_reset
from repro.soc.synthesis import Bitstream, run_synthesis
from repro.soc.validate import run_drc
from repro.soc.zynq import ps7_from_params
from repro.util.errors import TclError

Factory = Callable[[str, dict[str, object]], IpCore]


#: The characters that open or close a nested word part.
_BRACKETS = re.compile(r"[\[\]{}]")
_SPACE = re.compile(r"\s+")


def tcl_words(line: str) -> list[str]:
    """Split a tcl command line into words, respecting [] and {} nesting.

    Whitespace separates words only outside brackets and braces (the two
    share one nesting depth).  Only bracket positions are visited: the
    text between them is split or glued with slices, and a line with no
    bracket at all is a plain ``str.split()``.
    """
    if _BRACKETS.search(line) is None:
        return line.split()
    words: list[str] = []
    current = ""  # the word being built; nested parts glue onto it
    depth = 0
    start = 0  # start of the text not yet added to a word
    for m in _BRACKETS.finditer(line):
        i = m.start()
        if m.group() in "[{":
            if depth == 0:
                current = _split_flat(line[start:i], current, words)
                start = i
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise TclError(f"unbalanced brackets in line: {line!r}")
            if depth == 0:
                current += line[start : i + 1]
                start = i + 1
    if depth != 0:
        raise TclError(f"unbalanced brackets in line: {line!r}")
    current = _split_flat(line[start:], current, words)
    if current:
        words.append(current)
    return words


def _split_flat(text: str, current: str, words: list[str]) -> str:
    """Split unnested *text* at whitespace: its first piece extends the
    *current* word, each whitespace run ends one word (appended to
    *words*), and the returned last piece is the new current word."""
    pieces = _SPACE.split(text)
    current += pieces[0]
    for piece in pieces[1:]:
        if current:
            words.append(current)
        current = piece
    return current


def _strip_braces(word: str) -> str:
    if word.startswith("{") and word.endswith("}"):
        return word[1:-1]
    if word.startswith('"') and word.endswith('"'):
        return word[1:-1]
    return word


def _parse_value(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_config_dict(word: str) -> dict[str, object]:
    """Parse ``[list CONFIG.k {v} CONFIG.k2 {v2} ...]``."""
    inner = word
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    parts = tcl_words(inner)
    if not parts or parts[0] != "list":
        raise TclError(f"expected [list ...], found {word!r}")
    entries = parts[1:]
    if len(entries) % 2 != 0:
        raise TclError(f"odd CONFIG list: {word!r}")
    params: dict[str, object] = {}
    for key, value in zip(entries[::2], entries[1::2]):
        if not key.startswith("CONFIG."):
            raise TclError(f"expected CONFIG.<name>, found {key!r}")
        params[key[len("CONFIG.") :]] = _parse_value(_strip_braces(value))
    return params


def _pin_ref(word: str, getter: str) -> tuple[str, str]:
    """Parse ``[get_bd_(intf_)pins cell/pin]``."""
    if not (word.startswith(f"[{getter} ") and word.endswith("]")):
        raise TclError(f"expected [{getter} ...], found {word!r}")
    path = word[len(getter) + 2 : -1].strip()
    cell, _, pin = path.partition("/")
    if not pin:
        raise TclError(f"malformed pin path {path!r}")
    return cell, pin


def _option(cmd: str, args: list[str], flag: str) -> str:
    """The word after *flag* in *args* of command *cmd*."""
    try:
        return args[args.index(flag) + 1]
    except (ValueError, IndexError):
        raise TclError(f"{cmd}: missing {flag} <value>") from None


_RANGE_UNITS = {"K": 1024, "M": 1024 * 1024, "G": 1024**3}


def _range_bytes(cmd: str, text: str) -> int:
    """Size of an ``assign_bd_address -range`` value such as ``64K``."""
    unit = _RANGE_UNITS.get(text[-1:])
    if unit is None or not text[:-1].isdecimal():
        raise TclError(f"{cmd}: -range {text!r} is not a size with a K, M or G unit")
    return int(text[:-1]) * unit


def _default_repo() -> dict[str, Factory]:
    def make_dma(name: str, params: dict[str, object]) -> IpCore:
        return axi_dma(
            name,
            mm2s=bool(int(params.get("c_include_mm2s", 1))),
            s2mm=bool(int(params.get("c_include_s2mm", 1))),
            mm2s_width=int(params.get("c_m_axis_mm2s_tdata_width", 32)),
            s2mm_width=int(params.get("c_s_axis_s2mm_tdata_width", 32)),
        )

    def make_interconnect(name: str, params: dict[str, object]) -> IpCore:
        return axi_interconnect(
            name,
            num_masters_in=int(params["NUM_SI"]),
            num_slaves_out=int(params["NUM_MI"]),
            lite=params.get("PROTOCOL", "AXI4LITE") == "AXI4LITE",
        )

    return {
        "xilinx.com:ip:processing_system7": ps7_from_params,
        "xilinx.com:ip:axi_dma": make_dma,
        "xilinx.com:ip:axi_interconnect": make_interconnect,
        "xilinx.com:ip:proc_sys_reset": lambda name, params: proc_sys_reset(name),
        "xilinx.com:ip:xlconcat": lambda name, params: axis_interrupt_concat(
            name, int(params["NUM_PORTS"])
        ),
    }


@dataclass
class RunnerResult:
    design: BlockDesign
    bitstream: Bitstream | None
    flow_steps: list[str] = field(default_factory=list)


@dataclass
class _PendingCell:
    vlnv: str
    name: str
    params: dict[str, object] = field(default_factory=dict)


class TclRunner:
    """Executes a generated tcl script against the repro.soc model."""

    def __init__(self) -> None:
        self.repo: dict[str, Factory] = _default_repo()

    def register_ip(self, vlnv_prefix: str, factory: Factory) -> None:
        """Add an IP to the catalog (e.g. an exported HLS core)."""
        self.repo[vlnv_prefix] = factory

    # -- execution -----------------------------------------------------------
    def execute(self, text: str) -> RunnerResult:
        design: BlockDesign | None = None
        part = "xc7z020clg484-1"
        pending: dict[str, _PendingCell] = {}
        flow_steps: list[str] = []
        bitstream: Bitstream | None = None
        validated = False

        def materialize() -> None:
            assert design is not None
            for cell in pending.values():
                key = cell.vlnv.rpartition(":")[0]
                factory = self.repo.get(key)
                if factory is None:
                    raise TclError(f"no IP in the catalog matches {cell.vlnv!r}")
                design.add_cell(factory(cell.name, cell.params))
            pending.clear()

        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            words = tcl_words(line)
            cmd, args = words[0], words[1:]

            if cmd == "create_project":
                if "-part" in args:
                    part = _option(cmd, args, "-part")
            elif cmd in (
                "update_ip_catalog",
                "startgroup",
                "endgroup",
                "save_bd_design",
                "open_project",
                "open_solution",
                "set_top",
                "add_files",
                "set_part",
                "create_clock",
                "csynth_design",
                "export_design",
                "exit",
                "update_compile_order",
            ):
                flow_steps.append(cmd)
            elif cmd == "create_bd_design":
                if not args:
                    raise TclError(f"{cmd}: missing design name")
                design = BlockDesign(_strip_braces(args[0]), part=part)
            elif cmd == "create_bd_cell":
                if design is None:
                    raise TclError("create_bd_cell before create_bd_design")
                vlnv = _option(cmd, args, "-vlnv")
                name = args[-1]
                pending[name] = _PendingCell(vlnv, name)
            elif cmd == "set_property":
                if not args:
                    raise TclError(f"{cmd}: missing arguments")
                if args[0] == "-dict":
                    if len(args) < 3:
                        raise TclError(f"{cmd}: -dict needs a value list and a target")
                    params = _parse_config_dict(args[1])
                    target = args[2]
                    if target.startswith("[get_bd_cells "):
                        cell_name = target[len("[get_bd_cells ") : -1].strip()
                        if cell_name not in pending:
                            raise TclError(
                                f"set_property on unknown/materialized cell {cell_name!r}"
                            )
                        pending[cell_name].params.update(params)
                # other set_property forms (ip_repo_paths) are no-ops
            elif cmd == "connect_bd_intf_net":
                materialize()
                assert design is not None
                a = _pin_ref(args[0], "get_bd_intf_pins")
                b = _pin_ref(args[1], "get_bd_intf_pins")
                self._connect_either(design, a, b)
            elif cmd == "connect_bd_net":
                materialize()
                assert design is not None
                a = _pin_ref(args[0], "get_bd_pins")
                b = _pin_ref(args[1], "get_bd_pins")
                self._connect_either(design, a, b)
            elif cmd == "assign_bd_address":
                materialize()
                assert design is not None
                offset_text = _option(cmd, args, "-offset")
                try:
                    offset = int(offset_text, 16)
                except ValueError:
                    raise TclError(f"{cmd}: -offset {offset_text!r} is not hex") from None
                size = _range_bytes(cmd, _option(cmd, args, "-range"))
                seg = args[-1]
                cell_name = _pin_ref(seg, "get_bd_addr_segs")[0]
                design.address_map.assign_fixed(cell_name, offset, size)
            elif cmd == "validate_bd_design":
                materialize()
                assert design is not None
                run_drc(design)
                validated = True
                flow_steps.append(cmd)
            elif cmd in ("make_wrapper", "launch_runs"):
                flow_steps.append(" ".join(words))
            elif cmd == "wait_on_run":
                flow_steps.append(" ".join(words))
                if args and args[0] == "impl_1":
                    if design is None or not validated:
                        raise TclError("implementation launched before validation")
                    bitstream = run_synthesis(design)
                    # The script may go on editing the design; the
                    # bitstream describes it as implemented here.
                    bitstream.digest
            elif cmd.startswith("set_directive_"):
                flow_steps.append(cmd)
            else:
                raise TclError(f"unknown tcl command {cmd!r}")

        if design is None:
            raise TclError("script created no block design")
        materialize()
        return RunnerResult(design, bitstream, flow_steps)

    @staticmethod
    def _connect_either(
        design: BlockDesign, a: tuple[str, str], b: tuple[str, str]
    ) -> None:
        """Connect with driver-order detection (Vivado accepts either order)."""
        pin_a = design.cell(a[0]).pin(a[1])
        if pin_a.is_driver():
            design.connect(a[0], a[1], b[0], b[1])
        else:
            design.connect(b[0], b[1], a[0], a[1])
