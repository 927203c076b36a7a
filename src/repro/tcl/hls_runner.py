"""Executor for generated Vivado-HLS project scripts.

The system-side tcl is machine-checked by :class:`~repro.tcl.runner.TclRunner`;
this module does the same for the per-core HLS scripts: it interprets
``open_project`` / ``add_files`` / ``set_top`` / ``set_directive_*`` /
``csynth_design`` against a materialized workspace and re-runs the HLS
engine.  The rebuilt core must match the original bit-for-bit (same
Verilog, same resources, same latency) — asserted in the integration
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.hls.interfaces import Directive, directive_from_tcl
from repro.hls.project import SynthesisResult, synthesize_function
from repro.util.errors import TclError


@dataclass
class HlsRunResult:
    project: str
    top: str
    result: SynthesisResult
    directives: list[Directive]


class HlsTclRunner:
    """Executes one HLS project script relative to *root* on disk.

    Every ``csynth_design`` re-runs the HLS engine; the per-function
    memo (:mod:`repro.hls.fncache`) keeps a replay of unchanged
    functions warm.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def execute(self, script_text: str) -> HlsRunResult:
        project: str | None = None
        top: str | None = None
        sources: list[str] = []
        directives: list[Directive] = []
        synthesized: HlsRunResult | None = None

        for raw in script_text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            words = line.split()
            cmd = words[0]
            if cmd == "open_project":
                project = words[1]
            elif cmd == "set_top":
                top = words[1]
            elif cmd == "add_files":
                path = self.root / words[1]
                if not path.exists():
                    raise TclError(f"add_files: {path} does not exist")
                sources.append(path.read_text())
            elif cmd.startswith("set_directive_"):
                directives.append(directive_from_tcl(line))
            elif cmd == "csynth_design":
                if top is None or not sources:
                    raise TclError("csynth_design before set_top/add_files")
                result = synthesize_function("\n".join(sources), top, directives)
                synthesized = HlsRunResult(
                    project or top, top, result, list(directives)
                )
            elif cmd in (
                "open_solution",
                "set_part",
                "create_clock",
                "export_design",
                "exit",
            ):
                continue
            else:
                raise TclError(f"unknown HLS tcl command {cmd!r}")
        if synthesized is None:
            raise TclError("script never ran csynth_design")
        return synthesized
