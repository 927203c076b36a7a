"""End-to-end flow orchestration (the paper's executable-DSL tool).

:func:`run_flow` "executes" a task-graph description: the DSL keywords
fire :class:`FlowHooks` callbacks that create HLS projects, synthesize
cores, integrate the system, generate tcl, run implementation and emit
the software layer — the exact step sequence of paper Section IV-B.
:mod:`timing` models the wall-clock cost of each phase (Fig. 9);
:mod:`baseline` is the SDSoC-like comparison flow; :mod:`gui_model`
estimates the manual-GUI alternative from the Discussion section;
:mod:`workspace` materializes all artifacts to a directory tree —
atomically, behind a ``MANIFEST.json`` + ``DONE`` protocol that
:func:`verify_workspace` checks and repairs.

The build engine lives in :mod:`buildcache` (persistent
content-addressed artifact cache, cross-process locked, with corruption
quarantine) — enabled via ``FlowConfig(cache_dir=...)`` and proven
artifact-equivalent, cold and warm, to an uncached build by
``tests/test_flow_parallel.py``.

The crash-consistency layer lives in :mod:`journal` (write-ahead run
journal; :func:`resume_flow` continues a killed run, re-executing only
the interrupted tail) and :mod:`crashpoints` (deterministic
crash-injection at every journal boundary — the engine behind
``repro crashcheck``).
"""

from repro.flow.autosim import AutoSimResult, autosimulate, lift_to_htg
from repro.flow.baseline import SdsocResult, sdsoc_flow
from repro.flow.buildcache import (
    ENGINE_VERSION,
    BuildCache,
    CacheIntegrityWarning,
    CacheStats,
    ScrubReport,
    cache_key,
)
from repro.flow.crashpoints import CrashPlan, all_sites, crashpoint
from repro.flow.gui_model import estimate_gui_seconds
from repro.flow.journal import RunJournal, stable_digest
from repro.flow.orchestrator import (
    CoreBuild,
    FlowConfig,
    FlowResult,
    flow_run_digest,
    resume_flow,
    run_flow,
)
from repro.flow.timing import CoreTrace, FlowTiming, TimingModel
from repro.flow.workspace import (
    WorkspaceStatus,
    materialize,
    verify_workspace,
    workspace_files,
)

__all__ = [
    "AutoSimResult",
    "BuildCache",
    "CacheIntegrityWarning",
    "CacheStats",
    "CoreBuild",
    "CoreTrace",
    "CrashPlan",
    "ENGINE_VERSION",
    "FlowConfig",
    "FlowResult",
    "FlowTiming",
    "RunJournal",
    "ScrubReport",
    "SdsocResult",
    "TimingModel",
    "WorkspaceStatus",
    "all_sites",
    "autosimulate",
    "cache_key",
    "crashpoint",
    "estimate_gui_seconds",
    "flow_run_digest",
    "lift_to_htg",
    "materialize",
    "resume_flow",
    "run_flow",
    "sdsoc_flow",
    "stable_digest",
    "verify_workspace",
    "workspace_files",
]
