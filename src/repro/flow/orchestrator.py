"""The flow orchestrator: executing a DSL description runs the tool-chain.

:class:`FlowHooks` implements the paper's Section IV-B semantics — every
DSL keyword is an executable function:

1. ``tg nodes``     → a new Vivado project is created;
2. ``tg node``      → a Vivado HLS project opens for that core;
3. ``i`` / ``is``   → an interface directive is appended;
4. ``end``          → HLS synthesis of the core runs;
5. ``tg connect``   → an AXI-Lite attachment is recorded;
6. ``tg link``      → a Link instance opens;
7. ``to``/``end``   → the AXI-Stream connection is recorded;
8. ``tg end_edges`` → integration and the (simulated) implementation
   up to the bitstream.  The project tcl, each core's HLS script and the
   software layer (C APIs, device tree, boot files) render on first
   read of :attr:`FlowResult.system_tcl`, :attr:`CoreBuild.hls_tcl` and
   :attr:`FlowResult.image`; a caller that only ranks the design (the
   DSE engine) never builds them.  With ``check_tcl`` the system tcl is
   rendered here, replayed, and handed back as the result's script.
   Likewise the bitstream hashes the design, and each core computes its
   cache key, only when :attr:`Bitstream.digest` and
   :attr:`CoreBuild.key` are read (the tcl check, the journal and the
   build cache read them here).

:func:`run_flow` executes either kind of description with the front end
made for it: DSL text through the textual parser
(:func:`~repro.dsl.parser.parse_dsl`), an already-built :class:`TgGraph`
through the embedded builder (:meth:`TaskGraphBuilder.execute`), which
fires the same hooks keyword by keyword without printing and lexing the
graph first.  Either way the graph is printed once, for
:attr:`FlowResult.dsl_text`, and validated once, by ``integrate`` — also
a graph lowered by :func:`~repro.dsl.from_htg.graph_from_htg`, which
does not validate it.

Step 4 is the only place a core is synthesized, in declaration order,
and whole-core reuse has one path: the content-addressed
:class:`~repro.flow.buildcache.BuildCache`.  A core is reused only when
its source, directives and backend digest to a stored key, so two cores
that merely share a function name never alias.  The case study builds
Arch4 first and shares one store across the four builds — "the
generation of the hardware cores is done only once for each function"
(Section VI-B).  With ``cache_dir`` set the store persists on disk
across processes; cold and warm cached runs produce byte-identical
artifacts to an uncached run — proven by the differential suite in
``tests/test_flow_parallel.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.dsl.actions import ActionHooks
from repro.dsl.ast import NodeDecl, PortDecl, PortKind, TgGraph
from repro.dsl.builder import TaskGraphBuilder
from repro.dsl.codegen import emit_dsl
from repro.dsl.parser import parse_dsl
from repro.hls import fncache
from repro.hls.interfaces import Directive, InterfaceMode, interface
from repro.hls.project import HlsProject, SynthesisResult
from repro.soc.integrator import IntegratedSystem, IntegrationConfig, integrate
from repro.soc.ip import hls_core
from repro.soc.synthesis import Bitstream, run_synthesis
from repro.swgen.petalinux import PetalinuxImage, assemble_image
from repro.tcl.backends import VivadoBackend, Vivado2015_3
from repro.tcl.generate import generate_hls_tcl, generate_system_tcl
from repro.tcl.runner import TclRunner
from repro.tcl.script import TclScript
from repro.flow.buildcache import ENGINE_VERSION, BuildCache, cache_key
from repro.flow.crashpoints import crashpoint
from repro.flow.journal import RunJournal, stable_digest
from repro.flow.timing import CoreTrace, FlowTiming, TimingModel
from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.util.errors import FlowError, ReproError
from repro.util.text import count_lines


def _env_cache_dir() -> str | None:
    """Cache-dir default, overridable via ``REPRO_FLOW_CACHE_DIR``."""
    return os.environ.get("REPRO_FLOW_CACHE_DIR") or None


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of one flow execution."""

    backend: VivadoBackend = field(default_factory=Vivado2015_3)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    timing_model: TimingModel = field(default_factory=TimingModel)
    #: Validate the generated tcl by re-executing it and comparing
    #: bitstream digests (slower but machine-checks the scripts).
    check_tcl: bool = True
    #: Kept only so existing ``FlowConfig(jobs=1)`` call sites still
    #: construct; cores are always synthesized one at a time and any
    #: other value is rejected.
    jobs: int = 1
    #: Directory of the persistent content-addressed artifact cache;
    #: ``None`` disables it.
    cache_dir: str | None = field(default_factory=_env_cache_dir)
    #: Explicit root of the per-function HLS memo store.  ``None`` keeps
    #: the default routing (``<cache_dir>/fn`` when a build cache is
    #: configured, the in-process memo otherwise).  Setting it routes the
    #: sub-core memo *without* enabling the whole-core cache — the DSE
    #: engine shares one persistent function store across candidate
    #: evaluations while every candidate still compiles its own cores,
    #: so directives-only candidates hit the frontend memo.
    fn_cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise FlowError(
                f"FlowConfig(jobs={self.jobs!r}): the per-core HLS worker pool "
                "was removed; cores are synthesized one at a time, so jobs "
                "must be 1"
            )


@dataclass
class CoreBuild:
    """One synthesized core plus its per-core artifacts.

    :attr:`hls_tcl` renders on first read from ``name`` and ``result``,
    and :attr:`key` is computed on first read from ``name``,
    ``c_source``, ``directives_tcl`` and ``backend_version``; both are
    then kept, so none of these may change after the flow.
    """

    name: str
    result: SynthesisResult
    directives_tcl: str
    modeled_seconds: float
    c_source: str = ""
    reused: bool = False
    #: The Vivado version the core was built for (part of :attr:`key`).
    backend_version: str = ""

    @cached_property
    def key(self) -> str:
        """Content digest of (source, directives, backend) — the cache key."""
        return cache_key(self.name, self.c_source, self.directives_tcl, self.backend_version)

    @cached_property
    def hls_tcl(self) -> TclScript:
        """The core's Vivado HLS project script."""
        return generate_hls_tcl(self.name, self.result)


@dataclass
class FlowResult:
    """Everything one flow execution produced.

    :attr:`system_tcl` and :attr:`image` render on first read from
    ``system``, ``bitstream`` and ``cores`` as the flow integrated them,
    and are then kept, as is ``bitstream.digest``, which hashes
    ``system.design`` on first read: mutating ``system`` after the flow
    would make the artifacts describe a design that was never built.
    """

    graph: TgGraph
    dsl_text: str
    cores: dict[str, CoreBuild]
    system: IntegratedSystem
    bitstream: Bitstream
    timing: FlowTiming
    #: The Vivado version :attr:`system_tcl` targets.
    backend: VivadoBackend

    @cached_property
    def system_tcl(self) -> TclScript:
        """The block-design + implementation script of ``system``."""
        return generate_system_tcl(self.system, self.backend)

    @cached_property
    def image(self) -> PetalinuxImage:
        """The software layer: C APIs, ``main.c``, device tree and boot files."""
        return assemble_image(
            self.system,
            self.bitstream,
            c_sources={name: b.c_source for name, b in self.cores.items()},
        )

    @property
    def design(self):
        return self.system.design


class FlowHooks(ActionHooks):
    """DSL action hooks that drive the tool-chain while parsing."""

    def __init__(
        self,
        c_sources: dict[str, str],
        *,
        extra_directives: dict[str, list[Directive]] | None = None,
        config: FlowConfig | None = None,
        build_cache: BuildCache | None = None,
        journal: RunJournal | None = None,
    ) -> None:
        self.c_sources = c_sources
        self.extra_directives = extra_directives or {}
        self.config = config or FlowConfig()
        if build_cache is None and self.config.cache_dir is not None:
            build_cache = BuildCache(self.config.cache_dir)
        self.build_cache = build_cache
        # The sub-core per-function memo persists next to (and under)
        # the whole-core objects: a whole-core miss still reuses every
        # unchanged function from previous builds.  An explicit
        # ``fn_cache_dir`` overrides that — the DSE engine points many
        # build-cache-less flows at one shared function store.
        if self.config.fn_cache_dir is not None:
            fn_dir = Path(self.config.fn_cache_dir)
        elif self.config.cache_dir is not None:
            fn_dir = Path(self.config.cache_dir) / "fn"
        else:
            fn_dir = None
        self.fn_cache = fncache.active_cache(fn_dir)
        self.journal = journal
        self.cores: dict[str, CoreBuild] = {}
        self.timing = FlowTiming()
        if journal is not None:
            self.timing.resumed = journal.resumed
            self.timing.crash_recoveries = journal.crash_recoveries
        self._project: HlsProject | None = None
        self.result: FlowResult | None = None

    # -- nodes section: HLS ------------------------------------------------
    def on_nodes_begin(self, graph: TgGraph) -> None:
        # Step 1: "the function nodes creates a new Vivado project".
        self._vivado_project_open = True

    def on_node_begin(self, graph: TgGraph, name: str) -> None:
        # Step 2: a Vivado HLS project for this core.  The project is
        # always opened — even when a cached core exists — because reuse
        # is decided at ``end`` by comparing content, not names.
        source = self.c_sources.get(name)
        if source is None:
            raise FlowError(f"no C source supplied for node {name!r}")
        self._project = HlsProject(name).add_files(source).set_top(name)
        for d in self.extra_directives.get(name, []):
            self._project.add_directive(d)

    def on_interface(self, graph: TgGraph, node: str, port: PortDecl) -> None:
        # Step 3: append the interface directive.
        assert self._project is not None
        mode = (
            InterfaceMode.AXIS if port.kind is PortKind.STREAM else InterfaceMode.S_AXILITE
        )
        self._project.add_directive(interface(node, port.name, mode))

    def on_node_end(self, graph: TgGraph, node: NodeDecl) -> None:
        # Step 4: invoke HLS synthesis for this core — unless the build
        # cache holds an entry with the same content digest.
        project = self._project
        assert project is not None
        self._project = None
        # ``project.content_key`` with the directives rendered once: the
        # core build keeps the same text.  Only the build cache and the
        # journal need the key now; otherwise ``CoreBuild.key`` computes
        # it when first read.
        source = "\n".join(project.sources)
        directives_tcl = project.directives_tcl()
        key = None
        if self.build_cache is not None or self.journal is not None:
            key = cache_key(project.top, source, directives_tcl, self.config.backend.version)

        step = f"hls:{node.name}"
        if self.build_cache is not None:
            hit = self.build_cache.get(key)
            if hit is not None:
                self.timing.cache_hits += 1
                if self.journal is not None and self.journal.committed(step, key):
                    # A prior interrupted run committed this very step —
                    # the cache is serving the journal's write-ahead
                    # promise, so the resume skips the synthesis.
                    self.timing.steps_skipped += 1
                self._journal_commit(step, key)
                self._reuse(node.name, hit, key)
                return
            self.timing.cache_misses += 1

        if self.journal is not None:
            self.journal.step_start(step, key)
        crashpoint(f"{step}:start", core=node.name)
        with _BUS.span("flow.step", step, core=node.name):
            try:
                result = project.csynth(cache=self.fn_cache)
            except ReproError:
                raise  # HlsError, FlowInterrupted, LeaseLost keep their class
            except Exception as exc:
                raise FlowError(
                    f"HLS synthesis of core {node.name!r} failed: {exc}"
                ) from exc
        self._finish_core(node.name, result, source, directives_tcl, key)

    def _journal_commit(self, step: str, digest: str) -> None:
        """Record a committed step once (idempotent across resumes)."""
        if self.journal is not None and not self.journal.committed(step, digest):
            self.journal.step_commit(step, digest)

    def _reuse(self, name: str, cached: CoreBuild, key: str) -> None:
        if _BUS.enabled:
            _BUS.emit("flow.step", f"hls:{name}", source="cache")
            _METRICS.counter("flow.steps_reused", "steps satisfied without work").inc()
        build = self.cores[name] = CoreBuild(
            name=name,
            result=cached.result,
            directives_tcl=cached.directives_tcl,
            modeled_seconds=0.0,
            c_source=cached.c_source,
            reused=True,
            backend_version=self.config.backend.version,
        )
        build.key = key
        self.timing.hls_cores[name] = 0.0
        self.timing.trace.append(CoreTrace(name, 0.0, source="cache"))

    def _finish_core(
        self,
        name: str,
        result: SynthesisResult,
        source: str,
        directives_tcl: str,
        key: str | None,
    ) -> None:
        seconds = self.config.timing_model.hls_core_s(result)
        self.timing.hls_s += seconds
        self.timing.hls_cores[name] = seconds
        self.timing.fn_cache_hits += result.fn_cache_hits
        self.timing.fn_cache_misses += result.fn_cache_misses
        build = CoreBuild(
            name=name,
            result=result,
            directives_tcl=directives_tcl,
            modeled_seconds=seconds,
            c_source=source,
            backend_version=self.config.backend.version,
        )
        if key is not None:
            build.key = key
        self.cores[name] = build
        self.timing.trace.append(
            CoreTrace(name, seconds, source="synth", fn_cache_hits=result.fn_cache_hits)
        )
        if self.build_cache is not None:
            self.build_cache.put(key, build)
        # Commit strictly after the artifact is published to the cache —
        # the write-ahead contract a resume relies on.
        self._journal_commit(f"hls:{name}", key)
        if _BUS.enabled:
            _METRICS.counter("flow.steps", "flow steps executed").inc()
        crashpoint(f"hls:{name}:commit", core=name)

    # -- edges section: integration -----------------------------------------------
    def on_edges_end(self, graph: TgGraph) -> None:
        # Step 8: execute the project tcl up to the bitstream.  The tcl
        # (unless ``check_tcl`` replays it here) and the software layer
        # render when the result is first read (``FlowResult``);
        # ``integrate`` validates the graph first.
        results = {name: build.result for name, build in self.cores.items()}

        # Integration is cheap and deterministic, so a resume re-executes
        # it from the (cache-served) cores; the journal boundary still
        # exists so the crash harness can kill the flow exactly here.
        # The step digests only label journal records.
        journal = self.journal
        integrate_digest = swgen_digest = ""
        if journal is not None:
            integrate_digest = stable_digest(
                {
                    "cores": {name: build.key for name, build in self.cores.items()},
                    "backend": self.config.backend.version,
                    "integration": repr(self.config.integration),
                    "check_tcl": self.config.check_tcl,
                }
            )
        with _BUS.span("flow.step", "integrate"):
            if journal is not None:
                journal.step_start("integrate", integrate_digest)
            crashpoint("integrate:start")
            system = integrate(graph, results, self.config.integration)
            bitstream = run_synthesis(system.design)

            system_tcl = None
            if self.config.check_tcl:
                system_tcl = generate_system_tcl(system, self.config.backend)
                runner = TclRunner()
                for name, build in self.cores.items():
                    runner.register_ip(
                        f"xilinx.com:hls:{name}",
                        lambda cell, params, r=build.result, n=name: hls_core(
                            cell, n, r
                        ),
                    )
                rebuilt = runner.execute(system_tcl.render())
                if (
                    rebuilt.bitstream is None
                    or rebuilt.bitstream.digest != bitstream.digest
                ):
                    raise FlowError(
                        "generated tcl does not reproduce the integrated design"
                    )
            self._journal_commit("integrate", integrate_digest)
            if _BUS.enabled:
                _METRICS.counter("flow.steps", "flow steps executed").inc()
        crashpoint("integrate:commit")

        # The software layer is pure in the system and bitstream, so it
        # renders on first read of ``FlowResult.image``; the boundary
        # stays so the journal and the crash harness keep their steps.
        if journal is not None:
            swgen_digest = stable_digest(
                {"integrate": integrate_digest, "bitstream": bitstream.digest}
            )
        with _BUS.span("flow.step", "swgen"):
            if journal is not None:
                journal.step_start("swgen", swgen_digest)
            crashpoint("swgen:start")
            self._journal_commit("swgen", swgen_digest)
            if _BUS.enabled:
                _METRICS.counter("flow.steps", "flow steps executed").inc()
        crashpoint("swgen:commit")

        dsl_text = emit_dsl(graph)
        model = self.config.timing_model
        self.timing.scala_s = model.scala_compile_s(count_lines(dsl_text))
        self.timing.project_s = model.project_generation_s(system.design)
        self.timing.synth_s = model.synthesis_s(system.design)

        self.result = FlowResult(
            graph=graph,
            dsl_text=dsl_text,
            cores=self.cores,
            system=system,
            bitstream=bitstream,
            timing=self.timing,
            backend=self.config.backend,
        )
        if system_tcl is not None:
            # The script the check replayed is the result's script.
            self.result.system_tcl = system_tcl


def flow_run_digest(
    text: str,
    c_sources: dict[str, str],
    extra_directives: dict[str, list[Directive]] | None,
    config: FlowConfig,
) -> str:
    """Digest of everything one flow run depends on — the journal header.

    Covers the DSL text, every C source, the extra directives, the
    backend and engine versions *and* the execution config (cache_dir,
    fn_cache_dir): a journal written under one configuration is never
    resumed under another — a changed config forces a clean rebuild
    instead of stitching incompatible runs together.
    """
    return stable_digest(
        {
            "engine": ENGINE_VERSION,
            "dsl": text,
            "sources": sorted(c_sources.items()),
            "directives": {
                name: [repr(d) for d in dirs]
                for name, dirs in sorted((extra_directives or {}).items())
            },
            "backend": config.backend.version,
            "integration": repr(config.integration),
            "check_tcl": config.check_tcl,
            "cache_dir": str(config.cache_dir),
            "fn_cache_dir": str(config.fn_cache_dir),
        }
    )


def run_flow(
    description: str | TgGraph,
    c_sources: dict[str, str],
    *,
    extra_directives: dict[str, list[Directive]] | None = None,
    config: FlowConfig | None = None,
    build_cache: BuildCache | None = None,
    journal: RunJournal | str | os.PathLike | None = None,
) -> FlowResult:
    """Execute a task-graph description through the full tool-chain.

    *description* is DSL text (parsed and executed keyword by keyword) or
    an already-built :class:`TgGraph` (executed keyword by keyword
    through :meth:`TaskGraphBuilder.execute`, never printed and
    re-parsed).  The hooks fire in the same sequence either way.
    *build_cache* shares one in-process :class:`BuildCache` across runs;
    otherwise ``config.cache_dir`` (or ``REPRO_FLOW_CACHE_DIR``) opens
    one per run.

    *journal* (a :class:`RunJournal` or a path for one) makes the run
    crash-safe: every step is recorded write-ahead, so a killed run can
    be continued with :func:`resume_flow` — committed steps are served
    from the content-addressed cache and only the interrupted tail
    re-executes.
    """
    config = config or FlowConfig()
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)
    if journal is not None:
        # The header digests the DSL text; a graph is printed only here.
        text = description if isinstance(description, str) else emit_dsl(description)
        journal.begin(flow_run_digest(text, c_sources, extra_directives, config))
    hooks = FlowHooks(
        c_sources,
        extra_directives=extra_directives,
        config=config,
        build_cache=build_cache,
        journal=journal,
    )
    if isinstance(description, str):
        parse_dsl(description, hooks=hooks)
    else:
        TaskGraphBuilder.execute(description, hooks)
    if hooks.result is None:  # pragma: no cover - both front ends raise first
        raise FlowError("flow did not complete")
    return hooks.result


def resume_flow(
    description: str | TgGraph,
    c_sources: dict[str, str],
    *,
    journal: RunJournal | str | os.PathLike,
    extra_directives: dict[str, list[Directive]] | None = None,
    config: FlowConfig | None = None,
    build_cache: BuildCache | None = None,
) -> FlowResult:
    """Continue an interrupted :func:`run_flow` from its run journal.

    Semantically identical to calling :func:`run_flow` with the same
    inputs and journal — the journal decides what can be skipped: steps
    it committed (with matching input digests) are satisfied from the
    content-addressed cache, the interrupted tail re-executes, and the
    result is byte-identical to an uninterrupted run (proven per journal
    boundary by ``repro crashcheck``).  If the inputs or config changed
    since the interrupted run, the journal digest mismatches and the
    flow rebuilds cleanly from scratch instead of reusing stale state.
    """
    return run_flow(
        description,
        c_sources,
        extra_directives=extra_directives,
        config=config,
        build_cache=build_cache,
        journal=journal,
    )
