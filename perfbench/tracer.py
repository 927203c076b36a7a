"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it measures a layer by replacing the
layer's public function with a timing wrapper *where the caller looks it
up* — every ``repro.*`` module attribute bound to that function object,
or the method on its class.  :meth:`Tracer.uninstall` puts every original
back.

Each call becomes a span ``(layer, start, end, parent, thread)`` kept in
memory; the per-layer table and the Chrome ``trace_event`` file are
derived from the spans when the run ends.  A layer's inclusive time
counts only its outermost spans (a layer re-entered inside itself is not
counted twice); its self time is each span's duration minus the time its
direct child spans cover.  All times are host ``perf_counter_ns``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

#: (layer, module, attribute) — module-level functions.
FUNCTIONS = (
    ("flow.orchestrator", "repro.flow.orchestrator", "run_flow"),
    ("dsl.parse", "repro.dsl.parser", "parse_dsl"),
    ("hls.synth", "repro.hls.project", "synthesize_function"),
    ("hls.frontend", "repro.hls.cparse", "parse_c"),
    ("hls.frontend", "repro.hls.inline", "inline_functions"),
    ("hls.frontend", "repro.hls.sema", "analyze"),
    ("hls.frontend", "repro.hls.lower", "lower_function"),
    ("hls.passes", "repro.hls.passes", "run_default_pipeline"),
    ("hls.schedule", "repro.hls.schedule", "schedule_function"),
    ("hls.bind", "repro.hls.bind", "bind_function"),
    ("hls.bind", "repro.hls.fsm", "build_fsm"),
    ("hls.rtl", "repro.hls.rtl", "emit_core"),
    ("hls.estimate", "repro.hls.latency", "function_latency"),
    ("hls.estimate", "repro.hls.resources", "estimate_core"),
    ("hls.estimate", "repro.hls.interfaces", "resolve_interfaces"),
    ("soc.integrate", "repro.soc.integrator", "integrate"),
    ("soc.synthesis", "repro.soc.synthesis", "run_synthesis"),
    ("tcl.generate", "repro.tcl.generate", "generate_system_tcl"),
    ("tcl.generate", "repro.tcl.generate", "generate_hls_tcl"),
    ("swgen", "repro.swgen.petalinux", "assemble_image"),
    ("sim.simulate", "repro.sim.runtime", "simulate_application"),
    ("sim.solve", "repro.sim.burst", "solve_phase_ex"),
    ("dse.evaluate", "repro.dse.evaluate", "evaluate_candidate"),
)

#: (layer, module, class, methods).  The DSL hooks of the flow count as
#: orchestrator time, so ``dsl.parse`` self time is the parser alone.
METHODS = (
    (
        "flow.orchestrator",
        "repro.flow.orchestrator",
        "FlowHooks",
        ("on_nodes_begin", "on_node_begin", "on_interface", "on_node_end", "on_edges_end"),
    ),
    ("tcl.replay", "repro.tcl.runner", "TclRunner", ("execute",)),
    ("sim.platform", "repro.sim.runtime", "SimPlatform", ("__init__",)),
    ("sim.commit", "repro.sim.axi", "StreamChannel", ("commit_burst", "put_burst", "get_burst")),
    ("sim.kernel", "repro.sim.kernel", "Environment", ("run",)),
    ("dse.pareto", "repro.dse.pareto", "ParetoFront", ("add",)),
)


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (layer, t0, t1, idx, parent, tid, self_ns, outermost)
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # open frames: [layer, id, child_ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def add(self, key: str, value: float) -> None:
        """Accumulate a counter read from a layer's return value."""
        self.counts[key] += value

    def _call(self, layer, fn, on_result, args, kwargs):
        st = self._stack
        outermost = all(f[0] != layer for f in st)
        frame = [layer, next(self._ids), 0]
        parent = st[-1][1] if st else -1
        st.append(frame)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            st.pop()
            dur = t1 - t0
            if st:
                st[-1][2] += dur
            self.spans.append(
                (layer, t0, t1, frame[1], parent, threading.get_ident(),
                 dur - frame[2], outermost)
            )
        if on_result is not None:
            on_result(self, result)
        return result

    def _wrapper(self, layer, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, fn, on_result, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self, extra_modules=(), on_result=None) -> None:
        """Wrap every layer function and method; *on_result* maps a layer
        name to a callback ``(tracer, return_value)``."""
        on_result = on_result or {}
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ] + list(extra_modules)
        for layer, mod_name, attr in FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrapper(layer, fn, on_result.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        for layer, mod_name, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrapper(layer, fn, on_result.get(layer)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------
    def layer_table(self) -> dict[str, dict[str, float]]:
        """layer -> {"ms": inclusive, "self_ms": self, "calls": n}."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0}
        )
        for layer, t0, t1, _idx, _parent, _tid, self_ns, outermost in self.spans:
            row = table[layer]
            row["calls"] += 1
            row["self_ms"] += self_ns / 1e6
            if outermost:
                row["ms"] += (t1 - t0) / 1e6
        return table

    def chrome_trace(self, path, *, limit: int = 200_000) -> int:
        """Write the spans as Chrome ``trace_event`` JSON; returns the count."""
        spans = sorted(self.spans, key=lambda s: s[1])[:limit]
        origin = spans[0][1] if spans else 0
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (t0 - origin) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": idx, "parent": parent},
            }
            for layer, t0, t1, idx, parent, tid, _self, _outer in spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)
