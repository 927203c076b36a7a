"""Shared fixtures for the benchmark harness.

Benchmarks regenerate every table and figure of the paper; each bench
prints the regenerated rows (visible with ``pytest -s``) and writes them
under ``benchmarks/out/`` for inspection.
"""

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def save_artifact(name: str, text: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text if text.endswith("\n") else text + "\n")
    return path


@pytest.fixture(scope="session")
def otsu_builds():
    """All four Table-I architectures, built once per session (Arch4
    first with core reuse, exactly as the paper did).  Pinned to the
    uncached engine: the Fig. 9 benches assert cold-build times."""
    from repro.flow import FlowConfig
    from repro.report import build_all_architectures

    return build_all_architectures(
        width=48, height=48, config=FlowConfig(cache_dir=None)
    )


@pytest.fixture(scope="session")
def fig4_build():
    from repro.apps.kernels import build_fig4_flow_inputs
    from repro.flow import run_flow

    graph, sources, directives = build_fig4_flow_inputs(128)
    return run_flow(graph, sources, extra_directives=directives)
