"""The one-pass design-rule check against the four-pass reference.

``run_drc`` walks every cell's pins once but must raise the violation the
four sequential checks below would have raised first.  The reference is
kept verbatim; seeded mutations of real integrated designs carry several
violations at once, so the precedence between checks, cells and pins is
exercised, not just detection.
"""

import copy
import random

import pytest

from repro.apps.generator import random_task_graph
from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import build_otsu_app
from repro.flow import FlowConfig, run_flow
from repro.soc.address_map import AddressRange
from repro.soc.blockdesign import BlockDesign, Connection
from repro.soc.integrator import IntegrationConfig
from repro.soc.ip import PinKind
from repro.soc.validate import PinNets, run_drc
from repro.util.errors import DrcError, ReproError


# -- reference: the four-pass run_drc ------------------------------------------
def reference_run_drc(bd: BlockDesign) -> None:
    """Run all checks; raises :class:`DrcError` with the first violation."""
    drivers: PinNets = {}
    sinks: PinNets = {}
    for c in bd.connections:
        drivers.setdefault((c.dst_cell, c.dst_pin), []).append(c)
        sinks.setdefault((c.src_cell, c.src_pin), []).append(c)
    _check_single_drivers(bd, drivers)
    _check_stream_topology(bd, drivers, sinks)
    _check_master_fanout(bd, drivers, sinks)
    _check_addressing(bd, drivers)


def _check_single_drivers(bd: BlockDesign, drivers: PinNets) -> None:
    for cell in bd.cells.values():
        for pin in cell.pins:
            if pin.kind in (PinKind.CLOCK_IN, PinKind.RESET_IN):
                n = len(drivers.get((cell.name, pin.name), ()))
                if n == 0:
                    raise DrcError(f"{cell.name}.{pin.name}: {pin.kind.value} undriven")
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: {pin.kind.value} driven {n} times"
                    )


def _check_stream_topology(bd: BlockDesign, drivers: PinNets, sinks: PinNets) -> None:
    for cell in bd.cells.values():
        for pin in cell.pins_of_kind(PinKind.AXIS_SLAVE):
            n = len(drivers.get((cell.name, pin.name), ()))
            if n != 1:
                raise DrcError(
                    f"{cell.name}.{pin.name}: stream input has {n} drivers (needs 1)"
                )
        for pin in cell.pins_of_kind(PinKind.AXIS_MASTER):
            n = len(sinks.get((cell.name, pin.name), ()))
            if n != 1:
                raise DrcError(
                    f"{cell.name}.{pin.name}: stream output feeds {n} sinks (needs 1)"
                )


def _check_master_fanout(bd: BlockDesign, drivers: PinNets, sinks: PinNets) -> None:
    for cell in bd.cells.values():
        for kind in (PinKind.AXI_LITE_MASTER, PinKind.AXI_FULL_MASTER):
            for pin in cell.pins_of_kind(kind):
                n = len(sinks.get((cell.name, pin.name), ()))
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: AXI master drives {n} slaves"
                    )
                if n == 0:
                    raise DrcError(f"{cell.name}.{pin.name}: dangling AXI master")
        for kind in (PinKind.AXI_LITE_SLAVE, PinKind.AXI_FULL_SLAVE):
            for pin in cell.pins_of_kind(kind):
                n = len(drivers.get((cell.name, pin.name), ()))
                if n > 1:
                    raise DrcError(
                        f"{cell.name}.{pin.name}: AXI slave has {n} masters"
                    )


def _check_addressing(bd: BlockDesign, drivers: PinNets) -> None:
    assigned = {r.name for r in bd.address_map.ranges}
    # Lite slaves attached to an interconnect output must be addressed.
    for cell in bd.cells.values():
        for pin in cell.pins_of_kind(PinKind.AXI_LITE_SLAVE):
            nets = drivers.get((cell.name, pin.name))
            if not nets:
                continue
            src = bd.cell(nets[0].src_cell)
            if src.vlnv.startswith("xilinx.com:ip:axi_interconnect"):
                if cell.name not in assigned:
                    raise DrcError(
                        f"{cell.name}: AXI-Lite slave reachable from the bus "
                        "but has no address segment"
                    )
    for name in assigned:
        if name not in bd.cells:
            raise DrcError(f"address segment {name!r} references no cell")


# -- seeded designs -------------------------------------------------------------
COLD = FlowConfig(cache_dir=None, check_tcl=False)


def _designs() -> list[BlockDesign]:
    out = []
    graph, sources, directives = build_fig4_flow_inputs(64)
    out.append(run_flow(graph, sources, extra_directives=directives, config=COLD).design)
    for arch in (1, 2, 3, 4):
        app = build_otsu_app(arch, width=16, height=16)
        for per_stream in (False, True):
            config = FlowConfig(
                cache_dir=None, check_tcl=False,
                integration=IntegrationConfig(one_dma_per_stream=per_stream),
            )
            flow = run_flow(app.dsl_graph(), app.c_sources,
                            extra_directives=app.extra_directives, config=config)
            out.append(flow.design)
    graph, sources = random_task_graph(lite_nodes=3, stream_chains=2, chain_length=3, seed=5)
    out.append(run_flow(graph, sources, config=COLD).design)
    return out


DESIGNS = _designs()


def _pins(bd: BlockDesign, *kinds: PinKind) -> list[tuple[str, str]]:
    return [(c.name, p.name) for c in bd.cells.values() for p in c.pins if p.kind in kinds]


def _mutate(bd: BlockDesign, rng: random.Random) -> None:
    """Apply one random violation-making edit."""
    conns = bd.connections
    op = rng.randrange(6)
    if op == 0 and conns:  # undriven sink / dangling or unfed master
        del conns[rng.randrange(len(conns))]
    elif op == 1 and conns:  # a second driver on an existing sink
        conns.append(copy.copy(conns[rng.randrange(len(conns))]))
    elif op == 2:  # stream fan-out: a master feeds one more slave
        masters = _pins(bd, PinKind.AXIS_MASTER)
        slaves = _pins(bd, PinKind.AXIS_SLAVE)
        if masters and slaves:
            conns.append(Connection(*rng.choice(masters), *rng.choice(slaves)))
    elif op == 3:  # AXI master fan-out / a second master on a slave
        masters = _pins(bd, PinKind.AXI_LITE_MASTER, PinKind.AXI_FULL_MASTER)
        slaves = _pins(bd, PinKind.AXI_LITE_SLAVE, PinKind.AXI_FULL_SLAVE)
        if masters and slaves:
            conns.append(Connection(*rng.choice(masters), *rng.choice(slaves)))
    elif op == 4 and bd.address_map.ranges:  # unaddressed lite slave
        del bd.address_map.ranges[rng.randrange(len(bd.address_map.ranges))]
    else:  # stale address segment
        k = len(bd.address_map.ranges)
        bd.address_map.ranges.append(
            AddressRange(f"ghost_{k}", 0x7000_0000 + k * 0x10000, 0x10000)
        )


def _outcome(drc, bd):
    try:
        drc(bd)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return None


class TestOnePassDrc:
    def test_clean_designs_pass(self):
        for bd in DESIGNS:
            run_drc(bd)
            reference_run_drc(bd)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_four_pass_reference(self, seed):
        rng = random.Random(seed)
        for trial in range(120):
            bd = copy.deepcopy(DESIGNS[trial % len(DESIGNS)])
            for _ in range(rng.randint(2, 5)):
                _mutate(bd, rng)
            assert _outcome(run_drc, bd) == _outcome(reference_run_drc, bd), (seed, trial)

    def test_every_violation_kind_is_reached(self):
        rng = random.Random(99)
        seen = set()
        markers = (
            "undriven", "times", "stream input", "stream output",
            "drives", "dangling", "masters", "no address", "references no cell",
        )
        for trial in range(600):
            bd = copy.deepcopy(DESIGNS[trial % len(DESIGNS)])
            for _ in range(rng.randint(1, 4)):
                _mutate(bd, rng)
            got = _outcome(run_drc, bd)
            assert got == _outcome(reference_run_drc, bd), trial
            if got is not None:
                seen.update(m for m in markers if m in got[1])
        assert seen == set(markers)

    def test_check_order_beats_cell_order(self):
        # A stream fan-out on an early cell and a stale segment lose to an
        # undriven clock on the last clocked cell.
        bd = copy.deepcopy(DESIGNS[0])
        last = [c for c in bd.cells.values() if c.pins_of_kind(PinKind.CLOCK_IN)][-1]
        clocks = {p.name for p in last.pins_of_kind(PinKind.CLOCK_IN)}
        conns = [
            c for c in bd.connections if not (c.dst_cell == last.name and c.dst_pin in clocks)
        ]
        master = _pins(bd, PinKind.AXIS_MASTER)[0]
        conns.append(Connection(*master, *_pins(bd, PinKind.AXIS_SLAVE)[-1]))
        bd.connections = conns
        bd.address_map.ranges.append(AddressRange("ghost", 0x7000_0000, 0x10000))
        got = _outcome(run_drc, bd)
        assert got == _outcome(reference_run_drc, bd)
        assert got[1].startswith(f"{last.name}.") and got[1].endswith("undriven")
