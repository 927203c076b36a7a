"""Tests for the SoC integration substrate."""

import pytest

from repro.dsl import parse_dsl
from repro.hls import InterfaceMode, interface, synthesize_function
from repro.hls.resources import ResourceUsage
from repro.soc import (
    AddressMap,
    BlockDesign,
    IntegrationConfig,
    XC7Z020,
    ZynqConfig,
    integrate,
    run_drc,
    run_synthesis,
    zynq_ps7,
)
from repro.soc.address_map import DMA_BASE, HLS_BASE
from repro.soc.dma import axi_dma
from repro.soc.interconnect import axi_interconnect
from repro.soc.ip import PinKind, proc_sys_reset
from repro.util.errors import (
    AddressMapError,
    DrcError,
    IntegrationError,
    SocError,
)


class TestAddressMap:
    def test_sequential_hls_assignment(self):
        amap = AddressMap()
        a = amap.assign("core_a")
        b = amap.assign("core_b")
        assert a.base == HLS_BASE
        assert b.base == HLS_BASE + 0x10000
        assert not a.overlaps(b)

    def test_dma_pool_separate(self):
        amap = AddressMap()
        d = amap.assign("dma0", kind="dma")
        assert d.base == DMA_BASE

    def test_duplicate_name(self):
        amap = AddressMap()
        amap.assign("x")
        with pytest.raises(AddressMapError, match="already"):
            amap.assign("x")

    def test_non_pow2_size(self):
        with pytest.raises(AddressMapError, match="power of two"):
            AddressMap().assign("x", size=3 * 1024)

    def test_fixed_assignment_overlap(self):
        amap = AddressMap()
        amap.assign_fixed("a", 0x43C0_0000)
        with pytest.raises(AddressMapError, match="overlaps"):
            amap.assign_fixed("b", 0x43C0_0000)

    def test_fixed_out_of_window(self):
        with pytest.raises(AddressMapError, match="outside"):
            AddressMap().assign_fixed("x", 0x1000_0000)

    def test_fixed_misaligned(self):
        with pytest.raises(AddressMapError, match="aligned"):
            AddressMap().assign_fixed("x", 0x43C0_8000, 0x10000)

    def test_resolve(self):
        amap = AddressMap()
        rng = amap.assign("core")
        assert amap.resolve(rng.base + 0x10).name == "core"
        with pytest.raises(AddressMapError, match="no segment"):
            amap.resolve(0x7000_0000)

    def test_lookup_by_name(self):
        amap = AddressMap()
        amap.assign("core")
        assert amap.of("core").size == 0x10000
        with pytest.raises(AddressMapError):
            amap.of("ghost")

    def test_render(self):
        amap = AddressMap()
        amap.assign("core")
        assert "core" in amap.render()


class TestIpCores:
    def test_zynq_hp_ports(self):
        ps = zynq_ps7(ZynqConfig(hp_slaves=2))
        assert ps.has_pin("S_AXI_HP0") and ps.has_pin("S_AXI_HP1")
        assert not ps.has_pin("S_AXI_HP2")
        assert ps.is_hard
        assert ps.resources == ResourceUsage()

    def test_zynq_limits(self):
        with pytest.raises(IntegrationError):
            ZynqConfig(hp_slaves=5)
        with pytest.raises(IntegrationError):
            ZynqConfig(fclk_mhz=0)

    def test_dma_channels(self):
        full = axi_dma("d0")
        assert full.has_pin("M_AXIS_MM2S") and full.has_pin("S_AXIS_S2MM")
        half = axi_dma("d1", s2mm=False)
        assert half.has_pin("M_AXIS_MM2S") and not half.has_pin("S_AXIS_S2MM")
        assert half.resources.bram18 < full.resources.bram18

    def test_dma_needs_a_channel(self):
        with pytest.raises(IntegrationError):
            axi_dma("d", mm2s=False, s2mm=False)

    def test_interconnect_scaling(self):
        small = axi_interconnect("i0", num_masters_in=1, num_slaves_out=1, lite=True)
        big = axi_interconnect("i1", num_masters_in=1, num_slaves_out=6, lite=True)
        assert big.resources.lut > small.resources.lut
        assert big.has_pin("M05_AXI")

    def test_interconnect_needs_ports(self):
        with pytest.raises(IntegrationError):
            axi_interconnect("i", num_masters_in=0, num_slaves_out=1, lite=True)

    def test_pin_lookup(self):
        rst = proc_sys_reset()
        assert rst.pin("peripheral_aresetn").kind is PinKind.RESET_OUT
        with pytest.raises(IntegrationError):
            rst.pin("nope")


class TestBlockDesign:
    def test_connect_type_check(self):
        bd = BlockDesign("t")
        bd.add_cell(zynq_ps7(ZynqConfig(hp_slaves=1)))
        bd.add_cell(axi_dma("dma0"))
        # AXI full master -> AXI full slave: ok
        bd.connect("dma0", "M_AXI_MM2S", "processing_system7_0", "S_AXI_HP0")
        # AXI full master -> lite slave: rejected
        with pytest.raises(IntegrationError, match="cannot connect"):
            bd.connect("dma0", "M_AXI_S2MM", "dma0", "S_AXI_LITE")

    def test_non_driver_rejected(self):
        bd = BlockDesign("t")
        bd.add_cell(axi_dma("dma0"))
        bd.add_cell(axi_dma("dma1"))
        with pytest.raises(IntegrationError, match="cannot drive"):
            bd.connect("dma0", "S_AXI_LITE", "dma1", "S_AXI_LITE")

    def test_duplicate_cell(self):
        bd = BlockDesign("t")
        bd.add_cell(axi_dma("dma0"))
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.add_cell(axi_dma("dma0"))

    def test_duplicate_connection(self):
        bd = BlockDesign("t")
        bd.add_cell(zynq_ps7(ZynqConfig(hp_slaves=1)))
        bd.add_cell(axi_dma("dma0"))
        bd.connect("dma0", "M_AXI_MM2S", "processing_system7_0", "S_AXI_HP0")
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect("dma0", "M_AXI_MM2S", "processing_system7_0", "S_AXI_HP0")

    def test_stream_width_mismatch(self):
        bd = BlockDesign("t")
        bd.add_cell(axi_dma("dma0", mm2s_width=32))
        bd.add_cell(axi_dma("dma1", s2mm_width=8))
        with pytest.raises(IntegrationError, match="width"):
            bd.connect("dma0", "M_AXIS_MM2S", "dma1", "S_AXIS_S2MM")

    def test_total_resources_excludes_hard(self):
        bd = BlockDesign("t")
        bd.add_cell(zynq_ps7(ZynqConfig()))
        dma = bd.add_cell(axi_dma("dma0"))
        assert bd.total_resources() == dma.resources


class TestIntegration:
    def test_fig4_structure(self, fig4_system):
        bd = fig4_system.design
        assert "processing_system7_0" in bd.cells
        assert "axi_dma_0" in bd.cells
        assert "ps7_0_axi_periph" in bd.cells
        assert "axi_mem_intercon" in bd.cells
        assert "GAUSS_0" in bd.cells and "EDGE_0" in bd.cells
        # 3 lite slaves: MUL, ADD, DMA control.
        periph = bd.cell("ps7_0_axi_periph")
        assert periph.params["NUM_MI"] == 3

    def test_fig4_single_dma(self, fig4_system):
        dmas = [c for c in fig4_system.design.cells.values() if "axi_dma" in c.vlnv]
        assert len(dmas) == 1  # one input + one output share one dual DMA

    def test_stream_wiring(self, fig4_system):
        bd = fig4_system.design
        conns = {(c.src_cell, c.src_pin, c.dst_cell, c.dst_pin) for c in bd.connections}
        assert ("axi_dma_0", "M_AXIS_MM2S", "GAUSS_0", "in") in conns
        assert ("GAUSS_0", "out", "EDGE_0", "in") in conns
        assert ("EDGE_0", "out", "axi_dma_0", "S_AXIS_S2MM") in conns

    def test_addresses_assigned(self, fig4_system):
        amap = fig4_system.design.address_map
        names = {r.name for r in amap.ranges}
        assert names == {"MUL_0", "ADD_0", "axi_dma_0"}

    def test_drc_passes(self, fig4_system):
        run_drc(fig4_system.design)

    def test_sdsoc_baseline_uses_more_dmas(self, fig4_graph, fig4_cores):
        ours = integrate(fig4_graph, fig4_cores)
        theirs = integrate(
            fig4_graph, fig4_cores, IntegrationConfig(one_dma_per_stream=True)
        )
        n_ours = sum(1 for c in ours.design.cells.values() if "axi_dma" in c.vlnv)
        n_theirs = sum(1 for c in theirs.design.cells.values() if "axi_dma" in c.vlnv)
        assert n_theirs == 2 > n_ours == 1
        assert (
            theirs.design.total_resources().lut > ours.design.total_resources().lut
        )

    def test_missing_core_rejected(self, fig4_graph, fig4_cores):
        cores = dict(fig4_cores)
        del cores["EDGE"]
        with pytest.raises(IntegrationError, match="no synthesized core"):
            integrate(fig4_graph, cores)

    def test_port_mismatch_rejected(self, fig4_graph, fig4_cores):
        cores = dict(fig4_cores)
        cores["GAUSS"], cores["MUL"] = cores["MUL"], cores["GAUSS"]
        with pytest.raises(IntegrationError):
            integrate(fig4_graph, cores)

    def test_lite_only_design_has_no_dma(self):
        g = parse_dsl(
            'tg nodes; tg node "MUL" i "A" i "return" end; tg end_nodes;'
            ' tg edges; tg connect "MUL"; tg end_edges;'
        )
        cores = {"MUL": synthesize_function("int MUL(int A) { return A * 2; }", "MUL")}
        sys = integrate(g, cores)
        assert not any("axi_dma" in c.vlnv for c in sys.design.cells.values())
        ps = sys.design.cell("processing_system7_0")
        assert not ps.has_pin("S_AXI_HP0")  # HP port only enabled for streams

    def test_linked_width_mismatch_rejected(self):
        """Linking an 8-bit stream output into a 32-bit input fails DRC."""
        g = parse_dsl(
            'tg nodes; tg node "A" is "in" is "out" end;'
            ' tg node "B" is "in" is "out" end; tg end_nodes;'
            " tg edges; tg link 'soc to (\"A\", \"in\") end;"
            ' tg link ("A", "out") to ("B", "in") end;'
            " tg link (\"B\", \"out\") to 'soc end; tg end_edges;"
        )
        a_src = (
            "void A(int in[8], unsigned char out[8])"
            " { for (int i = 0; i < 8; i++) out[i] = in[i] & 255; }"
        )
        b_src = (
            "void B(int in[8], int out[8])"
            " { for (int i = 0; i < 8; i++) out[i] = in[i]; }"
        )
        cores = {
            "A": synthesize_function(
                a_src,
                "A",
                [
                    interface("A", "in", InterfaceMode.AXIS),
                    interface("A", "out", InterfaceMode.AXIS),
                ],
            ),
            "B": synthesize_function(
                b_src,
                "B",
                [
                    interface("B", "in", InterfaceMode.AXIS),
                    interface("B", "out", InterfaceMode.AXIS),
                ],
            ),
        }
        with pytest.raises(IntegrationError, match="width"):
            integrate(g, cores)

    def test_dma_binding_lookup(self, fig4_system):
        links = fig4_system.graph.links()
        in_link = next(e for e in links if e.from_soc())
        out_link = next(e for e in links if e.to_soc())
        assert fig4_system.dma_for_input(in_link).cell == "axi_dma_0"
        assert fig4_system.dma_for_output(out_link).cell == "axi_dma_0"
        with pytest.raises(IntegrationError):
            fig4_system.dma_for_input(out_link)

    def test_diagram_rendering(self, fig4_system):
        dot = fig4_system.design.to_diagram()
        assert dot.startswith("digraph")
        assert '"GAUSS_0" -> "EDGE_0"' in dot

    def test_summary(self, fig4_system):
        assert "cells" in fig4_system.design.summary()


class TestSynthesis:
    def test_bitstream_deterministic(self, fig4_graph, fig4_cores):
        a = run_synthesis(integrate(fig4_graph, fig4_cores).design)
        b = run_synthesis(integrate(fig4_graph, fig4_cores).design)
        assert a.digest == b.digest

    def test_bitstream_sensitive_to_design(self, fig4_graph, fig4_cores, fig4_system):
        other = integrate(
            fig4_graph, fig4_cores, IntegrationConfig(one_dma_per_stream=True)
        )
        assert run_synthesis(other.design).digest != run_synthesis(
            fig4_system.design
        ).digest

    def test_utilization_fits_zedboard(self, fig4_system):
        bit = run_synthesis(fig4_system.design)
        pct = bit.utilization_percent()
        assert all(0 <= v < 100 for v in pct.values())
        assert bit.part == XC7Z020.part

    def test_overflow_rejected(self, fig4_system):
        from repro.soc import DeviceBudget

        tiny = DeviceBudget("tiny", lut=10, ff=10, bram18=1, dsp=1)
        with pytest.raises(SocError, match="does not fit"):
            run_synthesis(fig4_system.design, tiny)

    def test_timing_degrades_when_full(self, fig4_system):
        from repro.soc import DeviceBudget

        usage = fig4_system.design.total_resources()
        snug = DeviceBudget("snug", lut=int(usage.lut * 1.05), ff=10**6, bram18=10**3, dsp=10**3)
        bit = run_synthesis(fig4_system.design, snug)
        assert bit.achieved_clock_mhz < 100.0


class TestConnectionIndex:
    """``connect`` checks duplicates against a key index, while the
    ``connections`` list stays the source of truth that callers may
    reassign or edit directly."""

    @pytest.fixture
    def bd(self, fig4_system):
        import copy

        return copy.deepcopy(fig4_system.design)

    def test_duplicate_connect_rejected(self, bd):
        c = bd.connections[0]
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*c.key())

    def test_reassigned_subset_frees_the_removed_keys(self, bd):
        removed = bd.connections[:3]
        bd.connections = bd.connections[3:]
        for c in removed:
            bd.connect(*c.key())
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*removed[0].key())

    def test_directly_appended_duplicate_is_seen(self, bd):
        c, other = bd.connections[:2]
        bd.connections = bd.connections[2:]
        bd.connect(*other.key())  # the index is taken without c
        bd.connections.append(type(c)(*c.key()))  # c goes in behind its back
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*c.key())

    def test_replaced_tail_is_seen(self, bd):
        first, last = bd.connections[0], bd.connections[-1]
        bd.connections = bd.connections[1:]
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*last.key())  # the index is taken on this list
        bd.connections[-1] = first  # same list, same length, new tail
        bd.connect(*last.key())
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*first.key())

    def test_in_place_remove_and_insert_are_seen(self, bd):
        first, second, last = bd.connections[0], bd.connections[1], bd.connections[-1]
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*last.key())  # the index is taken on this list
        del bd.connections[:2]  # same list and tail, two shorter
        bd.connect(*first.key())
        bd.connections.insert(0, second)  # same tail, one longer
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*second.key())

    def test_copies_keep_separate_indexes(self, bd):
        import copy

        twin = copy.deepcopy(bd)
        c = bd.connections[0]
        twin.connections = twin.connections[1:]
        twin.connect(*c.key())
        with pytest.raises(IntegrationError, match="duplicate"):
            bd.connect(*c.key())
        assert twin.connections[-1] == c and len(twin.connections) == len(bd.connections)


class TestDrc:
    def test_undriven_clock_detected(self):
        bd = BlockDesign("t")
        bd.add_cell(axi_dma("dma0"))
        with pytest.raises(DrcError, match="undriven"):
            run_drc(bd)

    def test_dangling_master_detected(self, fig4_system):
        import copy

        bd = copy.deepcopy(fig4_system.design)
        # Remove the HP connection: mem interconnect master now dangles.
        bd.connections = [
            c
            for c in bd.connections
            if not (c.src_cell == "axi_mem_intercon" and c.src_pin == "M00_AXI")
        ]
        with pytest.raises(DrcError, match="dangling"):
            run_drc(bd)

    def test_missing_address_detected(self, fig4_system):
        import copy

        bd = copy.deepcopy(fig4_system.design)
        bd.address_map.ranges = [r for r in bd.address_map.ranges if r.name != "MUL_0"]
        with pytest.raises(DrcError, match="no address"):
            run_drc(bd)

    def test_double_stream_driver_detected(self, fig4_system):
        import copy

        bd = copy.deepcopy(fig4_system.design)
        bd.connections.append(
            type(bd.connections[0])("axi_dma_0", "M_AXIS_MM2S", "EDGE_0", "in")
        )
        with pytest.raises(DrcError):
            run_drc(bd)
