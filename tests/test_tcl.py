"""Tests for tcl generation, versioned backends, and the tcl runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import run_synthesis
from repro.soc.ip import hls_core
from repro.tcl import (
    TclRunner,
    TclScript,
    Vivado2014_2,
    Vivado2015_3,
    generate_hls_tcl,
    generate_system_tcl,
)
from repro.tcl.runner import tcl_words
from repro.util.errors import TclError


def make_runner(cores):
    runner = TclRunner()
    for name, res in cores.items():
        runner.register_ip(
            f"xilinx.com:hls:{name}",
            lambda cell, params, r=res, n=name: hls_core(cell, n, r),
        )
    return runner


class TestScriptModel:
    def test_render_and_metrics(self):
        s = TclScript(header="hello")
        s.add("create_project", "p", "-part", "xc7z020")
        s.comment("a comment")
        s.add("exit")
        text = s.render()
        assert text.startswith("# hello")
        assert s.lines_of_code() == 2  # comments/blank excluded
        assert s.characters() > 0
        assert s.total_lines() == 4

    def test_words_nesting(self):
        words = tcl_words(
            "connect_bd_intf_net [get_bd_intf_pins a/b] [get_bd_intf_pins c/d]"
        )
        assert words == [
            "connect_bd_intf_net",
            "[get_bd_intf_pins a/b]",
            "[get_bd_intf_pins c/d]",
        ]

    def test_words_braces(self):
        words = tcl_words("set_property -dict [list CONFIG.a {1 2} CONFIG.b {x}] t")
        assert words[2] == "[list CONFIG.a {1 2} CONFIG.b {x}]"

    def test_words_unbalanced(self):
        with pytest.raises(TclError, match="unbalanced"):
            tcl_words("cmd [oops")
        with pytest.raises(TclError, match="unbalanced"):
            tcl_words("cmd oops]")


def _per_character_words(line):
    """Reference splitter: the character loop ``tcl_words`` replaced."""
    words, current, depth = [], [], 0
    for ch in line:
        if ch in "[{":
            depth += 1
            current.append(ch)
        elif ch in "]}":
            depth -= 1
            if depth < 0:
                raise TclError(f"unbalanced brackets in line: {line!r}")
            current.append(ch)
        elif ch.isspace() and depth == 0:
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(ch)
    if depth != 0:
        raise TclError(f"unbalanced brackets in line: {line!r}")
    if current:
        words.append("".join(current))
    return words


def _split_outcome(split, line):
    try:
        return split(line)
    except TclError as exc:
        return ("error", str(exc))


class TestWordsAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(st.text(alphabet="ab [ ] { } \t\n\x0b\x1c /.\xa0", max_size=24))
    def test_random_lines(self, line):
        assert _split_outcome(tcl_words, line) == _split_outcome(
            _per_character_words, line
        )

    def test_generated_script_lines(self, fig4_system):
        for backend in (Vivado2014_2(), Vivado2015_3()):
            for line in generate_system_tcl(fig4_system, backend).render().splitlines():
                assert tcl_words(line) == _per_character_words(line)

    @pytest.mark.parametrize(
        "line",
        ["a{b c}d e", "{x}[y]", "  [a  b]  ", "x]", "}{", "[{]}", "a\x1cb", ""],
    )
    def test_corners(self, line):
        assert _split_outcome(tcl_words, line) == _split_outcome(
            _per_character_words, line
        )


class TestRunnerArgumentErrors:
    """Malformed commands raise TclError naming the command, never a bare
    KeyError/ValueError/IndexError from the argument handling."""

    HEAD = [
        "create_project p ./p -part xc7z020clg484-1",
        'create_bd_design "p"',
        "create_bd_cell -type ip -vlnv xilinx.com:ip:axi_dma:7.1 d0",
    ]

    def run(self, *lines):
        return TclRunner().execute("\n".join(self.HEAD + list(lines)))

    def test_range_without_unit(self):
        with pytest.raises(TclError, match="assign_bd_address: -range '4096'"):
            self.run("assign_bd_address -offset 0x40400000 -range 4096 "
                     "[get_bd_addr_segs d0/Reg]")

    def test_create_bd_cell_without_vlnv(self):
        with pytest.raises(TclError, match="create_bd_cell: missing -vlnv"):
            self.run("create_bd_cell -type ip d1")

    def test_assign_bd_address_without_offset(self):
        with pytest.raises(TclError, match="assign_bd_address: missing -offset"):
            self.run("assign_bd_address -range 64K [get_bd_addr_segs d0/Reg]")

    def test_bare_set_property(self):
        with pytest.raises(TclError, match="set_property: missing arguments"):
            self.run("set_property")

    def test_set_property_dict_without_target(self):
        with pytest.raises(TclError, match="set_property: -dict needs"):
            self.run("set_property -dict [list CONFIG.c_include_mm2s {1}]")

    def test_offset_not_hex(self):
        with pytest.raises(TclError, match="assign_bd_address: -offset 'zz'"):
            self.run("assign_bd_address -offset zz -range 64K [get_bd_addr_segs d0/Reg]")

    def test_flag_without_value(self):
        with pytest.raises(TclError, match="create_bd_cell: missing -vlnv"):
            self.run("create_bd_cell -type ip -vlnv")

    def test_create_bd_design_without_name(self):
        with pytest.raises(TclError, match="create_bd_design: missing design name"):
            TclRunner().execute("create_bd_design")

    def test_valid_range_units(self):
        for text, size in (("64K", 64 * 1024), ("1M", 1 << 20)):
            result = self.run(
                f"assign_bd_address -offset 0x40400000 -range {text} "
                "[get_bd_addr_segs d0/Reg]"
            )
            assert result.design.address_map.of("d0").size == size


class TestBackends:
    def test_version_specific_vlnv(self, fig4_system):
        old = generate_system_tcl(fig4_system, Vivado2014_2()).render()
        new = generate_system_tcl(fig4_system, Vivado2015_3()).render()
        assert "processing_system7:5.4" in old
        assert "processing_system7:5.5" in new

    def test_version_specific_commands(self, fig4_system):
        old = generate_system_tcl(fig4_system, Vivado2014_2()).render()
        new = generate_system_tcl(fig4_system, Vivado2015_3()).render()
        assert "startgroup" in old and "startgroup" not in new
        assert "update_compile_order" in new and "update_compile_order" not in old

    def test_port_effort_is_small(self, fig4_system):
        """The 2014.2 -> 2015.3 port only changes version strings and a
        couple of commands — most script lines are identical (the paper's
        maintainability claim)."""
        old = generate_system_tcl(fig4_system, Vivado2014_2())
        new = generate_system_tcl(fig4_system, Vivado2015_3())
        old_lines = set(old.render().splitlines())
        new_lines = set(new.render().splitlines())
        common = old_lines & new_lines
        assert len(common) / max(len(old_lines), len(new_lines)) > 0.8


class TestGeneration:
    def test_script_contains_all_cells(self, fig4_system):
        text = generate_system_tcl(fig4_system).render()
        for cell in fig4_system.design.cells:
            assert cell in text

    def test_script_contains_flow_steps(self, fig4_system):
        text = generate_system_tcl(fig4_system).render()
        for step in ("validate_bd_design", "make_wrapper", "write_bitstream"):
            assert step in text

    def test_hls_tcl(self, fig4_cores):
        script = generate_hls_tcl("GAUSS", fig4_cores["GAUSS"])
        text = script.render()
        assert "set_top GAUSS" in text
        assert "csynth_design" in text
        assert "set_directive_interface -mode axis" in text


class TestRunner:
    def test_round_trip_digest(self, fig4_system, fig4_cores):
        text = generate_system_tcl(fig4_system).render()
        result = make_runner(fig4_cores).execute(text)
        assert result.bitstream is not None
        assert result.bitstream.digest == run_synthesis(fig4_system.design).digest

    def test_round_trip_both_backends(self, fig4_system, fig4_cores):
        ref = run_synthesis(fig4_system.design).digest
        for backend in (Vivado2014_2(), Vivado2015_3()):
            text = generate_system_tcl(fig4_system, backend).render()
            result = make_runner(fig4_cores).execute(text)
            assert result.bitstream.digest == ref

    def test_runner_rebuilds_address_map(self, fig4_system, fig4_cores):
        text = generate_system_tcl(fig4_system).render()
        result = make_runner(fig4_cores).execute(text)
        got = {(r.name, r.base) for r in result.design.address_map.ranges}
        want = {(r.name, r.base) for r in fig4_system.design.address_map.ranges}
        assert got == want

    def test_unknown_ip_rejected(self, fig4_system):
        text = generate_system_tcl(fig4_system).render()
        runner = TclRunner()  # HLS cores not registered
        with pytest.raises(TclError, match="catalog"):
            runner.execute(text)

    def test_unknown_command_rejected(self):
        with pytest.raises(TclError, match="unknown tcl command"):
            TclRunner().execute("frobnicate_design")

    def test_empty_script_rejected(self):
        with pytest.raises(TclError, match="no block design"):
            TclRunner().execute("# nothing\n")

    def test_impl_before_validate_rejected(self, fig4_system, fig4_cores):
        script = generate_system_tcl(fig4_system)
        lines = [
            ln
            for ln in script.render().splitlines()
            if "validate_bd_design" not in ln
        ]
        with pytest.raises(TclError, match="before validation"):
            make_runner(fig4_cores).execute("\n".join(lines))

    def test_hls_script_executes(self, fig4_cores):
        text = generate_hls_tcl("GAUSS", fig4_cores["GAUSS"]).render()
        # HLS project scripts have no block design; the runner treats the
        # commands as flow steps but insists on a design at the end.
        with pytest.raises(TclError, match="no block design"):
            TclRunner().execute(text)


class TestCodeSizeClaim:
    def test_tcl_larger_than_dsl(self, fig4_system, fig4_graph):
        """Discussion section: generated tcl is ~4x the DSL in lines and
        4-10x in characters."""
        from repro.dsl import emit_dsl
        from repro.util.text import count_chars, count_lines

        dsl_text = emit_dsl(fig4_graph)
        tcl = generate_system_tcl(fig4_system)
        line_ratio = tcl.lines_of_code() / count_lines(dsl_text)
        char_ratio = tcl.characters() / count_chars(dsl_text)
        assert line_ratio > 2.5
        assert char_ratio > 4.0
