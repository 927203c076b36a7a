"""Smoke tests: the fast examples run to completion (no rot)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example("quickstart.py", monkeypatch, capsys)
    assert "bitstream" in out
    assert "artifacts written" in out


def test_textual_dsl(monkeypatch, capsys):
    out = run_example("textual_dsl.py", monkeypatch, capsys)
    assert "round-trip: parse(emit(g)) == g  OK" in out
    assert "changed lines" in out


def test_image_pipeline(monkeypatch, capsys):
    out = run_example("image_pipeline.py", monkeypatch, capsys)
    assert "bit-exact" in out
    assert "MUL(6, 7) -> 42" in out


def test_voice_trigger(monkeypatch, capsys):
    out = run_example("voice_trigger.py", monkeypatch, capsys)
    assert "voiced frames" in out
    assert "CPU busy only" in out


def test_dse_explore(monkeypatch, capsys):
    out = run_example("dse_explore.py", monkeypatch, capsys)
    assert "greedy final point on the exhaustive Pareto front: True" in out
    sweep = out.split("Directive sweep over Arch4 (what to PIPELINE):\n", 1)[1]
    rows = [line.split() for line in sweep.splitlines() if "cycles=" in line]
    assert len(rows) == 8
    assert rows[0] == ["computeHistogram+grayScale+segment", "cycles=33883"]
