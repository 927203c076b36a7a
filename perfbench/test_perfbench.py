"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def test_smoke_every_workload_reports_every_metric_and_no_failure():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children_and_reentry_counts_once():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def outer(depth):
        if depth:
            traced_outer(depth - 1)
        return traced_leaf()

    traced_leaf = tracer._wrapper("leaf", leaf, None)
    traced_outer = tracer._wrapper("outer", outer, None)
    traced_outer(2)

    table = tracer.layer_table()
    assert table["outer"]["calls"] == 3 and table["leaf"]["calls"] == 3
    spans = {s[3]: s for s in tracer.spans}
    top = next(s for s in tracer.spans if s[4] == -1)
    # Inclusive time counts only the outermost span of a re-entered layer.
    assert table["outer"]["ms"] == (top[2] - top[1]) / 1e6
    # Self time of every span is its duration minus its direct children.
    for span in tracer.spans:
        children = [c for c in tracer.spans if c[4] == span[3]]
        assert span[6] == (span[2] - span[1]) - sum(c[2] - c[1] for c in children)
    assert all(s[4] in spans or s[4] == -1 for s in tracer.spans)


def test_chrome_trace_is_valid_trace_event_json(tmp_path):
    tracer = Tracer()
    tracer._wrapper("layer", lambda: None, None)()
    path = tmp_path / "trace.json"
    assert tracer.chrome_trace(path) == 1
    event = json.loads(path.read_text())["traceEvents"][0]
    assert event["ph"] == "X" and event["name"] == "layer" and event["dur"] >= 0
