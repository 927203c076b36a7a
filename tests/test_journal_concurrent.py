"""Concurrent journal writers: real processes, one cache root.

The build service gives every job its own journal under its tenant's
directory, all sharing one content-addressed build cache.  These tests
run *real* OS processes — not threads — to prove the layout holds up:

* two writers appending to sibling journals while hammering the same
  cache keys neither interleave journal records nor deadlock on the
  cross-process cache flock;
* a writer killed with SIGKILL mid-stream leaves a journal the loader
  accepts: every complete record survives, at most the torn tail is
  dropped.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.flow.buildcache import BuildCache
from repro.flow.journal import RunJournal

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Worker: appends ``rounds`` start/commit pairs to its own journal while
#: putting/getting the same shared cache keys as its sibling.  Prints
#: ``done <n>`` so the parent knows the stream length.
WORKER = textwrap.dedent(
    """
    import sys
    from repro.flow.buildcache import BuildCache
    from repro.flow.journal import RunJournal

    journal_path, cache_root, tag, rounds = sys.argv[1:5]
    rounds = int(rounds)
    cache = BuildCache(cache_root)
    journal = RunJournal(journal_path)
    journal.begin("digest-" + tag)
    for k in range(rounds):
        step = f"step:{k}"
        journal.step_start(step, f"d{k}")
        # Same keys from both processes: every put/get crosses the
        # cache's file lock while the sibling does the same.
        key = f"shared:{k % 8}"
        cache.put(key, {"tag": tag, "k": k})
        assert cache.get(key) is not None
        journal.step_commit(step, f"d{k}")
    journal.close()
    print(f"done {rounds}")
    """
)

#: Worker for the kill test: journals forever, one line per record, and
#: prints ``running`` once the warmup commits are durable.
SPINNER = textwrap.dedent(
    """
    import sys
    from repro.flow.journal import RunJournal

    journal = RunJournal(sys.argv[1])
    journal.begin("digest-spin")
    k = 0
    while True:
        journal.step_start(f"step:{k}", f"d{k}")
        journal.step_commit(f"step:{k}", f"d{k}")
        if k == 10:
            print("running", flush=True)
        k += 1
    """
)


def _spawn(code: str, *argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestSiblingWriters:
    ROUNDS = 40

    def test_two_processes_no_interleave_no_deadlock(self, tmp_path):
        cache_root = tmp_path / "cache"
        paths = {
            tag: tmp_path / "tenants" / tag / "jobs" / "job0" / "journal.jsonl"
            for tag in ("alice", "bob")
        }
        for path in paths.values():
            path.parent.mkdir(parents=True)
        procs = {
            tag: _spawn(WORKER, str(path), str(cache_root), tag, str(self.ROUNDS))
            for tag, path in paths.items()
        }
        for tag, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"{tag} failed: {err}"
            assert f"done {self.ROUNDS}" in out

        # Each journal replays cleanly with every record intact and no
        # foreign records — sibling writers never bled into each other.
        for tag, path in paths.items():
            journal = RunJournal(path)
            journal.begin(f"digest-{tag}")
            assert journal.resumed
            assert journal.interrupted == ()
            assert len(journal.committed_steps) == self.ROUNDS
            journal.close()
            records = [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line
            ]
            assert records[0]["d"] == f"digest-{tag}"
            assert len(records) == 1 + 2 * self.ROUNDS

        # The shared cache stayed consistent under cross-process locking:
        # every contended key readable.
        cache = BuildCache(cache_root)
        for k in range(8):
            assert cache.get(f"shared:{k}") is not None


class TestKilledWriter:
    def test_sigkill_leaves_loadable_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        proc = _spawn(SPINNER, str(path))
        assert proc.stdout is not None
        assert proc.stdout.readline().strip() == "running"
        time.sleep(0.05)  # let it get deep into the stream
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        journal = RunJournal(path)
        journal.begin("digest-spin")
        # Everything durably committed before the kill is visible, and
        # the warmup marker proves the stream was well past empty.
        assert journal.resumed
        assert len(journal.committed_steps) >= 10
        # At most the in-flight start survives uncommitted.
        assert len(journal.interrupted) <= 1
        journal.close()

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.begin("digest-torn")
        journal.step_start("a", "d1")
        journal.step_commit("a", "d1")
        journal.close()
        # Simulate a crash mid-append: a trailing fragment with no newline.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"e": "start", "s": "b", "d"')

        reloaded = RunJournal(path)
        reloaded.begin("digest-torn")
        assert reloaded.resumed
        assert reloaded.committed_steps == {"a": "d1"}
        assert reloaded.interrupted == ()
