"""Write-ahead run journal for the flow.

A killed or crashed ``repro`` invocation used to lose every in-flight
step.  The journal makes the flow resumable the way a database makes a
transaction durable: before a step executes, an *intent* record (step
name + input digest) is appended and fsynced; after the step's artifact
is safely published (to the content-addressed build cache or to the
promoted workspace), a *commit* record follows.  A resumed run replays
the journal and knows exactly which steps completed — committed per-core
HLS steps are satisfied from the cache, and only the interrupted tail
re-executes.

Durability model
----------------
* The journal is an append-only JSONL file; every record is one line,
  flushed and fsynced before the step runs, so a ``kill -9`` at any
  instant loses at most the line being written.
* A torn trailing line (the crash hit mid-append) is tolerated: it is
  ignored on load and truncated before the next append.  A torn line
  *before* the end means the file did not come from this writer, so
  the whole journal is discarded — a clean rebuild is always safe,
  stale reuse never is.
* The header pins the *run digest* — a digest of everything the flow
  depends on (DSL text, C sources, directives, backend, config).  A
  journal whose header does not match the current inputs is discarded,
  so resuming after a config or source change forces a clean rebuild
  instead of stitching incompatible halves together.

Step input digests follow the same rule as the build cache: a committed
record is honoured only when its digest equals the digest the resumed
run computes for that step, so a resumed run can never reuse a step
whose inputs drifted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TextIO

from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS

#: Bumped on incompatible journal-format changes; old journals are then
#: discarded (clean rebuild) instead of misread.
JOURNAL_VERSION = 1


def stable_digest(obj: object) -> str:
    """SHA-256 of the canonical JSON rendering of *obj* (sorted keys)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


def fsync_dir(path: Path) -> None:
    """fsync a directory so a file created inside it survives power loss."""
    dirfd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def open_for_append(path: Path) -> TextIO:
    """Open a JSONL file for appending after its last complete line.

    Readers drop a torn final line (a crash mid-append); appending
    straight after it would glue the next record onto the fragment and
    turn a tolerated tear into mid-file corruption.  So the fragment is
    truncated away first.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end != len(data):
            fh.truncate(end)
    return open(path, "a", encoding="utf-8")


class RunJournal:
    """Append-only write-ahead log of one flow run's step lifecycle.

    Usage::

        journal = RunJournal(path)
        journal.begin(run_digest)          # load-or-create; sets .resumed
        if not journal.committed(step, d):
            journal.step_start(step, d)    # durable before the work
            ...do the work, publish the artifact...
            journal.step_commit(step, d)   # durable after the publish

    ``begin`` may be called again (e.g. a double resume); the journal
    then reloads from disk with the same discard rules.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.run_digest: str | None = None
        #: True when ``begin`` found a matching journal with prior steps.
        self.resumed = False
        #: Steps the loaded journal had started but never committed —
        #: the interrupted tail the resumed run is recovering.
        self.interrupted: tuple[str, ...] = ()
        self._committed: dict[str, str] = {}
        self._started: dict[str, str] = {}
        self._fh = None

    # -- lifecycle ---------------------------------------------------------
    def begin(self, run_digest: str) -> None:
        """Open the journal for a run whose inputs digest to *run_digest*.

        An existing journal is resumed only when its header matches the
        digest and the journal version; otherwise (mismatch, corruption,
        unreadable) it is discarded and a fresh journal is started.
        """
        self.close()
        self.run_digest = run_digest
        self.resumed = False
        self.interrupted = ()
        self._committed = {}
        self._started = {}
        records = self._load()
        if records is not None:
            started, committed = {}, {}
            for rec in records:
                if rec.get("e") == "start":
                    started[rec["s"]] = rec["d"]
                elif rec.get("e") == "commit":
                    committed[rec["s"]] = rec["d"]
            self._committed = committed
            self._started = started
            self.resumed = bool(started or committed)
            self.interrupted = tuple(
                s for s, d in started.items() if committed.get(s) != d
            )
            # Replayed commits are surfaced on the bus so a resumed run's
            # trace carries the full committed-step set, not just the
            # re-executed tail — the resume differential test compares
            # exactly these sets against an uninterrupted run.
            if _BUS.enabled and committed:
                for step in sorted(committed):
                    _BUS.emit("journal.commit", step, replayed=True)
                _METRICS.counter(
                    "journal.replays", "committed records replayed on resume"
                ).inc(len(committed))
            self._fh = open_for_append(self.path)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._append({"e": "run", "v": JOURNAL_VERSION, "d": run_digest})
            # The header record is fsynced by _append, but the *file
            # creation* lives in the directory: without a dir fsync a
            # power loss can forget the journal exists while keeping
            # artifacts it journaled — fsync the parent so the header
            # is durable the way every record after it is.
            fsync_dir(self.path.parent)

    def _load(self) -> list[dict] | None:
        """Parse the on-disk journal; ``None`` means start fresh."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return None
        lines = raw.split("\n")
        # A crash mid-append leaves a torn final line: raw not ending in
        # "\n" makes lines[-1] that torn fragment; drop it.  (A complete
        # file ends in "\n", so lines[-1] is then just "".)
        lines = lines[:-1]
        records: list[dict] = []
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                if i == len(lines) - 1:
                    break  # torn tail from a crash mid-write — tolerated
                return None  # corruption before the tail — discard all
            records.append(rec)
        if not records:
            return None
        head = records[0]
        if (
            head.get("e") != "run"
            or head.get("v") != JOURNAL_VERSION
            or head.get("d") != self.run_digest
        ):
            return None  # different inputs/format — clean rebuild
        return records[1:]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- records -----------------------------------------------------------
    def _append(self, rec: dict) -> None:
        assert self._fh is not None, "RunJournal.begin() not called"
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def step_start(self, step: str, digest: str) -> None:
        """Durably record the *intent* to run *step* — before the work."""
        self._started[step] = digest
        self._append({"e": "start", "s": step, "d": digest})
        if _BUS.enabled:
            _BUS.emit("journal.intent", step, digest=digest[:16])
            _METRICS.counter(
                "journal.intents", "write-ahead intent records appended"
            ).inc()

    def step_commit(self, step: str, digest: str) -> None:
        """Durably record that *step*'s artifact is published."""
        self._committed[step] = digest
        self._append({"e": "commit", "s": step, "d": digest})
        if _BUS.enabled:
            _BUS.emit("journal.commit", step, digest=digest[:16])
            _METRICS.counter(
                "journal.commits", "commit records appended"
            ).inc()

    def committed(self, step: str, digest: str) -> bool:
        """Did a previous run commit *step* with exactly this input digest?"""
        return self._committed.get(step) == digest

    @property
    def committed_steps(self) -> dict[str, str]:
        """Step -> input digest of every committed step (a copy)."""
        return dict(self._committed)

    @property
    def started_steps(self) -> dict[str, str]:
        """Step -> input digest of every started step (a copy).

        The build service attributes a failed run to a backend step by
        looking at the started-but-uncommitted tail — the step the flow
        died inside is the last intent with no matching commit.
        """
        return dict(self._started)

    @property
    def crash_recoveries(self) -> int:
        """Steps the loaded journal left started-but-uncommitted."""
        return len(self.interrupted)

    def describe(self) -> dict:
        """Structured summary (for logs and the crashcheck records)."""
        return {
            "resumed": self.resumed,
            "committed": sorted(self._committed),
            "interrupted": sorted(self.interrupted),
        }


__all__ = [
    "JOURNAL_VERSION",
    "RunJournal",
    "fsync_dir",
    "open_for_append",
    "stable_digest",
]
