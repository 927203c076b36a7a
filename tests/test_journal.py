"""Unit tests for the write-ahead run journal.

The contract: intent records are durable *before* the work, commit
records only after the artifact is published, a torn tail never poisons
the journal, and a header mismatch (changed inputs/config) discards the
journal entirely — clean rebuild, never stale reuse.
"""

import json

import pytest

from repro.flow.journal import JOURNAL_VERSION, RunJournal, stable_digest

RUN = "a" * 64


def lines(path):
    return [json.loads(l) for l in path.read_text().splitlines() if l.strip()]


class TestLifecycle:
    def test_fresh_journal(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        assert not j.resumed
        assert j.crash_recoveries == 0
        assert not j.committed("hls:core", "d1")
        head = lines(j.path)[0]
        assert head == {"e": "run", "v": JOURNAL_VERSION, "d": RUN}

    def test_write_ahead_ordering(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("hls:core", "d1")
        # The intent must be durable on disk before any work runs.
        assert lines(j.path)[-1] == {"e": "start", "s": "hls:core", "d": "d1"}
        j.step_commit("hls:core", "d1")
        assert lines(j.path)[-1] == {"e": "commit", "s": "hls:core", "d": "d1"}
        assert j.committed("hls:core", "d1")
        assert not j.committed("hls:core", "d2")  # digest must match exactly

    def test_resume_reads_prior_commits(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("hls:a", "d1")
        j.step_commit("hls:a", "d1")
        j.step_start("hls:b", "d2")  # interrupted: no commit
        j.close()

        r = RunJournal(tmp_path / "journal")
        r.begin(RUN)
        assert r.resumed
        assert r.committed("hls:a", "d1")
        assert not r.committed("hls:b", "d2")
        assert r.interrupted == ("hls:b",)
        assert r.crash_recoveries == 1
        assert r.describe()["interrupted"] == ["hls:b"]

    def test_double_resume_is_stable(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("s", "d")
        j.close()
        for _ in range(2):
            r = RunJournal(tmp_path / "journal")
            r.begin(RUN)
            assert r.resumed and r.interrupted == ("s",)
            r.close()

    def test_recommit_after_interrupt_clears_recovery(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("s", "d")
        j.close()
        r = RunJournal(tmp_path / "journal")
        r.begin(RUN)
        r.step_start("s", "d")
        r.step_commit("s", "d")
        r.close()
        final = RunJournal(tmp_path / "journal")
        final.begin(RUN)
        assert final.committed("s", "d")
        assert final.crash_recoveries == 0


class TestDiscard:
    def test_run_digest_mismatch_discards(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("s", "d")
        j.step_commit("s", "d")
        j.close()

        changed = RunJournal(tmp_path / "journal")
        changed.begin("b" * 64)  # config/inputs changed
        assert not changed.resumed
        assert not changed.committed("s", "d")
        # The file was rewritten for the new run digest.
        assert lines(changed.path)[0]["d"] == "b" * 64

    def test_torn_tail_tolerated(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_start("s1", "d1")
        j.step_commit("s1", "d1")
        j.close()
        with open(tmp_path / "journal", "a") as fh:
            fh.write('{"e": "start", "s": "s2"')  # crash mid-append

        r = RunJournal(tmp_path / "journal")
        r.begin(RUN)
        assert r.resumed
        assert r.committed("s1", "d1")  # everything before the tear survives
        assert r.crash_recoveries == 0

        # The resumed run appends after the tear: the next record must
        # start on its own line, not glue onto the fragment.
        r.step_start("s2", "d2")
        r.step_commit("s2", "d2")
        r.close()
        again = RunJournal(tmp_path / "journal")
        again.begin(RUN)
        assert again.resumed
        assert again.committed_steps == {"s1": "d1", "s2": "d2"}

    def test_corruption_before_tail_discards_all(self, tmp_path):
        j = RunJournal(tmp_path / "journal")
        j.begin(RUN)
        j.step_commit("s1", "d1")
        j.close()
        raw = (tmp_path / "journal").read_text()
        head, rest = raw.split("\n", 1)
        (tmp_path / "journal").write_text("not json\n" + rest)

        r = RunJournal(tmp_path / "journal")
        r.begin(RUN)
        assert not r.resumed and not r.committed("s1", "d1")

    def test_version_bump_discards(self, tmp_path):
        path = tmp_path / "journal"
        path.write_text(json.dumps({"e": "run", "v": JOURNAL_VERSION + 1, "d": RUN}) + "\n")
        r = RunJournal(path)
        r.begin(RUN)
        assert not r.resumed

    def test_missing_file_starts_fresh(self, tmp_path):
        r = RunJournal(tmp_path / "sub" / "journal")
        r.begin(RUN)  # creates parent directories
        assert r.path.exists() and not r.resumed


class TestStableDigest:
    def test_deterministic_and_order_free(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_non_json_values_use_repr(self):
        class Thing:
            def __repr__(self):
                return "Thing()"

        assert stable_digest({"t": Thing()}) == stable_digest({"t": Thing()})


class TestContextManager:
    def test_with_block_closes(self, tmp_path):
        with RunJournal(tmp_path / "journal") as j:
            j.begin(RUN)
            j.step_commit("s", "d")
        assert j._fh is None
        with pytest.raises(AssertionError):
            j._append({"e": "commit", "s": "x", "d": "y"})
