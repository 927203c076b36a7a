"""Property tests for the content-addressed build cache.

Keys must be pure functions of the build inputs (stable across runs and
processes), must change whenever any input changes, and the store must
detect — never serve — a corrupted entry.
"""

import pickle
import random

import pytest

from repro.flow.buildcache import (
    ENGINE_VERSION,
    BuildCache,
    CacheIntegrityWarning,
    FileLock,
    cache_key,
)
from repro.util.errors import CacheLockTimeout

BASE = dict(
    name="gauss",
    source="void gauss(int in[8], int out[8]) { }",
    directives_tcl='set_directive_interface -mode axis "gauss" in\n',
    backend_version="2015.3",
)


def _key(**over):
    args = {**BASE, **over}
    return cache_key(
        args["name"], args["source"], args["directives_tcl"], args["backend_version"]
    )


class TestCacheKey:
    def test_stable_across_calls(self):
        assert _key() == _key()

    def test_stable_across_processes(self):
        # sha256 of fixed bytes — pin the value so any accidental change
        # to the key recipe (which would orphan every on-disk cache
        # entry) fails loudly instead of silently invalidating caches.
        import hashlib

        h = hashlib.sha256()
        for part in (
            ENGINE_VERSION,
            BASE["name"],
            BASE["source"],
            BASE["directives_tcl"],
            BASE["backend_version"],
        ):
            data = part.encode()
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        assert _key() == h.hexdigest()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("name", "gauss2"),
            ("source", "void gauss(int in[8], int out[8]) { int x; }"),
            ("directives_tcl", ""),
            ("backend_version", "2014.2"),
        ],
    )
    def test_changes_with_every_input(self, field, value):
        assert _key(**{field: value}) != _key()

    def test_changes_with_engine_version(self):
        assert cache_key("a", "b", "c", "d", engine_version="0") != cache_key(
            "a", "b", "c", "d", engine_version="1"
        )

    def test_field_boundaries_not_ambiguous(self):
        # Length-prefixing means "ab"+"c" never collides with "a"+"bc".
        assert cache_key("ab", "c", "d", "e") != cache_key("a", "bc", "d", "e")
        assert cache_key("a", "b", "cd", "e") != cache_key("a", "bc", "d", "e")

    def test_seeded_random_inputs_unique_and_stable(self):
        rng = random.Random(2016)
        seen = {}
        for _ in range(200):
            inputs = tuple(
                "".join(rng.choice("abcxyz();{}= \n") for _ in range(rng.randint(0, 40)))
                for _ in range(4)
            )
            key = cache_key(*inputs)
            assert cache_key(*inputs) == key  # stable on recompute
            assert len(key) == 64 and int(key, 16) >= 0
            assert seen.setdefault(key, inputs) == inputs  # no collisions
        assert len(seen) > 150  # distinct inputs got distinct keys


class TestBuildCacheStore:
    def test_memory_roundtrip(self):
        cache = BuildCache()
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"verilog": "module m; endmodule"})
        assert cache.get("k" * 64) == {"verilog": "module m; endmodule"}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_disk_roundtrip_persists_across_instances(self, tmp_path):
        key = _key()
        BuildCache(tmp_path).put(key, ["artifact", 42])
        fresh = BuildCache(tmp_path)
        assert fresh.get(key) == ["artifact", 42]
        assert fresh.stats.hits == 1

    def test_no_partial_files_after_put(self, tmp_path):
        cache = BuildCache(tmp_path)
        for i in range(5):
            cache.put(_key(name=f"c{i}"), i)
        leftovers = [p.name for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []
        assert len(cache) == 5

    @pytest.mark.parametrize(
        "corruptor",
        [
            lambda raw: raw[: len(raw) // 2],  # truncated
            lambda raw: b"garbage" + raw[7:],  # bad magic
            lambda raw: raw[:-4] + b"\xff\xff\xff\xff",  # payload flipped
            lambda raw: raw.replace(b"/1\n", b"/1\n" + b"0" * 3, 1),  # digest off
        ],
    )
    def test_corrupted_entry_detected_and_rebuilt(self, tmp_path, corruptor):
        key = _key()
        writer = BuildCache(tmp_path)
        writer.put(key, "good artifact")
        (entry,) = [p for p in (tmp_path / "objects").rglob("*") if p.is_file()]
        entry.write_bytes(corruptor(entry.read_bytes()))

        cache = BuildCache(tmp_path)
        with pytest.warns(CacheIntegrityWarning):
            assert cache.get(key) is None  # never served
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not entry.exists()  # quarantined, so the rebuild replaces it
        assert cache.quarantined_keys() == [key]  # bad bytes kept for post-mortem
        cache.put(key, "rebuilt artifact")
        assert BuildCache(tmp_path).get(key) == "rebuilt artifact"

    def test_unpicklable_payload_with_valid_digest_is_corrupt(self, tmp_path):
        import hashlib

        key = _key()
        payload = b"\x80\x05not really a pickle"
        blob = (
            b"repro-buildcache/1\n"
            + hashlib.sha256(payload).hexdigest().encode()
            + b"\n"
            + payload
        )
        path = tmp_path / "objects" / key[:2] / key
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        cache = BuildCache(tmp_path)
        with pytest.warns(CacheIntegrityWarning):
            assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_contains_and_clear(self, tmp_path):
        cache = BuildCache(tmp_path)
        key = _key()
        assert key not in cache
        cache.put(key, 1)
        assert key in cache
        cache.clear()
        assert key not in cache and len(cache) == 0


class TestCacheHardening:
    """Cross-process locking, corruption quarantine, and scrubbing."""

    def test_lock_is_reentrant_within_one_cache(self, tmp_path):
        # scrub() holds the lock and quarantines a corrupt entry through
        # _drop_corrupt(), which re-acquires — a non-reentrant lock
        # would deadlock (time out) right here.
        cache = BuildCache(tmp_path, lock_timeout_s=0.2)
        keys = [_key(name=f"core{i}") for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        cache._path(keys[0]).write_bytes(b"junk")
        with pytest.warns(CacheIntegrityWarning):
            report = cache.scrub()
        assert report.quarantined == [keys[0]] and report.ok == 2
        assert cache.quarantined_keys() == [keys[0]]
        # Fully released: a second instance locks at once.
        BuildCache(tmp_path, lock_timeout_s=0.2).put(_key(name="other"), 3)

    def test_lock_contention_times_out(self, tmp_path):
        holder = FileLock(tmp_path / "lock", timeout_s=5.0)
        holder.acquire()
        try:
            waiter = FileLock(tmp_path / "lock", timeout_s=0.2)
            with pytest.raises(CacheLockTimeout) as exc:
                waiter.acquire()
            assert exc.value.timeout_s == 0.2
        finally:
            holder.release()

    def test_lock_released_after_put(self, tmp_path):
        BuildCache(tmp_path).put(_key(), 1)
        # A second instance (fresh fd → real flock contention) acquires
        # immediately because put released the lock.
        BuildCache(tmp_path, lock_timeout_s=0.2).put(_key(name="other"), 2)

    def test_concurrent_eviction_mid_read_is_a_miss_not_an_error(self, tmp_path):
        cache = BuildCache(tmp_path)
        key = _key()
        cache.put(key, "value")
        # Simulate a peer process removing the entry (clear()) mid-read.
        # The disk store keeps no memory copy, so even the instance that
        # stored the entry has nothing left to answer with.
        cache._path(key).unlink()
        assert cache.get(key) is None  # rebuild, never a raise
        assert key not in cache and len(cache) == 0
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_scrub_quarantines_and_reports(self, tmp_path):
        cache = BuildCache(tmp_path)
        keys = [_key(name=f"core{i}") for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        for key in keys[:2]:
            path = cache._path(key)
            path.write_bytes(path.read_bytes()[:10])

        fresh = BuildCache(tmp_path)
        with pytest.warns(CacheIntegrityWarning):
            report = fresh.scrub()
        assert report.checked == 4 and report.ok == 2
        assert sorted(report.quarantined) == sorted(keys[:2])
        assert not report.healthy
        assert fresh.quarantined_keys() == sorted(keys[:2])
        # Quarantined entries are gone from the serving path: miss + rebuild.
        assert fresh.get(keys[0]) is None
        fresh.put(keys[0], "rebuilt")
        assert BuildCache(tmp_path).get(keys[0]) == "rebuilt"
        # Healthy entries survived the scrub untouched.
        assert BuildCache(tmp_path).get(keys[3]) == 3

    def test_scrub_healthy_cache(self, tmp_path):
        cache = BuildCache(tmp_path)
        for i in range(3):
            cache.put(_key(name=f"c{i}"), i)
        report = cache.scrub()
        assert report.healthy and report.checked == 3 and report.ok == 3
        assert "3 entries checked" in report.render()

    def test_purge_quarantine(self, tmp_path):
        cache = BuildCache(tmp_path)
        cache.put(_key(), "x")
        path = cache._path(_key())
        path.write_bytes(b"junk")
        with pytest.warns(CacheIntegrityWarning):
            cache.scrub()
        assert len(cache.quarantined_keys()) == 1
        assert cache.purge_quarantine() == 1
        assert cache.quarantined_keys() == []

    def test_memory_cache_has_no_lock_or_quarantine(self):
        cache = BuildCache()
        cache.put("k" * 64, 1)
        report = cache.scrub()
        assert report.checked == 0 and report.healthy
        assert cache.quarantined_keys() == []
        assert cache.purge_quarantine() == 0
