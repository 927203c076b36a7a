"""Persistent content-addressed artifact cache for the build engine.

The paper reuses synthesized cores *by name* ("the generation of the
hardware cores is done only once for each function", Section VI-B) —
which silently conflates two cores that share a function name but differ
in source or directives.  This module replaces the name with a digest of
everything the synthesis result actually depends on:

* the C source text of the core,
* the rendered interface/optimization directives (order preserved —
  Vivado HLS applies them in file order),
* the tcl backend version,
* an engine version constant (bumped on incompatible pipeline changes,
  so stale entries become unreachable rather than wrong).

Entries are pickled payloads stored under ``<dir>/objects/<k[:2]>/<key>``
behind a SHA-256 integrity header; a corrupted or truncated entry is
detected on read, counted, **quarantined** (moved to
``<dir>/quarantine/`` with a structured :class:`CacheIntegrityWarning`,
so the bad bytes stay available for a post-mortem) and treated as a
miss — the core is then rebuilt, never served from the bad bytes.
Writes go through a temp-file + :func:`os.replace` so a crashed build
leaves no partial entry.

The cache is safe to share between concurrent flows *and between
concurrent processes*: an entry is written only after its
synthesis completed successfully, and every mutating operation (store,
quarantine, scrub, clear) holds a cross-process ``flock`` on
``<dir>/lock`` (bounded wait — :class:`~repro.util.errors.CacheLockTimeout`
after *lock_timeout_s*).  Reads stay lock-free: they verify the
integrity header and fall back to a rebuild if a peer removed the file
mid-read, so no reader can ever observe a torn entry.  The store is
unbounded: nothing evicts an entry.
:meth:`BuildCache.scrub` walks every entry, quarantines the corrupt
ones and reports — the engine behind ``repro cachecheck``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.util.errors import CacheLockTimeout

try:  # posix; on platforms without fcntl the lock degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover - windows fallback
    fcntl = None  # type: ignore[assignment]

#: Version of the HLS engine + artifact layout baked into every key.
#: Bumping it invalidates the whole cache without deleting any file.
ENGINE_VERSION = "1"

#: File header: magic line, then the payload digest, then the payload.
_MAGIC = b"repro-buildcache/1\n"


def cache_key(
    name: str,
    source: str,
    directives_tcl: str,
    backend_version: str,
    *,
    engine_version: str = ENGINE_VERSION,
) -> str:
    """Content digest identifying one core build.

    Two builds share a key iff the HLS engine would produce bit-identical
    artifacts for both; the function *name* participates because it is
    the top symbol and appears in every generated artifact.
    """
    h = hashlib.sha256()
    for part in (engine_version, name, source, directives_tcl, backend_version):
        data = part.encode()
        # Length-prefix every field so no concatenation is ambiguous.
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


class CacheIntegrityWarning(UserWarning):
    """A cache entry failed its integrity check and was quarantined."""


class FileLock:
    """Reentrant, cross-process advisory lock on one path (``flock``).

    One instance guards one :class:`BuildCache`; re-acquiring from the
    same instance (``scrub`` → ``_drop_corrupt``) just bumps a depth
    counter, while a second process — or a second instance in this
    process — contends on the OS lock.  Acquisition polls with a
    *timeout_s* bound and raises :class:`CacheLockTimeout` instead of
    hanging a build forever on a wedged peer.
    """

    def __init__(self, path: Path, timeout_s: float = 10.0) -> None:
        self.path = path
        self.timeout_s = timeout_s
        self._fh = None
        self._depth = 0

    def acquire(self) -> None:
        if self._depth:
            self._depth += 1
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+")
        if fcntl is not None:
            deadline = time.monotonic() + self.timeout_s
            while True:
                try:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        fh.close()
                        raise CacheLockTimeout(
                            f"could not lock build cache at {self.path} "
                            f"within {self.timeout_s:g} s",
                            path=str(self.path),
                            timeout_s=self.timeout_s,
                        ) from None
                    time.sleep(0.02)
        self._fh = fh
        self._depth = 1

    def release(self) -> None:
        if not self._depth:
            return
        self._depth -= 1
        if self._depth == 0 and self._fh is not None:
            if fcntl is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class CacheStats:
    """Counters for one :class:`BuildCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass
class ScrubReport:
    """What one :meth:`BuildCache.scrub` pass found and did."""

    checked: int = 0
    ok: int = 0
    quarantined: list[str] = field(default_factory=list)
    #: Keys already sitting in quarantine before this pass.
    quarantine_backlog: int = 0

    @property
    def healthy(self) -> bool:
        return not self.quarantined

    def as_dict(self) -> dict:
        """Machine-readable form (``repro cachecheck --json``)."""
        return {
            "checked": self.checked,
            "ok": self.ok,
            "quarantined": sorted(self.quarantined),
            "quarantined_count": len(self.quarantined),
            "quarantine_backlog": self.quarantine_backlog,
            "healthy": self.healthy,
        }

    def render(self) -> str:
        lines = [
            f"cache scrub: {self.checked} entries checked, {self.ok} ok, "
            f"{len(self.quarantined)} quarantined"
            + (f" ({self.quarantine_backlog} already in quarantine)"
               if self.quarantine_backlog else "")
        ]
        for key in self.quarantined:
            lines.append(f"  quarantined {key}")
        return "\n".join(lines)


class BuildCache:
    """Content-addressed store of picklable build artifacts.

    One tier per instance: *cache_dir* ``None`` keeps the store in a
    dict (tests, one-shot runs, the four case-study builds sharing their
    cores); otherwise the store is the directory alone, persists across
    processes and keeps no in-memory copy.  :meth:`read`/:meth:`write`
    are the store; :meth:`get`/:meth:`put` wrap them with the hit/miss
    counters and ``cache.*`` events.  The per-function memo, which
    keeps its own bounded LRU, goes through :meth:`read`/:meth:`write`.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        lock_timeout_s: float = 10.0,
    ) -> None:
        self.dir = Path(cache_dir) if cache_dir is not None else None
        self.root = self.dir / "objects" if self.dir is not None else None
        self.stats = CacheStats()
        #: The whole store when there is no directory; unused otherwise.
        self._memory: dict[str, object] = {}
        self._lock = (
            FileLock(self.dir / "lock", lock_timeout_s) if self.dir is not None else None
        )

    # -- paths -------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / key[:2] / key

    @property
    def quarantine_dir(self) -> Path:
        assert self.dir is not None
        return self.dir / "quarantine"

    def _entry_files(self) -> list[Path]:
        if self.root is None or not self.root.exists():
            return []
        return [p for p in self.root.glob("*/*") if p.is_file()]

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return len(self._entry_files())

    def __contains__(self, key: str) -> bool:
        if self.root is None:
            return key in self._memory
        return self._path(key).exists()

    # -- read --------------------------------------------------------------
    def get(self, key: str) -> object | None:
        """Return the cached value for *key* or ``None`` (counted as a miss).

        A corrupted on-disk entry — bad magic, digest mismatch, truncated
        or unpicklable payload — is quarantined, counted in
        ``stats.corrupt`` and reported as a miss, so the caller rebuilds
        instead of using it.
        """
        value = self.read(key)
        if value is not None:
            self.stats.hits += 1
            self._observe("hit", key)
            return value
        self.stats.misses += 1
        self._observe("miss", key)
        return None

    def _observe(self, what: str, key: str) -> None:
        """Emit a ``cache.*`` event + counters (no-op when obs is off).

        The invariant the harness checks: ``cache.hits + cache.misses ==
        cache.lookups`` — every lookup resolves to exactly one of the two.
        """
        if not _BUS.enabled:
            return
        _BUS.emit(f"cache.{what}", key[:16])
        _METRICS.counter("cache.lookups", "cache get() calls").inc()
        if what == "hit":
            _METRICS.counter("cache.hits", "lookups served from the cache").inc()
        else:
            _METRICS.counter("cache.misses", "lookups that found nothing").inc()

    def read(self, key: str) -> object | None:
        """The entry for *key*, or ``None`` — never stored, removed by a
        peer, or corrupt (then quarantined).  Uncounted."""
        if self.root is None:
            return self._memory.get(key)
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            # Never stored (or removed by a peer) — a plain miss, so the
            # caller rebuilds instead of raising mid-flow.
            return None
        payload = self._checked_payload(raw)
        if payload is None:
            self._drop_corrupt(path)
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._drop_corrupt(path)
            return None
        return value

    @staticmethod
    def _checked_payload(raw: bytes) -> bytes | None:
        if not raw.startswith(_MAGIC):
            return None
        rest = raw[len(_MAGIC) :]
        digest, sep, payload = rest.partition(b"\n")
        if not sep or digest.decode("ascii", "replace") != hashlib.sha256(payload).hexdigest():
            return None
        return payload

    def _drop_corrupt(self, path: Path) -> None:
        """Quarantine a corrupt entry: out of the serving path, kept for
        post-mortem, counted, and reported as a structured warning."""
        self.stats.corrupt += 1
        dest = self.quarantine_dir / path.name
        try:
            with self._locked():
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
            moved = True
        except OSError:
            moved = False
            try:  # same-filesystem move failed — at least stop serving it
                path.unlink()
            except OSError:
                pass
        warnings.warn(
            f"build-cache entry {path.name[:16]}... failed its integrity "
            f"check; {'quarantined to ' + str(dest) if moved else 'deleted'} "
            "and the core will be rebuilt",
            CacheIntegrityWarning,
            stacklevel=3,
        )

    def _locked(self):
        """The cache's cross-process lock (no-op for the in-memory cache)."""
        if self._lock is None:
            from contextlib import nullcontext

            return nullcontext()
        return self._lock

    # -- write -------------------------------------------------------------
    def put(self, key: str, value: object) -> None:
        """Store *value* under *key* (counted)."""
        self.stats.stores += 1
        self.write(key, value)

    def write(self, key: str, value: object) -> None:
        """Store *value* under *key*; on disk atomically.  Uncounted."""
        if self.root is None:
            self._memory[key] = value
            return
        payload = pickle.dumps(value)
        blob = _MAGIC + hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
        path = self._path(key)
        with self._locked():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # -- maintenance -------------------------------------------------------
    def scrub(self) -> ScrubReport:
        """Verify every on-disk entry; quarantine the corrupt ones.

        The engine behind ``repro cachecheck``: reads each entry through
        the same integrity checks the serving path uses, so anything a
        flow would have rejected is moved out of the way *now*, with a
        report, instead of surfacing as a surprise rebuild later.
        """
        report = ScrubReport()
        if self.root is None:
            return report
        with self._locked():
            if self.quarantine_dir.exists():
                report.quarantine_backlog = sum(
                    1 for p in self.quarantine_dir.iterdir() if p.is_file()
                )
            for path in sorted(self._entry_files()):
                report.checked += 1
                try:
                    raw = path.read_bytes()
                except OSError:
                    continue
                payload = self._checked_payload(raw)
                ok = payload is not None
                if ok:
                    try:
                        pickle.loads(payload)
                    except Exception:
                        ok = False
                if ok:
                    report.ok += 1
                else:
                    self._drop_corrupt(path)
                    report.quarantined.append(path.name)
        return report

    def quarantined_keys(self) -> list[str]:
        if self.dir is None or not self.quarantine_dir.exists():
            return []
        return sorted(p.name for p in self.quarantine_dir.iterdir() if p.is_file())

    def purge_quarantine(self) -> int:
        """Delete quarantined blobs (post-mortem done); returns the count."""
        n = 0
        if self.dir is None:
            return n
        with self._locked():
            if self.quarantine_dir.exists():
                for path in self.quarantine_dir.iterdir():
                    try:
                        path.unlink()
                        n += 1
                    except OSError:
                        continue
        return n

    def clear(self) -> None:
        self._memory.clear()
        with self._locked():
            for path in self._entry_files():
                try:
                    path.unlink()
                except OSError:
                    pass


__all__ = [
    "ENGINE_VERSION",
    "BuildCache",
    "CacheIntegrityWarning",
    "CacheStats",
    "FileLock",
    "ScrubReport",
    "cache_key",
]
