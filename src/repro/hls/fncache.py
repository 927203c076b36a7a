"""Per-function HLS compilation cache — the sub-core memo layer.

The flow's :class:`~repro.flow.buildcache.BuildCache` memoizes **whole
cores**: its key covers the full source text, the rendered directives
and the backend version, so touching any of them recompiles the core
from the lexer up.  This module adds the layer *underneath*: two memo
tables inside ``synthesize_function`` itself, keyed on content the
whole-core key normalizes away.

* **Front-end memo** — keyed on the token fingerprint of the source
  (:func:`~repro.hls.clex.token_fingerprint`; comments and whitespace
  do not participate), the top name and the optimize flag.  A hit skips
  parse → sema → lower → ``run_default_pipeline`` → ``tag_const_muls``
  and hands back a copy of the tagged IR with fresh loop records, ready
  for a fresh directive slice — the DSE hot loop, where only directives
  change between calls.
* **Result memo** — keyed on the front-end key, this function's
  directive slice, the explicit limits and the default trip count.  A
  hit makes scheduling, binding, FSM construction, latency analysis and
  RTL emission a single lookup.  Because the result key embeds the
  front-end key, a front-end miss implies a result miss: that lookup is
  skipped and only counted.

Both keys are process-stable (no ``id()``, no ``PYTHONHASHSEED``
dependence) and both payloads are exactly what the uncached pipeline
would have produced — the compilation pipeline is deterministic in its
inputs, so serving a memoized result preserves byte-identity of every
artifact (the differential suite in ``tests/test_fncache.py`` and
``benchmarks/bench_hls.py`` prove it end to end).

The in-process copy is one bounded LRU per :class:`FunctionCache`.
With a directory, entries also persist in a disk-backed
:class:`BuildCache` (integrity headers, quarantine-on-corruption,
cross-process locking, scrub; unbounded) — the flow roots it at
``<flow cache dir>/fn``.  Callers pass the cache explicitly;
:func:`cache_at` hands out the one instance per directory and
``REPRO_HLS_FN_CACHE=0`` disables the layer (the differential legs
build with it off).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from repro.hls.ir import Function
from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS

#: Version of the per-function memo layout; combined with the engine
#: version in every key, so bumping either strands stale entries.
#: Version 3: result keys embed the front-end key, not an IR digest.
FN_CACHE_VERSION = "3"


def _engine_version() -> str:
    # Lazy: repro.flow imports repro.hls, so a top-level import here
    # would be circular.  After the first call it is a sys.modules hit.
    from repro.flow.buildcache import ENGINE_VERSION

    return ENGINE_VERSION


@lru_cache(maxsize=1024)
def _digest_fields(*parts: str) -> str:
    """Length-prefixed SHA-256 of *parts*.  Memoized: a DSE campaign asks
    for the same few keys once per candidate."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def frontend_key(token_fp: str, top: str, optimize: bool) -> str:
    """Key of the front-end memo (token stream → optimized IR)."""
    return _digest_fields(
        "fn-frontend", FN_CACHE_VERSION, _engine_version(), top, token_fp,
        "opt" if optimize else "raw",
    )


def result_key(
    fe_key: str,
    directives_slice: str,
    limits: dict[str, int] | None,
    default_trip: int,
) -> str:
    """Key of the result memo — ``(front-end key, directives slice)``.

    The front end is deterministic in its key, so *fe_key* stands for
    the IR every later stage reads.  *directives_slice* is the rendered
    tcl of the directives addressing this function only (the middle-end
    never reads any other), *limits* the caller-supplied overrides,
    canonically sorted.
    """
    canon_limits = ",".join(f"{k}={v}" for k, v in sorted((limits or {}).items()))
    return _digest_fields(
        "fn-result", FN_CACHE_VERSION, _engine_version(), fe_key,
        directives_slice, canon_limits, str(default_trip),
    )


@dataclass
class FrontendEntry:
    """Cached front-end outcome: the optimized, ``const_operand``-tagged
    IR and whether its pass pipeline converged.

    The entry holds the :class:`Function` itself and is immutable once
    stored: nothing writes into ``fn``, its blocks or its ops after the
    front end returns.  The only later writer, ``loop_directives``,
    sets ``LoopInfo.pipeline``/``unroll`` — and works on
    :meth:`materialize`, whose loop records are fresh copies.  A
    disk-backed cache pickles the entry on ``put`` like any other value.
    """

    fn: Function
    converged: bool

    def materialize(self) -> Function:
        """A copy for one synthesis: blocks, ops and tables shared with
        the entry, loop records private to the copy."""
        fn = copy.copy(self.fn)
        fn.loops = [copy.copy(loop) for loop in self.fn.loops]
        return fn


@dataclass
class FnCacheStats:
    """Lookup counters for one :class:`FunctionCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


class FunctionCache:
    """Two-level-keyed memo of per-function compilation stages.

    In-process entries live in one bounded LRU (``memory_entries``) —
    the only in-process copy.  With *cache_dir* set, entries also
    persist in a disk-backed
    :class:`~repro.flow.buildcache.BuildCache` (same integrity header,
    quarantine and locking discipline as the whole-core cache, and
    likewise unbounded) and cumulative hit/miss counters persist
    in ``<dir>/stats.json`` so ``repro cachecheck`` can report a hit
    rate across processes.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        memory_entries: int = 256,
    ) -> None:
        self.cache_dir = cache_dir
        self.memory_entries = memory_entries
        self.stats = FnCacheStats()
        #: Portion of ``stats`` already folded into the on-disk counters.
        self._flushed: dict[str, int] = {"hits": 0, "misses": 0, "stores": 0}
        self._memory: OrderedDict[str, object] = OrderedDict()
        # The build service's ``svc-exec`` worker threads run flows
        # concurrently and share one instance; the cross-process FileLock
        # in BuildCache is depth-reentrant (not thread-exclusive), so
        # intra-process exclusion needs its own lock.
        self._lock = threading.Lock()
        self._store = None
        if cache_dir is not None:
            from repro.flow.buildcache import BuildCache  # lazy: layer cycle

            self._store = BuildCache(cache_dir)

    # -- lookup ------------------------------------------------------------
    def get(self, key: str, *, stage: str, fn_name: str) -> object | None:
        with self._lock:
            value = self._memory.get(key)
            in_memory = value is not None
            if in_memory:
                self._memory.move_to_end(key)
            elif self._store is not None:
                value = self._store.read(key)
                if value is not None:
                    self._remember(key, value)
            if value is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
            if not in_memory and self._store is not None:
                self._flush_stats_soon()
        self._observe("hit" if value is not None else "miss", key, stage, fn_name)
        return value

    def count_miss(self, key: str, *, stage: str, fn_name: str) -> None:
        """Count a lookup of *key* the caller knows would miss, without
        making it — a result key after its front-end key missed."""
        with self._lock:
            self.stats.misses += 1
        self._observe("miss", key, stage, fn_name)

    def put(self, key: str, value: object, *, stage: str, fn_name: str) -> None:
        with self._lock:
            self._remember(key, value)
            self.stats.stores += 1
            if self._store is not None:
                self._store.write(key, value)
                self._flush_stats_soon()
        self._observe("store", key, stage, fn_name)

    def _remember(self, key: str, value: object) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _observe(self, what: str, key: str, stage: str, fn_name: str) -> None:
        if not _BUS.enabled:
            return
        _BUS.emit(f"hls.fn_cache.{what}", key[:16], stage=stage, fn=fn_name)
        if what == "hit":
            _METRICS.counter(
                "hls.fn_cache_hits_total",
                "per-function memo lookups served from the cache",
            ).inc()
        elif what == "miss":
            _METRICS.counter(
                "hls.fn_cache_misses_total",
                "per-function memo lookups that found nothing",
            ).inc()

    # -- persistent stats --------------------------------------------------
    def _stats_path(self):
        assert self._store is not None and self._store.dir is not None
        return self._store.dir / "stats.json"

    def _flush_stats_soon(self) -> None:
        """Fold this instance's counters into the on-disk cumulative ones.

        Called on every disk-level event — rare enough (once per key per
        process on the read side, once per cold compile on the write
        side) that a small atomic JSON rewrite is in the noise.
        """
        if self._store is None:
            return
        path = self._stats_path()
        with self._store._locked():
            disk = self._load_disk_stats()
            disk["hits"] += self.stats.hits - self._flushed.get("hits", 0)
            disk["misses"] += self.stats.misses - self._flushed.get("misses", 0)
            disk["stores"] += self.stats.stores - self._flushed.get("stores", 0)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(disk, sort_keys=True))
            os.replace(tmp, path)
        self._flushed = self.stats.as_dict()

    def _load_disk_stats(self) -> dict[str, int]:
        base = {"hits": 0, "misses": 0, "stores": 0}
        try:
            raw = json.loads(self._stats_path().read_text())
        except (OSError, ValueError):
            return base
        for k in base:
            v = raw.get(k)
            if isinstance(v, int) and v >= 0:
                base[k] = v
        return base

    # -- maintenance -------------------------------------------------------
    def scrub(self):
        """Integrity-check every persistent entry (quarantining corrupt
        ones via the shared BuildCache machinery) and reset the
        persistent counters — hit rates read "since last scrub"."""
        assert self._store is not None, "scrub needs a disk-backed cache"
        with self._lock:
            report = self._store.scrub()
            path = self._stats_path()
            with self._store._locked():
                tmp = path.with_name(path.name + ".tmp")
                tmp.write_text(json.dumps({"hits": 0, "misses": 0, "stores": 0}))
                os.replace(tmp, path)
            self._flushed = self.stats.as_dict()
            return report

    def report(self) -> dict:
        """The ``fn_cache`` section of ``repro cachecheck --json``."""
        entries = 0
        size = 0
        hit_rate = None
        disk: dict[str, int] = {}
        if self._store is not None:
            files = self._store._entry_files()
            entries = len(files)
            for p in files:
                try:
                    size += p.stat().st_size
                except OSError:
                    pass
            disk = self._load_disk_stats()
            looked = disk["hits"] + disk["misses"]
            hit_rate = round(disk["hits"] / looked, 4) if looked else None
        else:
            entries = len(self._memory)
        return {
            "entries": entries,
            "bytes": size,
            "since_scrub": disk or self.stats.as_dict(),
            "hit_rate": hit_rate,
        }

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            if self._store is not None:
                self._store.clear()


#: The process-default in-memory cache, always available: a second
#: compilation of an unchanged function in the same process is a memo
#: hit even without any flow cache directory configured.
_DEFAULT = FunctionCache()
_BY_DIR: dict[str, FunctionCache] = {}
_BY_DIR_LOCK = threading.Lock()


def cache_at(cache_dir: str | os.PathLike | None) -> FunctionCache:
    """The one :class:`FunctionCache` for *cache_dir* — the in-memory
    process default for ``None``.

    Every flow pointed at one directory shares one instance (one LRU,
    one set of counters); flows on different directories never see each
    other's entries, whichever threads they run on.
    """
    if cache_dir is None:
        return _DEFAULT
    key = str(cache_dir)
    with _BY_DIR_LOCK:
        cache = _BY_DIR.get(key)
        if cache is None:
            cache = _BY_DIR[key] = FunctionCache(cache_dir)
    return cache


def active_cache(cache_dir: str | os.PathLike | None = None) -> FunctionCache | None:
    """The cache to consult for *cache_dir* (:func:`cache_at`), or
    ``None`` when the layer is disabled via ``REPRO_HLS_FN_CACHE=0``."""
    if os.environ.get("REPRO_HLS_FN_CACHE", "") == "0":
        return None
    return cache_at(cache_dir)


__all__ = [
    "FN_CACHE_VERSION",
    "FnCacheStats",
    "FrontendEntry",
    "FunctionCache",
    "active_cache",
    "cache_at",
    "frontend_key",
    "result_key",
]
