"""Parallel experiment execution with content-addressed result caching.

Every paper artifact is assembled from independent ``(workload, policy,
configuration)`` simulation points; nothing in one point depends on
another. This module exploits that:

* :class:`RunPoint` names one such point;
* :func:`config_hash` derives a stable content hash for a point — a
  canonical serialization of the configuration dataclass tree, the
  policy spec, the workload and the simulator source code version — so
  the same point hashes identically across processes and sessions, and
  ANY change to a configuration field, the policy, the workload or the
  simulation code changes the hash;
* :class:`ResultCache` is an on-disk store addressed by those hashes:
  re-running an experiment or sweep only simulates changed points;
* :class:`ParallelRunner` consults its in-memory memo and then the
  cache, both under that hash, plans the misses (lockstep groups of
  three or more go to the batched fleet engine, the rest to the scalar
  engine), runs the plan inline (``jobs = 1``) or across a process pool
  (``jobs > 1``), and collects results **in input order** so parallel
  runs are bit-identical to serial ones (the simulation itself is fully
  deterministic given its seeded configuration).

Observability: the runner keeps a :class:`RunnerStats` ledger of cache
hit/miss/simulated counters, the path each simulated point took and
simulated wall time; ``stats.summary()`` is a one-line report the CLI
prints after each command. Per-point timing is recorded as
:class:`~repro.obs.tracing.Span` s: give the runner a
:class:`~repro.obs.tracing.SpanRecorder` and every point (cache hit,
fleet member or scalar run) leaves a ``point`` span, scalar points with
the engine's profiler sections as ``section`` leaf spans beneath.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import hashlib
import json
import math
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.taxonomy import PolicySpec
from repro.obs.logconfig import get_logger
from repro.obs.profiler import StepProfiler
from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracing import (
    KIND_EXECUTE,
    KIND_GROUP,
    KIND_POINT,
    NULL_TRACER,
    NullRecorder,
    Span,
    SpanRecorder,
    TraceContext,
    finished_span,
    section_spans,
)
from repro.sim.engine import EngineSubstrate, SimulationConfig, run_workload
from repro.sim.results import RunResult
from repro.sim.workloads import Workload
from repro.util.memo import remember

logger = get_logger(__name__)

#: Bumped whenever the cache value format changes; part of every key, so
#: stale-format entries are simply never addressed again.
CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Orphaned ``*.tmp`` files older than this (seconds) are removed when a
#: cache is opened; younger ones are assumed to belong to live writers.
STALE_TMP_AGE_S = 3600.0

#: Sliding window (seconds) over which the ``cache_evictions_pressure``
#: gauge averages evicted bytes into a bytes-per-second rate.
EVICTION_PRESSURE_WINDOW_S = 60.0


# ---------------------------------------------------------------------------
# Canonical serialization and hashing
# ---------------------------------------------------------------------------


#: Most entries each of :data:`_FRAGMENTS` and :data:`_POINT_KEYS` holds.
#: A 256-point sweep's configurations and their shared parts (about 280
#: objects) fit; a server's per-request configurations (about 2.4 KB an
#: entry) cycle through without growing memory past about 1.2 MB.
FRAGMENT_TABLE_SIZE = 512

#: ``id(obj) -> (obj, text)``: the JSON text of each frozen, fully
#: immutable dataclass instance encoded so far, oldest first. An entry
#: holds its object, so the id cannot be reused while the entry lives.
_FRAGMENTS: Dict[int, Tuple[object, str]] = {}

#: ``(id(workload), id(spec), id(config), version) -> (workload, spec,
#: config, digest)``: the :func:`config_hash` of each point whose three
#: parts are all immutable, oldest first. Like :data:`_FRAGMENTS`, an
#: entry holds its objects, so none of the ids can be reused while the
#: entry lives.
_POINT_KEYS: Dict[tuple, Tuple[object, object, object, str]] = {}

#: Per dataclass type: the text before its fields, each field's
#: ``["name",`` head with its name, and whether the type is frozen.
_LAYOUTS: Dict[type, Tuple[str, Tuple[Tuple[str, str], ...], bool]] = {}

_encode_str = json.encoder.encode_basestring_ascii

#: Enum values are written as ``json.dumps`` writes them, uncanonicalized.
_ENUM_VALUE = json.JSONEncoder(separators=(",", ":"), allow_nan=True)


def _encode_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _layout(cls: type) -> Tuple[str, Tuple[Tuple[str, str], ...], bool]:
    layout = (
        f'["dc",{_encode_str(cls.__name__)},[',
        tuple(
            (f"[{_encode_str(f.name)},", f.name)
            for f in dataclasses.fields(cls)
        ),
        cls.__dataclass_params__.frozen,
    )
    _LAYOUTS[cls] = layout
    return layout


def _encode(obj) -> Tuple[str, bool]:
    """``obj``'s canonical JSON text and whether ``obj`` is immutable.

    The canonical form: dataclasses become ``["dc", <class name>,
    [[field, value], ...]]`` with fields in declaration order, enums
    ``["enum", <class name>, value]``, tuples and lists arrays, dicts
    ``[[key, value], ...]`` arrays sorted by key; scalars stay scalars,
    floats in their shortest round-trip ``repr`` (``NaN``, ``Infinity``
    and ``-Infinity`` when not finite), strings ASCII-escaped. The class
    name is part of the form, so two different dataclasses with equal
    fields do not alias. The text is exactly what ``json.dumps`` with
    ``separators=(",", ":")`` and ``allow_nan=True`` writes for the form.

    A frozen dataclass whose fields are all immutable (scalars, enums,
    tuples of those and such dataclasses) is encoded once per process:
    its text is kept in :data:`_FRAGMENTS` and joined into every later
    key that contains it. Lists, dicts and non-frozen dataclasses, and
    anything holding one, are encoded on every call.
    """
    cls = type(obj)
    layout = _LAYOUTS.get(cls)
    if layout is None:
        if obj is None:
            return "null", True
        if obj is True:
            return "true", True
        if obj is False:
            return "false", True
        if isinstance(obj, int):
            return int.__repr__(obj), True
        if isinstance(obj, float):
            return _encode_float(obj), True
        if isinstance(obj, str):
            return _encode_str(obj), True
        if isinstance(obj, enum.Enum):
            name = _encode_str(cls.__name__)
            return f'["enum",{name},{_ENUM_VALUE.encode(obj.value)}]', True
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return _encode_container(obj)
        layout = _layout(cls)
    head, fields, immutable = layout
    if immutable:
        hit = _FRAGMENTS.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1], True
    parts = []
    for field_head, name in fields:
        text, fixed = _encode(getattr(obj, name))
        parts.append(f"{field_head}{text}]")
        immutable = immutable and fixed
    text = f'{head}{",".join(parts)}]]'
    if immutable:
        remember(_FRAGMENTS, id(obj), (obj, text), FRAGMENT_TABLE_SIZE)
    return text, immutable


def _encode_container(obj) -> Tuple[str, bool]:
    """:func:`_encode` of a list, tuple or dict."""
    if isinstance(obj, (list, tuple)):
        immutable = isinstance(obj, tuple)
        parts = []
        for v in obj:
            text, fixed = _encode(v)
            parts.append(text)
            immutable = immutable and fixed
        return f'[{",".join(parts)}]', immutable
    if isinstance(obj, dict):
        pairs = ",".join(
            f"[{_encode(k)[0]},{_encode(v)[0]}]"
            for k, v in sorted(obj.items())
        )
        return f"[{pairs}]", False
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for hashing: {obj!r}"
    )


def stable_hash(*objs) -> str:
    """SHA-256 hex digest of the canonical JSON text of ``objs``.

    The text is the array of each object's canonical form (see
    :func:`_encode`). Unlike builtin ``hash``, the digest is identical
    across processes (no ``PYTHONHASHSEED`` dependence) and sessions,
    and it does not depend on what the process encoded before: a kept
    fragment is the text its object would get afresh.
    """
    return _digest(objs)[0]


def _digest(objs) -> Tuple[str, bool]:
    """:func:`stable_hash` of ``objs`` and whether all of them are immutable."""
    texts = []
    immutable = True
    for obj in objs:
        text, fixed = _encode(obj)
        texts.append(text)
        immutable = immutable and fixed
    text = f'[{",".join(texts)}]'
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), immutable


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the installed ``repro`` sources.

    Hashes every ``.py`` file under the package directory (sorted by
    relative path), so any code change — not just version bumps —
    invalidates previously cached simulation results. Computed once per
    process.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation: a workload under a policy and config."""

    workload: Workload
    spec: Optional[PolicySpec]
    config: SimulationConfig

    @property
    def label(self) -> str:
        """Short human-readable identifier for logs and timings."""
        return f"{self.workload.name}/{self.spec.key if self.spec else 'unthrottled'}"


def config_hash(point: RunPoint, version: Optional[str] = None) -> str:
    """The content address of one simulation point.

    Covers every field of the configuration tree (machine, package,
    sensor fidelity, seed, ...), the policy spec, the workload's
    benchmark list, the cache format version and the simulator code
    version. Equal points hash equal; changing any single ingredient
    changes the hash. The digest is a :func:`stable_hash`: the frozen
    workload, spec and configuration objects (and their parts) are
    encoded once per process, so keying a point of new objects costs a
    join of their texts and one SHA-256. A point made of the same three
    immutable objects again is a lookup in :data:`_POINT_KEYS`; a point
    with a mutable part is encoded on every call.
    """
    if version is None:
        version = code_version()
    workload, spec, config = point.workload, point.spec, point.config
    ident = (id(workload), id(spec), id(config), version)
    hit = _POINT_KEYS.get(ident)
    if (
        hit is not None and hit[0] is workload and hit[1] is spec
        and hit[2] is config
    ):
        return hit[3]
    digest, immutable = _digest(
        ("run-point", CACHE_FORMAT_VERSION, version, workload, spec, config)
    )
    if immutable:
        remember(
            _POINT_KEYS, ident, (workload, spec, config, digest),
            FRAGMENT_TABLE_SIZE,
        )
    return digest


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-dtm``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-dtm"


class ResultCache:
    """Sharded, size-capped, LRU-evicting pickle store for results.

    Entries live at ``root/<key[:2]>/<key>.pkl`` — one shard directory
    per two-hex-digit key prefix — and are written atomically (temp file
    + ``os.replace``) so concurrent workers and concurrent runner
    processes can share one cache directory without torn reads. Each
    shard has its own in-process lock, so the serve subsystem's worker
    threads can hit disjoint shards without serialising on one mutex.

    With ``max_bytes`` set, every ``put`` that takes the store over the
    cap evicts least-recently-used entries (entry mtime is the recency
    clock: ``put`` writes it, ``get`` bumps it with ``os.utime``) until
    the total size is back under the cap; the just-written entry is
    never evicted by its own put. Eviction work is accounted in
    ``evictions`` / ``evicted_bytes``. Without ``max_bytes`` (the
    default) nothing is ever evicted, matching the historical store.

    Hygiene on open: corrupt entries are unlinked the moment a ``get``
    fails to unpickle them (counted in ``corrupt_dropped``), and
    orphaned ``*.tmp`` files older than ``stale_tmp_age_s`` — debris
    from killed writers — are swept when the cache is constructed
    (younger ones belong to live writers and are left alone).
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        registry: Optional[MetricsRegistry] = None,
        max_bytes: Optional[int] = None,
        sweep_stale: bool = True,
        stale_tmp_age_s: float = STALE_TMP_AGE_S,
    ):
        """Root the store at ``root`` (default: the user cache dir).

        With a ``registry``, the cache registers ``cache_hits_total`` /
        ``cache_misses_total`` / ``cache_puts_total`` /
        ``cache_evictions_total`` / ``cache_evicted_bytes_total``
        counters and ``cache_bytes`` / ``cache_evictions_pressure``
        (evicted bytes per second over a sliding
        :data:`EVICTION_PRESSURE_WINDOW_S` window) /
        per-shard ``cache_shard_bytes{shard=...}`` gauges, kept in step
        with its own ``hits``/``misses``/``evictions`` attributes.
        """
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        self.root = Path(root) if root is not None else default_cache_dir()
        #: ``root`` as a string: entry paths are joined without pathlib.
        self._root = os.fspath(self.root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.corrupt_dropped = 0
        self.stale_tmp_removed = 0
        #: Evicted bytes per second over the trailing pressure window.
        self.eviction_pressure = 0.0
        self._shard_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._size_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        self._pressure_lock = threading.Lock()
        #: ``(monotonic time, bytes)`` per eviction, pruned to the window.
        self._eviction_events: deque = deque()
        #: Per-shard entry bytes, maintained alongside ``_total_bytes``.
        self._shard_bytes: Dict[str, int] = {}
        self._shard_gauges: Dict[str, object] = {}
        self._registry = registry
        #: Lazily-computed total entry bytes; None until first needed.
        self._total_bytes: Optional[int] = None
        if registry is not None:
            self._ctr_hits = registry.counter(
                "cache_hits_total", help="result-cache lookups served from disk"
            )
            self._ctr_misses = registry.counter(
                "cache_misses_total", help="result-cache lookups that missed"
            )
            self._ctr_puts = registry.counter(
                "cache_puts_total", help="results written to the cache"
            )
            self._ctr_evictions = registry.counter(
                "cache_evictions_total",
                help="entries evicted to stay under max_bytes",
            )
            self._ctr_evicted_bytes = registry.counter(
                "cache_evicted_bytes_total",
                help="bytes reclaimed by LRU eviction",
            )
            self._g_bytes = registry.gauge(
                "cache_bytes", help="approximate bytes of cached entries"
            )
            self._g_pressure = registry.gauge(
                "cache_evictions_pressure",
                help=(
                    "evicted bytes per second over the last "
                    f"{int(EVICTION_PRESSURE_WINDOW_S)} s"
                ),
            )
        else:
            self._ctr_hits = self._ctr_misses = self._ctr_puts = None
            self._ctr_evictions = self._ctr_evicted_bytes = None
            self._g_bytes = None
            self._g_pressure = None
        if sweep_stale:
            self.sweep_stale_tmp(stale_tmp_age_s)

    def _path(self, key: str) -> str:
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.pkl"

    def _shard_lock(self, key: str) -> threading.Lock:
        shard = key[:2]
        with self._locks_guard:
            lock = self._shard_locks.get(shard)
            if lock is None:
                lock = self._shard_locks[shard] = threading.Lock()
            return lock

    def __contains__(self, key: str) -> bool:
        """Whether a value is stored under ``key``."""
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        """Number of cached results on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    # -- size accounting ----------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Approximate bytes of cached entries (scanned once, then tracked).

        Approximate because other processes sharing the directory may
        add or evict entries concurrently; eviction re-scans, so the
        figure self-heals whenever the cap is enforced.
        """
        with self._size_lock:
            if self._total_bytes is None:
                self._total_bytes = self._scan_bytes()
            return self._total_bytes

    def _scan_bytes(self) -> int:
        if not self.root.exists():
            self._shard_bytes = {}
            self._publish_shard_gauges()
            return 0
        total = 0
        shards: Dict[str, int] = {}
        for path in self.root.glob("*/*.pkl"):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            total += size
            shard = path.parent.name
            shards[shard] = shards.get(shard, 0) + size
        self._shard_bytes = shards
        self._publish_shard_gauges()
        return total

    def _publish_shard_gauges(self) -> None:
        """Mirror the per-shard byte map into ``cache_shard_bytes`` gauges.

        One labelled gauge per shard directory ever seen; shards whose
        entries have all been evicted report 0 rather than vanishing, so
        scrapes never see a gap.
        """
        if self._registry is None:
            return
        for shard, size in self._shard_bytes.items():
            gauge = self._shard_gauges.get(shard)
            if gauge is None:
                gauge = self._registry.gauge(
                    "cache_shard_bytes",
                    help="bytes of cached entries per shard directory",
                    shard=shard,
                )
                self._shard_gauges[shard] = gauge
            gauge.set(float(size))
        for shard, gauge in self._shard_gauges.items():
            if shard not in self._shard_bytes:
                gauge.set(0.0)

    def _note_eviction(self, size: int) -> None:
        """Ledger one eviction for the pressure gauge, then refresh it."""
        with self._pressure_lock:
            self._eviction_events.append((time.monotonic(), size))
        self._refresh_pressure()

    def _refresh_pressure(self) -> None:
        """Recompute evicted-bytes/s over the trailing window.

        Called on evictions *and* on puts, so the gauge decays back to
        zero as the window slides past old evictions even when nothing
        new is evicted.
        """
        with self._pressure_lock:
            cutoff = time.monotonic() - EVICTION_PRESSURE_WINDOW_S
            while self._eviction_events and self._eviction_events[0][0] < cutoff:
                self._eviction_events.popleft()
            self.eviction_pressure = (
                sum(size for _t, size in self._eviction_events)
                / EVICTION_PRESSURE_WINDOW_S
            )
        if self._g_pressure is not None:
            self._g_pressure.set(self.eviction_pressure)

    def _account(self, delta: int, shard: Optional[str] = None) -> None:
        with self._size_lock:
            if self._total_bytes is None:
                # The scan sees the already-applied delta on disk and
                # rebuilds the shard map wholesale.
                self._total_bytes = self._scan_bytes()
            else:
                self._total_bytes = max(0, self._total_bytes + delta)
                if shard is not None:
                    self._shard_bytes[shard] = max(
                        0, self._shard_bytes.get(shard, 0) + delta
                    )
                    self._publish_shard_gauges()
            if self._g_bytes is not None:
                self._g_bytes.set(float(self._total_bytes))

    # -- store operations ---------------------------------------------------

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` on a miss.

        Corrupt or unreadable entries count as misses and are unlinked
        on the spot — a corrupt pickle would otherwise sit on disk
        occupying space and failing every future read until the next
        ``put`` happened to overwrite it. Hits bump the entry's mtime,
        which is the LRU eviction clock.
        """
        path = self._path(key)
        with self._shard_lock(key):
            # pickle.load raises open-ended exception types on corrupt
            # input (UnpicklingError, ValueError, KeyError, EOFError,
            # ...), so any failure to read is a miss.
            try:
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            except FileNotFoundError:
                self.misses += 1
                if self._ctr_misses is not None:
                    self._ctr_misses.inc()
                return None
            except Exception:
                try:
                    size = os.stat(path).st_size
                    os.unlink(path)
                    self.corrupt_dropped += 1
                    self._account(-size, shard=key[:2])
                except OSError:
                    pass
                self.misses += 1
                if self._ctr_misses is not None:
                    self._ctr_misses.inc()
                return None
            try:
                os.utime(path)
            except OSError:
                pass  # entry may have been concurrently evicted
            self.hits += 1
            if self._ctr_hits is not None:
                self._ctr_hits.inc()
            return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically, then enforce the cap."""
        if self._ctr_puts is not None:
            self._ctr_puts.inc()
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        shard_dir = os.path.dirname(path)
        with self._shard_lock(key):
            os.makedirs(shard_dir, exist_ok=True)
            try:
                previous = os.stat(path).st_size
            except OSError:
                previous = 0
            fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._account(len(data) - previous, shard=key[:2])
        if self.max_bytes is not None and self.total_bytes > self.max_bytes:
            self._evict(protect=key)
        self._refresh_pressure()

    def _evict(self, protect: Optional[str] = None) -> None:
        """Unlink least-recently-used entries until under ``max_bytes``.

        ``protect`` (the key just written) is never a victim. The pass
        re-scans the directory, so the tracked total self-corrects
        against concurrent writers in other processes.
        """
        with self._evict_lock:
            entries = []
            total = 0
            shards: Dict[str, int] = {}
            for path in self.root.glob("*/*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                total += st.st_size
                shard = path.parent.name
                shards[shard] = shards.get(shard, 0) + st.st_size
                if protect is not None and path.stem == protect:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
            entries.sort(key=lambda e: e[0])
            for _mtime, size, path in entries:
                if total <= self.max_bytes:
                    break
                with self._shard_lock(path.stem):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                total -= size
                shard = path.parent.name
                shards[shard] = max(0, shards.get(shard, 0) - size)
                self.evictions += 1
                self.evicted_bytes += size
                self._note_eviction(size)
                if self._ctr_evictions is not None:
                    self._ctr_evictions.inc()
                    self._ctr_evicted_bytes.inc(size)
            with self._size_lock:
                self._total_bytes = total
                self._shard_bytes = shards
                self._publish_shard_gauges()
                if self._g_bytes is not None:
                    self._g_bytes.set(float(total))

    def sweep_stale_tmp(self, age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove orphaned ``*.tmp`` files older than ``age_s`` seconds.

        Killed workers (OOM, SIGKILL, power loss) leak the temp file of
        an in-flight ``put``; atomic publication means such debris is
        never *read*, but it accumulates. The age gate keeps live
        writers' temp files — which exist for milliseconds — untouched.
        Returns how many files were removed.
        """
        if not self.root.exists():
            return 0
        cutoff = time.time() - age_s
        removed = 0
        for path in self.root.glob("*/*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        self.stale_tmp_removed += removed
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if self.root.exists():
            for path in self.root.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
                n += 1
        with self._size_lock:
            self._total_bytes = 0
            self._shard_bytes = {}
            self._publish_shard_gauges()
            if self._g_bytes is not None:
                self._g_bytes.set(0.0)
        return n


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


#: Execution backends of :class:`ParallelRunner`.
BACKENDS = ("auto", "pool", "fleet")

#: Paths a simulated point can take: a lockstep fleet chunk or the
#: scalar engine.
PATH_FLEET = "fleet"
PATH_SCALAR = "scalar"

#: Reason of a fleet point, of a scalar point of the pool backend and of
#: a :meth:`ParallelRunner.map_cached` task (its payload function runs
#: the scalar engine, if any). Other scalar points carry the fallback
#: reason the plan gave them: ``"narrow"`` (a lockstep group or chunk
#: narrower than :data:`~repro.sim.fleet.FLEET_MIN_WIDTH`, see
#: :func:`~repro.sim.fleet.live_width`) or their first
#: :func:`~repro.sim.fleet.fleet_blockers` entry.
REASON_LOCKSTEP = "lockstep"
REASON_POOL_BACKEND = "pool-backend"
REASON_NARROW = "narrow"
REASON_TASK = "task"


def __getattr__(name: str):
    """Resolve the fleet's width names on first use.

    :data:`~repro.sim.fleet.FLEET_MIN_WIDTH` and
    :func:`~repro.sim.fleet.live_width` live beside the fleet's grouping
    rules and load with the fleet engine, so that importing the runner
    does not import the engine.
    """
    if name in ("FLEET_MIN_WIDTH", "live_width"):
        from repro.sim import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class RunnerStats:
    """Counters and simulated wall time accumulated across runner calls.

    Per-point timing lives in ``point`` spans: pass a
    :class:`~repro.obs.tracing.SpanRecorder` as the runner's ``tracer``.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    elapsed_s: float = 0.0
    #: Simulated points that ran in a fleet chunk / the scalar engine.
    fleet: int = 0
    scalar: int = 0
    #: Scalar points by the reason they did not run in the fleet.
    fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def points(self) -> int:
        """Total points served (cache hits + simulations)."""
        return self.cache_hits + self.simulated

    def count_path(self, reason: str) -> None:
        """Ledger one simulated point's path by its plan reason."""
        if reason == REASON_LOCKSTEP:
            self.fleet += 1
        else:
            self.scalar += 1
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def summary(self) -> str:
        """One-line report, e.g. ``48 points: 12 simulated (...), 36 cached ...``.

        The parenthesis splits the simulated points by path, and the
        scalar ones by fallback reason.
        """
        split = ""
        if self.fleet or self.scalar:
            reasons = ", ".join(
                f"{n} {reason}" for reason, n in sorted(self.fallbacks.items())
            )
            split = f" ({self.fleet} fleet, {self.scalar} scalar"
            split += f": {reasons})" if reasons else ")"
        return (
            f"{self.points} points: {self.simulated} simulated{split}, "
            f"{self.cache_hits} cached in {self.elapsed_s:.2f} s"
        )


def _run_scalar(
    point: RunPoint, parent: Optional[TraceContext], reason: str
) -> Tuple[RunResult, float, List[Span]]:
    """Simulate one point on the scalar engine -> (result, elapsed_s, spans).

    With a parent :class:`~repro.obs.tracing.TraceContext` (in a worker
    it arrives pickled inside the task) the point records into its own
    :class:`~repro.obs.tracing.SpanRecorder`: a ``point`` span around the
    simulation and, beneath it, the engine step profiler's section
    totals as leaf spans; the finished spans travel back with the result
    for the parent process to merge. Without a parent the point runs
    unprofiled under :data:`NULL_TRACER`. Tracing only reads clocks: the
    path, and the result bit for bit, are the same either way and never
    reflect the trace.
    """
    recorder = SpanRecorder() if parent is not None else NULL_TRACER
    profiler = StepProfiler() if parent is not None else None
    with recorder.span(
        point.label, KIND_POINT, parent=parent, mode="pool",
        path=PATH_SCALAR, reason=reason, group_width=1,
    ) as active:
        started = time.time()
        t0 = time.perf_counter()
        result = run_workload(
            point.workload, point.spec, point.config, profiler=profiler
        )
        elapsed = time.perf_counter() - t0
    if profiler is not None:
        recorder.extend(
            section_spans(active.context, started, profiler.totals())
        )
    return result, elapsed, recorder.spans()


def _run_fleet(
    points: Sequence[RunPoint], parent: Optional[TraceContext]
) -> List[Tuple[RunResult, float, List[Span]]]:
    """Step ``points`` in one :class:`~repro.sim.fleet.FleetEngine`.

    Returns one ``(result, elapsed_s, spans)`` per point; the chunk's
    wall time is attributed evenly across its points. Traced, the chunk
    is a ``fleet-group`` span under ``parent`` and every member a
    ``point`` span beneath it tagged with its lockstep group's width;
    the spans ride back on the first member's output.
    """
    from repro.sim.fleet import FleetEngine

    recorder = SpanRecorder() if parent is not None else NULL_TRACER
    with recorder.span(
        f"fleet[{len(points)}]", KIND_GROUP, parent=parent,
        members=len(points),
    ) as group:
        started = time.time()
        t0 = time.perf_counter()
        engine = FleetEngine(points)
        results = engine.run()
        per_point = (time.perf_counter() - t0) / len(points)
    if group.context is not None:
        for point, member in zip(points, engine.members):
            recorder.record(
                finished_span(
                    group.context.child(), point.label, KIND_POINT,
                    started, per_point, mode="fleet", path=PATH_FLEET,
                    group_width=member.width,
                )
            )
    outputs = [(result, per_point, []) for result in results]
    outputs[0] = (results[0], per_point, recorder.spans())
    return outputs


def _run_task(
    item: Tuple[Sequence[RunPoint], str, Optional[TraceContext]],
) -> List[Tuple[RunResult, float, List[Span]]]:
    """Process-pool task: one planned task -> one output per point.

    A task is ``(points, reason, parent)``: a fleet chunk when
    ``reason`` is :data:`REASON_LOCKSTEP`, else one scalar point.
    """
    points, reason, parent = item
    if reason == REASON_LOCKSTEP:
        return _run_fleet(points, parent)
    return [_run_scalar(points[0], parent, reason)]


def _execute_task(
    item: Tuple[Callable, object],
) -> Tuple[object, float, List[Span], str]:
    """Process-pool task for :meth:`ParallelRunner.map_cached`."""
    fn, payload = item
    t0 = time.perf_counter()
    value = fn(payload)
    return value, time.perf_counter() - t0, [], REASON_TASK


class ParallelRunner:
    """Executes batches of independent simulation points.

    Args:
        jobs: Worker process count. ``1`` (the default) runs every point
            inline in the current process — no pool is created,
            preserving the exact serial execution path. ``0`` or
            ``None`` means "all cores".
        cache: A :class:`ResultCache`, or ``None`` to disable disk
            caching.
        version: Code-version string folded into every cache key;
            defaults to :func:`code_version`. Tests pin it to make keys
            independent of the working tree.
        backend: ``"auto"`` (default) plans each batch: points that
            share a lockstep group
            (:func:`~repro.sim.fleet.lockstep_key`)
            :data:`~repro.sim.fleet.FLEET_MIN_WIDTH` or more at a time
            (by :func:`~repro.sim.fleet.live_width`) step together in a
            vectorised :class:`~repro.sim.fleet.FleetEngine`, with the
            unthrottled points of their machine that
            :func:`~repro.sim.fleet.stepwise_riders` lets ride them;
            narrower groups and fleet-ineligible points (sensor guards,
            hardware trip) run on the scalar engine. A group is split
            into at most ``jobs`` chunks of that many members or more,
            and fleet chunks and scalar points share one process pool,
            a task each.
            ``"pool"`` runs every point on the scalar engine, the
            reference the other two are checked against. ``"fleet"``
            steps every eligible point of a call through one
            :class:`FleetEngine` batch, one-member groups included,
            with the same scalar fallback. Stochastic points — fault
            plans and sensor noise — are fleet-eligible: the engine
            replays each member's private RNG streams in step order.
            Backends produce bit-identical results and identical cache
            keys.
        fleet_chunk: Cap on how many points one :class:`FleetEngine`
            batch holds (``"auto"`` and ``"fleet"``); larger batches
            stream through in several chunks so campaign memory stays
            bounded. ``None`` (default) sets no cap.
        tracer: A :class:`~repro.obs.tracing.SpanRecorder` receiving a
            distributed span per point (cache-hit, scalar or fleet,
            tagged with its ``path`` and ``group_width``), a
            ``fleet-group`` span per fleet chunk, and engine-section leaf
            spans under every scalar point. Default:
            :data:`NULL_TRACER`, which records nothing and costs nothing.
            Tracing never changes results, cache keys or the plan.
            Traced scalar points run with the engine step profiler
            attached, on the path their untraced twins take; fleet
            members are not profiled.

    Determinism: each simulation derives every random stream from its own
    configuration seed, so a point's result is a pure function of the
    point — worker processes produce bit-identical results to inline
    execution, and results are collected in input order regardless of
    completion order.

    Memo: every value the runner serves — a point's result or a
    :meth:`map_cached` payload's — stays in an in-memory dict for the
    runner's lifetime, keyed exactly as on disk. A runner therefore never
    computes one key twice, and a repeated key reads no disk. The memo
    has no bound; build a runner per job (as ``repro serve`` does) to
    release it.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        version: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: str = "auto",
        fleet_chunk: Optional[int] = None,
        tracer: Optional[SpanRecorder] = None,
    ):
        """Configure the pool size, cache binding and version salt.

        With a ``registry``, the runner registers
        ``runner_points_simulated_total`` / ``runner_points_cached_total``
        counters (batch-level mirrors of ``stats``) and
        ``runner_points_total{path,reason}``, the simulated points by
        path and fallback reason.
        """
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (or 0 for all cores): {jobs}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if fleet_chunk is not None and fleet_chunk < 1:
            raise ValueError(f"fleet_chunk must be >= 1, got {fleet_chunk}")
        self.jobs = int(jobs)
        self.cache = cache
        self.backend = backend
        self.fleet_chunk = fleet_chunk
        #: Every value served so far, by its cache key.
        self._memo: Dict[str, object] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._version = version
        self.stats = RunnerStats()
        self._registry = registry
        self._ctr_paths: Dict[str, object] = {}
        if registry is not None:
            self._ctr_simulated = registry.counter(
                "runner_points_simulated_total",
                help="Points actually simulated by the runner",
            )
            self._ctr_cached = registry.counter(
                "runner_points_cached_total",
                help="Points served from the result cache",
            )
        else:
            self._ctr_simulated = self._ctr_cached = None

    @property
    def version(self) -> str:
        """The code-version string used in this runner's cache keys."""
        if self._version is None:
            self._version = code_version()
        return self._version

    def clear_memo(self) -> int:
        """Drop every memoised value; returns how many were discarded.

        The disk cache is untouched; ``runner.cache.clear()`` empties it.
        """
        n = len(self._memo)
        self._memo.clear()
        return n

    # -- core batch execution ---------------------------------------------

    def run_points(
        self,
        points: Sequence[RunPoint],
        *,
        trace: Optional[TraceContext] = None,
        tracer: Optional[SpanRecorder] = None,
    ) -> List[RunResult]:
        """Run (or fetch) every point; results align with ``points``.

        ``trace``/``tracer`` opt the batch into distributed tracing:
        every point — cache hit, pool execution or fleet member — gets a
        child span of ``trace`` recorded into ``tracer`` (default: the
        runner's constructor tracer). Without an inbound ``trace``, a
        local ``run_points`` span roots the batch so the recorded trace
        still has exactly one root. Tracing reads clocks only: results,
        cache keys and cached values are identical to an untraced call.
        """
        tracer = tracer if tracer is not None else self.tracer
        if isinstance(tracer, NullRecorder):
            return self._run_points(points, None, tracer)
        if trace is not None:
            return self._run_points(points, trace, tracer)
        with tracer.span(
            "run_points", KIND_EXECUTE, n_points=len(points)
        ) as batch:
            return self._run_points(points, batch.context, tracer)

    def _run_points(
        self,
        points: Sequence[RunPoint],
        trace: Optional[TraceContext],
        tracer: SpanRecorder,
    ) -> List[RunResult]:
        """The :meth:`run_points` body; ``trace`` is ``None`` untraced."""
        results = self._get_or_compute(
            [config_hash(p, self.version) for p in points],
            lambda todo: self._execute_plan(
                [points[i] for i in todo], trace, tracer
            ),
            lambda i: points[i].label,
            trace,
            tracer,
        )
        if self.stats.simulated:
            logger.info("batch complete: %s", self.stats.summary())
        return results

    def run_workload(
        self,
        workload: Workload,
        spec: Optional[PolicySpec],
        config: Optional[SimulationConfig] = None,
    ) -> RunResult:
        """Run (or fetch) a single point."""
        point = RunPoint(workload, spec, config or SimulationConfig())
        return self.run_points([point])[0]

    # -- generic cached map -------------------------------------------------

    def map_cached(
        self,
        task: str,
        fn: Callable,
        payloads: Sequence,
    ) -> List:
        """Parallel, cached ``[fn(p) for p in payloads]``.

        For experiment stages that are not ``(workload, policy, config)``
        shaped (e.g. Table 1's per-benchmark mobile measurements). ``fn``
        must be a module-level (picklable) pure function and each payload
        something :func:`stable_hash` encodes; keys cover ``task``, the
        payload and the code version. Results align with ``payloads``;
        a repeated payload is computed once. Each computed payload counts
        as a scalar point with reason :data:`REASON_TASK`.
        """
        keys = [
            stable_hash("task", CACHE_FORMAT_VERSION, self.version, task, p)
            for p in payloads
        ]
        return self._get_or_compute(
            keys,
            lambda todo: self._execute(
                [(fn, payloads[i]) for i in todo], _execute_task
            ),
            lambda i: task,
        )

    def _get_or_compute(
        self,
        keys: Sequence[str],
        compute: Callable[[List[int]], List[Tuple[object, float, List[Span], str]]],
        label: Callable[[int], str],
        trace: Optional[TraceContext] = None,
        tracer: SpanRecorder = NULL_TRACER,
    ) -> List:
        """Serve one value per key, in order: memo, disk cache, ``compute``.

        Each distinct key of the call is one lookup: a value found in the
        memo or the cache is a hit (with a zero-length ``cache="hit"``
        span under ``trace``), anything else a miss. ``compute(indices)``
        runs the first index of each missed key and returns one
        ``(value, elapsed_s, spans, reason)`` per index. Each computed
        value is counted by its reason and stored in the memo and the
        cache. Repeats of a key share its value.
        """
        slots: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            slots.setdefault(key, []).append(i)
        results: List[object] = [None] * len(keys)
        pending: Dict[str, List[int]] = {}
        for key, idxs in slots.items():
            if key in self._memo:
                value = self._memo[key]
            else:
                value = self.cache.get(key) if self.cache is not None else None
                if value is None:
                    self.stats.cache_misses += 1
                    pending[key] = idxs
                    continue
                self._memo[key] = value
            for i in idxs:
                results[i] = value
            self.stats.cache_hits += 1
            if self._ctr_cached is not None:
                self._ctr_cached.inc()
            if trace is not None:
                tracer.record(
                    finished_span(
                        trace.child(), label(idxs[0]), KIND_POINT,
                        time.time(), 0.0, cache="hit",
                    )
                )
        logger.debug(
            "%d keys, %d to compute (jobs=%d)", len(slots), len(pending),
            self.jobs,
        )
        if not pending:
            return results
        outputs = compute([idxs[0] for idxs in pending.values()])
        for (key, idxs), (value, elapsed, spans, reason) in zip(
            pending.items(), outputs
        ):
            for i in idxs:
                results[i] = value
            self._memo[key] = value
            self._count_simulated(reason, elapsed)
            tracer.extend(spans)
            if self.cache is not None:
                self.cache.put(key, value)
        return results

    # -- execution backends --------------------------------------------------

    def _count_simulated(self, reason: str, elapsed: float) -> None:
        """Ledger one simulated point: ``stats``, its path and counters.

        With a registry, bumps ``runner_points_simulated_total`` and
        ``runner_points_total{path,reason}``.
        """
        self.stats.simulated += 1
        self.stats.count_path(reason)
        self.stats.elapsed_s += elapsed
        if self._registry is None:
            return
        self._ctr_simulated.inc()
        ctr = self._ctr_paths.get(reason)
        if ctr is None:
            ctr = self._registry.counter(
                "runner_points_total",
                help="simulated points by execution path and reason",
                path=PATH_FLEET if reason == REASON_LOCKSTEP else PATH_SCALAR,
                reason=reason,
            )
            self._ctr_paths[reason] = ctr
        ctr.inc()

    def _plan(self, points: Sequence[RunPoint]) -> List[Tuple[List[int], str]]:
        """Split ``points`` into tasks: ``(indices, reason)`` pairs.

        A :data:`REASON_LOCKSTEP` task is a fleet chunk; any other is one
        point for the scalar engine, tagged with why. ``"auto"`` groups
        eligible points by :func:`~repro.sim.fleet.lockstep_key`, the
        rule :class:`~repro.sim.fleet.FleetEngine` groups by, and
        ``"fleet"`` keeps them in one group. Each group splits evenly
        into the fewest chunks that satisfy ``fleet_chunk`` and, for
        ``"auto"``, into at most ``jobs`` chunks of at least
        :data:`~repro.sim.fleet.FLEET_MIN_WIDTH` members. Under
        ``"auto"`` each point of a chunk whose
        :func:`~repro.sim.fleet.live_width` is below that width runs on
        the scalar engine, and a machine's fusable points that
        :func:`~repro.sim.fleet.stepwise_riders` lets ride one of its
        stepwise fleet chunks join it (the least loaded one that covers
        the point's horizon and has room under ``fleet_chunk``), so
        that the engine steps each such chunk as one group. The other
        fusable points split as a group of their own.
        """
        from repro.sim.fleet import (
            FLEET_MIN_WIDTH,
            fleet_blockers,
            live_width,
            lockstep_key,
            stepwise_riders,
        )

        if self.backend == "pool":
            return [([i], REASON_POOL_BACKEND) for i in range(len(points))]
        auto = self.backend == "auto"
        groups: Dict[Optional[tuple], List[int]] = {}
        scalar: List[Tuple[List[int], str]] = []
        for i, point in enumerate(points):
            cfg = point.config
            blockers = fleet_blockers(cfg)
            if blockers:
                scalar.append(([i], blockers[0]))
                continue
            key = None
            if auto:
                machine = EngineSubstrate.shared(cfg).key
                key = lockstep_key(point.spec, cfg, machine)
            groups.setdefault(key, []).append(i)

        def split(members: List[int]) -> List[List[int]]:
            n = len(members)
            count = 1
            if auto:
                count = max(1, min(self.jobs, n // FLEET_MIN_WIDTH))
            if self.fleet_chunk is not None:
                count = max(count, -(-n // self.fleet_chunk))
            size, extra = divmod(n, count)
            parts, lo = [], 0
            for c in range(count):
                hi = lo + size + (c < extra)
                parts.append(members[lo:hi])
                lo = hi
            return parts

        def wide(part: List[int]) -> bool:
            width = live_width([points[i] for i in part])
            return not auto or width >= FLEET_MIN_WIDTH

        parts = {
            key: split(members)
            for key, members in groups.items()
            if key is None or key[1] != "fused"
        }
        for key, members in groups.items():
            if key is None or key[1] != "fused":
                continue
            hosts = [p for p in parts.get((key[0], "stepwise"), ()) if wide(p)]
            fusable = [points[i] for i in members]
            rides = [
                stepwise_riders(fusable, [points[i] for i in host])
                for host in hosts
            ]
            load = [
                sum(points[i].config.n_steps for i in host) for host in hosts
            ]
            rest = []
            for j, i in enumerate(members):
                seats = [
                    h for h, host in enumerate(hosts)
                    if rides[h][j] and (
                        self.fleet_chunk is None
                        or len(host) < self.fleet_chunk
                    )
                ]
                if not seats:
                    rest.append(i)
                    continue
                h = min(seats, key=load.__getitem__)
                hosts[h].append(i)
                load[h] += points[i].config.n_steps
            for host in hosts:
                host.sort()
            parts[key] = split(rest) if rest else []

        chunks: List[Tuple[List[int], str]] = []
        for key in groups:
            for part in parts[key]:
                if wide(part):
                    chunks.append((part, REASON_LOCKSTEP))
                else:
                    scalar.extend(([i], REASON_NARROW) for i in part)
        return chunks + scalar

    def _execute_plan(
        self,
        points: Sequence[RunPoint],
        trace: Optional[TraceContext],
        tracer: SpanRecorder,
    ) -> List[Tuple[RunResult, float, List[Span], str]]:
        """Run ``points`` by :meth:`_plan`; outputs align with ``points``.

        Each output is ``(result, elapsed_s, spans, reason)``.
        With ``jobs == 1`` (or a single task) every task runs inline;
        otherwise the tasks, fleet chunks first, go through one process
        pool. Either way each process builds a machine's parts once, in
        :meth:`EngineSubstrate.shared`.
        """
        tasks = self._plan(points)
        items = [
            ([points[i] for i in idxs], reason, trace)
            for idxs, reason in tasks
        ]
        if self.jobs == 1 or len(items) == 1:
            task_outputs = [_run_task(item) for item in items]
        else:
            task_outputs = self._execute(items, _run_task)
        outputs: List[Optional[Tuple]] = [None] * len(points)
        for (idxs, reason), outs in zip(tasks, task_outputs):
            for i, out in zip(idxs, outs):
                outputs[i] = (*out, reason)
        logger.debug("plan: %d points in %d tasks", len(points), len(tasks))
        return outputs  # type: ignore[return-value]

    def _execute(self, items: Sequence, fn: Callable) -> List:
        """``[fn(item) for item in items]``, inline or in a process pool.

        Outputs align with ``items``. The pool is only spun up when it
        can actually help (``jobs > 1`` and more than one item);
        otherwise execution stays in-process.
        """
        if not items:
            return []
        if self.jobs == 1 or len(items) == 1:
            return [fn(item) for item in items]
        workers = min(self.jobs, len(items))
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))
