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
* :class:`ParallelRunner` fans a batch of points out across a process
  pool (``jobs > 1``) or runs them inline (``jobs = 1``), consults the
  cache first, and collects results **in input order** so parallel runs
  are bit-identical to serial ones (the simulation itself is fully
  deterministic given its seeded configuration).

Observability: the runner keeps a :class:`RunnerStats` ledger of cache
hit/miss/simulated counters and simulated wall time; ``stats.summary()``
is a one-line report the CLI prints after each command. Per-point timing
is recorded as :class:`~repro.obs.tracing.Span` s: give the runner a
:class:`~repro.obs.tracing.SpanRecorder` and every point (cache hit,
fleet member or pool execution) leaves a ``point`` span, pool points
with the engine's profiler sections as ``section`` leaf spans beneath.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
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
from repro.sim.engine import SimulationConfig, run_workload
from repro.sim.results import RunResult
from repro.sim.workloads import Workload

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


#: Field names of each dataclass type canonicalized so far, in
#: declaration order (``dataclasses.fields`` rebuilds this every call).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def canonicalize(obj, memo: Optional[Dict[int, tuple]] = None) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Dataclasses become ``["dc", <class name>, [[field, value], ...]]``
    with fields in declaration order, enums become their class and value,
    dict keys are sorted; floats pass through (``json.dumps`` emits the
    shortest round-trip ``repr``, which is stable across processes and
    platforms for IEEE-754 doubles). The class name is part of the form,
    so two different dataclasses with equal fields do not alias.

    ``memo`` lets a batch of calls share the work on shared sub-objects:
    each dataclass instance's form is stored under its ``id`` together
    with the instance itself (so the id cannot be reused while the memo
    lives) and handed back on the next encounter. Only pass a memo over
    objects that do not change while it is in use; the forms, and hence
    every digest, are the same with or without one.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.value]
    cls = type(obj)
    if cls in _FIELD_NAMES or (
        dataclasses.is_dataclass(obj) and not isinstance(obj, type)
    ):
        if memo is not None:
            hit = memo.get(id(obj))
            if hit is not None:
                return hit[1]
        form = [
            "dc",
            cls.__name__,
            [
                [name, canonicalize(getattr(obj, name), memo)]
                for name in _field_names(cls)
            ],
        ]
        if memo is not None:
            memo[id(obj)] = (obj, form)
        return form
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v, memo) for v in obj]
    if isinstance(obj, dict):
        return [
            [canonicalize(k, memo), canonicalize(v, memo)]
            for k, v in sorted(obj.items())
        ]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for hashing: {obj!r}"
    )


def stable_hash(*objs, memo: Optional[Dict[int, tuple]] = None) -> str:
    """SHA-256 hex digest of the canonical form of ``objs``.

    Unlike builtin ``hash``, the digest is identical across processes
    (no ``PYTHONHASHSEED`` dependence) and sessions. ``memo`` is passed
    to :func:`canonicalize`.
    """
    payload = json.dumps(
        [canonicalize(o, memo) for o in objs],
        sort_keys=False,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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


def config_hash(
    point: RunPoint,
    version: Optional[str] = None,
    memo: Optional[Dict[int, tuple]] = None,
) -> str:
    """The content address of one simulation point.

    Covers every field of the configuration tree (machine, package,
    sensor fidelity, seed, ...), the policy spec, the workload's
    benchmark list, the cache format version and the simulator code
    version. Equal points hash equal; changing any single ingredient
    changes the hash. ``memo`` (see :func:`canonicalize`) shares the
    canonical forms of sub-objects across the points of one batch and
    never changes the digest.
    """
    return stable_hash(
        "run-point",
        CACHE_FORMAT_VERSION,
        version if version is not None else code_version(),
        point.workload,
        point.spec,
        point.config,
        memo=memo,
    )


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

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _shard_lock(self, key: str) -> threading.Lock:
        shard = key[:2]
        with self._locks_guard:
            lock = self._shard_locks.get(shard)
            if lock is None:
                lock = self._shard_locks[shard] = threading.Lock()
            return lock

    def __contains__(self, key: str) -> bool:
        """Whether a value is stored under ``key``."""
        return self._path(key).exists()

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
                    size = path.stat().st_size
                    path.unlink()
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
        with self._shard_lock(key):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                previous = path.stat().st_size
            except OSError:
                previous = 0
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
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

    @property
    def points(self) -> int:
        """Total points served (cache hits + simulations)."""
        return self.cache_hits + self.simulated

    def summary(self) -> str:
        """One-line report, e.g. ``48 points: 12 simulated, 36 cached ...``."""
        return (
            f"{self.points} points: {self.simulated} simulated, "
            f"{self.cache_hits} cached in {self.elapsed_s:.2f} s"
        )


def _execute_point(
    item: Tuple[RunPoint, Optional[TraceContext]],
) -> Tuple[RunResult, float, List[Span]]:
    """Process-pool task: simulate one point -> (result, elapsed_s, spans).

    With a parent :class:`~repro.obs.tracing.TraceContext` (it arrives
    pickled inside the work item) the worker records into its own
    :class:`~repro.obs.tracing.SpanRecorder`: a ``point`` span around the
    simulation and, beneath it, the engine step profiler's section
    totals as leaf spans; the finished spans travel back with the result
    for the parent process to merge. Without a parent the point runs
    unprofiled under :data:`NULL_TRACER`, so the engine keeps its fused
    path. Tracing only reads clocks: the result is bit-identical either
    way and never reflects the trace.
    """
    point, parent = item
    recorder = SpanRecorder() if parent is not None else NULL_TRACER
    profiler = StepProfiler() if parent is not None else None
    with recorder.span(
        point.label, KIND_POINT, parent=parent, mode="pool"
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


def _execute_task(item: Tuple[Callable, object]) -> Tuple[object, float]:
    """Process-pool task for :meth:`ParallelRunner.map_cached`."""
    fn, payload = item
    t0 = time.perf_counter()
    value = fn(payload)
    return value, time.perf_counter() - t0


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
        backend: ``"pool"`` (default) fans points out over worker
            processes; ``"fleet"`` batches all fleet-eligible points of
            a call into one vectorised
            :class:`~repro.sim.fleet.FleetEngine` stepped in-process,
            falling back to the pool path for ineligible points (sensor
            guards, hardware trip). Stochastic points
            — fault plans and sensor noise — are fleet-eligible: the
            engine replays each member's private RNG streams in step
            order. Backends produce bit-identical results and identical
            cache keys.
        fleet_chunk: With the fleet backend, cap on how many eligible
            points one :class:`FleetEngine` batch holds; larger batches
            stream through in consecutive chunks so campaign memory
            stays bounded. ``None`` (default) runs one unbounded batch.
        tracer: A :class:`~repro.obs.tracing.SpanRecorder` receiving a
            distributed span per point (cache-hit, pool or fleet), a
            ``fleet-group`` span per fleet chunk, and engine-section leaf
            spans under every pool-executed point. Default:
            :data:`NULL_TRACER`, which records nothing and costs nothing.
            Tracing never changes results or cache keys. Traced pool
            points run with the engine step profiler attached, which
            steps them instead of fusing them; fleet members are not
            profiled.

    Determinism: each simulation derives every random stream from its own
    configuration seed, so a point's result is a pure function of the
    point — worker processes produce bit-identical results to inline
    execution, and results are collected in input order regardless of
    completion order.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        version: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: str = "pool",
        fleet_chunk: Optional[int] = None,
        tracer: Optional[SpanRecorder] = None,
    ):
        """Configure the pool size, cache binding and version salt.

        With a ``registry``, the runner registers
        ``runner_points_simulated_total`` / ``runner_points_cached_total``
        counters (batch-level mirrors of ``stats``).
        """
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (or 0 for all cores): {jobs}")
        if backend not in ("pool", "fleet"):
            raise ValueError(
                f"backend must be 'pool' or 'fleet', got {backend!r}"
            )
        if fleet_chunk is not None and fleet_chunk < 1:
            raise ValueError(f"fleet_chunk must be >= 1, got {fleet_chunk}")
        self.jobs = int(jobs)
        self.cache = cache
        self.backend = backend
        self.fleet_chunk = fleet_chunk
        #: Substrate pool shared across fleet batches so traces and the
        #: thermal kernel are built once per machine description.
        self._fleet_substrates: Dict[tuple, object] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._version = version
        self.stats = RunnerStats()
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
        # Points of a batch share their machine, package, workload, spec
        # and fault-plan objects: canonicalize each of those once.
        memo: Dict[int, tuple] = {}
        keys = [config_hash(p, self.version, memo) for p in points]
        results: List[Optional[RunResult]] = [None] * len(points)
        done = [False] * len(points)

        if self.cache is not None:
            for i, key in enumerate(keys):
                value = self.cache.get(key)
                if value is not None:
                    results[i] = value
                    done[i] = True
                    self.stats.cache_hits += 1
                    if self._ctr_cached is not None:
                        self._ctr_cached.inc()
                    if trace is not None:
                        tracer.record(
                            finished_span(
                                trace.child(), points[i].label, KIND_POINT,
                                time.time(), 0.0, cache="hit",
                            )
                        )
                else:
                    self.stats.cache_misses += 1

        # Duplicate points (same key) within one batch simulate once.
        pending: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            if not done[i]:
                pending.setdefault(key, []).append(i)

        logger.debug(
            "run_points: %d points, %d cached, %d to simulate (jobs=%d)",
            len(points),
            sum(done),
            len(pending),
            self.jobs,
        )
        todo = [points[idxs[0]] for idxs in pending.values()]
        if self.backend == "fleet":
            outputs = self._execute_fleet(todo, trace, tracer)
        else:
            outputs = self._execute([(p, trace) for p in todo], _execute_point)
        for key, (value, elapsed, spans) in zip(pending, outputs):
            for i in pending[key]:
                results[i] = value
                done[i] = True
            self.stats.simulated += 1
            if self._ctr_simulated is not None:
                self._ctr_simulated.inc()
            self.stats.elapsed_s += elapsed
            tracer.extend(spans)
            if self.cache is not None:
                self.cache.put(key, value)
        assert all(done)
        if self.stats.simulated:
            logger.info("batch complete: %s", self.stats.summary())
        return results  # type: ignore[return-value]

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
        must be canonicalizable; keys cover ``task``, the payload and the
        code version. Results align with ``payloads``.
        """
        memo: Dict[int, tuple] = {}
        keys = [
            stable_hash(
                "task", CACHE_FORMAT_VERSION, self.version, task, p, memo=memo
            )
            for p in payloads
        ]
        results: List[Optional[object]] = [None] * len(payloads)
        done = [False] * len(payloads)
        if self.cache is not None:
            for i, key in enumerate(keys):
                value = self.cache.get(key)
                if value is not None:
                    results[i] = value
                    done[i] = True
                    self.stats.cache_hits += 1
                    if self._ctr_cached is not None:
                        self._ctr_cached.inc()
                else:
                    self.stats.cache_misses += 1
        todo = [i for i in range(len(payloads)) if not done[i]]
        outputs = self._execute([(fn, payloads[i]) for i in todo], _execute_task)
        for i, (value, elapsed) in zip(todo, outputs):
            results[i] = value
            done[i] = True
            self.stats.simulated += 1
            if self._ctr_simulated is not None:
                self._ctr_simulated.inc()
            self.stats.elapsed_s += elapsed
            if self.cache is not None:
                self.cache.put(keys[i], value)
        assert all(done)
        return results

    # -- execution backends --------------------------------------------------

    def _execute_fleet(
        self,
        points: Sequence[RunPoint],
        trace: Optional[TraceContext],
        tracer: SpanRecorder,
    ) -> List[Tuple[RunResult, float, List[Span]]]:
        """Run ``points`` through batched fleet engines.

        Fleet-ineligible points (guards, hardware trip) fall back to
        :func:`_execute_point` through :meth:`_execute`; the returned
        list aligns with ``points`` and has that executor's output
        shape, so the caller's stats/caching logic is backend-agnostic.
        Eligible points stream through the
        engine in ``fleet_chunk``-sized slices (one unbounded batch when
        unset), sharing the runner's substrate pool, so arbitrarily
        large campaigns run in bounded memory. Each chunk's wall time is
        attributed evenly across its points.

        Traced (``trace`` set), each chunk is wrapped in a
        ``fleet-group`` span under ``trace`` and every member gets a
        ``point`` span tagged ``mode="fleet"``; fleet members execute
        in-process, so their spans go straight into ``tracer``.
        """
        from repro.sim.fleet import FleetEngine, fleet_blockers

        eligible: List[int] = []
        fallback: List[int] = []
        for idx, point in enumerate(points):
            blockers = fleet_blockers(point.config)
            (fallback if blockers else eligible).append(idx)
        logger.debug(
            "fleet batch: %d eligible, %d pool-fallback",
            len(eligible),
            len(fallback),
        )
        outputs: List[Optional[Tuple]] = [None] * len(points)
        chunk = self.fleet_chunk or len(eligible)
        for lo in range(0, len(eligible), max(1, chunk)):
            part = eligible[lo : lo + chunk]
            with tracer.span(
                f"fleet[{lo}:{lo + len(part)}]", KIND_GROUP,
                parent=trace, members=len(part),
            ) as group:
                started = time.time()
                t0 = time.perf_counter()
                engine = FleetEngine(
                    [points[idx] for idx in part],
                    substrates=self._fleet_substrates,
                )
                batch_results = engine.run()
                per_point = (time.perf_counter() - t0) / len(part)
            for idx, result in zip(part, batch_results):
                if group.context is not None:
                    tracer.record(
                        finished_span(
                            group.context.child(), points[idx].label,
                            KIND_POINT, started, per_point, mode="fleet",
                        )
                    )
                outputs[idx] = (result, per_point, [])
        fb_outputs = self._execute(
            [(points[idx], trace) for idx in fallback], _execute_point
        )
        for idx, out in zip(fallback, fb_outputs):
            outputs[idx] = out
        return outputs

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
