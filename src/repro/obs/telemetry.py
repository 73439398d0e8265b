"""Time-series metrics: instruments, registry, and the fusion-aware sampler.

The paper's claims are time-resolved — temperature and frequency
trajectories, emergency residency, migration cadence. This module is
the one way to capture them:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — minimal
  labelled instruments in the Prometheus data model;
* :class:`MetricsRegistry` — a process-local registry the engine,
  policies, fault injector, :class:`~repro.sim.runner.ParallelRunner`
  and :class:`~repro.sim.runner.ResultCache` register instruments into;
* :class:`TelemetrySampler` — samples a live simulation every
  ``sample_period_s`` of silicon time (quantized to whole engine steps)
  into gauges, counters, histograms and a :class:`TelemetrySeries`. A
  period of one engine step (``machine.sample_period_s``) gives a
  per-step series: Figure 5 reads its per-unit hotspot and resident
  columns (:mod:`repro.experiments.figure5`).

The sampler is **fusion-aware**: like every observer, it is *not* a
``fusion_blockers`` entry. A fusion-eligible run keeps executing its
fused thermal recursion, and the sampler reads the true post-step state
only at sample instants — between samples the fused spans are
untouched. Because it reads true temperatures (never the sensor path)
and feeds nothing back, a sampled run's :class:`~repro.sim.results.RunResult`
is bit-identical to an uninstrumented run, and the sampled series is
bit-identical between the fused and stepwise paths
(``tests/sim/test_telemetry.py`` enforces both).

Export formats (JSONL/CSV series, Prometheus text, Chrome trace) live in
:mod:`repro.obs.exporters`; the run dashboard in
:mod:`repro.obs.dashboard`.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fixed histogram buckets (deg C) for PI-controller error observations:
#: error = measured - setpoint, so negative buckets are "below setpoint".
PI_ERROR_BUCKETS_C = (-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


#: Guards instrument mutation so multi-threaded writers (the serve
#: subsystem's worker pool) never lose increments; uncontended acquire
#: cost is negligible at telemetry sampling rates.
_VALUE_LOCK = threading.Lock()


def _label_items(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical (sorted, stringified) label pairs."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def instrument_id(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Prometheus-style series identifier, e.g. ``core_temp_c{core="0"}``."""
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically increasing labelled counter."""

    __slots__ = ("name", "labels", "help", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...], help: str):
        """Start at zero."""
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    @property
    def id(self) -> str:
        """The instrument's series identifier."""
        return instrument_id(self.name, self.labels)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter (thread-safe)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        with _VALUE_LOCK:
            self.value += amount


class Gauge:
    """A labelled gauge holding the most recently set value."""

    __slots__ = ("name", "labels", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...], help: str):
        """Start at zero."""
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    @property
    def id(self) -> str:
        """The instrument's series identifier."""
        return instrument_id(self.name, self.labels)

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value


class Histogram:
    """A fixed-bucket labelled histogram (cumulative on export).

    ``buckets`` are upper bounds of the finite buckets; an implicit
    ``+Inf`` bucket catches the overflow. ``bucket_counts`` holds
    *per-bucket* (non-cumulative) counts, one per finite bound plus the
    overflow slot; the Prometheus exporter cumulates them.
    """

    __slots__ = ("name", "labels", "help", "buckets", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        help: str,
        buckets: Tuple[float, ...],
    ):
        """Validate the bucket bounds and start empty."""
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ValueError(f"bucket bounds must be sorted: {buckets}")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    @property
    def id(self) -> str:
        """The instrument's series identifier."""
        return instrument_id(self.name, self.labels)

    def observe(self, value: float) -> None:
        """Record one observation (``le`` semantics: a value equal to a
        bound counts toward that bound's bucket). Thread-safe."""
        with _VALUE_LOCK:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out


class MetricsRegistry:
    """Registered instruments, keyed by (name, labels), in creation order.

    Re-requesting an existing (name, labels) pair returns the same
    instrument; requesting an existing *name* with a different kind (or
    different histogram buckets) is a registration error.
    """

    def __init__(self) -> None:
        """Start empty."""
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        self._kinds: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, labels: Dict, **extra):
        kind = cls.kind
        with self._lock:
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"instrument {name!r} already registered as a {known}, "
                    f"cannot re-register as a {kind}"
                )
            key = (name, _label_items(labels))
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], help, **extra)
                self._instruments[key] = instrument
                self._kinds[name] = kind
            return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help: str = "",
        **labels,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        bounds = tuple(float(b) for b in buckets)
        known = self._buckets.get(name)
        if known is not None and known != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{known}, got {bounds}"
            )
        instrument = self._get(Histogram, name, help, labels, buckets=bounds)
        self._buckets[name] = bounds
        return instrument

    def collect(self) -> List[object]:
        """Every instrument, in registration order."""
        return list(self._instruments.values())

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._instruments)

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{series id: value}`` snapshot of counters and gauges.

        Histograms contribute ``<name>_count`` and ``<name>_sum`` series
        (bucket detail is an export concern, see
        :func:`repro.obs.exporters.prometheus_text`).
        """
        out: Dict[str, float] = {}
        for inst in self._instruments.values():
            if inst.kind == "histogram":
                out[instrument_id(inst.name + "_count", inst.labels)] = float(
                    inst.count
                )
                out[instrument_id(inst.name + "_sum", inst.labels)] = inst.sum
            else:
                out[inst.id] = inst.value
        return out


class TelemetrySeries:
    """Column-oriented sample storage: one row per sample instant."""

    def __init__(self, sample_period_s: float, columns: Sequence[str]):
        """Create empty columns for the given series identifiers."""
        self.sample_period_s = float(sample_period_s)
        self.times: List[float] = []
        self.columns: Dict[str, List[float]] = {name: [] for name in columns}

    @property
    def n_samples(self) -> int:
        """Number of recorded sample rows."""
        return len(self.times)

    def column(self, name: str) -> List[float]:
        """One column's values across all samples."""
        return self.columns[name]

    def append(self, t_s: float, values: Sequence[float]) -> None:
        """Append one row (values aligned with the column order)."""
        cols = self.columns
        if len(values) != len(cols):
            raise ValueError(
                f"expected {len(cols)} values, got {len(values)}"
            )
        self.times.append(t_s)
        for col, value in zip(cols.values(), values):
            col.append(value)

    def rows(self) -> List[Tuple[float, List[float]]]:
        """All rows as ``(t, [values...])`` in time order."""
        cols = list(self.columns.values())
        return [
            (t, [col[i] for col in cols]) for i, t in enumerate(self.times)
        ]


@dataclass(frozen=True)
class TelemetrySummary:
    """Roll-up attached to :class:`~repro.sim.results.RunResult.telemetry`."""

    sample_period_s: float
    samples: int
    instruments: int


class TelemetrySampler:
    """Samples one simulation run into a metrics registry and a series.

    Pass an instance to :class:`~repro.sim.engine.ThermalTimingSimulator`
    (or :func:`~repro.sim.engine.run_workload`). The engine binds the
    sampler at construction and calls :meth:`sample` at every sample
    instant — after the step whose index satisfies
    ``(step + 1) % stride == 0``, where ``stride`` is ``sample_period_s``
    quantized to whole engine steps — plus one initial sample at t=0
    after warm start. Sampling never feeds anything back into the
    simulation and is **not** a fusion blocker: fused runs stay fused.

    A sampler instance is single-shot, like the engine: it binds to
    exactly one simulator.
    """

    def __init__(
        self,
        sample_period_s: float,
        registry: Optional[MetricsRegistry] = None,
    ):
        """Validate the period and prepare an (unbound) sampler."""
        if not (math.isfinite(sample_period_s) and sample_period_s > 0):
            raise ValueError(
                f"sample_period_s must be finite and positive: {sample_period_s}"
            )
        self.sample_period_s = float(sample_period_s)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.series: Optional[TelemetrySeries] = None
        self._thermal = None
        self._samples = 0

    # -- engine-facing lifecycle ------------------------------------------

    def stride_steps(self, dt: float) -> int:
        """The sample period quantized to whole engine steps (>= 1)."""
        return max(1, int(round(self.sample_period_s / dt)))

    def bind(self, sim) -> None:
        """Register this run's instruments against simulator ``sim``.

        Called by the engine constructor. Instruments are created based
        on what the run actually carries: per-core temperature /
        frequency / IPS / resident-thread gauges and per-unit hotspot
        gauges always; DVFS-transition, stop-go-trip, migration,
        PROCHOT, fault and guard counters only when the corresponding
        subsystem is active; per-domain PI-error histograms only under a
        DVFS policy.
        """
        if self._thermal is not None:
            raise ValueError(
                "TelemetrySampler is single-shot: already bound to a run"
            )
        # Keep the parts that are read, never the simulator itself: it
        # owns this sampler, and a reference back would make a cycle that
        # keeps a finished run's state alive until the cyclic collector.
        self._thermal = sim.thermal
        reg = self.registry
        n_cores = sim.n_cores
        self._n_cores = n_cores
        self._hotspot_idx = sim._hotspot_idx

        self._g_temp = [
            reg.gauge(
                "core_temp_c",
                help="hottest monitored sensor site per core (true deg C)",
                core=c,
            )
            for c in range(n_cores)
        ]
        self._g_scale = [
            reg.gauge(
                "core_freq_scale",
                help="effective frequency scale over the last step "
                "(work / dt: freezes and stalls included)",
                core=c,
            )
            for c in range(n_cores)
        ]
        self._g_ips = [
            reg.gauge(
                "core_ips",
                help="instructions per second over the last sample interval",
                core=c,
            )
            for c in range(n_cores)
        ]
        self._g_chip = reg.gauge(
            "chip_hotspot_max_c",
            help="hottest monitored sensor site anywhere on the chip",
        )
        self._g_unit = [
            [
                reg.gauge(
                    "hotspot_temp_c",
                    help="one monitored sensor site (true deg C)",
                    core=c,
                    unit=unit,
                )
                for unit in sim.hotspot_units
            ]
            for c in range(n_cores)
        ]
        self._g_pid = [
            reg.gauge(
                "core_resident_pid",
                help="pid of the thread resident on the core",
                core=c,
            )
            for c in range(n_cores)
        ]
        self._scheduler = sim.scheduler

        # Cumulative engine counters, sampled by delta from their source
        # totals so the instruments stay monotone.
        readers: List[Tuple[Counter, Callable[[], float]]] = []
        throttle = sim.throttle
        if throttle is not None and hasattr(throttle, "controllers"):
            actuators = sim.actuators
            readers.append((
                reg.counter(
                    "dvfs_transitions_total",
                    help="accepted PLL re-locks across all cores",
                ),
                lambda: float(sum(a.transitions for a in actuators)),
            ))
        if throttle is not None and hasattr(throttle, "trip_count"):
            readers.append((
                reg.counter(
                    "stopgo_trips_total",
                    help="stop-go thermal interrupts",
                ),
                lambda: float(throttle.trip_count),
            ))
        if sim.migration is not None:
            scheduler = sim.scheduler
            readers.append((
                reg.counter(
                    "migrations_total",
                    help="executed process migrations",
                ),
                lambda: float(scheduler.total_migrations),
            ))
        if sim.config.hardware_trip:
            readers.append((
                reg.counter(
                    "prochot_trips_total",
                    help="hardware overtemperature failsafe activations",
                ),
                lambda owner=weakref.proxy(sim): float(owner.prochot_events),
            ))
        injector = sim._faults
        if injector is not None:
            for attr, help_text in (
                ("sensor_faulted_samples", "sensor samples rewritten by faults"),
                ("dvfs_rejected", "DVFS transitions rejected by faults"),
                ("dvfs_delayed", "DVFS transitions stretched by faults"),
                ("migrations_dropped", "migration requests dropped by faults"),
            ):
                readers.append((
                    reg.counter(f"fault_{attr}_total", help=help_text),
                    (lambda injector=injector, attr=attr: float(
                        getattr(injector, attr)
                    )),
                ))
        guards = sim._guards
        if guards is not None:
            readers.append((
                reg.counter(
                    "guard_trips_total",
                    help="sensor-sanity watchdog trips",
                ),
                lambda: float(guards.trips),
            ))
            readers.append((
                reg.counter(
                    "guard_fallback_seconds_total",
                    help="core-seconds spent in blind stop-go fallback",
                ),
                lambda: float(guards.fallback_s),
            ))
        self._counter_readers = readers
        self._counter_prev = [0.0] * len(readers)

        # PI-error histograms: one per control domain (per core when
        # distributed, one chip-wide domain when global).
        self._pi_hists: List[Tuple[object, Histogram]] = []
        if throttle is not None and hasattr(throttle, "controllers"):
            for i, ctrl in enumerate(throttle.controllers):
                self._pi_hists.append((
                    ctrl,
                    reg.histogram(
                        "pi_error_c",
                        PI_ERROR_BUCKETS_C,
                        help="PI controller error (measured - setpoint, deg C) "
                        "at sample instants",
                        domain=i,
                    ),
                ))

        # Series columns = every gauge and counter, in registration order.
        tracked = [
            inst for inst in reg.collect() if inst.kind in ("gauge", "counter")
        ]
        self._tracked = tracked
        self.series = TelemetrySeries(
            self.sample_period_s, [inst.id for inst in tracked]
        )
        self._last_t = 0.0
        self._last_instr = [0.0] * n_cores

    def begin_run(self) -> None:
        """Record the t=0 sample (warm-started state, full-speed cores)."""
        if self._thermal is None:
            raise ValueError("sampler not bound to a simulator")
        self._last_t = 0.0
        self._last_instr = [0.0] * self._n_cores
        self.sample(
            0.0,
            self._thermal.temperatures,
            [1.0] * self._n_cores,
            None,
        )

    def sample(self, t_s, temps, eff_scales, metrics) -> None:
        """Fold the current simulation state into instruments and series.

        Args:
            t_s: End time of the step just completed (silicon seconds).
            temps: The full post-step temperature state vector.
            eff_scales: Per-core effective frequency scale over the last
                step (``work / dt``).
            metrics: The run's live
                :class:`~repro.sim.metrics.MetricsAccumulator`, or
                ``None`` for the initial t=0 sample.
        """
        sites = temps[self._hotspot_idx].tolist()
        dt_sample = t_s - self._last_t
        instr = (
            metrics.per_core_instructions
            if metrics is not None
            else self._last_instr
        )
        g_temp = self._g_temp
        g_scale = self._g_scale
        g_ips = self._g_ips
        g_unit = self._g_unit
        g_pid = self._g_pid
        resident = self._scheduler.assignment
        last_instr = self._last_instr
        hot = []
        for c in range(self._n_cores):
            row = sites[c]
            for gauge, value in zip(g_unit[c], row):
                gauge.value = value
            hottest = max(row)
            hot.append(hottest)
            g_temp[c].value = hottest
            g_pid[c].value = resident[c]
            g_scale[c].value = float(eff_scales[c])
            delta = instr[c] - last_instr[c]
            g_ips[c].value = delta / dt_sample if dt_sample > 0 else 0.0
            last_instr[c] = instr[c]
        self._g_chip.value = max(hot)

        prev = self._counter_prev
        for k, (counter, read) in enumerate(self._counter_readers):
            current = read()
            if current > prev[k]:
                counter.inc(current - prev[k])
                prev[k] = current

        for ctrl, hist in self._pi_hists:
            hist.observe(ctrl.last_error)

        self.series.append(t_s, [inst.value for inst in self._tracked])
        self._last_t = t_s
        self._samples += 1

    # -- results -----------------------------------------------------------

    @property
    def samples(self) -> int:
        """Number of samples recorded so far."""
        return self._samples

    def summary(self) -> TelemetrySummary:
        """The roll-up the engine attaches to the run's result."""
        return TelemetrySummary(
            sample_period_s=self.sample_period_s,
            samples=self._samples,
            instruments=len(self.registry),
        )
