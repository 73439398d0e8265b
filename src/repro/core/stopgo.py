"""Stop-go throttling (global clock gating).

Section 5.1 of the paper: each core runs at full speed until a sensor at
one of its register files reads just below the 84.2 C threshold; a thermal
interrupt then freezes the core for 30 ms, after which it resumes. In the
global variant a trip anywhere freezes the entire chip. Frozen cores keep
their architectural state — the mechanism is "more like a suspend or sleep
switch than an off-switch" — so dynamic power stops but leakage continues
(the engine models exactly that split).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.policy import DEFAULT_THRESHOLD_C, ThrottlePolicy

#: Freeze duration after a thermal trip (Section 2.3).
DEFAULT_FREEZE_S = 30e-3

#: Trip margin: the interrupt fires when a sensor is within this many
#: degrees of the threshold ("just below the thermal threshold").
DEFAULT_TRIP_MARGIN_C = 0.2


class StopGoPolicy(ThrottlePolicy):
    """Freeze-on-trip throttling, global or distributed.

    Parameters
    ----------
    n_cores:
        Number of cores.
    scope:
        ``"distributed"`` freezes only the tripping core; ``"global"``
        freezes every core when any sensor trips.
    threshold_c, freeze_s, trip_margin_c:
        Emergency threshold, freeze duration, and trip margin.
    """

    kind = "stop-go"

    def __init__(
        self,
        n_cores: int,
        scope: str = "distributed",
        threshold_c: float = DEFAULT_THRESHOLD_C,
        freeze_s: float = DEFAULT_FREEZE_S,
        trip_margin_c: float = DEFAULT_TRIP_MARGIN_C,
    ):
        """Validate scope and freeze length; start with no core frozen."""
        super().__init__(n_cores, threshold_c)
        if scope not in ("global", "distributed"):
            raise ValueError(f"scope must be 'global' or 'distributed': {scope!r}")
        if not freeze_s > 0:
            raise ValueError(f"freeze_s must be positive: {freeze_s}")
        self.scope = scope
        self.freeze_s = float(freeze_s)
        self.trip_margin_c = float(trip_margin_c)
        self._frozen_until: List[float] = [-1.0] * n_cores
        self.trip_count = 0
        # Duty bookkeeping for average_scale (outer-loop feedback).
        self._window_steps: List[int] = [0] * n_cores
        self._window_active: List[int] = [0] * n_cores

    @property
    def trip_temperature_c(self) -> float:
        """Sensor level at which the thermal interrupt fires."""
        return self.threshold_c - self.trip_margin_c

    def scales_from_hottest(
        self, time_s: float, hottest: Sequence[float]
    ) -> List[float]:
        """0.0 for frozen cores, 1.0 otherwise; freezes cores that trip.

        A core trips when its hottest monitored reading reaches the trip
        temperature.
        """
        tripped = [h >= self.trip_temperature_c for h in hottest]
        for core in range(self.n_cores):
            frozen = time_s < self._frozen_until[core]
            if not frozen and tripped[core]:
                if self.scope == "distributed":
                    self._frozen_until[core] = time_s + self.freeze_s
                    self.trip_count += 1
                else:
                    # Global: one trip freezes every core.
                    for c in range(self.n_cores):
                        self._frozen_until[c] = max(
                            self._frozen_until[c], time_s + self.freeze_s
                        )
                    self.trip_count += 1
        out = []
        for core in range(self.n_cores):
            active = time_s >= self._frozen_until[core]
            self._window_steps[core] += 1
            self._window_active[core] += int(active)
            out.append(1.0 if active else 0.0)
        return out

    def is_frozen(self, core: int, time_s: float) -> bool:
        """Whether ``core`` is inside a freeze interval at ``time_s``."""
        return time_s < self._frozen_until[core]

    def average_scale(self, core: int) -> float:
        """Duty fraction of ``core`` over the current averaging window.

        This is the stop-go analogue of a frequency scale, used to
        time-normalise thermal trends in the outer loop.
        """
        if self._window_steps[core] == 0:
            return 1.0
        return self._window_active[core] / self._window_steps[core]

    def reset_window(self, core: int) -> None:
        """Restart the duty-averaging window for ``core``."""
        self._window_steps[core] = 0
        self._window_active[core] = 0

    def on_migration(self, cores: Sequence[int], time_s: float) -> None:
        """Migration flushes duty windows and cancels pending freezes.

        A freeze exists to cool the core below its trip point; after the
        OS installs a different thread the core resumes and the hardware
        trip simply re-fires if the hotspot is still at the threshold.
        Keeping the freeze would pointlessly idle the incoming (usually
        complementary) thread — cancelling it is what makes migration able
        to rescue threads from long stall periods, the heat-and-run effect
        the paper's stop-go + migration numbers rely on.
        """
        for core in cores:
            self.reset_window(core)
            self._frozen_until[core] = time_s
