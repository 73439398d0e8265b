"""Throttle-policy interface.

A throttle policy is the inner, fine-grained loop of the paper's design:
once per trace sample (27.78 us) it reads each core's hottest hotspot
sensor and returns one frequency-scale factor per core. "Since an
individual controller governs an entire core or processor, it typically
selects the hottest of the input temperatures" (Section 4.1), so that one
reading per core is all a policy is handed. The two mechanisms map onto
that interface naturally:

* stop-go returns 1.0 (run) or 0.0 (frozen);
* DVFS returns the PI controller's clipped output in [0.2, 1.0].

A *global* policy returns the same value for every core.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

#: The paper's thermal emergency threshold (deg C).
DEFAULT_THRESHOLD_C = 84.2


class ThrottlePolicy(abc.ABC):
    """Base class for the inner control loop."""

    #: Short mechanism tag ("stop-go" or "dvfs"), set by subclasses.
    kind: str = ""

    def __init__(self, n_cores: int, threshold_c: float = DEFAULT_THRESHOLD_C):
        """Validate the core count and pin the emergency threshold."""
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1: {n_cores}")
        self.n_cores = n_cores
        self.threshold_c = float(threshold_c)

    @abc.abstractmethod
    def scales_from_hottest(
        self, time_s: float, hottest: Sequence[float]
    ) -> List[float]:
        """One frequency-scale factor per core for the next step.

        ``hottest`` holds, per core, the hottest of that core's monitored
        hotspot readings (the engine folds each row of its
        ``(cores, units)`` reading array with Python's ``max``). A return
        value of 0.0 means "stalled" (stop-go freeze); DVFS values lie in
        its clipped range.
        """

    def on_migration(self, cores: Sequence[int], time_s: float) -> None:
        """Hook: the OS migrated the threads on ``cores`` at ``time_s``.

        Default: no action. DVFS overrides this to reset its per-core
        feedback-averaging windows (the recorded data was for the departed
        thread).
        """

    def average_scale(self, core: int) -> float:
        """Mean effective scale of ``core`` since its window reset.

        The outer migration loop reads this to time-normalise observed
        thermal trends. Stop-go policies report their duty fraction;
        DVFS policies report the mean PI output.
        """
        return 1.0

    def reset_window(self, core: int) -> None:
        """Clear the averaging window of :meth:`average_scale`."""
