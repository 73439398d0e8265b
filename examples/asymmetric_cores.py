#!/usr/bin/env python3
"""Extension demo: DTM on an asymmetric-core chip (paper Section 9).

The paper names asymmetric cores as a natural extension of its taxonomy.
This example builds a chip with two big (5.0 mm) and two small (2.65 mm)
cores — same microarchitecture and power, different silicon area, so the
small cores run any given thread at higher power density and hotter —
and shows:

1. thread placement now matters (hot threads belong on big cores), and
2. sensor-based migration discovers that by itself: its thread-core
   thermal table learns per-core biases, while counter-based migration
   (performance counters know the thread, not the die position) cannot.

Run:
    python examples/asymmetric_cores.py [duration_seconds]
"""

import sys

from repro.experiments import extensions
from repro.experiments.common import default_config


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    config = default_config(duration_s=duration)
    sizes = ", ".join(f"{s:.2f}" for s in extensions.ASYMMETRIC_SIZES)
    print(
        f"Chip: 4 cores sized [{sizes}] mm "
        f"(same total area as 4x4.0 mm)\n"
        f"Workload: {'-'.join(extensions.STUDY_BENCHMARKS)} "
        "(gzip/sixtrack hot, mcf/swim cool)\n"
    )

    print("Step 1 — does placement matter?\n")
    studies = extensions.compute(config)
    placement = studies[extensions.PLACEMENT]
    print(extensions.render({"Placement sensitivity (dist. DVFS)": placement}))
    by = {r.label: r for r in placement}
    gap = (
        by["asymmetric, hot on BIG cores"].bips
        - by["asymmetric, hot on SMALL cores"].bips
    )
    print(
        f"\nOn the asymmetric chip a bad placement costs "
        f"{gap / by['asymmetric, hot on BIG cores'].bips:.1%} of throughput; "
        "on the symmetric chip the\ntwo placements tie.\n"
    )

    print("Step 2 — can the OS fix a bad placement?\n")
    recovery = studies[extensions.RECOVERY]
    print(extensions.render({"Migration recovery from bad placement": recovery}))
    rec = {r.label: r for r in recovery}
    print(
        "\nSensor-based migration recovers "
        f"{rec['sensor-based migration'].bips / rec['no migration'].bips - 1:+.1%} "
        "because its thermal table learns that the small\ncores run hot; "
        "counter-based migration "
        f"({rec['counter-based migration'].bips / rec['no migration'].bips - 1:+.1%}) "
        "cannot see the difference between cores."
    )


if __name__ == "__main__":
    main()
