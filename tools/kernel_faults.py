#!/usr/bin/env python3
"""Print the wall time and the minor page faults of each call of the two
limit kernels, ``limits.sde_final_values`` and ``limits.chain_final_states``,
at the four moment settings of the benchmark's ``moment_duality`` stage.

A minor fault is a page the process touches for the first time since the
allocator got it from the kernel (``ru_minflt`` of ``getrusage``), so a
kernel that reuses its memory takes none once warm.  The first pass warms
up (imports, the allocator's heap) and is not printed.  Numpy and the
standard library only.

Usage: python3 tools/kernel_faults.py
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lambda_asg.limits import chain_final_states, sde_final_values  # noqa: E402
from lambda_asg.measures import CoupledMeasure  # noqa: E402

# the coupling and the (x, n, t) settings of the benchmark's moment stage
MOMENT_COUPLING = [(0.3, 0.1, 1.0), (0.6, 0.2, 0.5)]
MOMENT_SETTINGS = [(0.3, 1, 0.5), (0.5, 2, 1.0), (0.7, 3, 1.0), (0.5, 3, 0.5)]
# replicates per kernel call, printed passes after the warm-up, and the seed
REPLICATES = 200_000
PASSES = 3
SEED = 1


def measured(call) -> tuple[float, int]:
    """Wall seconds and minor faults of ``call()``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    call()
    wall = time.perf_counter() - start
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def one_pass(replicates: int, seed: int) -> list[tuple[str, str, float, int]]:
    """One run of both kernels at every setting, in the stage's order."""
    c = CoupledMeasure.from_atoms(MOMENT_COUPLING)
    rows = []
    for x, n, t in MOMENT_SETTINGS:
        setting = f"x={x},n={n},t={t}"
        kernels = (
            ("sde_final_values", lambda: sde_final_values(c, x, t, replicates, seed)),
            ("chain_final_states", lambda: chain_final_states(c, n, t, replicates, seed)),
        )
        rows.extend((setting, name, *measured(call)) for name, call in kernels)
    return rows


def main() -> int:
    one_pass(REPLICATES, SEED)
    print(f"{'pass':>4} {'setting':<16} {'kernel':<20} {'wall_s':>9} {'minflt':>7}")
    for p in range(1, PASSES + 1):
        rows = one_pass(REPLICATES, SEED)
        for setting, name, wall, faults in rows:
            print(f"{p:>4} {setting:<16} {name:<20} {wall:>9.5f} {faults:>7}")
        total_wall = sum(r[2] for r in rows)
        total_faults = sum(r[3] for r in rows)
        print(f"{p:>4} {'all':<16} {'total':<20} {total_wall:>9.5f} {total_faults:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
