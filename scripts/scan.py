"""Fixed-point scan: `qhj verify`, `solve` and `wavefunction` on 308 points.

    python scripts/scan.py > scan.txt

The points are the benchmark's: its ALL_CONFIGS, then one point per family
from `perfbench.workloads.family_points` for each seed 1001–1040, in that
order, each point once.  Every point runs through in-process `qhj verify`
and `qhj solve --format json` at the default levels, each ALL_CONFIGS
point also through `qhj wavefunction --samples 32` (state 0), and the
script prints each command with its exit code, its stdout and its stderr.
The output is deterministic, so two checkouts can be compared with diff.

The script exits 1 when a command raised a Python traceback, exited with a
non-zero code, or printed a numpy floating-point warning (`overflow
encountered in cosh`, for example) on stderr, else 0.
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from census import run                                           # noqa: E402
from perfbench.workloads import ALL_CONFIGS, family_points      # noqa: E402

SEEDS = range(1001, 1041)
WAVEFUNCTION_SAMPLES = 32
FLOATING_POINT_WARNING = " encountered in "     # numpy's RuntimeWarning text


def points():
    """ALL_CONFIGS, then family_points per seed, without repeats."""
    out = []
    drawn = [p for seed in SEEDS for p in family_points(random.Random(seed))]
    for mid, params in [*ALL_CONFIGS, *drawn]:
        if (mid, params) not in out:
            out.append((mid, params))
    return out


def main():
    failed, warned, pts = 0, 0, points()
    for mid, params in pts:
        args = [mid] + [arg for item in params.items() for arg in ("--param", "%s=%s" % item)]
        commands = [["verify", *args], ["solve", *args, "--format", "json"]]
        if (mid, params) in ALL_CONFIGS:
            commands.append(["wavefunction", *args, "--samples", str(WAVEFUNCTION_SAMPLES)])
        for argv in commands:
            code, out, err = run(argv)
            failed += code != 0
            warned += FLOATING_POINT_WARNING in err
            print("$ qhj %s\nexit %s" % (" ".join(argv), code))
            sys.stdout.write(out + ("stderr:\n" + err if err else ""))
    print("%d points, %d non-zero exits, %d floating-point warnings" % (len(pts), failed, warned))
    return 1 if failed or warned else 0


if __name__ == "__main__":
    sys.exit(main())
