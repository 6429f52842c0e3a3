"""Exit-code census of `qhj verify` over each family's declared parameter domain.

    python scripts/census.py --seed 2026 --draws 30

Each draw takes every parameter uniformly from its `Param` interval: an
integer from the interval, a rational as k/q with q uniform on 1..97 and k
uniform over the interval, redrawn until `Param.admits` it.  A parameter the
family derives when it is omitted (the elliptic `shift`) is left to the
family.  The `assoc_lame_qes` strength b is not drawn but put on the QES line
of a level n ≤ 7 (`qes_family`), since almost no drawn (a, b) has an
algebraic level.  Every point runs through in-process `qhj verify` at the
default levels.

The table counts exit codes per family: 0 verified, 3 a level FAILs, 1 an
error line, 2 no admissible residue set.  A Python traceback is a column of
its own, and each one is printed with its draw, as is every point that does
not exit 0.  The script exits 1 when a draw raised a traceback, else 0: a
FAIL verdict is a finding about the solver, not an error of the census.
"""

import argparse
import contextlib
import io
import math
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qhj import cli, qes_family                          # noqa: E402
from qhj.potential_catalog import MODEL_CLASSES          # noqa: E402

DENOMINATORS = range(1, 98)
QES_LEVELS = range(0, 8)
COLUMNS = (0, 3, 1, 2, "traceback")


def draw_value(rng, param):
    lo, hi = (Fraction(end) for end in param.interval[1:-1].split(","))
    while True:
        if param.kind == "integer":
            value = Fraction(rng.randint(math.ceil(lo), math.floor(hi)))
        else:
            q = rng.choice(DENOMINATORS)
            value = Fraction(rng.randint(math.floor(lo * q), math.ceil(hi * q)), q)
        if param.admits(value):
            return value


def draw_point(rng, mid):
    params = {p.name: draw_value(rng, p)
              for p in MODEL_CLASSES[mid].param_decls if p.default is not None}
    if mid == "assoc_lame_qes":
        entry = rng.choice(qes_family(mid, rng.choice(QES_LEVELS), params["a"]))
        params["b"] = entry["b"]
    return params


def draws(seed, mid, count):
    """The census's first count draws of family mid at one seed."""
    rng = random.Random("%d:%s" % (seed, mid))
    return [draw_point(rng, mid) for _ in range(count)]


def run(argv):
    """(exit code or "traceback", stdout, stderr) of in-process `qhj argv`.

    A raised exception's traceback is appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:           # argparse refusals
        code = exc.code
    except Exception:
        code = "traceback"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def verify_exit(mid, params):
    """(exit code or "traceback", detail): the detail is the stderr ending in the
    traceback, the FAIL count, or the first stderr line."""
    argv = ["verify", mid]
    for name, value in params.items():
        argv += ["--param", "%s=%s" % (name, value)]
    code, out, err = run(argv)
    if code == "traceback":
        return code, err
    if code == 3:
        verdicts = [line.rsplit(" ", 1)[-1] for line in out.splitlines()
                    if line.startswith("set=")]
        return code, "%d of %d levels FAIL" % (verdicts.count("FAIL"), len(verdicts))
    return code, (err.splitlines() or [""])[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--draws", type=int, default=30, help="points per family")
    args = parser.parse_args(argv)
    counts, findings = {}, []
    for mid in MODEL_CLASSES:
        counts[mid] = dict.fromkeys(COLUMNS, 0)
        for params in draws(args.seed, mid, args.draws):
            code, detail = verify_exit(mid, params)
            counts[mid][code] = counts[mid].get(code, 0) + 1
            if code != 0:
                findings.append((code, mid, params, detail))
    print("%-16s %5s" % ("family", "draws")
          + "".join("%10s" % (c if c == "traceback" else "exit %s" % c) for c in COLUMNS))
    for mid, row in counts.items():
        print("%-16s %5d" % (mid, args.draws) + "".join("%10d" % row.get(c, 0) for c in COLUMNS))
    for code, mid, params, detail in findings:
        print("%s  %s %s" % (code if code == "traceback" else "exit %s" % code, mid,
                             " ".join("%s=%s" % item for item in params.items())))
        if detail:
            print("    " + detail.rstrip().replace("\n", "\n    "))
    return 1 if any(code == "traceback" for code, *_ in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
