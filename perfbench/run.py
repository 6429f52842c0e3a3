"""qhj benchmark: one workload, one seed, one run; last stdout line is JSON.

    python3 perfbench/run.py --workload verify_catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from any directory; the benchmark measures the working tree it sits in
(src/ on the path; qhj need not be installed).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs each input untraced and then
with spans recorded around each qhj layer, and reports the per-layer
metrics and the tracing overhead.  Output checks run outside the timed
region; any wrong output makes the run exit with status 1.  Provenance,
metrics and spans go to .perfbench-out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import (EIG_SPAN, ORACLE_SOLVES, SPAN_TARGETS, Tracer, load_spans,
                    parse_importtime, span_records, summarize)
from workloads import OUT_DIR, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 8          # set-up is timed this many times; the median is reported
START_REPS = 5          # interpreter start-up samples in a traced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QHJ_NUM_THREADS")

# per-layer metrics that must be non-zero (fire) / zero (bypassed) per workload
IMPORT_METRICS = ("import.numpy_ms", "import.scipy_ms", "import.qhj_self_ms",
                  "process.python_start_ms")
ORACLE_METRICS = tuple("%s.calls" % s for s in ORACLE_SOLVES) + (
    "schrodinger_oracle.eig.calls", "schrodinger_oracle.cpu_per_wall",
    "schrodinger_oracle.solve_pt.kept_ratio", "schrodinger_oracle.share_of_op")
RESIDUE_METRICS = (
    "potential_catalog.get_model.calls", "quantization.quantize.calls",
    "quantization.enumerate_assignments.calls", "polynomial_system.solve_spectrum.calls",
    "polynomial_system.build_pencil.calls", "polynomial_system.solve_pencil.calls",
    "polynomial_system.build_fixed_system.calls", "polynomial_system.pencil_order_sum",
    "polynomial_system.dedup_kept_ratio")
VERIFY_METRICS = ("wavefunction_assembly.verify_against_oracle.calls", "cli.main.calls")
MUST_FIRE = {
    "verify_catalog": IMPORT_METRICS + ORACLE_METRICS + RESIDUE_METRICS + VERIFY_METRICS,
    "residue_sweep": IMPORT_METRICS + RESIDUE_METRICS,
    "cli_cold": IMPORT_METRICS + ("cli.main.calls", "potential_catalog.get_model.calls",
                                  "polynomial_system.solve_spectrum.calls",
                                  "schrodinger_oracle.solve_bound.calls",
                                  "import.share_of_p50"),
}
MUST_BE_ZERO = {"residue_sweep": ORACLE_METRICS + VERIFY_METRICS}


class Phase:
    """Outcome of running whole rounds of a workload."""

    def __init__(self, n_inputs):
        self.times = [[] for _ in range(n_inputs)]   # per input, one per round
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.failed_inputs = []
        self.rounds = 0

    @property
    def samples(self):
        return [t for ts in self.times for t in ts]


def _run_op(wl, phase, i, inp, tracer):
    phase.attempted += 1
    try:
        dt, output = wl.call(inp, tracer, phase.attempted)
    except Exception:  # a crash is a wrong output; record it and go on
        phase.failed += 1
        phase.errors.append(traceback.format_exc(limit=4))
        return
    ok, errors = wl.check(inp, output)
    phase.times[i].append(dt)
    if not ok:
        phase.failed += 1
        if phase.rounds == 0:
            phase.failed_inputs.append(inp)
    phase.errors += errors


class Setup:
    """Set-up timed in fresh processes: (seconds, stderr) per sample.

    In-process workloads time import plus a discarded warm-up call inside the
    child; cli_cold times a whole warm-up `qhj list` request from outside.
    """

    def __init__(self, wl, traced, env):
        flags = ["-X", "importtime"] if traced else []
        if wl.in_process:
            self.cmd = [sys.executable] + flags + [str(HERE / "probe.py"), "setup", wl.name]
        else:
            self.cmd = [sys.executable] + flags + ["-m", "qhj.cli", "list"]
        self.in_process = wl.in_process
        self.env = env
        self.samples = []

    def take(self):
        """Time one set-up; returns the wall time it took."""
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
        if self.in_process:
            dt = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        self.samples.append((dt, proc.stderr))
        return time.perf_counter() - t0


def run_phase(wl, seconds, min_rounds, setup, tracer=None, plain=None):
    """Closed loop over whole rounds, until `seconds` and min_rounds are reached.

    The SETUP_REPS set-up samples are spread evenly over the first min_rounds
    rounds, between operations and outside their timings, so that they see
    the same machine phases as the operations; their time does not count
    against `seconds`.  With a tracer, each input first runs with the tracer
    disabled, timed into `plain`, and then traced, so both runs see the same
    machine phase.
    """
    phase = Phase(len(wl.inputs))
    stride = max(1, min_rounds * len(wl.inputs) // SETUP_REPS)
    n_ops, paused = 0, 0.0
    t_start = time.perf_counter()
    while phase.rounds < min_rounds or time.perf_counter() - t_start - paused < seconds:
        for i, inp in enumerate(wl.inputs):
            if n_ops % stride == 0 and len(setup.samples) < SETUP_REPS:
                paused += setup.take()
            n_ops += 1
            if tracer is not None:
                tracer.enabled = False
                _run_op(wl, plain, i, inp, None)
                tracer.enabled = True
            _run_op(wl, phase, i, inp, tracer)
        phase.rounds += 1
        if plain is not None:
            plain.rounds += 1
    while len(setup.samples) < SETUP_REPS:
        setup.take()
    return phase


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(wl, phase, setup):
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": (statistics.median(s for s, _ in setup.samples), "s"),
        "ops_per_s": (len(phase.samples) / sum(phase.samples), "1/s"),
        "p50_ms": (1e3 * statistics.median(phase.samples), "ms"),
        "tail_ms": (1e3 * nearest_rank(phase.samples, wl.tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, plain, traced, span_groups, import_logs, env):
    rows, pt_kept = summarize(span_groups)
    per_round = 1.0 / traced.rounds

    def attr_sum(name, key):
        return sum(a.get(key, 0) for a in rows[name]["attrs"])

    m = {}
    for name in ["%s.%s" % target for target in SPAN_TARGETS] + [EIG_SPAN]:
        m[name + ".calls"] = (rows[name]["calls"] * per_round, "count")
        m[name + ".self_ms"] = (1e3 * rows[name]["self_s"] * per_round, "ms")
    for key, metric, unit in (("order", "order_sum", "count"),
                              ("flops_computed", "flops_computed", "flop"),
                              ("bytes_computed", "bytes_computed", "B")):
        m["%s.%s" % (EIG_SPAN, metric)] = (attr_sum(EIG_SPAN, key) * per_round, unit)
    oracle_wall = sum(rows[s]["wall_s"] for s in ORACLE_SOLVES)
    oracle_cpu = sum(rows[s]["cpu_s"] for s in ORACLE_SOLVES)
    m["schrodinger_oracle.cpu_per_wall"] = (oracle_cpu / oracle_wall if oracle_wall else 0.0,
                                            "ratio")
    order = sum(o for _, o in pt_kept)
    m["schrodinger_oracle.solve_pt.kept_ratio"] = (
        sum(k for k, _ in pt_kept) / order if order else 0.0, "ratio")
    m["polynomial_system.pencil_order_sum"] = (
        attr_sum("polynomial_system.build_pencil", "order") * per_round, "count")
    raw = (attr_sum("polynomial_system.solve_pencil", "raw")
           + attr_sum("polynomial_system.build_fixed_system", "raw"))
    kept = attr_sum("polynomial_system.solve_spectrum", "kept")
    m["polynomial_system.dedup_kept_ratio"] = (kept / raw if raw else 0.0, "ratio")

    owned = [parse_importtime(log) for log in import_logs]
    for pkg, metric in (("numpy", "import.numpy_ms"), ("scipy", "import.scipy_ms"),
                        ("qhj", "import.qhj_self_ms")):
        m[metric] = (statistics.median(o[pkg] for o in owned), "ms")
    starts = []
    for _ in range(START_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=60)
        starts.append(time.perf_counter() - t0)
    m["process.python_start_ms"] = (1e3 * statistics.median(starts), "ms")
    import_ms = sum(m[k][0] for k in ("import.numpy_ms", "import.scipy_ms",
                                      "import.qhj_self_ms"))
    m["import.share_of_p50"] = (
        0.0 if wl.in_process else import_ms / (1e3 * statistics.median(plain.samples)),
        "ratio")

    # oracle solves run one after another on the main thread and contain
    # all eigensolves, so their summed wall time is the oracle's share of
    # the operation even though pool threads overlap inside them
    op_wall = rows["op"]["wall_s"]
    m["schrodinger_oracle.share_of_op"] = (oracle_wall / op_wall if op_wall else 0.0,
                                           "ratio")
    plain_rate = len(plain.samples) / sum(plain.samples)
    traced_rate = len(traced.samples) / sum(traced.samples)
    m["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    return m


def completeness_errors(workload, metrics):
    errors = ["per-layer metric %s did not fire on %s" % (k, workload)
              for k in MUST_FIRE.get(workload, ()) if not metrics[k][0] > 0]
    errors += ["per-layer metric %s fired on %s, where the layer is bypassed"
               % (k, workload) for k in MUST_BE_ZERO.get(workload, ()) if metrics[k][0] != 0]
    return errors


def provenance(env):
    code = ("import json, numpy, scipy\n"
            "def blas(mod):\n"
            "    b = mod.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "    return {k: b.get(k) for k in ('name', 'version', 'openblas configuration')}\n"
            "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
            "                  'numpy_blas': blas(numpy), 'scipy_blas': blas(scipy)}))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    record = {"python": platform.python_version(), "machine": platform.machine()}
    record.update(json.loads(proc.stdout))
    record["nproc"] = os.cpu_count()
    record["cpus_usable"] = len(os.sched_getaffinity(0))
    record["thread_env"] = {k: os.environ.get(k) for k in THREAD_VARS}
    record["git_commit"] = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        record["git_commit"] = git.stdout.strip() or None
    record["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                              for p in sorted((ROOT / "src").rglob("*.py")))
    return record


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = child_env(ROOT)
    traced = bool(args.trace)
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    prov = provenance(env)
    setup = Setup(wl, traced, env)
    errors = wl.start()
    if not traced:
        phase = run_phase(wl, args.seconds, wl.min_rounds, setup)
        metrics = end_to_end(wl, phase, setup)
        errors += phase.errors
    else:
        tracer, plain = Tracer(), Phase(len(wl.inputs))
        tracer.install()
        phase = run_phase(wl, args.seconds / 2.0, 1, setup, tracer, plain)
        groups = [tracer.spans] + [load_spans(p) for p in getattr(wl, "span_files", ())]
        for p in getattr(wl, "span_files", ()):
            p.unlink()
        logs = [log for _, log in setup.samples] if wl.in_process else wl.import_samples
        metrics = per_layer(wl, plain, phase, groups, logs, env)
        errors += plain.errors + phase.errors + completeness_errors(wl.name, metrics)
        with open(out_dir / ("%s-seed%d-spans.json" % (wl.name, args.seed)), "w",
                  encoding="utf-8") as fh:
            json.dump([span_records(g) for g in groups], fh)
    declared = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "per_layer" if traced else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        errors.append("metrics %s differ from BENCHMARK.json %s"
                      % (sorted(metrics), sorted(declared)))
    result = {
        "correct": not errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": phase.rounds, "samples": len(phase.samples),
              "tail_percentile": wl.tail_pct, "errors": errors[:50],
              "failed_inputs": phase.failed_inputs,
              "times_s": phase.times,
              "provenance": prov, "result": result}
    with open(out_dir / ("%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for err in errors[:20]:
        print("WRONG OUTPUT: %s" % err.strip(), file=sys.stderr)
    print("# %s seed=%d rounds=%d samples=%d tail=p%d" % (
        wl.name, args.seed, phase.rounds, len(phase.samples), wl.tail_pct))
    for k, (v, u) in metrics.items():
        print("%-48s %14.6g %s" % (k, v, u))
    # the fail ratio travels as the result's attempted/failed counts; it is
    # no metric because it reads 0 on workloads where nothing fails
    print("%-48s %14.6g %s" % ("fail_ratio", phase.failed / phase.attempted, "ratio"))
    print("# provenance %s" % json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process; metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            one = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            combined["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qhj" / "__init__.py").is_file():
        print("perfbench: no qhj working tree (src/qhj) at %s" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
