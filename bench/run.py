"""eigenforge benchmark: one seeded, single-process, closed-loop workload.

    python3 bench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src/` directory
next to this one.  The next op starts only when the previous op's result
has been checked, and nothing runs in parallel.  With --trace 0 the last
line of stdout is a JSON object carrying the end-to-end metrics; with
--trace 1 the same ops run under the layer tracer and the JSON carries
the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

# One BLAS thread: the workloads are single-process, single-threaded, and
# float results (numeric tails) must not depend on thread scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

MIN_OPS = 100        # latency_p90_ms then has at least ten samples beyond it
SETUP_CHILDREN = 4   # extra fresh processes timing set-up; setup_s is the median
HARD_STOP_S = 120.0  # the loop ends at the next op once this much has passed

# The CPU speed of a shared or frequency-scaled host drifts by tens of
# percent over tens of seconds, which swamps run-to-run comparisons.
# Each timed op is therefore followed by a fixed calibration kernel (pure
# Python Fraction arithmetic, no eigenforge code), and every reported
# time is the wall time times (NOMINAL_KERNEL_S / k) ** SPEED_EXPONENT,
# where k is the kernel time around that op.  Across the speed phases of
# a 2-vCPU x86-64 VM (Python 3.11) the eigenforge ops slowed as the 0.75
# power of the kernel's slowdown (log-log fit over 800 deg2 and rotated
# ops); NOMINAL_KERNEL_S is about the kernel's time there in the fast
# phase.  Raw wall-clock figures are printed alongside.
NOMINAL_KERNEL_S = 0.001
SPEED_EXPONENT = 0.75

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def _import_program():
    """Import eigenforge from ROOT/src and the workload definitions,
    refusing any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "eigenforge", "__init__.py")):
        raise SystemExit(f"error: no eigenforge package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import eigenforge
    if os.path.dirname(os.path.dirname(os.path.abspath(eigenforge.__file__))) != SRC:
        raise SystemExit(f"error: eigenforge imported from {eigenforge.__file__}, not {SRC}")
    import numpy  # noqa: F401  (lazily imported by numeric tails; load it in set-up)
    import workloads
    return workloads


def kernel_seconds():
    "Median of three timed runs of the calibration kernel, collector paused."
    q = Fraction(3, 4)
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t = time.perf_counter()
            acc = Fraction(0)
            for i in range(300):
                acc += Fraction(i % 13 + 1, i % 7 + 2) * q
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(times)


def set_up(workload, seed, tiny=False):
    "(workloads module, ops, cycle length, seconds taken)."
    t0 = time.perf_counter()
    wl = _import_program()
    ops, cycle_len = wl.build(workload, ROOT, seed, tiny)
    return wl, ops, cycle_len, time.perf_counter() - t0


def _child_setup_seconds(workload, seed):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return [float(x) for x in proc.stdout.split()[-2:]]


def calibrated(latencies, kernels, half_window=5):
    """Latencies rescaled to the nominal speed by the median kernel time
    of the op and its `half_window` neighbours on each side (the speed
    drifts over seconds; one kernel sample is noisier than the drift)."""
    out = []
    for i, t in enumerate(latencies):
        near = kernels[max(0, i - half_window):i + half_window + 1]
        out.append(t * (NOMINAL_KERNEL_S / statistics.median(near)) ** SPEED_EXPONENT)
    return out


def percentile(sorted_values, q):
    "Nearest-rank percentile."
    k = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]


def run_loop(ops, cycle_len, seconds, min_ops, tracer=None, count=None, calibrate=False):
    """Run ops in order, cyclically.  Without `count`, stop at a cycle
    boundary once `seconds` have passed and `min_ops` ops are done; with
    it, run exactly `count` ops.  With `calibrate`, time the calibration
    kernel after each op."""
    latencies, kernels, failures, out_props = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif (i % cycle_len == 0 and i >= min_ops and elapsed >= seconds) or (
                i > 0 and elapsed >= HARD_STOP_S):
            break
        op = ops[i % len(ops)]
        # Each op starts with no garbage left by the previous one, as a CLI
        # call starts in a fresh process; otherwise a collection pause lands
        # on whichever op the seeded order puts after the garbage.
        gc.collect()
        if tracer is not None:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            bad, props = op.execute()
        except Exception:  # a raising op is a failed op; the loop goes on
            bad, props = [traceback.format_exc(limit=-2)], {}
        latencies.append(time.perf_counter() - t)
        if calibrate:
            kernels.append(kernel_seconds())
        if tracer is not None:
            tracer.end_op()
        if bad:
            failures.append((op.key, bad))
        out_props.append(props)
        i += 1
    return {"wall": time.perf_counter() - start, "latencies": latencies, "kernels": kernels,
            "failures": failures, "out_props": out_props, "ops": i}


def summarize_props(ops, loop):
    "Input and output properties of the ops that ran."
    ran = [ops[i % len(ops)].props for i in range(loop["ops"])]
    outs = loop["out_props"]

    def share(key):
        vals = [o[key] for o in outs if key in o]
        return round(sum(vals) / len(vals), 4) if vals else None

    def values(key, source):
        return [p[key] for p in source if key in p]

    by_m = {}
    for m in values("m", ran):
        by_m[m] = by_m.get(m, 0) + 1
    terms = values("terms", ran) + values("terms", outs)
    exact = share("exact")
    return {
        "ops_by_m": dict(sorted(by_m.items())),
        "degrees": sorted(set(values("degree", ran))),
        "members": sorted(set(values("members", ran))),
        "input_terms_mean": round(statistics.mean(terms), 2) if terms else None,
        "input_terms_max": max(terms, default=None),
        "input_coeff_bits_max": max(values("in_bits", ran), default=None),
        "output_coeff_bits_max": max(values("out_bits", outs), default=None),
        "output_coeff_bits_median": (statistics.median(values("out_bits", outs))
                                     if values("out_bits", outs) else None),
        "decompose_exact_share": exact,
        "decompose_float_share": None if exact is None else round(1 - exact, 4),
        "numeric_axis_extension_share": share("numeric_extension"),
    }


def measure(workload, seed, seconds, trace, tiny=False, plant_error=False):
    """Set up and run one workload; returns (result line dict, report lines)."""
    _, ops, cycle_len, own_setup = set_up(workload, seed, tiny)
    if plant_error:
        op = ops[0]
        key = next(iter(op.expect))
        op.expect[key] = ("planted wrong answer", op.expect[key])
    lines = [f"workload {workload}  seed {seed}  cycle {cycle_len} ops  "
             f"distinct inputs {len(ops)}"]
    min_ops = 1 if tiny else MIN_OPS
    if not trace:
        setups = [(own_setup, kernel_seconds())] + [
            _child_setup_seconds(workload, seed) for _ in range(0 if tiny else SETUP_CHILDREN)]
        loop = run_loop(ops, cycle_len, seconds, min_ops, calibrate=True)
        raw = sorted(loop["latencies"])
        lat = sorted(calibrated(loop["latencies"], loop["kernels"]))
        metrics = {
            "setup_s": statistics.median(t * (NOMINAL_KERNEL_S / k) ** SPEED_EXPONENT
                                         for t, k in setups),
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        failures, attempted = loop["failures"], loop["ops"]
        lines.append(f"ops {loop['ops']}  wall {loop['wall']:.3f} s  raw wall-clock: "
                     f"ops_per_s {len(raw) / sum(raw):.4g}, "
                     f"latency_p50_ms {percentile(raw, 50) * 1e3:.4g}, "
                     f"latency_p90_ms {percentile(raw, 90) * 1e3:.4g}, "
                     f"setup_s {statistics.median(t for t, _ in setups):.4g}; "
                     f"kernel median {statistics.median(loop['kernels']) * 1e3:.4g} ms "
                     f"(nominal {NOMINAL_KERNEL_S * 1e3:g} ms)")
    else:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_loop(ops, cycle_len, seconds, cycle_len, tracer=tracer)
        finally:
            tracer.uninstall()
        plain = run_loop(ops, cycle_len, seconds, min_ops, count=loop["ops"])
        per_layer = tracer.metrics(loop["ops"])
        per_layer["trace.traced_ops_per_s"] = (loop["ops"] / loop["wall"], "1/s")
        per_layer["trace.untraced_ops_per_s"] = (plain["ops"] / plain["wall"], "1/s")
        per_layer["trace.overhead_ratio"] = (loop["wall"] / plain["wall"], "ratio")
        per_layer["cli.stdout_bytes"] = (
            sum(p.get("stdout_bytes", 0) for p in loop["out_props"]) / loop["ops"], "B/op")
        failures = loop["failures"] + plain["failures"]
        attempted = loop["ops"] + plain["ops"]
        metrics = {k: v for k, (v, _) in per_layer.items()}
        units = {k: u for k, (_, u) in per_layer.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}.npz")
        tracer.write(spans_path)
        lines.append(f"traced ops {loop['ops']} in {loop['wall']:.3f} s, same ops untraced "
                     f"in {plain['wall']:.3f} s; {len(tracer.span_name)} spans written to "
                     f"{os.path.relpath(spans_path, ROOT)}")
    failed = len(failures)
    for key, bad in failures[:5]:
        lines.append(f"FAILED {key}: {'; '.join(bad)}")
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    lines.append("properties " + json.dumps(summarize_props(ops, loop), sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def record_golden(seed=0):
    """Rewrite cli_golden.json with the stdout digest of every cli op."""
    wl, ops, _, _ = set_up("cli", seed)
    digests = {}
    for op in ops:
        rc, text = op.run()
        digests[op.key] = hashlib.sha256(text.encode()).hexdigest()
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(wl.GOLDEN_PATH, ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("cli", "rotated", "deg2"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit (used for setup_s)")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite bench/cli_golden.json from the current code")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        print(set_up(args.workload, args.seed)[3], kernel_seconds())
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
