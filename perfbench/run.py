"""Benchmark of qmhlab: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick        # one checked operation per workload
    python3 perfbench/run.py --selftest     # every check rejects a wrong output
    python3 perfbench/run.py --workload <name> --seed <n> --setup-only
                                            # seconds from process start to the end of set-up

Run from the root of a source checkout; qmhlab is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details (every
operation, and with tracing every span) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_ENTER = time.perf_counter()

# One BLAS thread unless the caller's environment says otherwise; set before
# NumPy loads, since OpenBLAS reads these once, at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_CHILDREN = 2         # fresh processes that repeat the set-up for setup_s
RUN_CAP_S = 150.0          # stop starting rounds past this much wall time


def interpreter_start_s() -> float:
    """Seconds from process start to the first line of this file (Linux only)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        since_boot = time.clock_gettime(time.CLOCK_BOOTTIME)
        now = time.perf_counter()
        return max(0.0, since_boot - start_ticks / os.sysconf("SC_CLK_TCK") - (now - T_ENTER))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def load_program():
    """Put the checkout's ``src`` first on the path and import the benchmark's modules."""
    if not (SRC / "qmhlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qmhlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import qmhlab
    if Path(qmhlab.__file__).resolve().parent != (SRC / "qmhlab").resolve():
        sys.exit(f"perfbench: qmhlab was imported from {qmhlab.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def run_op(wl, inp):
    """One timed operation; the check runs after the clock stops."""
    t = time.perf_counter()
    try:
        out = wl.run(inp)
        error = None
    except Exception as exc:            # a raising operation counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t
    if error is not None:
        return out, seconds, [f"raised {error}"], 0
    try:
        fails = wl.check(inp, out)
    except Exception as exc:
        fails = [f"check raised {type(exc).__name__}: {exc}"]
    return out, seconds, fails, int(wl.queries(inp, out))


def set_up(wl, seed):
    """Build the round's inputs and run one warm-up operation (lazy imports, first calls)."""
    inputs = wl.make_round(seed)
    wl.run(inputs[0])
    return inputs


def child_setup_s(wl, seed) -> float:
    """Process start to the end of set-up, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                           "--seed", str(seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up in a fresh process failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def measure(wl, seed, seconds, tracer=None):
    """Set up once, then run whole rounds until ``seconds`` of operation time pass.

    With a tracer, rounds alternate untraced and traced, ending on a traced
    round, so both halves see the same inputs and the same stretch of time.
    """
    if tracer is not None:
        tracer.install()                            # set-up is traced too
    inputs = set_up(wl, seed)
    if tracer is not None:
        tracer.uninstall()

    records, first_outputs = [], []
    op_time, rnd, t_start = 0.0, 0, time.perf_counter()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op = len(records)
            out, dt, fails, queries = run_op(wl, inp)
            records.append({"round": rnd, "index": i, "traced": traced, "seconds": dt,
                            "queries": queries, "fails": fails})
            if rnd == 0:
                first_outputs.append(out)
            op_time += dt
        if traced:
            tracer.uninstall()
        rnd += 1
        done = op_time >= seconds or time.perf_counter() - t_start > RUN_CAP_S
        if done and (tracer is None or rnd % 2 == 0):
            break
    run_fails = wl.finish(inputs, first_outputs) if all(first_outputs) else ["round_raised"]
    return t_start, records, run_fails


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print seconds since process start, exit")
    args = ap.parse_args(argv)

    workloads, tracing = load_program()
    started = T_ENTER - interpreter_start_s()      # process start, on the perf_counter clock
    if args.quick:
        return quick(workloads, args.seed)
    if args.selftest:
        return selftest(workloads, args.seed)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        set_up(wl, args.seed)
        print(time.perf_counter() - started)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    t_first, records, run_fails = measure(wl, args.seed, args.seconds, tracer)
    # setup_s: process start to the first timed operation, cold, in this
    # process and in fresh ones; the median of the three.
    setups = [t_first - started]
    if tracer is None:
        setups += [child_setup_s(wl, args.seed) for _ in range(SETUP_CHILDREN)]

    timed = [r for r in records if not r["traced"]]
    op_p50 = statistics.median(r["seconds"] for r in timed)
    failed = sum(1 for r in records if r["fails"])
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "setup_runs_s": setups,
              "run_failures": run_fails, "operations": records}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (op_p50, "s"),
            "ops_per_s": (len(timed) / sum(r["seconds"] for r in timed), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "oracle_queries": (float(statistics.median(r["queries"] for r in timed)), "queries"),
        }
        name = f"{wl.name}-seed{args.seed}.json"
    else:
        ops = [i for i, r in enumerate(records) if r["traced"]]
        traced = [records[i] for i in ops]
        traced_p50 = statistics.median(r["seconds"] for r in traced)
        metrics = tracer.layer_metrics(ops, sum(r["seconds"] for r in traced))
        metrics["trace.overhead_s"] = (traced_p50 - op_p50, "s")
        detail.update(untraced_op_p50_s=op_p50, traced_op_p50_s=traced_p50,
                      self_s_per_op=tracer.self_times(ops), spans=tracer.spans)
        name = f"{wl.name}-seed{args.seed}-trace.json"
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1, default=str))

    for r in records:
        if r["fails"]:
            print(f"op {r['round']}.{r['index']} failed: {', '.join(r['fails'])}", file=sys.stderr)
    for f in run_fails:
        print(f"run check failed: {f}", file=sys.stderr)
    for k, m in detail["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run_fails, "attempted": len(records), "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


def quick(workloads, seed):
    """One checked operation per workload."""
    ok = True
    for wl in workloads.WORKLOADS.values():
        inp = wl.make_round(seed)[0]
        out, dt, fails, queries = run_op(wl, inp)
        ok = ok and not fails
        print(f"{wl.name:14s} {dt:8.3f} s  queries {queries:.4g}  "
              f"{'PASS' if not fails else 'FAIL ' + ', '.join(fails)}")
    return 0 if ok else 1


def selftest(workloads, seed):
    """Each check accepts the real output and rejects every corrupted one."""
    ok = True
    for wl in workloads.WORKLOADS.values():
        inp = wl.make_round(seed)[-1]
        out = wl.run(inp)
        fails = wl.check(inp, out)
        ok = ok and not fails
        print(f"{wl.name:14s} real output            {'accepted' if not fails else 'REJECTED ' + str(fails)}")
        for label, bad in wl.corruptions(inp, out):
            caught = wl.check(inp, bad)
            ok = ok and bool(caught)
            print(f"{wl.name:14s} {label:22s} {'rejected by ' + ', '.join(caught) if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
