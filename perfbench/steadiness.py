"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py [--sets 2] [--runs 10] [--workloads a,b]

Runs every workload ``--runs`` times per set, with seeds 0..runs-1, one
process at a time, rotating the order of the workloads from run to run.
Per set it records each metric's median and quartiles and the spread
(third minus first quartile, as a share of the median), and across sets
the drift of the medians.  Writes ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=str(BENCH_DIR / "out" / "steadiness.json"))
    args = ap.parse_args()
    names = args.workloads.split(",")
    metrics = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            k = (i + s) % len(names)
            for w in names[k:] + names[:k]:
                r = one_run(w, i, args.seconds)
                runs[w][s].append(r)
                print(f"set {s} seed {i} {w:13s} wall {r['wall_s']:5.1f}s "
                      + " ".join(f"{m}={r['metrics'][m]['value']:.4g}" for m in metrics),
                      flush=True)

    report = {"seconds": args.seconds, "runs": args.runs, "sets": args.sets, "workloads": {}}
    print(f"\n{'workload':13s} {'metric':15s} {'bound':>5s} " +
          " ".join(f"{'set' + str(s) + ' median':>15s} {'spread':>7s}" for s in range(args.sets))
          + f" {'drift':>7s}")
    for w in names:
        entry = {"failed_share": [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                                  for rs in runs[w]],
                 "correct": all(r["correct"] for rs in runs[w] for r in rs),
                 "max_wall_s": max(r["wall_s"] for rs in runs[w] for r in rs),
                 "metrics": {}}
        for m in metrics:
            sets = [summarize([r["metrics"][m]["value"] for r in rs]) for rs in runs[w]]
            base = sets[0]["median"]
            drift = max(abs(st["median"] - base) / base for st in sets) if base else 0.0
            entry["metrics"][m] = {"sets": sets, "drift": drift}
            print(f"{w:13s} {m:15s} {bounds[m]:5.2f} " + " ".join(
                f"{st['median']:15.6g} {st['spread']:7.3f}" for st in sets) + f" {drift:7.3f}")
        report["workloads"][w] = entry
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
