"""One-off size sweep of the dense walk layers; no gate, no bound.

    python3 perfbench/sweep.py        # OPENBLAS_NUM_THREADS sets the BLAS threads (default 1)

Times one walk-operator build, one ``verify_phase_gap`` and one
``QpePhaseGate`` construction per size, from D = 384 to D = 2592, on
torus targets with a smooth quadratic likelihood of about five nats range.
Writes ``perfbench/out/sweep.json``.  The largest size holds a few dense
2592 x 2592 complex matrices at once, about 0.1 GB each.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import run  # noqa: F401  (sets BLAS threads and the import path)

run.load_program()

import numpy as np                                           # noqa: E402
from qmhlab import annealing, markov, qsim                   # noqa: E402
from workloads import torus_quadratic                        # noqa: E402

# (grid shape, proposal): D = states x moves (with the zero slot) x 2
SIZES = [((64,), "nearest"), ((128,), "nearest"), ((8, 8), "gaussian"),
         ((10, 10), "gaussian"), ((12, 12), "gaussian")]


def main():
    rows = []
    for shape, kind in SIZES:
        space = markov.StateSpace.regular_grid(shape)
        reach = sum((n // 2) ** 2 for n in shape)
        L = torus_quadratic(space, np.zeros(len(shape), int), 5.0 / reach)
        model = markov.TargetModel(space, np.full(space.size, 1.0 / space.size), L)
        kernel = (markov.ProposalKernel.nearest_neighbor(space) if kind == "nearest"
                  else markov.ProposalKernel.gaussian(space, width=1.0, radius=1))
        layout = qsim.RegisterLayout.for_kernel(kernel)
        chain = markov.build_transition_matrix(model, kernel)
        t0 = time.perf_counter()
        U = qsim.build_walk_operator(model, kernel, layout)
        t1 = time.perf_counter()
        report = qsim.verify_phase_gap(U, layout, chain)
        t2 = time.perf_counter()
        annealing.QpePhaseGate(U, annealing.OMEGA_PI3, 0.01, chain.signed_gap)
        t3 = time.perf_counter()
        row = {"shape": list(shape), "proposal": kind, "D": layout.total_dim,
               "walk_build_s": t1 - t0, "verify_phase_gap_s": t2 - t1,
               "qpe_phase_gate_s": t3 - t2, "verify_passed": report.passed,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        rows.append(row)
        print(f"D={row['D']:5d} {'x'.join(map(str, shape)):6s} {kind:8s} "
              f"walk {row['walk_build_s']:6.2f} s  verify {row['verify_phase_gap_s']:6.2f} s  "
              f"QpePhaseGate {row['qpe_phase_gate_s']:6.2f} s  rss {row['peak_rss_mb']:.0f} MB",
              flush=True)
        del U
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "sweep.json").write_text(json.dumps(
        {"blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
