"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the body of its test.
"""

import time

import numpy as np
import pytest

from qmhlab import annealing, inference, qmci
from qmhlab.annealing import (
    OMEGA_PI3,
    OVERLAP_GUARANTEE,
    ExactPhaseGate,
    pi3_amplify,
    pi3_overlap_bound,
)
from qmhlab.cli import scaling_study
from qmhlab.markov import (
    ProposalKernel,
    StateSpace,
    TargetModel,
    build_transition_matrix,
    mixing_bound_check,
)
from qmhlab.perturbation import verification_record
from qmhlab.qsim import (
    RegisterLayout,
    build_core,
    build_walk_operator,
    symmetrized_transition,
    verify_phase_gap,
)

from conftest import build_F, build_S, random_instance


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d} {desc}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line} {detail}"


def two_state_instance():
    space = StateSpace.regular_grid((2,))
    model = TargetModel(space=space, prior=np.array([0.5, 0.5]),
                        neg_log_lik=np.zeros(2))
    kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.75)
    return model, kernel


def default_8state():
    space = StateSpace.regular_grid((8,))
    nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
    model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0),
                        neg_log_lik=nll - nll.min())
    return model, ProposalKernel.nearest_neighbor(space)


def test_criterion_01_phase_gap_theorem():
    start = time.monotonic()
    failures = []
    for seed in range(20):
        model, kernel = random_instance(seed, max_points=16)
        chain = build_transition_matrix(model, kernel)
        layout = RegisterLayout.for_kernel(kernel)
        U = build_walk_operator(model, kernel, layout)
        r = verify_phase_gap(U, layout, chain)
        if not (r.unit_multiplicity == 1
                and r.principal_overlap >= 1.0 - 1e-9
                and r.min_nonzero_phase >= np.arccos(1.0 - chain.spectral_gap) - 1e-8):
            failures.append(seed)
    model, kernel = two_state_instance()
    chain = build_transition_matrix(model, kernel)
    layout = RegisterLayout.for_kernel(kernel)
    r = verify_phase_gap(build_walk_operator(model, kernel, layout), layout, chain)
    pi3_ok = abs(r.min_nonzero_phase - np.pi / 3.0) <= 1e-8
    elapsed = time.monotonic() - start
    ok = not failures and pi3_ok and elapsed < 60.0
    report(1, "phase-gap theorem on 20 random chains", ok,
           f"failures={failures} pi3_ok={pi3_ok} elapsed={elapsed:.1f}s")


def test_criterion_02_core_operator_identities():
    worst_block, worst_sf = 0.0, 0.0
    instances = [random_instance(seed, max_points=16) for seed in range(20)]
    instances.append(two_state_instance())
    for model, kernel in instances:
        chain = build_transition_matrix(model, kernel)
        layout = RegisterLayout.for_kernel(kernel)
        G = build_core(model, layout)
        ref = layout.reference_indices()
        block_err = float(np.max(np.abs(G[np.ix_(ref, ref)] - symmetrized_transition(chain))))
        SF = build_S(layout) @ build_F(layout)
        sf_err = float(np.max(np.abs(SF @ SF - np.eye(layout.total_dim))))
        worst_block = max(worst_block, block_err)
        worst_sf = max(worst_sf, sf_err)
    ok = worst_block <= 1e-10 and worst_sf <= 1e-12
    report(2, "reference-block and shift-negation identities", ok,
           f"block_err={worst_block:.2e} sf_err={worst_sf:.2e}")


def test_criterion_03_pi3_amplification():
    worst = 0.0
    for p in (0.2, 0.5, 0.9):
        phi2 = np.array([1.0, 0.0], dtype=complex)
        phi1 = np.array([np.sqrt(p), np.sqrt(1.0 - p)], dtype=complex)
        for m in range(4):
            R1 = ExactPhaseGate(phi1, OMEGA_PI3)
            R2 = ExactPhaseGate(phi2, OMEGA_PI3)
            overlap = abs(np.vdot(phi2, pi3_amplify(R1, R2, m, phi1))) ** 2
            worst = max(worst, pi3_overlap_bound(p, m) - overlap)
    phi2 = np.array([1.0, 0.0], dtype=complex)
    phi1 = np.array([np.sqrt(0.5), np.sqrt(0.5)], dtype=complex)
    half_case = abs(np.vdot(phi2, pi3_amplify(
        ExactPhaseGate(phi1, OMEGA_PI3), ExactPhaseGate(phi2, OMEGA_PI3),
        1, phi1))) ** 2
    ok = worst <= 1e-9 and abs(half_case - 0.875) <= 1e-9
    report(3, "pi/3 amplification overlap formula", ok,
           f"worst_shortfall={worst:.2e} half_case={half_case}")


def test_criterion_04_perturbation_suite():
    start = time.monotonic()
    records = []
    for seed in range(25):
        model, kernel = random_instance(1000 + seed, max_points=16)
        for eps in (0.01, 0.05, 0.1, 0.2):
            records.append(verification_record(
                f"s{seed}-e{eps}", model, kernel, eps, seed))
    violations = [r["instance"] for r in records if not r["pass"]]
    elapsed = time.monotonic() - start
    ok = len(records) == 100 and not violations and elapsed < 120.0
    report(4, "perturbation bounds on 100 random instances", ok,
           f"violations={violations} elapsed={elapsed:.1f}s")


def test_criterion_05_mixing_bound():
    bad = []
    for seed in range(10):
        model, kernel = random_instance(2000 + seed, max_points=16)
        chain = build_transition_matrix(model, kernel)
        if not chain.is_reversible():
            continue
        for n in range(1, 101):
            d_exact, bound = mixing_bound_check(chain, n)
            if d_exact > bound + 1e-12:
                bad.append((seed, n))
    report(5, "mixing bound up to n=100 on reversible chains", not bad,
           f"violations={bad}")


def test_criterion_06_qmci_contracts():
    rng = np.random.default_rng(0)
    table = rng.uniform(0.0, 4.0, size=(8, 5))
    sigma = float(table.std(axis=0, ddof=0).max()) * 1.05
    oracle = qmci.LikelihoodOracle(table, sigma)
    eps, delta = 0.25 * sigma, 0.1
    truth = oracle.mean_table()

    n_success, n_total, success_err = 0, 0, 0.0
    for seed in range(200):
        for x in range(5):
            res = qmci.qmci_mean(oracle, x, eps, delta, "faithful", seed=seed)
            n_total += 1
            if res.success:
                n_success += 1
                success_err = max(success_err, abs(res.estimate - truth[x]))
    faithful_ok = n_success / n_total >= 0.9 and success_err <= eps

    emu_ok = True
    for seed in range(10):
        for x in range(5):
            res = qmci.qmci_mean(oracle, x, eps, delta, "emulated", seed=seed)
            emu_ok = emu_ok and abs(res.estimate - truth[x]) <= eps

    round_ok = (qmci.round_at_bit(1.375, -1) == 1.0
                and qmci.round_at_bit(1.375, -2) == 1.25)
    ok = faithful_ok and emu_ok and round_ok
    report(6, "mean-estimation accuracy contracts", ok,
           f"success_freq={n_success / n_total:.3f} success_err={success_err:.4f} "
           f"emulated_ok={emu_ok} rounding_ok={round_ok}")


def test_criterion_07_end_to_end_pipeline():
    model, kernel = default_8state()
    oracle = qmci.LikelihoodOracle.from_nll(model.neg_log_lik, M=64,
                                            spread=0.5, seed=0)
    eps = 0.2
    result = qmci.qsa_with_qmci(oracle, model, kernel, eps, delta=0.1, seed=0,
                                mode="emulated", gate_mode="exact")
    sched = result.schedule
    ok = (result.tv_realized <= eps
          and sched.success
          and len(sched.betas) - 1 <= sched.l_max
          and all(o >= OVERLAP_GUARANTEE for o in sched.overlaps))
    report(7, "end-to-end annealed preparation with estimated likelihood", ok,
           f"tv={result.tv_realized:.4f} stages={len(sched.betas) - 1} "
           f"l_max={sched.l_max} min_overlap={min(sched.overlaps):.4f}")


def test_criterion_08_credible_interval():
    space = StateSpace.regular_grid((16,))
    nll = 0.05 * (space.points[:, 0] - 7.5) ** 2
    model = TargetModel(space=space, prior=np.full(16, 1.0 / 16.0),
                        neg_log_lik=nll - nll.min())
    handle = inference.PosteriorHandle(distribution=model.distribution(),
                                       space=space, prep_queries=1)
    query = inference.CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1)
    P = model.distribution()
    iter_cap = int(np.ceil(np.log2(14))) + 1
    good, cap_ok = 0, True
    for seed in range(100):
        res = inference.credible_bound_search(query, handle, seed)
        cap_ok = cap_ok and res.iterations <= iter_cap
        if res.found and abs(inference.cdf_exact(P, space, 0, res.value)
                             - 0.25) <= 0.05:
            good += 1
    ok = good >= 90 and cap_ok
    report(8, "credible bound search over 100 seeds", ok,
           f"good={good}/100 iter_cap_ok={cap_ok}")


def test_criterion_09_query_scaling(tmp_path):
    start = time.monotonic()
    payload = scaling_study(
        M_values=[256, 512, 1024, 2048, 4096],
        methods=["proposed", "exact-qsa", "classical-mh"],
        out_dir=str(tmp_path), rho=2.0, eps=0.1, delta=0.2, seeds=(0, 1, 2))
    slopes = payload["slopes"]
    elapsed = time.monotonic() - start
    measured_ok = all(r["queries"] > 0 for r in payload["records"])
    ok = (abs(slopes["proposed"] - 0.5) <= 0.15
          and abs(slopes["exact-qsa"] - 1.0) <= 0.15
          and abs(slopes["classical-mh"] - 1.0) <= 0.15
          and measured_ok and elapsed < 600.0)
    report(9, "oracle-query scaling slopes vs series length", ok,
           f"slopes={slopes} elapsed={elapsed:.1f}s")


def test_criterion_10_gw_structure():
    Ms = [2**8, 2**9, 2**10, 2**11, 2**12]
    identity_ok = True
    sigmas = np.zeros(len(Ms))
    for seed in range(3):
        for i, M in enumerate(Ms):
            inst = inference.synth_gw_instance(0.1, 0.0, M, rho=2.0, seed=seed)
            identity_ok = identity_ok and inference.gw_identity_error(inst) <= 1e-9
            sigmas[i] += inst.sigma / 3.0
    ratios = sigmas[1:] / sigmas[:-1]
    scaling_ok = bool(np.all(np.abs(ratios - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0)))
    ok = identity_ok and scaling_ok
    report(10, "signal-instance likelihood structure and sigma growth", ok,
           f"identity_ok={identity_ok} ratios={np.round(ratios, 3).tolist()}")
