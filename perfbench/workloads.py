"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Every workload calls only the public functions of ``qmhlab``.  Each check
compares the program's output with a quantity this file computes itself
(with plain NumPy, never through ``qmhlab``) or with a property the method
guarantees; none compares with a stored copy of an earlier output.

A workload is a class with:

- ``make_round(seed)``: the list of inputs one round runs, in order;
- ``run(inp)``: one operation, returning its output;
- ``check(inp, out)``: names of the failed checks (empty when correct);
- ``queries(inp, out)``: the oracle queries the operation cost;
- ``finish(inputs, outputs)``: names of failed run-level checks;
- ``corruptions(inp, out)``: deliberately wrong outputs for the self-test.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from qmhlab import annealing, inference, markov, perturbation, qmci, qsim

GW_M_LADDER = (256, 512, 1024, 2048, 4096)
GW_INSTANCE_SEEDS = (0, 1, 2)
GW_GRID = (8, 8)
GW_RHO = 2.0
GW_EPS = 0.1            # pipeline accuracy, as in `qmh-lab scaling`
GW_DELTA = 0.2
CI_ALPHA = 0.5
CI_EPS = 0.05
CI_DELTA = 0.2
SLOPE_TOL = 0.15        # acceptance criterion 09

QPE_GRID = (5, 5)
QPE_SCALES = (0.15, 0.3, 0.45, 0.6)
QPE_TERMS = 16
QPE_EPS = 0.2
QPE_DELTA = 0.1
WALK_EPS = 0.1

CHAIN_GRID = (20, 20)
CHAIN_SCALES = (0.02, 0.04, 0.06, 0.08)
CHAIN_TERMS = 64
CHAIN_EPS = 0.05
CHAIN_DELTA = 0.1
MIXING_STEPS = (1, 4, 16, 64)

TERM_SPREAD = 0.5
TOL = 1e-9


# ---------------------------------------------------------------- own numerics

def neighbours(space, moves) -> np.ndarray:
    """(n, k) index of the state reached from each state by each torus move."""
    shape = np.array(space.shape)
    multi = np.array(np.unravel_index(np.arange(space.size), space.shape)).T
    out = np.empty((space.size, len(moves)), dtype=np.int64)
    for j, m in enumerate(moves):
        out[:, j] = np.ravel_multi_index(((multi + np.array(m)) % shape).T, space.shape)
    return out


def distribution(prior, nll) -> np.ndarray:
    p = np.asarray(prior, float) * np.exp(-(np.asarray(nll, float) - np.min(nll)))
    return p / p.sum()


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def proposal(space, kernel) -> np.ndarray:
    T = np.zeros((space.size, space.size))
    nb = neighbours(space, kernel.moves)
    for j, w in enumerate(kernel.weights):
        np.add.at(T, (np.arange(space.size), nb[:, j]), w)
    return T


def acceptance(T, pi) -> np.ndarray:
    """min{1, pi_y T_yx / (pi_x T_xy)} on the support of T, zero elsewhere."""
    A = np.zeros_like(T)
    mask = T > 0
    num = pi[None, :] * T.T
    den = pi[:, None] * T
    A[mask] = np.minimum(1.0, num[mask] / den[mask])
    return A


def transition(T, A) -> np.ndarray:
    W = T * A
    np.fill_diagonal(W, 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def spectral_gap(W, pi) -> float:
    """1 - max non-unit |eigenvalue|, from one eigh of the symmetrized W."""
    d = np.sqrt(pi)
    S = d[:, None] * W / d[None, :]
    lam = np.sort(np.abs(np.linalg.eigvalsh(0.5 * (S + S.T))))
    return 1.0 - float(lam[-2])


def tail(P, space, axis, a) -> float:
    coords = np.asarray(space.axes[axis])[
        np.unravel_index(np.arange(space.size), space.shape)[axis]]
    return float(np.asarray(P)[coords > a].sum())


def oracle_posterior(oracle, prior) -> np.ndarray:
    """prior * exp(-(mean of terms + ell0 + C)), straight from the term table."""
    return distribution(prior, oracle.table.mean(axis=0) + oracle.ell0 + oracle.const)


def torus_quadratic(space, centre, scale) -> np.ndarray:
    shape = np.array(space.shape)
    multi = np.array(np.unravel_index(np.arange(space.size), space.shape)).T
    d = (multi - centre + shape // 2) % shape - shape // 2
    return scale * np.sum(d.astype(float) ** 2, axis=1)


def term_oracle(L, M, spread, rng):
    """M terms per state with mean exactly L(x) and spread exactly ``spread``.

    Fixing each state's sample spread fixes the declared sigma, hence the
    per-estimate query charge, whatever the seed.
    """
    noise = rng.normal(size=(M, len(L)))
    noise -= noise.mean(axis=0)
    noise *= spread / noise.std(axis=0)
    return qmci.LikelihoodOracle(L[None, :] + noise, sigma=1.05 * spread)


def fit_slope(M_values, queries) -> float:
    return float(np.polyfit(np.log(np.asarray(M_values, float)),
                            np.log(np.asarray(queries, float)), 1)[0])


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([int(seed), tag])
    return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]


# ------------------------------------------------------------------- workloads

class QsaQpe:
    """Posterior state by QSA with QPE gates, then the faithful walk, certified."""

    name = "qsa-qpe"

    def make_round(self, seed):
        space = markov.StateSpace.regular_grid(QPE_GRID)
        kernel = markov.ProposalKernel.gaussian(space, width=1.0, radius=1)
        inputs = []
        for scale, s in zip(QPE_SCALES, _seeds(seed, 1, len(QPE_SCALES))):
            rng = np.random.default_rng(s)
            centre = rng.integers(0, np.array(QPE_GRID))
            L = torus_quadratic(space, centre, scale)
            model = markov.TargetModel(space, np.full(space.size, 1.0 / space.size), L)
            oracle = term_oracle(L, QPE_TERMS, TERM_SPREAD, rng)
            inputs.append({"model": model, "kernel": kernel, "oracle": oracle,
                           "seed": s % 2**31, "scale": scale})
        return inputs

    def run(self, inp):
        model, kernel, oracle, seed = inp["model"], inp["kernel"], inp["oracle"], inp["seed"]
        res = qmci.qsa_with_qmci(oracle, model, kernel, QPE_EPS, QPE_DELTA, seed,
                                 mode="emulated", gate_mode="qpe")
        layout = qsim.RegisterLayout.for_kernel(kernel)
        before = oracle.queries
        U, model_w, residual = qmci.approx_walk_operator(
            oracle, model, kernel, layout, WALK_EPS, QPE_DELTA, seed, mode="faithful")
        walk_queries = oracle.queries - before
        chain_w = markov.build_transition_matrix(model_w, kernel)
        report = qsim.verify_phase_gap(U, layout, chain_w)
        return {"state": res.state, "nll_pert": res.model_pert.neg_log_lik,
                "pipeline_queries": res.oracle_queries, "walk_queries": walk_queries,
                "nll_walk": model_w.neg_log_lik, "report": report,
                "n_moves": layout.n_moves, "residual": residual}

    def check(self, inp, out):
        model, kernel, oracle = inp["model"], inp["kernel"], inp["oracle"]
        fails = []
        prior = model.prior
        pi_pert = distribution(prior, out["nll_pert"])
        ref = np.arange(model.space.size) * (2 * out["n_moves"])   # |x>|0>|0>
        fidelity = abs(np.vdot(np.sqrt(pi_pert), out["state"][ref])) ** 2
        if fidelity < 1.0 - 2.0 * min(0.1, QPE_EPS / 2.0):
            fails.append("fidelity")
        if tv(pi_pert, oracle_posterior(oracle, prior)) > QPE_EPS:
            fails.append("tv")
        report = out["report"]
        if not report.passed:
            fails.append("phase_gap_report")
        pi_w = distribution(prior, out["nll_walk"])
        T = proposal(model.space, kernel)
        gap = spectral_gap(transition(T, acceptance(T, pi_w)), pi_w)
        if report.min_nonzero_phase < np.arccos(1.0 - gap) - 1e-8:
            fails.append("min_phase")
        return fails

    def queries(self, inp, out):
        return out["pipeline_queries"] + out["walk_queries"]

    def finish(self, inputs, outputs):
        return []

    def corruptions(self, inp, out):
        rng = np.random.default_rng(0)
        shuffled = out["state"].copy()
        ref = np.arange(inp["model"].space.size) * (2 * out["n_moves"])
        shuffled[ref] = shuffled[rng.permutation(ref)]
        rep = out["report"]
        low_phase = dataclasses.replace(rep, min_nonzero_phase=0.5 * rep.phase_bound)
        return [
            ("shuffled state", dict(out, state=shuffled)),
            ("shuffled perturbed likelihood",
             dict(out, nll_pert=rng.permutation(out["nll_pert"]))),
            ("eigenphase below the gap bound", dict(out, report=low_phase)),
            ("failed phase-gap report", dict(out, report=dataclasses.replace(rep, passed=False))),
        ]


def _gw_round(seed, tag):
    """The fixed GW ladder; the seed drives every random choice of the methods."""
    points = [(M, s) for M in GW_M_LADDER for s in GW_INSTANCE_SEEDS]
    inputs = []
    for (M, s), op_seed in zip(points, _seeds(seed, tag, len(points))):
        inst = inference.synth_gw_instance(0.1, 0.0, M, GW_RHO, s, grid_shape=GW_GRID)
        inputs.append({"inst": inst, "M": M, "instance": s, "seed": op_seed % 2**31})
    # every instance shares one grid, hence one proposal kernel
    kernel = markov.ProposalKernel.nearest_neighbor(inputs[0]["inst"].space)
    for inp in inputs:
        inp["kernel"] = kernel
    return inputs


def _credible_ok(found, value, P, P_used, space):
    """Found: |Phi_P(v) - alpha/2| <= eps + TV(P~, P).  None: no grid point of
    the exact P has a tail within eps/3 of alpha/2."""
    target = CI_ALPHA / 2.0
    if found:
        return abs(tail(P, space, 0, value) - target) <= CI_EPS + tv(P_used, P) + TOL
    tails = [tail(P, space, 0, a) for a in space.axes[0]]
    return not any(abs(t - target) <= CI_EPS / 3.0 for t in tails)


class GwCredible:
    """Upper credible bound on the GW instance: proposed method and exact QSA."""

    name = "gw-credible"

    def make_round(self, seed):
        return _gw_round(seed, 2)

    def run(self, inp):
        inst, kernel, seed = inp["inst"], inp["kernel"], inp["seed"]
        query = inference.CredibleQuery(axis=0, alpha=CI_ALPHA, eps=CI_EPS,
                                        delta=CI_DELTA, side="upper")
        oracle = inst.oracle
        before = oracle.queries
        res = qmci.qsa_with_qmci(oracle, inst.model, kernel, GW_EPS, GW_DELTA, seed)
        handle = inference.PosteriorHandle(res.model_pert.distribution(), inst.space,
                                           oracle.queries - before)
        proposed = inference.credible_bound_search(query, handle, seed)

        chain = markov.build_transition_matrix(inst.model, kernel)
        ledger = annealing.QueryLedger()
        schedule = annealing.qsa_schedule(inst.model, kernel, chain.spectral_gap,
                                          eta=GW_DELTA, seed=seed, ledger=ledger)
        annealing.qsa_generate(schedule, inst.model, kernel, eps=0.1, ledger=ledger)
        handle = inference.PosteriorHandle(inst.model.distribution(), inst.space,
                                           ledger.total * inst.M)
        exact = inference.credible_bound_search(query, handle, seed)
        return {"proposed": proposed, "exact": exact, "nll_pert": res.model_pert.neg_log_lik}

    def check(self, inp, out):
        inst = inp["inst"]
        prior = inst.model.prior
        P = oracle_posterior(inst.oracle, prior)
        fails = []
        pr, ex = out["proposed"], out["exact"]
        if not _credible_ok(pr.found, pr.value, P, distribution(prior, out["nll_pert"]),
                            inst.space):
            fails.append("proposed_bound")
        if not _credible_ok(ex.found, ex.value, P, P, inst.space):
            fails.append("exact_bound")
        return fails

    def queries(self, inp, out):
        return out["proposed"].queries + out["exact"].queries

    def finish(self, inputs, outputs):
        fails = []
        for method, target in (("proposed", 0.5), ("exact", 1.0)):
            means = [np.mean([float(o[method].queries) for i, o in zip(inputs, outputs)
                              if i["M"] == M]) for M in GW_M_LADDER]
            if abs(fit_slope(GW_M_LADDER, means) - target) > SLOPE_TOL:
                fails.append(f"{method}_slope")
        return fails

    def corruptions(self, inp, out):
        grid = inp["inst"].space.axes[0]
        bad = []
        for key in ("proposed", "exact"):
            r = out[key]
            # a bound at the far end of the grid from the true one
            far = grid[-1] if r.found and r.value < np.median(grid) else grid[0]
            shifted = dataclasses.replace(r, value=float(far), found=True)
            bad.append((f"shifted {key} bound", dict(out, **{key: shifted})))
        return bad


class GwClassical:
    """The classical MH baseline: chain sampling paying M queries per step."""

    name = "gw-classical"

    def make_round(self, seed):
        return _gw_round(seed, 3)

    def run(self, inp):
        inst, kernel, seed = inp["inst"], inp["kernel"], inp["seed"]
        chain = markov.build_transition_matrix(inst.model, kernel)
        n_b = markov.mixing_time_bound(chain, CI_EPS)
        n = int(np.ceil(2.0 / (chain.signed_gap * CI_EPS**2)))
        sample = markov.run_mh(inst.model, kernel, n_b, n, seed)
        interval = inference.classical_credible(sample, inst.space, 0, CI_ALPHA)
        return {"kept": sample.kept, "steps": n_b + n, "interval": interval}

    def check(self, inp, out):
        inst = inp["inst"]
        space = inst.space
        P = oracle_posterior(inst.oracle, inst.model.prior)
        counts = np.bincount(out["kept"], minlength=space.size) / len(out["kept"])
        err = max(abs(tail(counts, space, 0, a) - tail(P, space, 0, a)) for a in space.axes[0])
        fails = [] if err <= CI_EPS else ["empirical_tail"]
        lo, hi = out["interval"]
        if not lo <= hi:
            fails.append("interval_order")
        return fails

    def queries(self, inp, out):
        return out["steps"] * inp["M"]

    def finish(self, inputs, outputs):
        return []

    def corruptions(self, inp, out):
        kept = out["kept"]
        space = inp["inst"].space
        perm = np.random.default_rng(0).permutation(space.size)
        return [("samples shifted one grid step", dict(out, kept=(kept + space.shape[1]) % space.size)),
                ("shuffled sample distribution", dict(out, kept=perm[kept]))]


class ChainBounds:
    """Perturbation and mixing certificates of a QMCI-perturbed chain."""

    name = "chain-bounds"

    def make_round(self, seed):
        space = markov.StateSpace.regular_grid(CHAIN_GRID)
        kernel = markov.ProposalKernel.nearest_neighbor(space)
        inputs = []
        for scale, s in zip(CHAIN_SCALES, _seeds(seed, 4, len(CHAIN_SCALES))):
            rng = np.random.default_rng(s)
            centre = rng.integers(0, np.array(CHAIN_GRID))
            L = torus_quadratic(space, centre, scale)
            model = markov.TargetModel(space, np.full(space.size, 1.0 / space.size), L)
            oracle = term_oracle(L, CHAIN_TERMS, TERM_SPREAD, rng)
            inputs.append({"model": model, "kernel": kernel, "oracle": oracle,
                           "seed": s % 2**31, "scale": scale})
        return inputs

    def run(self, inp):
        model, kernel, oracle, seed = inp["model"], inp["kernel"], inp["oracle"], inp["seed"]
        before = oracle.queries
        table, nll, max_err, _ = qmci.approx_acceptance_table(
            oracle, model, kernel, CHAIN_EPS, CHAIN_DELTA, seed, mode="emulated")
        queries = oracle.queries - before
        eps = float(np.max(np.abs(nll - model.neg_log_lik)))
        pert = perturbation.PerturbedLikelihood(model.neg_log_lik, nll, eps, seed)
        chain = markov.build_transition_matrix(model, kernel)
        chain_pert = markov.build_transition_matrix(model.with_neg_log_lik(nll), kernel)
        acc = perturbation.acceptance_error_check(model, kernel, pert)
        gap = perturbation.spectral_gap_perturbation_check(chain, chain_pert, kernel, eps)
        tvc = perturbation.tv_perturbation_check(model, kernel, pert)
        mixing = [markov.mixing_bound_check(chain_pert, n) for n in MIXING_STEPS]
        return {"table": table, "nll": nll, "max_err": max_err, "queries": queries,
                "acc": acc, "gap": gap, "tv": tvc, "mixing": mixing}

    def check(self, inp, out):
        model, kernel = inp["model"], inp["kernel"]
        fails = []
        L, Lt = model.neg_log_lik, out["nll"]
        eps = float(np.max(np.abs(Lt - L)))
        if eps > CHAIN_EPS:
            fails.append("realized_eps")
        T = proposal(model.space, kernel)
        pi, pi_t = distribution(model.prior, L), distribution(model.prior, Lt)
        A, At = acceptance(T, pi), acceptance(T, pi_t)
        if np.max(np.abs(out["table"] - At)) > TOL:
            fails.append("perturbed_table")
        diff = float(np.max(np.abs(At - A)))
        if abs(out["max_err"] - diff) > TOL or abs(out["acc"][0] - diff) > TOL:
            fails.append("reported_acceptance_error")
        if diff > 8.0 * eps + 1e-12 or not out["acc"][2]:
            fails.append("acceptance_bound")

        W, Wt = transition(T, A), transition(T, At)
        gap, gap_t = spectral_gap(W, pi), spectral_gap(Wt, pi_t)
        kappa = np.sqrt(pi.max() / pi.min())
        col = float(np.max((T - np.diag(np.diag(T))).sum(axis=0)))
        gap_bound = gap - 16.0 * np.sqrt(col) * kappa * eps
        if gap_t < gap_bound - 1e-12 or not out["gap"][2] or abs(out["gap"][0] - gap_t) > 1e-8:
            fails.append("gap_bound")
        steps = np.ceil(np.log(2.0 * np.sqrt(pi.min())) / np.log(1.0 - gap))
        tv_bound = 8.0 * eps * (steps + 1.0 / gap)
        drift = tv(pi, pi_t)
        if drift > tv_bound + 1e-12 or not out["tv"][2] or abs(out["tv"][0] - drift) > TOL:
            fails.append("tv_bound")

        Wn, done = np.eye(len(pi)), 0
        for n, (d_prog, _) in zip(MIXING_STEPS, out["mixing"]):
            Wn = Wn @ np.linalg.matrix_power(Wt, n - done)
            done = n
            d_exact = 0.5 * float(np.max(np.abs(Wn - pi_t[None, :]).sum(axis=1)))
            bound = (1.0 - gap_t) ** n / (2.0 * np.sqrt(pi_t.min()))
            if abs(d_prog - d_exact) > 1e-8 or d_exact > bound + 1e-12:
                fails.append(f"mixing_n{n}")
        return fails

    def queries(self, inp, out):
        return out["queries"]

    def finish(self, inputs, outputs):
        return []

    def corruptions(self, inp, out):
        mixing = [(d * 1.5 + 0.01, b) for d, b in out["mixing"]]
        return [("scaled acceptance table", dict(out, table=np.clip(out["table"] * 0.9, 0, 1))),
                ("shuffled perturbed likelihood",
                 dict(out, nll=np.random.default_rng(0).permutation(out["nll"]))),
                ("inflated mixing distance", dict(out, mixing=mixing))]


WORKLOADS = {w.name: w for w in (QsaQpe(), GwCredible(), GwClassical(), ChainBounds())}
