"""Quantum Monte Carlo mean estimation of the negative log-likelihood.

A LikelihoodOracle holds the term table ell(i, x) whose per-state mean
L_sum(x) feeds the MH target.  qmci_mean estimates that mean either by a
faithful amplitude-estimation simulation (small M) or by an emulated
deterministic perturbation with the same accuracy contract and query
accounting.  The faithful mode draws its runs from annealing's
amplitude-estimation sampler, as overlap and CDF estimation do, and reports
the median run's estimate; its bad-branch mass is two binomial tails at the
sampler's one-run CDF.  On top sit the approximate acceptance table, the
approximate walk operator (exactly the walk operator of the perturbed chain),
and the full annealing pipeline with oracle-query totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import annealing
from .annealing import QueryLedger
from .markov import ProposalKernel, TargetModel, acceptance_matrix, chain_ladder, tv_distance
from .qsim import RegisterLayout, WalkOperator

FAITHFUL_MAX_TERMS = 16


def _truncate(v, a: int):
    """v's binary expansion cut below bit a (value 2^a), toward zero for either sign."""
    step = 2.0**a
    return np.where(v >= 0, np.floor(v / step) * step, -(np.floor(-v / step) * step))


def round_at_bit(x: float, a: int) -> float:
    """Truncate the binary expansion of x >= 0 below bit a (value 2^a)."""
    if x < 0:
        raise ValueError("rounding is defined for nonnegative values")
    return float(_truncate(x, a))


def query_charge(sigma: float, eps: float, delta: float) -> int:
    """Oracle queries for one mean estimation at (sigma, eps, delta).

    ceil(6.9 (sigma/eps) (1 + log2^{3/2}(sigma/eps))) * ceil(12 ln(1/delta));
    declared implementation constants, used for scaling studies only.
    """
    r = sigma / eps
    poly = np.ceil(6.9 * r * (1.0 + max(0.0, np.log2(r)) ** 1.5))
    return int(poly) * int(np.ceil(12.0 * np.log(1.0 / delta)))


def estimation_charge(oracle: LikelihoodOracle, eps: float, delta: float) -> int:
    """Queries one qmci_mean call on oracle charges at (eps, delta).

    Zero when eps >= 4 sigma: the accuracy is coarser than the spread and the
    classical shortcut answers; otherwise query_charge, which is at least 1.
    """
    return 0 if eps >= 4.0 * oracle.sigma else query_charge(oracle.sigma, eps, delta)


class LikelihoodOracle:
    """Term table ell(i, x) with declared variance bound and a query counter.

    The modeled negative log-likelihood is
    L(x) = L_sum(x) + ell0(x) + const, with L_sum the mean over the M terms.
    A float table that is read-only and owns its data is adopted as it is;
    any other is copied, so later writes by the caller cannot stale it.
    """

    def __init__(self, table: np.ndarray, sigma: float,
                 ell0: np.ndarray | None = None, const: float = 0.0):
        if not (isinstance(table, np.ndarray) and table.dtype == float
                and table.flags.owndata and not table.flags.writeable):
            table = np.array(table, float)
        if table.ndim != 2 or len(table) < 1:
            raise ValueError(f"table must be (M, n_states) with M >= 1 terms, not {table.shape}")
        self.table = table
        self._mean = self.table.mean(axis=0)
        self.table.flags.writeable = self._mean.flags.writeable = False
        self.M, self.n_states = table.shape
        if np.any(table.std(axis=0, ddof=0) > sigma + 1e-12):
            raise ValueError("per-state sample std exceeds the declared sigma")
        self.sigma = float(sigma)
        self.ell0 = np.zeros(self.n_states) if ell0 is None else np.asarray(ell0, float)
        self.const = float(const)
        self.queries = 0

    def charge(self, n: int) -> None:
        if n < 0:
            raise ValueError("negative charge")
        self.queries += int(n)

    def mean_table(self) -> np.ndarray:
        return self._mean

    def full_nll(self) -> np.ndarray:
        return self.mean_table() + self.ell0 + self.const

    @classmethod
    def from_nll(cls, L, M: int, spread: float, seed: int) -> "LikelihoodOracle":
        """Synthetic oracle: M terms per state with mean L(x) and given spread."""
        if M < 1:
            raise ValueError(f"an oracle needs M >= 1 terms, not M = {M}")
        L = np.asarray(L, float)
        noise = np.random.default_rng(seed).normal(0.0, spread, size=(M, len(L)))
        noise -= noise.mean(axis=0)
        table = L[None, :] + noise
        sigma = float(table.std(axis=0, ddof=0).max()) * 1.05 + 1e-12
        return cls(table, sigma)


@dataclass(frozen=True)
class QmciResult:
    estimate: float
    queries: int
    success: bool
    residual: float      # bad-branch probability mass (faithful mode)


def _binomial_sf(k: int, n: int, p: float) -> float:
    """P(X > k) for X ~ Binomial(n, p), summed term by term: the terms run outward
    from the mode, taken as 1, by their ratios and are divided by their sum, so
    nothing over- or underflows at large n and a tiny tail keeps its digits."""
    if not 0.0 < p < 1.0:
        return float(p >= 1.0 and k < n)
    ratio = (n - np.arange(n)) / np.arange(1, n + 1) * (p / (1.0 - p))   # term j+1 over term j
    mode = min(int((n + 1) * p), n)
    terms = np.ones(n + 1)
    terms[mode + 1:] = np.cumprod(ratio[mode:])
    terms[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return float(terms[k + 1:].sum() / terms.sum())


def _check_request(eps: float, delta: float, mode: str) -> None:
    if eps <= 0 or not 0 < delta < 1:
        raise ValueError("need eps > 0 and delta in (0, 1)")
    if mode not in ("emulated", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")


def _emulated_means(oracle: LikelihoodOracle, states: list[int] | np.ndarray, eps: float,
                    seed: int, shortcut: bool) -> np.ndarray:
    """Emulated estimates of L_sum at states, or the classical shortcut's when shortcut.

    The shortcut truncates the true mean at bit b = floor(log2 eps).  Emulated
    mode adds eps' = 2^(b-1) times one uniform in [-1, 1) drawn from
    default_rng([seed, x]) for each state x, then truncates at bit b; that
    uniform is uniform(-1, 1)'s -1 + 2 random(), so L~ is a fixed function of
    (x, seed).
    """
    truth = oracle.mean_table()[states]
    b = int(np.floor(np.log2(eps)))
    truncated = _truncate(truth, b)
    if shortcut:
        return truncated
    eta = -1.0 + 2.0 * np.array([np.random.default_rng([seed, x]).random() for x in states])
    est = _truncate(truth + 2.0 ** (b - 1) * eta, b)
    # rounding at a bin edge can overshoot the budget; truncating the true
    # value directly always lands within 2^b <= eps
    return np.where(np.abs(est - truth) > eps, truncated, est)


def qmci_mean(oracle: LikelihoodOracle, x: int, eps: float, delta: float,
              mode: str, seed: int) -> QmciResult:
    """Estimate L_sum(x) to accuracy eps with failure weight delta.

    Both modes round the raw estimate at bit b = floor(log2 eps) with
    internal accuracy eps' = 2^(b-1) and budget delta' = delta/4, and charge
    the same query count.  Emulated mode is deterministic per (x, seed).
    """
    _check_request(eps, delta, mode)
    if not 0 <= x < oracle.n_states:
        raise ValueError(f"state index {x} outside 0..{oracle.n_states - 1}")
    charge = estimation_charge(oracle, eps, delta)
    if mode == "emulated" or charge == 0:
        oracle.charge(charge)
        est = _emulated_means(oracle, [x], eps, seed, shortcut=charge == 0)
        return QmciResult(float(est[0]), charge, True, 0.0)
    if oracle.M > FAITHFUL_MAX_TERMS:
        raise ValueError(f"faithful mode limited to M <= {FAITHFUL_MAX_TERMS}")
    oracle.charge(charge)

    truth = float(oracle.mean_table()[x])
    b = int(np.floor(np.log2(eps)))
    lo, hi = float(oracle.table[:, x].min()), float(oracle.table[:, x].max())
    if hi - lo < 1e-15:
        return QmciResult(float(_truncate(truth, b)), charge, True, 0.0)
    theta = float(np.arcsin(np.sqrt(np.clip((truth - lo) / (hi - lo), 0.0, 1.0))))
    eps_norm = 2.0 ** (b - 1) / (hi - lo)
    t = min(int(np.ceil(np.log2(2.0 * np.pi / min(eps_norm, 0.5)))) + 2, 16)
    runs = int(np.ceil(12.0 * np.log(1.0 / (delta / 4.0)))) | 1     # odd: one run is the median
    m, cdf = annealing.sample_folded_outcomes(theta, t, runs, np.random.default_rng([seed, x]))
    median = int(np.median(m))
    # outcome m estimates sin^2(pi m / 2^t); the estimates rise with m, so the
    # good outcomes form one range [g0, g1] (empty when t = 16 cannot resolve eps)
    values = np.round(np.sin(np.pi * np.arange(2 ** (t - 1) + 1) / 2**t) ** 2, 15)
    est = _truncate(lo + values * (hi - lo), b)
    good = np.flatnonzero(np.abs(est - truth) <= eps)
    g0, g1 = (good[0], good[-1]) if good.size else (len(est), len(est) - 1)
    # the median misses [g0, g1] when over half the runs land below g0, or above g1
    below, h = np.append(0.0, cdf()), runs // 2           # below[j] = P(m < j)
    residual = _binomial_sf(h, runs, below[g0]) + _binomial_sf(h, runs, 1.0 - below[g1 + 1])
    return QmciResult(float(est[median]), charge, bool(g0 <= median <= g1), residual)


def estimate_nll(oracle: LikelihoodOracle, eps: float, delta: float,
                 mode: str, seed: int) -> tuple[np.ndarray, float]:
    """Perturbed negative log-likelihood table L~, clipped at zero, and its largest residual.

    Emulated mode, and the classical shortcut of either mode, estimate the
    whole table in one array pass and charge it once, n_states single-call
    charges; emulated L~ is a fixed deterministic function, so the perturbed
    chain is well-defined.  Faithful mode runs one qmci_mean per state.  The
    residual is the largest bad-branch mass of those estimations (0 unless
    faithful).
    """
    _check_request(eps, delta, mode)
    charge = estimation_charge(oracle, eps, delta)
    if mode == "emulated" or charge == 0:
        oracle.charge(oracle.n_states * charge)
        est = _emulated_means(oracle, np.arange(oracle.n_states), eps, seed, shortcut=charge == 0)
        residual = 0.0
    else:
        results = [qmci_mean(oracle, x, eps, delta, mode, seed) for x in range(oracle.n_states)]
        est = np.array([r.estimate for r in results])
        residual = max(r.residual for r in results)
    return np.maximum(0.0, est + oracle.ell0 + oracle.const), residual


def _estimate_and_charge(oracle: LikelihoodOracle, kernel: ProposalKernel, eps: float,
                         delta: float, seed: int, mode: str):
    """L~, its estimations' largest residual and the pair charge, all supported pairs charged."""
    nll, residual = estimate_nll(oracle, eps, delta, mode, seed)
    charge = estimation_charge(oracle, eps, delta)
    # distinct nonzero torus moves reach distinct other states from every x
    n_pairs = kernel.space.size * sum(any(m) for m, w in zip(kernel.moves, kernel.weights) if w > 0)
    # charge the uncompute halves on top of the per-state estimations
    oracle.charge(max(0, n_pairs * 4 * charge - oracle.n_states * charge))
    return nll, residual, 4 * charge


def approx_acceptance_table(oracle: LikelihoodOracle, model: TargetModel,
                            kernel: ProposalKernel, eps: float, delta: float,
                            seed: int, mode: str = "emulated"):
    """Acceptance table of the perturbed chain, with per-pair query charge.

    Each ordered supported pair consumes two mean estimations plus their
    uncomputation, so the pair charge is four single-call charges.
    """
    nll, _, pair_charge = _estimate_and_charge(oracle, kernel, eps, delta, seed, mode)
    A_pert = acceptance_matrix(model.with_neg_log_lik(nll), kernel)
    max_err = float(np.max(np.abs(A_pert - acceptance_matrix(model, kernel))))
    return A_pert, nll, max_err, pair_charge


def approx_walk_operator(oracle: LikelihoodOracle, model: TargetModel,
                         kernel: ProposalKernel, layout: RegisterLayout,
                         eps: float, delta: float, seed: int,
                         mode: str = "emulated"):
    """Walk operator (a WalkOperator) built from the QMCI acceptance table.

    In emulated mode this is exactly the walk operator of the perturbed
    chain (no residual branch in the operator; delta is tracked analytically).
    In faithful mode the realized bad-branch mass of the estimations behind
    the table is reported, still without injection, so the spectral claims
    apply to the perturbed chain verbatim.  The oracle is charged once, for
    the table.
    """
    nll, residual, _ = _estimate_and_charge(oracle, kernel, eps, delta, seed, mode)
    model_pert = model.with_neg_log_lik(nll)
    return WalkOperator(model_pert, layout), model_pert, residual


def internal_accuracy(model: TargetModel, kernel: ProposalKernel, eps: float) -> float:
    """Likelihood accuracy eps'' guaranteeing TV(P~, P) <= eps along the anneal.

    min of: the TV-drift inversion at the worst spectral gap, the
    gap-preservation cap, and half the mean log-likelihood; the worst case
    is taken over beta = 0.1, 0.2, ..., 1, built as one chain ladder.
    """
    # map, unlike a loop variable, lets go of each chain before the next chunk is built
    gaps, kappas, pmins = zip(*map(lambda c: (c.spectral_gap, c.condition_number,
                                              c.stationary.min()),
                                   chain_ladder(model, kernel, np.linspace(0.1, 1.0, 10))))
    gap_min, kappa_max, p_min = min(gaps), max(kappas), min(pmins)
    col = kernel.max_column_mass
    steps = np.ceil(np.log(2.0 * np.sqrt(p_min)) / np.log(1.0 - gap_min))
    term_tv = gap_min * eps / (8.0 * (gap_min * steps + 1.0))
    term_gap = gap_min / (16.0 * np.sqrt(col) * kappa_max)
    mean_nll = float(np.dot(model.prior, model.neg_log_lik))
    terms = [term_tv, term_gap]
    if mean_nll > 0:
        terms.append(mean_nll / 2.0)
    return float(min(terms))


@dataclass
class PipelineResult:
    state: np.ndarray
    schedule: "annealing.AnnealingSchedule"
    model_pert: TargetModel
    eps_internal: float
    walk_applications: int
    oracle_queries: int
    tv_realized: float


def qsa_with_qmci(oracle: LikelihoodOracle, model: TargetModel,
                  kernel: ProposalKernel, eps: float, delta: float, seed: int,
                  mode: str = "emulated", gate_mode: str = "exact") -> PipelineResult:
    """End-to-end annealed preparation of the QMCI-perturbed posterior.

    Estimates the likelihood table at the internal accuracy, prepares the
    perturbed model's posterior by annealing.prepare, and reports the realized
    TV(P~, P) along with measured walk-operator and oracle-query totals.
    """
    eps_in = internal_accuracy(model, kernel, eps)
    queries_before = oracle.queries
    nll, _ = estimate_nll(oracle, eps_in, delta / 4.0, mode, seed)
    model_pert = model.with_neg_log_lik(nll)
    ledger = QueryLedger()
    schedule, state = annealing.prepare(model_pert, kernel, eps, delta, seed,
                                        gate_mode=gate_mode, ledger=ledger)
    if state is None:
        raise RuntimeError("temperature schedule search failed")

    # each walk-operator application spends one acceptance evaluation: two
    # mean estimations and their uncomputation
    oracle.charge(ledger.total * 4 * estimation_charge(oracle, eps_in, delta / 4.0))
    return PipelineResult(
        state=state, schedule=schedule, model_pert=model_pert, eps_internal=eps_in,
        walk_applications=ledger.total, oracle_queries=oracle.queries - queries_before,
        tv_realized=tv_distance(model_pert.distribution(), model.distribution()))
