"""Quantum Monte Carlo mean estimation of the negative log-likelihood.

A LikelihoodOracle holds the term table ell(i, x) whose per-state mean
L_sum(x) feeds the MH target.  qmci_mean estimates that mean, at one state or
over a whole table in one array pass, either by a faithful amplitude-estimation
simulation (small M) or by an emulated deterministic perturbation with the same
accuracy contract and query count; it reports that count and charges no oracle.  The
faithful mode draws each state's runs from annealing's amplitude-estimation
sampler, as overlap and CDF estimation do, and reports the median run's
estimate; its bad-branch mass is two binomial tails at the sampler's one-run
CDF.  A faithful table is simulated a chunk of states at a time, grouped by
ancilla count, so that its (state, outcome) arrays stay within _CHUNK_BYTES.
On top sit the approximate acceptance table, the approximate walk operator
(exactly the walk operator of the perturbed chain), and the full annealing
pipeline with oracle-query totals: only they charge the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import annealing
from .markov import ProposalKernel, TargetModel, acceptance_matrix, chain_ladder, tv_distance
from .qsim import RegisterLayout, WalkOperator

FAITHFUL_MAX_TERMS = 16
_CHUNK_BYTES = 2**21         # bytes per (state, outcome) array of a faithful chunk


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
    return int(poly) * annealing.median_runs(delta)


def estimation_charge(oracle: LikelihoodOracle, eps: float, delta: float) -> int:
    """Queries the mean estimation of one state charges at (eps, delta).

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
    """One estimation's result; over an array of states, estimate, success and
    residual are arrays over those states and queries is their total."""
    estimate: float | np.ndarray
    queries: int
    success: bool | np.ndarray
    residual: float | np.ndarray      # bad-branch probability mass (faithful mode)


def _binomial_sf(k: int, n: int, p):
    """P(X > k) for X ~ Binomial(n, p), at p or at each p of an array, summed term
    by term: the terms run outward from the mode, taken as 1, by their ratios and
    are divided by their sum, so nothing over- or underflows at large n and a
    tiny tail keeps its digits.  Each p takes an (n + 1)-term row."""
    p = np.asarray(p, float)
    col = p.reshape(-1, 1)
    inside = (0.0 < col) & (col < 1.0)
    q = np.where(inside, col, 0.5)
    ratio = (n - np.arange(n)) / np.arange(1, n + 1) * (q / (1.0 - q))   # term j+1 over term j
    j, mode = np.arange(n), np.minimum(((n + 1) * q).astype(int), n)
    # 1 outside each run, so the products start at the mode as a lone p's would
    up = np.cumprod(np.where(j >= mode, ratio, 1.0), axis=1)           # terms mode+1..n
    down = np.divide(1.0, ratio, out=np.ones_like(ratio), where=j < mode)
    down = np.cumprod(down[:, ::-1], axis=1)[:, ::-1]                  # terms 0..mode-1
    one = np.ones_like(q)
    terms = np.hstack([down, one]) * np.hstack([one, up])
    tail = np.where(inside, terms[:, k + 1:].sum(axis=1, keepdims=True)
                    / terms.sum(axis=1, keepdims=True), (col >= 1.0) & (k < n))
    return tail.reshape(p.shape)[()]


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


def qmci_mean(oracle: LikelihoodOracle, x, eps: float, delta: float,
              mode: str, seed: int) -> QmciResult:
    """Estimate L_sum(x) to accuracy eps with failure weight delta, at a state x
    or at each state of a 1-D index array x, in one pass; the oracle is not charged.

    Both modes round the raw estimate at bit b = floor(log2 eps) with
    internal accuracy eps' = 2^(b-1) and budget delta' = delta/4, and report
    the same query count per state.  Emulated mode is deterministic per
    (x, seed); faithful mode draws state x's runs from default_rng([seed, x]),
    so a state's result does not depend on the other states of the call.
    """
    _check_request(eps, delta, mode)
    states = np.atleast_1d(x)
    if np.any((states < 0) | (states >= oracle.n_states)):
        raise ValueError(f"state index {x} outside 0..{oracle.n_states - 1}")
    charge = estimation_charge(oracle, eps, delta)
    faithful = mode == "faithful" and charge > 0
    if faithful and oracle.M > FAITHFUL_MAX_TERMS:
        raise ValueError(f"faithful mode limited to M <= {FAITHFUL_MAX_TERMS}")
    est, success, residual = (_faithful_means(oracle, states, eps, delta, seed) if faithful else
                              (_emulated_means(oracle, states, eps, seed, shortcut=charge == 0),
                               np.ones(len(states), bool), np.zeros(len(states))))
    if np.ndim(x) == 0:
        return QmciResult(float(est[0]), charge, bool(success[0]), float(residual[0]))
    return QmciResult(est, len(states) * charge, success, residual)


def _faithful_means(oracle: LikelihoodOracle, states: np.ndarray, eps: float, delta: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Faithful estimates of L_sum at states, their success flags and bad-branch masses.

    A constant column is its truncated mean.  Every other state runs amplitude
    estimation over its column's range [lo, hi] with t ancillas, enough to
    resolve eps' there and at most 16; the states of one t are simulated
    together, as many per chunk as keep a (state, outcome) array within
    _CHUNK_BYTES.
    """
    truth = oracle.mean_table()[states]
    lo, hi = oracle.table[:, states].min(axis=0), oracle.table[:, states].max(axis=0)
    b = int(np.floor(np.log2(eps)))
    est, success, residual = _truncate(truth, b), np.ones(len(states), bool), np.zeros(len(states))
    live = np.flatnonzero(~(hi - lo < 1e-15))
    span = hi[live] - lo[live]
    theta = np.arcsin(np.sqrt(np.clip((truth[live] - lo[live]) / span, 0.0, 1.0)))
    eps_norm = 2.0 ** (b - 1) / span
    ts = np.minimum(np.ceil(np.log2(2.0 * np.pi / np.minimum(eps_norm, 0.5))).astype(int) + 2, 16)
    runs = annealing.median_runs(delta / 4.0) | 1     # odd: one run is the median
    for t in np.unique(ts):
        # outcome m estimates sin^2(pi m / 2^t); the estimates rise with m, so the
        # good outcomes form one range [g0, g1] (empty when t = 16 cannot resolve eps)
        values = np.round(np.sin(np.pi * np.arange(2 ** (t - 1) + 1) / 2**t) ** 2, 15)
        group = np.flatnonzero(ts == t)
        per_chunk = max(1, _CHUNK_BYTES // (8 * max(2**t, runs + 1)))
        for rows in np.split(group, range(per_chunk, len(group), per_chunk)):
            at, row = live[rows], np.arange(len(rows))
            m, cdf = annealing.sample_folded_outcomes(
                theta[rows], t, runs, [np.random.default_rng([seed, x]) for x in states[at]])
            median = np.median(m, axis=-1).astype(int)
            values_at = _truncate(lo[at, None] + values * span[rows, None], b)
            good = np.abs(values_at - truth[at, None]) <= eps
            g0 = np.where(good.any(axis=1), good.argmax(axis=1), len(values))
            g1 = len(values) - 1 - good[:, ::-1].argmax(axis=1)      # len - 1 when empty
            # the median misses [g0, g1] when over half the runs land below g0, or above g1
            below = np.hstack([np.zeros((len(rows), 1)), cdf()])     # below[:, j] = P(m < j)
            est[at] = values_at[row, median]
            success[at] = (g0 <= median) & (median <= g1)
            residual[at] = (_binomial_sf(runs // 2, runs, below[row, g0])
                            + _binomial_sf(runs // 2, runs, 1.0 - below[row, g1 + 1]))
    return est, success, residual


def estimate_nll(oracle: LikelihoodOracle, eps: float, delta: float,
                 mode: str, seed: int) -> tuple[np.ndarray, float]:
    """Perturbed negative log-likelihood table L~, clipped at zero, and its largest residual.

    One qmci_mean call over every state: in either mode the whole table is
    estimated in one array pass, and nothing is charged.  Emulated L~ is a
    fixed deterministic function, so the perturbed chain is well-defined.  The
    residual is the largest bad-branch mass of the estimations (0 unless faithful).
    """
    res = qmci_mean(oracle, np.arange(oracle.n_states), eps, delta, mode, seed)
    return np.maximum(0.0, res.estimate + oracle.ell0 + oracle.const), float(res.residual.max())


def _estimate_and_charge(oracle: LikelihoodOracle, kernel: ProposalKernel, eps: float,
                         delta: float, seed: int, mode: str):
    """L~, its estimations' largest residual and the pair charge, all supported pairs charged."""
    nll, residual = estimate_nll(oracle, eps, delta, mode, seed)
    charge = estimation_charge(oracle, eps, delta)
    # distinct nonzero torus moves reach distinct other states from every x
    n_pairs = kernel.space.size * sum(any(m) for m, w in zip(kernel.moves, kernel.weights) if w > 0)
    # the per-state estimations, or, when they cost more, each pair's two and their uncompute
    oracle.charge(max(oracle.n_states, 4 * n_pairs) * charge)
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
    TV(P~, P) along with walk-operator and oracle-query totals: the table's estimations,
    then four per walk application, a failed search's too, charged to the oracle.  A
    table whose bad-branch mass exceeds its failure weight delta / 4 raises RuntimeError.
    """
    _check_request(eps, delta, mode)                # before internal_accuracy's ladder
    if gate_mode not in annealing.GATE_MODES:
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    eps_in = internal_accuracy(model, kernel, eps)
    charge = estimation_charge(oracle, eps_in, delta / 4.0)
    nll, residual = estimate_nll(oracle, eps_in, delta / 4.0, mode, seed)
    oracle.charge(oracle.n_states * charge)
    if residual > delta / 4.0:
        raise RuntimeError(f"likelihood table failed: bad-branch mass {residual:.3g} exceeds "
                           f"its failure weight {delta / 4.0:g}")
    model_pert = model.with_neg_log_lik(nll)
    schedule, state, ledger = annealing.prepare(model_pert, kernel, eps, delta, seed,
                                                gate_mode=gate_mode)
    # each walk-operator application spends one acceptance evaluation: two
    # mean estimations and their uncomputation; a failed search's walk too
    oracle.charge(4 * ledger.total * charge)
    if state is None:
        raise RuntimeError("temperature schedule search failed")
    return PipelineResult(
        state=state, schedule=schedule, model_pert=model_pert, eps_internal=eps_in,
        walk_applications=ledger.total,
        oracle_queries=(oracle.n_states + 4 * ledger.total) * charge,
        tv_realized=tv_distance(model_pert.distribution(), model.distribution()))
