"""Credible-interval estimation over prepared posteriors.

Tail-CDF estimation (exact and amplitude-estimation-sampled), the noisy
binary search for equal-tailed credible bounds, the classical percentile
baseline, and a synthetic frequency-domain signal-recovery instance whose
negative log-likelihood is an average of per-mode terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import annealing
from .markov import ChainSample, StateSpace, TargetModel
from .qmci import LikelihoodOracle

GW_FREQ_SPAN = 0.02          # the GW grid's half-widths in frequency and log-amplitude
GW_LOG_AMP_SPAN = 0.6
GW_NOISE_FLOOR = 1.0         # one-sided noise PSD, flat
GW_SIGMA_MARGIN = 1.05       # declared sigma over the largest measured term spread


def cdf_exact(P, space: StateSpace, axis: int, a: float) -> float:
    """Tail mass Phi_P(a) = P({x : x_axis > a}) by enumeration."""
    P = np.asarray(P, float)
    return float(P[space.coordinates(axis, np.arange(space.size)) > a].sum())


@dataclass(frozen=True)
class PosteriorHandle:
    """A posterior to estimate CDFs on, and the oracle cost of preparing it once.

    ``distribution`` is the one CDF estimation reads: every caller passes a
    model's exact distribution, not one decoded from a prepared state, so a
    preparation's TV error does not reach the estimate.  ``prep_queries`` is the
    measured oracle cost of one preparation; the credible-bound search multiplies
    it by the reflections each CDF estimate spent.
    """

    distribution: np.ndarray
    space: StateSpace
    prep_queries: int


def cdf_qmci(handle: PosteriorHandle, axis: int, a: float, eps: float,
             delta: float, seed: int) -> tuple[float, int]:
    """Estimate the tail CDF to eps, and the reflections about the prepared state spent.

    Amplitude estimation runs to eps/3 on handle.distribution, read out by median_estimate,
    whose median_runs(delta, MEDIAN_RUN_SUCCESS) runs each succeed with probability at least
    27/28: one run at a delta of 1/28 or more.
    The caller must keep the preparation's TV error within another eps/3 for the realized
    error against the ideal posterior to stay within 2 eps / 3; nothing here checks it.
    """
    if not 0 < eps < 1:             # median_estimate checks delta and the eps / 3 it is passed
        raise ValueError(f"eps must be in (0, 1), not {eps:g}")
    amp = cdf_exact(handle.distribution, handle.space, axis, a)
    return annealing.median_estimate(float(np.arcsin(np.sqrt(np.clip(amp, 0.0, 1.0)))), np.sin,
                                     eps / 3.0, delta, seed)


@dataclass(frozen=True)
class CredibleQuery:
    axis: int
    alpha: float
    eps: float
    delta: float
    side: str = "upper"

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.eps < self.alpha / 2.0:
            raise ValueError("need 0 < eps < alpha/2")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), not {self.delta:g}")
        if self.side not in ("upper", "lower"):
            raise ValueError("side must be 'upper' or 'lower'")

    @property
    def target(self) -> float:
        """The tail mass sought: alpha/2 for the upper bound, 1 - alpha/2 for the lower."""
        return self.alpha / 2.0 if self.side == "upper" else 1.0 - self.alpha / 2.0

    def tail_error(self, P, space: StateSpace, value: float | None) -> float | None:
        """|Phi_P(value) - target| of a bound on this axis, None where there is none."""
        return None if value is None else abs(cdf_exact(P, space, self.axis, value) - self.target)

    def premise(self, P, space: StateSpace) -> bool:
        """Whether some grid point's tail_error is within eps/3; else no output is contracted."""
        return any(self.tail_error(P, space, v) <= self.eps / 3.0 for v in space.axes[self.axis])


@dataclass(frozen=True)
class CredibleResult:
    value: float | None
    found: bool
    iterations: int
    queries: int


def credible_bound_search(query: CredibleQuery, handle: PosteriorHandle,
                          seed: int) -> CredibleResult:
    """Noisy binary search for a point whose tail CDF is near alpha/2.

    Searches the sorted axis grid; a candidate is accepted when its CDF
    estimate is within 2 eps / 3 of the target tail mass (alpha/2 for the
    upper bound, 1 - alpha/2 for the lower).  Each estimate gets failure
    budget delta/(n_max + 1) with n_max = ceil(log2(n_i - 2)) + 1; exceeding
    n_max iterations or exhausting the bracket ends with no output.
    """
    grid = np.asarray(handle.space.axes[query.axis], float)
    n_i = len(grid)
    if n_i < 3:
        raise ValueError("axis grid too small to search")
    n_max = int(np.ceil(np.log2(n_i - 2))) + 1
    delta_call = query.delta / (n_max + 1)
    rng = np.random.default_rng(seed)
    window = 2.0 * query.eps / 3.0

    queries = 0
    j_lb, j_ub = 0, n_i - 1
    iterations = 0
    while True:
        j_mid = int(np.ceil((j_ub + j_lb) / 2.0))
        est, reflections = cdf_qmci(handle, query.axis, float(grid[j_mid]), query.eps,
                                    delta_call, seed=int(rng.integers(2**63)))
        queries += reflections * handle.prep_queries     # one preparation per reflection
        iterations += 1
        if abs(est - query.target) <= window:
            return CredibleResult(float(grid[j_mid]), True, iterations, queries)
        if est > query.target:
            j_lb = j_mid        # tail too heavy: move right
        else:
            j_ub = j_mid
        if j_ub - j_lb <= 1 or iterations >= n_max:
            return CredibleResult(None, False, iterations, queries)


def classical_credible(sample: ChainSample, space: StateSpace, axis: int,
                       alpha: float) -> tuple[float, float]:
    """Empirical equal-tailed interval from post-burn-in chain samples."""
    vals = space.coordinates(axis, sample.kept)
    lower = float(np.percentile(vals, 100.0 * alpha / 2.0))
    upper = float(np.percentile(vals, 100.0 * (1.0 - alpha / 2.0)))
    return lower, upper


@dataclass
class GwInstance:
    """Synthetic frequency-domain signal-recovery likelihood.

    The model family is a damped sinusoid parameterized by (frequency,
    log-amplitude) on a small grid; data is the injected template plus
    white Gaussian noise.  L(x) = L_sum(x) + ell0(x) + C with L_sum the mean
    of M per-mode terms; sigma is the measured per-state term spread.
    """

    space: StateSpace
    oracle: LikelihoodOracle
    model: TargetModel
    M: int
    sigma: float


def _waveform(freq: float, log_amp: float, M: int, tau: float) -> np.ndarray:
    t = np.arange(M, dtype=float)
    return np.exp(log_amp) * np.exp(-t / tau) * np.sin(2.0 * np.pi * freq * t)


def check_series_length(M: int) -> None:
    """Refuse a series length the signal instance cannot take."""
    if M < 4 or M % 2 != 0:          # M = 2 has no frequency mode, M = 0 no FFT
        raise ValueError(f"M must be even and at least 4, not {M}")


def synth_gw_instance(true_freq: float, true_log_amp: float, M: int, rho: float,
                      seed: int, grid_shape=(4, 4), noiseless: bool = False) -> GwInstance:
    """Build the synthetic instance at series length M and signal strength rho.

    The injected template is rescaled so its matched-filter norm (h*|h*)
    equals rho^2; the per-state term spread then scales as rho sqrt(M).
    """
    check_series_length(M)
    if rho <= 0:
        raise ValueError("rho must be positive")
    rng = np.random.default_rng(seed)
    tau = 64.0                          # fixed damping time, independent of M
    modes = slice(1, M // 2)
    ft = np.fft.rfft

    h_true = _waveform(true_freq, true_log_amp, M, tau)
    h_ft = ft(h_true)[modes]
    # (a|b) = (4/M) sum over the modes of Re(a* b) / S_n, with a flat S_n = GW_NOISE_FLOOR
    scale = rho / np.sqrt((4.0 / M) * float(np.sum((h_ft.conj() * h_ft).real / GW_NOISE_FLOOR)))
    h_true = h_true * scale

    # white noise whose per-mode FT variance is M * GW_NOISE_FLOOR / 2
    noise = np.zeros(M) if noiseless else rng.normal(0.0, np.sqrt(GW_NOISE_FLOOR / 2.0), size=M)
    s = h_true + noise
    s_ft = ft(s)

    freqs = np.linspace(true_freq - GW_FREQ_SPAN, true_freq + GW_FREQ_SPAN, grid_shape[0])
    log_amps = np.linspace(true_log_amp - GW_LOG_AMP_SPAN, true_log_amp + GW_LOG_AMP_SPAN,
                           grid_shape[1])
    space = StateSpace(shape=tuple(grid_shape), axes=(freqs, log_amps))
    n = space.size

    table = np.zeros((M, n))
    ell0 = np.zeros(n)
    for x, (i, j) in enumerate(np.ndindex(*grid_shape)):
        hf = ft(_waveform(freqs[i], log_amps[j], M, tau) * scale)[modes]
        # mean over all M slots of the per-mode terms equals -2 (h|s)
        table[modes, x] = -8.0 * (hf.conj() * s_ft[modes]).real / GW_NOISE_FLOOR
        ell0[x] = (4.0 / M) * float(np.sum((hf.conj() * hf).real / GW_NOISE_FLOOR))

    L_unshifted = table.mean(axis=0) + ell0
    const = -float(L_unshifted.min())
    sigma = float(table.std(axis=0, ddof=0).max()) * GW_SIGMA_MARGIN
    table.flags.writeable = False                    # handed over: the oracle adopts it
    oracle = LikelihoodOracle(table, sigma, ell0=ell0, const=const)

    prior = np.full(n, 1.0 / n)
    model = TargetModel(space=space, prior=prior, neg_log_lik=oracle.full_nll())
    return GwInstance(space=space, oracle=oracle, model=model, M=M, sigma=sigma)


def gw_identity_error(inst: GwInstance) -> float:
    """Max deviation of L from L_sum + ell0 + C, by direct re-evaluation."""
    o = inst.oracle
    direct = o.table.mean(axis=0) + o.ell0 + o.const
    return float(np.max(np.abs(inst.model.neg_log_lik - direct)))
