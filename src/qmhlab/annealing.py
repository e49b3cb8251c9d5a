"""Annealed state preparation on top of the walk operator.

Pieces: phase gates about a marked state (exact, and QPE-synthesized on a
chain's walk operator from its eigendecomposition), pi/3 amplitude
amplification, overlap estimation by the one median readout, and the temperature-schedule
search with staged state generation, assembled by prepare alone, which returns
a ledger of the walk-operator applications it charged: the gates and overlap
estimation only compute, and the search and generation that run them charge it.
Measurements are simulated by sampling from exactly computed outcome
distributions: phase estimation's is the closed-form Fejer law, so no circuit
or FFT is simulated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .markov import ChainModel, ProposalKernel, TargetModel, build_transition_matrix, chain_ladder
from .qsim import RegisterLayout, WalkOperator, encode_distribution, invariant_subspace

OMEGA_PI3 = np.exp(1j * np.pi / 3)
KEEP_THRESHOLD = np.exp(-2.0)          # schedule keeps overlaps estimated >= e^-2
OVERLAP_GUARANTEE = 9.0 / (10.0 * np.e**2)
NAE_ACCURACY = 1.0 / (10.0 * np.e**2)
GATE_MODES = ("exact", "qpe")          # oracle phase gates, or gates synthesized by QPE


class QueryLedger:
    """Monotone counter of walk-operator (equivalently oracle-layer) applications."""

    def __init__(self):
        self.total = 0
        self.by_tag: dict[str, int] = {}

    def charge(self, n: int, tag: str = "") -> None:
        if n < 0:
            raise ValueError("charge must be nonnegative")
        self.total += int(n)
        self.by_tag[tag] = self.by_tag.get(tag, 0) + int(n)


def gate_plan(phase_gap: float, err: float) -> tuple[int, int]:
    """(t, k) of the cheapest phase gate at per-use error err: k runs of t-ancilla QPE
    kicking omega only when every register reads 0, k (2^t - 1) least with q_t^(k/2) <= err.

    q_t = 1 / (2^t sin(phase_gap / 2))^2 < 1 bounds the all-zero probability
    |alpha_0(theta)|^2 at every eigenphase |theta| >= phase_gap, as |sin(N theta / 2)| <= 1
    and sin(theta / 2) rises on [phase_gap, pi]; a column's error is that probability^(k/2).
    """
    if not (phase_gap > 0 and 0 < err <= 1):
        raise ValueError(f"need phase_gap > 0 and err in (0, 1], not {phase_gap:g} and {err:g}")
    s = math.sin(phase_gap / 2.0)
    t = max(1, math.floor(-math.log2(s)))
    while 2**t * s <= 1.0:                  # the smallest t with q_t < 1
        t += 1
    plans = []                              # (k (2^t - 1), t, k): ties go to the smaller t
    while not plans or 2**t - 1 < min(plans)[0]:    # with k >= 1 no larger t is cheaper
        q = 1.0 / (2**t * s) ** 2
        k = max(1, math.ceil(2.0 * math.log(err) / math.log(q)))
        while q ** (k / 2) > err:           # rounding of the ratio, either way
            k += 1
        while k > 1 and q ** ((k - 1) / 2) <= err:
            k -= 1
        plans.append((k * (2**t - 1), t, k))
        t += 1
    _, t, k = min(plans)
    return t, k


def phase_gate_cost(signed_gap: float, err: float) -> int:
    """Walk-operator applications per synthesized phase gate at per-use error err:
    k runs of QPE and uncompute, 2 (2^t - 1) each.

    The phase gap of the walk operator is arccos of the second-largest
    (signed) transition eigenvalue, so the signed gap sets the resolution.
    """
    t, k = gate_plan(math.acos(1.0 - signed_gap), err)
    return k * 2 * (2**t - 1)


class ExactPhaseGate:
    """omega on the marked state, identity on its complement."""

    def __init__(self, target: np.ndarray, omega: complex):
        target = np.asarray(target, complex)
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target state must be normalized")
        self.target = target
        self.omega = complex(omega)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v + (self.omega - 1.0) * np.vdot(self.target, v) * self.target

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return v + (np.conj(self.omega) - 1.0) * np.vdot(self.target, v) * self.target


# pi = PI_HI + PI_LO to about 1e-26; PI_HI has 33 significant bits, so k/N * PI_HI
# is exact for k < 2^20 and phase/2 - pi k/N keeps its digits near the law's peaks
PI_HI = float.fromhex("0x1.921fb544p+1")
PI_LO = float.fromhex("0x1.0b4611a626331p-33")


def _qpe_outcome_law(phase, t: int, k: np.ndarray) -> np.ndarray:
    """|alpha_k(phase)|^2 of t-ancilla phase estimation, outcomes k on the last axis.

    The Fejer law (sin(N x) / (N sin x))^2 with N = 2^t and x = phase/2 - pi k/N,
    1 where sin x = 0; accurate to rounding for phase in [0, 2 pi).
    """
    N, f = 2**t, k / 2**t
    x = np.subtract.outer(np.asarray(phase, float) / 2.0, PI_HI * f) - PI_LO * f
    s = np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s == 0.0, 1.0, (np.sin(N * x) / (N * s)) ** 2)


def _qpe_outcome_distributions(phase, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized t-ancilla phase-estimation outcome distributions at +phase and -phase,
    outcomes on the last axis (one row per phase of an array).

    The -phase one is the +phase one mirrored: minus[k] = plus[-k mod 2^t].
    """
    plus = _qpe_outcome_law(phase, t, np.arange(2**t))
    plus /= plus.sum(axis=-1, keepdims=True)
    return plus, np.roll(plus[..., ::-1], 1, axis=-1)


def sample_folded_outcomes(theta, t: int, u):
    """Outcomes m = min(k, 2^t - k), estimating theta as pi m / 2^t, of the runs u draws.

    A run is t-ancilla phase estimation on an even mix of the two-reflection
    rotation's eigenvectors (eigenphases +-2 theta).  It spends one pair of u (shape
    theta's + (runs, 2)): the first picks the eigenvector, the second the outcome k by
    inverse CDF, as ``rng.choice(2**t, p=dist)`` does.  Also returned: a function building
    the one-run CDF of m, P(m <= j) for j = 0..2^(t-1); m and the CDF lead with theta's axes.
    """
    N = 2**t
    u = np.asarray(u, float)
    if u.ndim != np.ndim(theta) + 2 or u.shape[:-2] + u.shape[-1:] != np.shape(theta) + (2,):
        raise ValueError(f"uniforms {u.shape} do not fit angles {np.shape(theta)} + (runs, 2)")
    law, minus = _qpe_outcome_distributions(2.0 * np.asarray(theta, float), t)
    plus, minus = (np.cumsum(d, axis=-1).reshape(-1, N) for d in (law, minus))
    k = np.reshape([np.where(v[:, 0] < 0.5, (p / p[-1]).searchsorted(v[:, 1], side="right"),
                             (q / q[-1]).searchsorted(v[:, 1], side="right"))
                    for p, q, v in zip(plus, minus, u.reshape(len(plus), -1, 2))], u.shape[:-1])
    # either eigenvector gives m the same law; outcome N - j folds onto j
    edge = np.zeros(law.shape[:-1] + (1,))
    return np.minimum(k, N - k), lambda: np.cumsum(law[..., :N // 2 + 1] + np.concatenate(
        [edge, law[..., :N // 2:-1], edge], axis=-1), axis=-1)


def binomial_sf(k: int, n: int, p):
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


@functools.lru_cache(maxsize=None)
def median_runs(delta: float, success: float) -> int:
    """The fewest odd runs n whose median fails with weight at most delta when each run
    succeeds with probability at least success: P(Binomial(n, success) <= n // 2) <= delta.

    The median of an odd count of runs is one run's value, and it misses an interval
    only when over half the runs do (Jerrum, Valiant & Vazirani, TCS 43, 1986); the tail
    is read as P(more than n // 2 failures) at the failure probability 1 - success.
    """
    if not (0 < delta < 1 and 0.5 < success <= 1):
        raise ValueError(f"need delta in (0, 1) and success in (1/2, 1], not {delta:g} and "
                         f"{success:g}")
    n = 1
    while binomial_sf(n // 2, n, 1.0 - success) > delta:
        n += 2
    return n


# A run of median_estimate reads outcome k of t-ancilla QPE at eigenphase +-2 theta and
# estimates theta by pi m / N, m = min(k, N - k), N = 2^t.  Folding is 1-Lipschitz in the
# circular distance, so |pi m / N - theta| <= pi |k - b| / N with b = N theta / pi, and
# cos^2 and sin^2 move by at most their angle's move.  With t = ceil(log2(2 pi / eps)) + 3,
# eps N / pi >= 16: a run is within eps whenever k is within 16 of b, as it is whenever k is
# within e = 15 of b's t-bit truncation floor(b).  Cleve, Ekert, Macchiavello & Mosca
# (arXiv:quant-ph/9708016) bound P(|k - floor(b)| > e) <= 1 / (2 (e - 1)) in circular
# distance, so a run succeeds with probability at least 1 - 1/28.
MEDIAN_RUN_SUCCESS = 27.0 / 28.0


def median_estimate(theta: float, amplitude, eps: float, delta: float,
                    seed: int) -> tuple[float, int]:
    """Median of amplitude(pi m / 2^t)^2 over runs m of sample_folded_outcomes at theta,
    t = ceil(log2(2 pi / eps)) + 3, on default_rng(seed).random((runs, 2)); and reflections.

    Each run is within eps of amplitude(theta)^2 with probability at least
    MEDIAN_RUN_SUCCESS, so median_runs(delta, MEDIAN_RUN_SUCCESS) runs put the median
    within eps but with weight at most delta.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must be in (0, 1)")
    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    N = 2**t
    runs = median_runs(delta, MEDIAN_RUN_SUCCESS)
    m, _ = sample_folded_outcomes(theta, t, np.random.default_rng(seed).random((runs, 2)))
    # float_power calls pow like a scalar ** 2; an array ** 2 squares (last bit differs)
    estimate = float(np.median(np.float_power(amplitude(np.pi * m / N), 2)))
    # each Grover step is two reflections; QPE uses 2^t - 1 steps per run
    return estimate, runs * (N - 1) * 2


class QpePhaseGate:
    """Phase gate about the chain's stationary state |pi>, via QPE on its walk operator U.

    k runs of t-ancilla phase estimation, (t, k) from gate_plan at per-use error
    err, a phase omega kicked only when every register reads 0, and
    uncomputation, with the ancillas projected back onto |0>, leave one
    coefficient 1 + (omega - 1) |alpha_0(theta)|^(2k) per eigenphase theta of U
    (the residual bounds the leaked norm, at most err off |pi>).
    On the invariant subspace K, with basis B = [A O, partners] from the
    chain's eigenpairs, U has phase 0 on |pi> and +-arccos(lambda_j) on each
    other eigenvalue's plane, so the gate scales B's columns.  On K's
    complement R = -I and U = -G: U = 1 where G = -1, kicked by exactly omega.
    """

    def __init__(self, chain: ChainModel, omega: complex, err: float):
        layout = RegisterLayout.for_kernel(chain.kernel)
        self.t, self.k = gate_plan(math.acos(1.0 - chain.signed_gap), err)
        self.omega = complex(omega)
        self._walk = WalkOperator(chain.model, layout)   # built once per gate
        self._basis, pair = invariant_subspace(self._walk.core(layout.reference_states()),
                                               layout, chain)
        gram = self._basis.conj().T @ self._basis
        if np.linalg.norm(gram - np.eye(len(gram))) > 1e-10:
            raise ValueError("invariant-subspace basis is not orthonormal")

        lam, _ = chain.eigenpairs                        # pair indexes these per column
        theta = np.arccos(np.clip(lam, -1.0, 1.0))
        theta[-1] = 0.0                                  # the unit eigenvalue: |pi>
        # <0| W' D W |0> over k registers, +-theta alike: omega - 1 extra when all read 0
        law0 = _qpe_outcome_law(theta, self.t, np.zeros(1))[:, 0]
        survived = 1.0 + (self.omega - 1.0) * law0**self.k
        ideal = np.append(np.ones(len(theta) - 1), self.omega)
        err = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.real(np.conj(ideal) * survived)))
        self._coeff, self.residuals = survived[pair], err[pair]

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B^dagger v, and (v_c - G v_c) / 2: v's part outside K where U = 1."""
        w = self._basis.conj().T @ v
        v_c = v - self._basis @ w
        return w, (v_c - self._walk.core(v_c[:, None])[:, 0]) / 2.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        w, p = self._split(v)
        return v + self._basis @ ((self._coeff - 1.0) * w) + (self.omega - 1.0) * p

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        w, p = self._split(v)
        return (v + self._basis @ ((np.conj(self._coeff) - 1.0) * w)
                + (np.conj(self.omega) - 1.0) * p)

    def error_bound(self, v: np.ndarray) -> float:
        """||gate (v x |0>) - (ideal v) x |0>||, ideal the phase gate about |pi> alone."""
        w, p = self._split(v)
        return float(np.sqrt(np.sum(np.abs(w) ** 2 * self.residuals**2)
                             + abs(self.omega - 1.0) ** 2 * np.vdot(p, p).real))


def pi3_amplify(R1, R2, m: int, start: np.ndarray) -> np.ndarray:
    """Apply the depth-m recursive amplifier U_m to the start state.

    U_0 = I and U_{m+1} = U_m R1 U_m^-1 R2 U_m, with both gates carrying the
    phase e^{i pi/3}.  With exact gates and starting overlap p onto R2's
    target, the output overlap is at least 1 - (1-p)^(3^m).
    """
    if m < 0:
        raise ValueError("recursion depth must be nonnegative")
    return _amplify(R1, R2, m, start, False)


# module-level rather than a closure over R1 and R2: a recursive inner function
# forms a reference cycle that keeps both gates (a D x (2n - 1) basis each for
# QPE gates) alive until the cyclic collector runs
def _amplify(R1, R2, depth: int, v: np.ndarray, inverse: bool) -> np.ndarray:
    """U_depth v, or U_depth^-1 v: the same recursion with inverted gates in mirrored order."""
    if depth == 0:
        return v
    first, second = (R1.apply_inverse, R2.apply_inverse) if inverse else (R2.apply, R1.apply)
    v = _amplify(R1, R2, depth - 1, v, inverse)
    v = first(v)
    v = _amplify(R1, R2, depth - 1, v, not inverse)
    v = second(v)
    return _amplify(R1, R2, depth - 1, v, inverse)


def pi3_overlap_bound(p: float, m: int) -> float:
    return 1.0 - (1.0 - p) ** (3**m)


def nae_overlap(state: np.ndarray, target: np.ndarray, eps: float, delta: float,
                seed: int) -> tuple[float, int]:
    """Estimate |<target|state>|^2 to accuracy eps, restoring the state, and the reflections spent.

    Simulates phase estimation on the two-reflection rotation: the input
    splits evenly between the rotation's two eigenvectors with eigenphases
    +-2 theta, cos(theta) = |<target|state>|, read out by median_estimate.
    """
    overlap = abs(np.vdot(target / np.linalg.norm(target),
                          state / np.linalg.norm(state)))
    return median_estimate(float(np.arccos(np.clip(overlap, 0.0, 1.0))), np.cos, eps, delta,
                           seed)


@dataclass
class AnnealingSchedule:
    """Temperature ladder with its recorded overlap estimates; the ledger holds its cost."""

    betas: tuple[float, ...]
    overlaps: tuple[float, ...]
    success: bool
    l_max: int

    def __post_init__(self):
        if self.success:
            if list(self.betas) != sorted(set(self.betas)):
                raise ValueError("temperatures must be strictly increasing")
            if self.betas[0] != 0.0 or self.betas[-1] != 1.0:
                raise ValueError("schedule must run from beta=0 to beta=1")
            if len(self.betas) - 1 > self.l_max:
                raise ValueError("schedule longer than l_max")
            if any(o < OVERLAP_GUARANTEE for o in self.overlaps):
                raise ValueError("recorded overlap below the success threshold")


def stage_count_limit(mean_nll: float) -> int:
    """ceil(sqrt(Lbar log Lbar)); at least 1 stage for small Lbar."""
    if mean_nll <= 0:
        return 1
    return max(1, int(np.ceil(np.sqrt(mean_nll * max(np.log(mean_nll), 1.0)))))


def qsa_schedule(model: TargetModel, kernel: ProposalKernel, signed_gap: float,
                 eta: float, seed: int, ledger: QueryLedger) -> AnnealingSchedule:
    """Search the temperature ladder by overlap-thresholded binary search.

    Each candidate overlap |<P_beta|P_beta'>|^2 is estimated nondestructively
    to accuracy 1/(10 e^2) with per-call failure budget delta_nae = eta/(l_max L_max);
    a step is kept when the estimate is at least e^-2, so true kept overlaps
    are at least 9/(10 e^2).  The search resolves beta to min(1/L_max, 1/2).
    Failure is reported as success=False; the ledger is charged "schedule" per estimate,
    its R reflections each a phase gate at error delta_nae / R, so the gates of the
    whole search fail with weight at most eta too.
    """
    L = model.neg_log_lik
    mean_nll = float(np.dot(model.prior, L))
    l_max = stage_count_limit(mean_nll)
    if mean_nll == 0:
        return AnnealingSchedule(betas=(0.0, 1.0), overlaps=(1.0,), success=True, l_max=l_max)
    L_max = float(L.max())
    precision = min(1.0 / L_max, 0.5)
    delta_nae = min(0.49, eta / (l_max * max(L_max, 1.0)))
    rng = np.random.default_rng(seed)

    def estimate(b1, b2):
        state, target = (np.sqrt(model.with_beta(b).distribution()).astype(complex)
                         for b in (b1, b2))
        est, reflections = nae_overlap(state, target, NAE_ACCURACY, delta_nae,
                                       seed=int(rng.integers(2**63)))
        ledger.charge(reflections * phase_gate_cost(signed_gap, delta_nae / reflections),
                      "schedule")
        return est

    def result(success):
        return AnnealingSchedule(betas=tuple(betas), overlaps=tuple(overlaps), success=success,
                                 l_max=l_max)

    betas = [0.0]
    overlaps: list[float] = []
    while betas[-1] < 1.0:
        if len(betas) - 1 >= l_max:
            return result(False)
        b = betas[-1]
        est_full = estimate(b, 1.0)
        if est_full >= KEEP_THRESHOLD:
            betas.append(1.0)
            overlaps.append(est_full)
            continue
        lo, hi = b, 1.0
        est_lo = None
        while hi - lo > precision:
            mid = 0.5 * (lo + hi)
            est_mid = estimate(b, mid)
            if est_mid >= KEEP_THRESHOLD:
                lo, est_lo = mid, est_mid
            else:
                hi = mid
        if est_lo is None:
            # even one precision step loses too much overlap
            return result(False)
        betas.append(lo)
        overlaps.append(est_lo)
    return result(True)


def amplification_depth(p: float, stage_eps: float) -> int:
    """Smallest m with (1-p)^(3^m) <= stage_eps^2."""
    m = 0
    while (1.0 - p) ** (3**m) > stage_eps**2 and m < 12:
        m += 1
    return m


def qsa_generate(schedule: AnnealingSchedule, model: TargetModel,
                 kernel: ProposalKernel, eps: float, mode: str = "exact", *,
                 ledger: QueryLedger) -> np.ndarray:
    """Walk the schedule with pi/3 amplification, stage accuracy eps / #stages.

    Both modes build the schedule's chains as one ladder and one gate from each
    chain in turn: in exact mode an oracle phase gate about its stationary
    state, in qpe mode one synthesized from its walk operator.  Every stage's
    depth m is fixed up front; its 3^m - 1 gate uses each get error
    eps_stage / (3^m - 1), and a gate serving two stages the smaller, so the
    gates add at most eps to the amplifiers' own eps.  The ledger is charged
    "generate" per stage: U_m uses each of its two gates (3^m - 1) / 2 times,
    priced at their chains' signed gaps and errors alike.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, not {eps:g}")
    if not schedule.success:
        raise ValueError("cannot generate from a failed schedule")
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}")
    layout = RegisterLayout.for_kernel(kernel)
    n_stages = len(schedule.betas) - 1
    depths = [amplification_depth(max(OVERLAP_GUARANTEE, min(1.0, o - NAE_ACCURACY)),
                                  eps / n_stages) for o in schedule.overlaps]
    # per-use budget of each stage (1, the most a gate takes, at depth 0: no uses);
    # gate j serves stages j - 1 and j
    budget = [min(1.0, eps / n_stages / (3**m - 1)) if m > 0 else 1.0 for m in depths]
    errs = [min(budget[max(0, j - 1):j + 1]) for j in range(n_stages + 1)]
    state = encode_distribution(model.with_beta(0.0).distribution(), layout)

    def gate(chain, err):
        cost = phase_gate_cost(chain.signed_gap, err)
        if mode == "qpe":
            return QpePhaseGate(chain, OMEGA_PI3, err), cost
        return ExactPhaseGate(encode_distribution(chain.stationary, layout), OMEGA_PI3), cost

    gates = map(gate, chain_ladder(model, kernel, schedule.betas), errs)
    R2, c2 = next(gates)
    for m in depths:
        # stage i's R2 is stage i+1's R1; the older gate is dropped before a new one is built
        R1, c1 = R2, c2
        R2, c2 = next(gates)
        if m > 0:                            # depth 0 applies no gate and charges nothing
            ledger.charge((3**m - 1) // 2 * (c1 + c2), "generate")
        state = pi3_amplify(R1, R2, m, state)
        norm = np.linalg.norm(state)
        if norm > 0:
            state = state / norm
    return state


def prepare(model: TargetModel, kernel: ProposalKernel, eps: float, delta: float, seed: int,
            gate_mode: str = "exact") -> tuple[AnnealingSchedule, np.ndarray | None, QueryLedger]:
    """Schedule search at failure weight delta / 2, priced at the beta = 1 chain's signed
    gap, then generation to accuracy min(0.1, eps / 2): every preparation's one budget rule.
    The search's medians fail with weight at most delta / 2 and its gates' errors sum to
    at most delta / 2, so it fails with weight at most delta; generation's amplifiers and
    gates each add at most min(0.1, eps / 2), so the state is within eps of its target.

    Returns the schedule, the state and the ledger it charged, tagged "schedule" and
    "generate"; a failed search leaves state None and only the "schedule" charge.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, not {eps:g}")
    if gate_mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    ledger = QueryLedger()
    gap = build_transition_matrix(model, kernel).signed_gap
    schedule = qsa_schedule(model, kernel, gap, eta=delta / 2.0, seed=seed, ledger=ledger)
    state = qsa_generate(schedule, model, kernel, eps=min(0.1, eps / 2.0), mode=gate_mode,
                         ledger=ledger) if schedule.success else None
    return schedule, state, ledger
