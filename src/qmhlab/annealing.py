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

from dataclasses import dataclass

import numpy as np

from .markov import ChainModel, ProposalKernel, TargetModel, build_transition_matrix, chain_ladder
from .qsim import RegisterLayout, WalkOperator, encode_distribution, invariant_subspace

OMEGA_PI3 = np.exp(1j * np.pi / 3)
KEEP_THRESHOLD = np.exp(-2.0)          # schedule keeps overlaps estimated >= e^-2
OVERLAP_GUARANTEE = 9.0 / (10.0 * np.e**2)
NAE_ACCURACY = 1.0 / (10.0 * np.e**2)
GATE_DELTA = 0.01                      # QPE failure weight of each synthesized phase gate
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


def qpe_ancilla_count(phase_gap: float, delta: float) -> int:
    """Ancillas so the estimator resolves the phase gap with failure weight delta."""
    t_res = int(np.ceil(np.log2(4.0 * 2.0 * np.pi / phase_gap)))
    t_pad = int(np.ceil(np.log2(2.0 + 1.0 / (2.0 * delta))))
    return t_res + t_pad


def phase_gate_cost(signed_gap: float, delta: float) -> int:
    """Walk-operator applications per synthesized phase gate (QPE + uncompute).

    The phase gap of the walk operator is arccos of the second-largest
    (signed) transition eigenvalue, so the signed gap sets the resolution.
    """
    t = qpe_ancilla_count(float(np.arccos(1.0 - signed_gap)), delta)
    return 2 * (2**t - 1)


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


def sample_folded_outcomes(theta, t: int, runs: int, rng):
    """Outcomes m = min(k, 2^t - k), estimating theta as pi m / 2^t, of `runs` runs.

    A run is t-ancilla phase estimation on an even mix of the two-reflection
    rotation's eigenvectors (eigenphases +-2 theta).  It spends two uniforms: the
    first picks the eigenvector, the second the outcome k by inverse CDF, as
    ``rng.choice(2**t, p=dist)`` does.  Also returned: a function that builds
    the one-run CDF of m, P(m <= j) for j = 0..2^(t-1).  An array of angles
    takes a sequence of generators, one per angle, which draws that angle's
    runs as a lone call would; m and the CDF then lead with theta's axes.
    """
    N = 2**t
    law, minus = _qpe_outcome_distributions(2.0 * np.asarray(theta, float), t)
    plus, minus = (np.cumsum(d, axis=-1).reshape(-1, N) for d in (law, minus))
    gens = [rng] if np.ndim(theta) == 0 else list(rng)
    if len(gens) != len(plus):
        raise ValueError(f"{len(plus)} angles need as many generators, not {len(gens)}")
    k = np.empty((len(plus), runs), int)
    for i, gen in enumerate(gens):
        u = gen.random((runs, 2))
        k[i] = np.where(u[:, 0] < 0.5, (plus[i] / plus[i, -1]).searchsorted(u[:, 1], side="right"),
                        (minus[i] / minus[i, -1]).searchsorted(u[:, 1], side="right"))
    k = k.reshape(np.shape(theta) + (runs,))
    # either eigenvector gives m the same law; outcome N - j folds onto j
    edge = np.zeros(law.shape[:-1] + (1,))
    return np.minimum(k, N - k), lambda: np.cumsum(law[..., :N // 2 + 1] + np.concatenate(
        [edge, law[..., :N // 2:-1], edge], axis=-1), axis=-1)


def median_runs(delta: float) -> int:
    """ceil(12 ln(1/delta)): the runs a median-of-runs estimate takes at failure weight delta."""
    return int(np.ceil(12.0 * np.log(1.0 / delta)))


def median_estimate(theta: float, amplitude, eps: float, delta: float,
                    seed: int) -> tuple[float, int]:
    """Median of amplitude(pi m / 2^t)^2 over median_runs(delta) runs m of sample_folded_outcomes
    at theta, t = ceil(log2(2 pi / eps)) + 3, from default_rng(seed); and their reflections."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must be in (0, 1)")
    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    N = 2**t
    runs = median_runs(delta)
    m, _ = sample_folded_outcomes(theta, t, runs, np.random.default_rng(seed))
    # float_power calls pow like a scalar ** 2; an array ** 2 squares (last bit differs)
    estimate = float(np.median(np.float_power(amplitude(np.pi * m / N), 2)))
    # each Grover step is two reflections; QPE uses 2^t - 1 steps per run
    return estimate, runs * (N - 1) * 2


class QpePhaseGate:
    """Phase gate about the chain's stationary state |pi>, via QPE on its walk operator U.

    Phase estimation, a phase omega kicked onto outcomes below half the phase
    gap, and uncomputation, with the ancillas projected back onto |0>, leave
    one coefficient per eigenphase of U (the residual bounds the leaked norm).
    On the invariant subspace K, with basis B = [A O, partners] from the
    chain's eigenpairs, U has phase 0 on |pi> and +-arccos(lambda_j) on each
    other eigenvalue's plane, so the gate scales B's columns.  On K's
    complement R = -I and U = -G: U = 1 where G = -1, kicked by exactly omega.
    """

    def __init__(self, chain: ChainModel, omega: complex, delta: float):
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        layout = RegisterLayout.for_kernel(chain.kernel)
        phase_gap = float(np.arccos(1.0 - chain.signed_gap))
        self.t = qpe_ancilla_count(phase_gap, delta)
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
        N = 2**self.t
        k = np.arange(N)
        kicked = k[2.0 * np.pi * np.minimum(k, N - k) / N <= phase_gap / 2.0]
        # <0| W' D W |0>, +-theta alike: the law sums to 1, omega - 1 extra on the kicked k
        survived = 1.0 + (self.omega - 1.0) * _qpe_outcome_law(theta, self.t, kicked).sum(-1)
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
    to accuracy 1/(10 e^2) with per-call failure budget eta/(l_max L_max);
    a step is kept when the estimate is at least e^-2, so true kept overlaps
    are at least 9/(10 e^2).  The search resolves beta to min(1/L_max, 1/2).
    Failure is reported as success=False; the ledger is charged "schedule" per estimate.
    """
    L = model.neg_log_lik
    mean_nll = float(np.dot(model.prior, L))
    l_max = stage_count_limit(mean_nll)
    if mean_nll == 0:
        return AnnealingSchedule(betas=(0.0, 1.0), overlaps=(1.0,), success=True, l_max=l_max)
    L_max = float(L.max())
    precision = min(1.0 / L_max, 0.5)
    delta_nae = min(0.49, eta / (l_max * max(L_max, 1.0)))
    refl_cost = phase_gate_cost(signed_gap, delta_nae)
    rng = np.random.default_rng(seed)

    def estimate(b1, b2):
        state, target = (np.sqrt(model.with_beta(b).distribution()).astype(complex)
                         for b in (b1, b2))
        est, reflections = nae_overlap(state, target, NAE_ACCURACY, delta_nae,
                                       seed=int(rng.integers(2**63)))
        ledger.charge(reflections * refl_cost, "schedule")
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
    state, in qpe mode one synthesized from its walk operator, each QPE with failure weight
    GATE_DELTA.  The ledger is charged "generate" per stage: U_m uses each of
    its two gates (3^m - 1) / 2 times, priced at their chains' signed gaps alike.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, not {eps:g}")
    if not schedule.success:
        raise ValueError("cannot generate from a failed schedule")
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}")
    layout = RegisterLayout.for_kernel(kernel)
    n_stages = len(schedule.betas) - 1
    state = encode_distribution(model.with_beta(0.0).distribution(), layout)
    chains = chain_ladder(model, kernel, schedule.betas)

    def next_gate():
        chain = next(chains)
        cost = phase_gate_cost(chain.signed_gap, GATE_DELTA)
        if mode == "qpe":
            return QpePhaseGate(chain, OMEGA_PI3, GATE_DELTA), cost
        return ExactPhaseGate(encode_distribution(chain.stationary, layout), OMEGA_PI3), cost

    R2, c2 = next_gate()
    for i in range(n_stages):
        p = max(OVERLAP_GUARANTEE, min(1.0, schedule.overlaps[i] - NAE_ACCURACY))
        m = amplification_depth(p, eps / n_stages)
        # stage i's R2 is stage i+1's R1; the older gate is dropped before a new one is built
        R1, c1 = R2, c2
        R2, c2 = next_gate()
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
