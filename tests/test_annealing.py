"""Phase gates, pi/3 amplification, overlap estimation, schedule search, and the
one preparation that assembles them."""

import ast
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from qmhlab import annealing, cli, qmci
from qmhlab.annealing import (
    KEEP_THRESHOLD,
    NAE_ACCURACY,
    OMEGA_PI3,
    OVERLAP_GUARANTEE,
    AnnealingSchedule,
    ExactPhaseGate,
    QpePhaseGate,
    QueryLedger,
    amplification_depth,
    gate_plan,
    nae_overlap,
    phase_gate_cost,
    pi3_amplify,
    prepare,
    pi3_overlap_bound,
    qsa_generate,
    qsa_schedule,
    stage_count_limit,
)
from qmhlab.inference import PosteriorHandle, cdf_qmci, synth_gw_instance
from qmhlab.markov import (ProposalKernel, ReducibleChainError, StateSpace, TargetModel,
                           build_transition_matrix)
from qmhlab.qmci import LikelihoodOracle, qsa_with_qmci
from qmhlab.qsim import RegisterLayout, WalkOperator, build_walk_operator, encode_distribution

from conftest import (certified_runs, count_linalg_calls, qpe_estimate_amplitudes, random_instance,
                      torus_cases)

PI3_ATOL = 1e-9


class CountingGate:
    """Identity gate that counts its uses, forward and inverse."""

    def __init__(self):
        self.uses = 0

    def apply(self, v):
        self.uses += 1
        return v

    def apply_inverse(self, v):
        self.uses += 1
        return v


def overlap_pair(p):
    """Two real unit vectors in R^2 with squared overlap p."""
    phi2 = np.array([1.0, 0.0], dtype=complex)
    phi1 = np.array([np.sqrt(p), np.sqrt(1.0 - p)], dtype=complex)
    return phi1, phi2


class TestQueryLedger:
    def test_accumulates_by_tag(self):
        ledger = QueryLedger()
        ledger.charge(5, "a")
        ledger.charge(7, "b")
        ledger.charge(3, "a")
        assert ledger.total == 15
        assert ledger.by_tag.get("a") == 8
        assert ledger.by_tag.get("never", 0) == 0
        with pytest.raises(ValueError):
            ledger.charge(-1)

    def test_keeps_one_total_per_tag(self):
        ledger = QueryLedger()
        for i in range(1000):
            ledger.charge(i, "ab"[i % 2])
        assert ledger.by_tag == {"a": 249500, "b": 250000}
        assert ledger.total == 499500


def all_zero_bound(t, phase_gap):
    """q_t = 1 / (2^t sin(phase_gap / 2))^2, computed as gate_plan computes it."""
    return 1.0 / (2**t * math.sin(phase_gap / 2.0)) ** 2


class TestPhaseGateCost:
    def test_cost_formula(self):
        t, k = gate_plan(np.pi / 3.0, 0.1)
        assert phase_gate_cost(0.5, 0.1) == k * 2 * (2**t - 1)

    def test_cost_grows_as_gap_shrinks(self):
        costs = [phase_gate_cost(g, 0.05) for g in (0.5, 0.1, 0.02)]
        assert costs[0] <= costs[1] <= costs[2]

    def test_cost_grows_as_log_of_inverse_error(self):
        # O(log 1/err), not O(1/err): an error exponent 8 times longer costs at most 9 times more
        costs = [phase_gate_cost(0.025, 10.0**-e) for e in (4, 8, 16, 32)]
        assert costs == sorted(costs) and costs[-1] <= 9 * costs[0]


PLAN_GAPS = [1e-3, 0.03, 0.2241, 0.676, np.pi / 3.0, 2.0, np.pi]
PLAN_ERRS = [1.0, 0.5, 0.1, 1e-3, 1e-9, 1e-30]


class TestGatePlan:
    @pytest.mark.parametrize("phase_gap", PLAN_GAPS)
    def test_all_zero_bound_holds_beyond_the_gap(self, phase_gap):
        # |alpha_0(theta)|^2 <= q_t < 1 for every theta in [phase_gap, pi], and by the
        # mirror for every theta in [pi, 2 pi - phase_gap]
        theta = np.linspace(phase_gap, np.pi, 20001)
        for err in PLAN_ERRS:
            t, k = gate_plan(phase_gap, err)
            q = all_zero_bound(t, phase_gap)
            law0 = annealing._qpe_outcome_law(theta, t, np.zeros(1))[:, 0]
            mirror = annealing._qpe_outcome_law(2.0 * np.pi - theta, t, np.zeros(1))[:, 0]
            assert q < 1.0 and q ** (k / 2) <= err
            assert max(law0.max(), mirror.max()) <= q * (1.0 + 1e-12)

    @pytest.mark.parametrize("phase_gap", PLAN_GAPS)
    def test_matches_brute_force_minimum(self, phase_gap):
        # least k (2^t - 1) over every t up to 24 and k up to 4000, the smaller t on a tie
        for err in PLAN_ERRS:
            best = None
            for t in range(1, 25):
                q = all_zero_bound(t, phase_gap)
                if q >= 1.0:
                    continue
                k = next(k for k in range(1, 4001) if q ** (k / 2) <= err)
                if best is None or k * (2**t - 1) < best[0]:
                    best = (k * (2**t - 1), t, k)
            assert gate_plan(phase_gap, err) == best[1:]

    def test_returns_python_integers(self):
        t, k = gate_plan(0.5, 1e-6)
        assert type(t) is int and type(k) is int

    @pytest.mark.parametrize("phase_gap,err", [(0.0, 0.1), (-0.5, 0.1), (0.5, 0.0),
                                               (0.5, -0.1), (0.5, 1.5), (float("nan"), 0.1),
                                               (0.5, float("nan"))])
    def test_refuses_bad_input(self, phase_gap, err):
        with pytest.raises(ValueError, match="need phase_gap > 0 and err in"):
            gate_plan(phase_gap, err)


class TestExactPhaseGate:
    def test_phase_on_target_identity_elsewhere(self):
        target = np.array([1.0, 0.0], dtype=complex)
        gate = ExactPhaseGate(target, OMEGA_PI3)
        np.testing.assert_allclose(gate.apply(target), OMEGA_PI3 * target,
                                   atol=1e-14)
        perp = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(gate.apply(perp), perp, atol=1e-14)
        np.testing.assert_allclose(
            gate.apply_inverse(gate.apply(perp + target)), perp + target,
            atol=1e-12)


class TestPi3Amplification:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_overlap_matches_closed_form(self, p, m):
        phi1, phi2 = overlap_pair(p)
        R1 = ExactPhaseGate(phi1, OMEGA_PI3)
        R2 = ExactPhaseGate(phi2, OMEGA_PI3)
        out = pi3_amplify(R1, R2, m, phi1)
        overlap = abs(np.vdot(phi2, out)) ** 2
        assert overlap >= pi3_overlap_bound(p, m) - PI3_ATOL
        # with exact gates the bound is attained exactly
        assert overlap == pytest.approx(pi3_overlap_bound(p, m), abs=PI3_ATOL)

    def test_half_depth_one_is_seven_eighths(self):
        phi1, phi2 = overlap_pair(0.5)
        R1 = ExactPhaseGate(phi1, OMEGA_PI3)
        R2 = ExactPhaseGate(phi2, OMEGA_PI3)
        out = pi3_amplify(R1, R2, 1, phi1)
        assert abs(np.vdot(phi2, out)) ** 2 == pytest.approx(0.875, abs=PI3_ATOL)
        assert pi3_overlap_bound(0.5, 1) == pytest.approx(0.875)

    def test_preserves_norm(self):
        phi1, phi2 = overlap_pair(0.3)
        R1 = ExactPhaseGate(phi1, OMEGA_PI3)
        R2 = ExactPhaseGate(phi2, OMEGA_PI3)
        out = pi3_amplify(R1, R2, 2, phi1)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_depth_zero_is_identity(self):
        phi1, phi2 = overlap_pair(0.4)
        R1 = ExactPhaseGate(phi1, OMEGA_PI3)
        R2 = ExactPhaseGate(phi2, OMEGA_PI3)
        np.testing.assert_allclose(pi3_amplify(R1, R2, 0, phi1), phi1, atol=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_inverse_recursion_undoes_forward(self, m):
        rng = np.random.default_rng(m)

        def unit():
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            return v / np.linalg.norm(v)

        R1, R2, v = ExactPhaseGate(unit(), OMEGA_PI3), ExactPhaseGate(unit(), OMEGA_PI3), unit()
        forward = annealing._amplify(R1, R2, m, v, False)
        assert np.max(np.abs(annealing._amplify(R1, R2, m, forward, True) - v)) <= 1e-12
        # against the dense recursion U_{m+1} = U_m R1 U_m^-1 R2 U_m
        G1, G2 = (np.eye(6) + (OMEGA_PI3 - 1.0) * np.outer(R.target, R.target.conj())
                  for R in (R1, R2))
        U = np.eye(6, dtype=complex)
        for _ in range(m):
            U = U @ G1 @ np.linalg.inv(U) @ G2 @ U
        assert np.max(np.abs(forward - U @ v)) <= 1e-12

    def test_query_count_grows_threefold_per_level(self):
        # U_{m+1} applies U_m three times plus two gates, so U_m uses each gate
        # (3^m - 1) / 2 times, apply and apply_inverse alike: the uses qsa_generate
        # charges per stage before amplifying
        uses = []
        for m in range(6):
            R1, R2 = CountingGate(), CountingGate()
            out = pi3_amplify(R1, R2, m, np.ones(2, dtype=complex))
            assert np.array_equal(out, np.ones(2, dtype=complex))
            uses.append((R1.uses, R2.uses))
        assert uses == [((3**m - 1) // 2,) * 2 for m in range(6)]
        assert [a + b for a, b in uses[:4]] == [0, 2, 8, 26]

    def test_gates_freed_without_cyclic_collector(self):
        # QPE gates hold D x (2n - 1) bases: they must go with their last
        # reference, not wait for the cyclic collector
        phi1, phi2 = overlap_pair(0.5)
        R1 = ExactPhaseGate(phi1, OMEGA_PI3)
        R2 = ExactPhaseGate(phi2, OMEGA_PI3)
        refs = [weakref.ref(R1), weakref.ref(R2)]
        gc.disable()
        try:
            pi3_amplify(R1, R2, 2, phi1)
            del R1, R2
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


def law_test_phases(t):
    """Random phases in [0, 2 pi), 0, pi, +-1e-13 and grid phases 2 pi j / 2^t."""
    rng = np.random.default_rng(t)
    N = 2**t
    grid = 2.0 * np.pi * np.unique(np.concatenate([[1, N // 2, N - 1], rng.integers(0, N, 8)])) / N
    return np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 24), [0.0, np.pi, 1e-13, -1e-13], grid])


# largest |closed form - FFT| over law_test_phases(t), measured at 1.1e-15 (t <= 5),
# 1.1e-14 (t <= 8) and 3.7e-14 (t <= 16), times about 3; the FFT's own error dominates,
# as the closed form is within 3.3e-16 of a 40-digit reference at t = 9 to 16
LAW_ATOL = {t: 3e-15 if t <= 5 else 3e-14 if t <= 8 else 1e-13 for t in range(1, 17)}


class TestOutcomeLaw:
    @pytest.mark.parametrize("t", range(1, 17))
    def test_matches_fft_oracle(self, t):
        phases = law_test_phases(t)
        law = annealing._qpe_outcome_law(phases, t, np.arange(2**t))
        oracle = np.abs(qpe_estimate_amplitudes(phases, t)) ** 2
        assert np.max(np.abs(law - oracle)) <= LAW_ATOL[t]

    @pytest.mark.parametrize("t", [1, 2, 5, 9, 13, 16])
    def test_minus_phase_is_the_mirror(self, t):
        N = 2**t
        for phase in law_test_phases(t)[::4]:
            plus, minus = annealing._qpe_outcome_distributions(phase, t)
            assert np.array_equal(minus, plus[-np.arange(N) % N])
            oracle = np.abs(qpe_estimate_amplitudes(-phase, t)) ** 2
            assert np.max(np.abs(minus - oracle / oracle.sum())) <= LAW_ATOL[t]

    def test_matches_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        t, N = 12, 2**12
        with mpmath.workdps(40):
            for phase in (0.7, 2.0 * np.pi * 1234 / N + 1e-9, 5.4):
                ref = []
                for k in range(N):
                    x = mpmath.mpf(phase) / 2 - mpmath.pi * k / N
                    ref.append(float((mpmath.sin(N * x) / (N * mpmath.sin(x))) ** 2))
                law = annealing._qpe_outcome_law(phase, t, np.arange(N))
                assert np.max(np.abs(law - np.array(ref))) <= 1e-15


class SchurPhaseGate:
    """Phase gate about the walk operator's phase-0 eigenstate, via QPE.

    The gate runs k rounds of t-ancilla phase estimation on the walk operator,
    kicks the phase omega when every register reads 0, and uncomputes.  The
    ancilla registers are projected back onto |0> after each application
    (leaked norm is tracked, bounded by the reported per-eigenvector
    residual).  The surviving action is diagonal in the walk operator's
    eigenbasis, so it is precomputed as one dense matrix.
    """

    def __init__(self, walk_op: np.ndarray, omega: complex, err: float, signed_gap: float):
        if signed_gap <= 0:
            raise ValueError("need a positive signed spectral gap")
        self.t, self.k = gate_plan(math.acos(1.0 - signed_gap), err)
        self.omega = complex(omega)
        self.cost = self.k * 2 * (2**self.t - 1)

        T, Z = scipy.linalg.schur(np.asarray(walk_op, complex), output="complex")
        lam = np.diag(T)
        phases = np.angle(lam)

        coeff = np.empty(len(lam), dtype=complex)
        err = np.empty(len(lam))
        cache: dict[float, tuple[complex, float]] = {}
        for j, ph in enumerate(phases):
            key = round(float(ph), 14)
            if key not in cache:
                alpha0 = qpe_estimate_amplitudes(ph, self.t)[0]
                # <0| W' D W |0> over k registers: omega on all-zero, |alpha0|^2 per register
                survived = 1.0 + (self.omega - 1.0) * abs(alpha0) ** (2 * self.k)
                ideal = self.omega if abs(ph) < 1e-12 else 1.0
                e2 = max(0.0, 2.0 - 2.0 * np.real(np.conj(ideal) * survived))
                cache[key] = (complex(survived), float(np.sqrt(e2)))
            coeff[j], err[j] = cache[key]
        self.eigenphases = phases
        self.residuals = err
        self._op = (Z * coeff) @ Z.conj().T
        self._basis = Z

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._op @ v

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return self._op.conj().T @ v

    def error_bound(self, v: np.ndarray) -> float:
        """||gate (v x |0>) - (ideal v) x |0>|| for this input."""
        c = self._basis.conj().T @ v
        return float(np.sqrt(np.sum(np.abs(c) ** 2 * self.residuals**2)))


def gaussian_torus_5x5():
    """5 x 5 torus, radius-1 Gaussian proposal (D = 450), uniform prior,
    L the squared torus distance to the centre cell."""
    space = StateSpace.regular_grid((5, 5))
    cells = np.array(np.unravel_index(np.arange(space.size), (5, 5))).T
    dist = np.minimum(np.abs(cells - 2), 5 - np.abs(cells - 2))
    model = TargetModel(space=space, prior=np.full(space.size, 1.0 / space.size),
                        neg_log_lik=(dist**2).sum(axis=1).astype(float))
    return model, ProposalKernel.gaussian(space, width=1.0, radius=1)


def uniform_ring8(beta=0.0):
    """ring8 at inverse temperature beta; at beta = 0 it is bipartite, so W has
    eigenvalue -1, and at small beta one within about 2 beta of it."""
    space = StateSpace.regular_grid((8,))
    nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
    model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=nll - nll.min())
    return model.with_beta(beta), ProposalKernel.nearest_neighbor(space)


def _irreducible(model, kernel):
    try:
        build_transition_matrix(model, kernel)
    except ReducibleChainError:
        return False
    return True


ORACLE_CASES = ([(f"random-{s}",) + random_instance(s) for s in range(40)]
                + [c for c in torus_cases() if _irreducible(c[1], c[2])]
                + [("uniform-ring8",) + uniform_ring8()]
                + [("ring8-beta-1e-6",) + uniform_ring8(1e-6)])


class TestQpePhaseGate:
    def build_gate(self, model, kernel, err):
        layout = RegisterLayout.for_kernel(kernel)
        chain = build_transition_matrix(model, kernel)
        gate = QpePhaseGate(chain, OMEGA_PI3, err)
        return gate, layout, chain

    @pytest.mark.parametrize("name,model,kernel", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_schur_oracle(self, name, model, kernel):
        gate, layout, chain = self.build_gate(model, kernel, 0.05)
        oracle = SchurPhaseGate(build_walk_operator(model, kernel, layout), OMEGA_PI3,
                                0.05, chain.signed_gap)
        assert (gate.t, gate.k) == (oracle.t, oracle.k)
        assert phase_gate_cost(chain.signed_gap, 0.05) == oracle.cost
        # nothing D x D: the basis of the invariant subspace is the largest array
        assert gate._basis.shape[1] <= 2 * layout.space_dim - 1
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
            assert np.max(np.abs(gate.apply(v) - oracle.apply(v))) <= 1e-12
            assert np.max(np.abs(gate.apply_inverse(v) - oracle.apply_inverse(v))) <= 1e-12

    @pytest.mark.parametrize("name,model,kernel", ORACLE_CASES[::4],
                             ids=[c[0] for c in ORACLE_CASES[::4]])
    def test_kicked_window_matches_full_law(self, name, model, kernel):
        # the kicked window is the all-zero outcome of each of the k registers
        gate, _, chain = self.build_gate(model, kernel, 0.05)
        lam, _ = chain.eigenpairs
        theta = np.arccos(np.clip(lam, -1.0, 1.0))
        theta[-1] = 0.0
        full = annealing._qpe_outcome_law(theta, gate.t, np.arange(2**gate.t))
        expected = 1.0 + (OMEGA_PI3 - 1.0) * full[:, 0] ** gate.k
        assert np.max(np.abs(gate._coeff[:len(theta)] - expected)) <= 1e-14
        assert gate._coeff[len(theta) - 1] == OMEGA_PI3      # |pi> gets exactly omega

    @pytest.mark.parametrize("err", [0.1, 0.05, 0.02, 1e-6])
    def test_residuals_within_budget(self, two_state_gap_half, err):
        # each column's residual is its amplitude error |alpha_0|^k <= q_t^(k/2) <= err
        model, kernel = two_state_gap_half
        gate, _, _ = self.build_gate(model, kernel, err)
        assert float(gate.residuals.max()) <= err

    @pytest.mark.parametrize("name,model,kernel", ORACLE_CASES[::3],
                             ids=[c[0] for c in ORACLE_CASES[::3]])
    def test_error_bound_within_err_on_the_invariant_subspace(self, name, model, kernel):
        # on K every column is within err, so a unit vector of K is too
        rng = np.random.default_rng(1)
        for err in (0.3, 0.01, 1e-7):
            gate, layout, chain = self.build_gate(model, kernel, err)
            assert float(gate.residuals.max()) <= err
            for _ in range(3):
                c = np.array([1.0, 1j]) @ rng.normal(size=(2, gate._basis.shape[1]))
                v = gate._basis @ (c / np.linalg.norm(c))
                assert gate.error_bound(v) <= err
            assert gate.error_bound(encode_distribution(chain.stationary, layout)) <= 1e-12

    def test_kicks_phase_on_stationary_state(self, two_state_gap_half):
        model, kernel = two_state_gap_half
        gate, layout, chain = self.build_gate(model, kernel, 0.02)
        v = encode_distribution(chain.stationary, layout)
        out = gate.apply(v)
        assert np.linalg.norm(out - OMEGA_PI3 * v) <= gate.error_bound(v) + 1e-10
        assert gate.error_bound(v) <= 0.02

    def test_error_bound_certifies_reflection_about_stationary_state(self):
        # U has many phase-0 eigenvectors outside the invariant subspace; the
        # gate kicks them, the reflection about |pi> does not
        model, kernel = gaussian_torus_5x5()
        gate, layout, chain = self.build_gate(model, kernel, 0.01)
        ideal = ExactPhaseGate(encode_distribution(chain.stationary, layout), OMEGA_PI3)
        rng = np.random.default_rng(0)
        v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        v /= np.linalg.norm(v)
        for act, act_ideal in ((gate.apply, ideal.apply),
                               (gate.apply_inverse, ideal.apply_inverse)):
            assert np.linalg.norm(act(v) - act_ideal(v)) <= gate.error_bound(v) + 1e-10

    def test_bit_equal_across_memory_alignments(self):
        # the same inputs, or a model with the same arrays, placed at another
        # offset mod 64 bytes must give the same gate to the last bit
        def at_offset(a, off):
            buf = np.empty(a.nbytes + 128, dtype=np.uint8)
            start = (-buf.ctypes.data) % 64 + off
            out = buf[start:start + a.nbytes].view(a.dtype)
            out[:] = a
            return out

        model, kernel = gaussian_torus_5x5()
        gate, layout, _ = self.build_gate(model, kernel, 0.01)
        rng = np.random.default_rng(0)
        v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        out, back = gate.apply(at_offset(v, 0)), gate.apply_inverse(at_offset(v, 0))
        for off in (8, 16, 32, 48):
            assert np.array_equal(gate.apply(at_offset(v, off)), out)
            assert np.array_equal(gate.apply_inverse(at_offset(v, off)), back)
            moved = TargetModel(space=model.space, prior=at_offset(model.prior, off),
                                neg_log_lik=at_offset(model.neg_log_lik, off))
            moved_chain = build_transition_matrix(moved, kernel)
            assert np.array_equal(QpePhaseGate(moved_chain, OMEGA_PI3, 0.01).apply(v),
                                  gate.apply(v))

    def test_builds_walk_factors_once(self, monkeypatch):
        # apply, apply_inverse and error_bound reuse the walk operator built
        # with the gate, and give what a separately built operator's core gives
        built = []

        class Counted(WalkOperator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(annealing, "WalkOperator", Counted)
        model, kernel = gaussian_torus_5x5()
        gate, layout, _ = self.build_gate(model, kernel, 0.01)
        walk = WalkOperator(model, layout)          # not the counted class
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
            w = gate._basis.conj().T @ v
            v_c = v - gate._basis @ w
            p = (v_c - walk.core(v_c[:, None])[:, 0]) / 2.0
            assert np.array_equal(gate.apply(v), v + gate._basis @ ((gate._coeff - 1.0) * w)
                                  + (gate.omega - 1.0) * p)
            assert np.array_equal(gate.apply_inverse(v),
                                  v + gate._basis @ ((np.conj(gate._coeff) - 1.0) * w)
                                  + (np.conj(gate.omega) - 1.0) * p)
            gate.error_bound(v)
        assert len(built) == 1

    def test_one_eigh_per_chain(self, monkeypatch):
        # the chain takes its values-only spectrum, then the gate one eigh for
        # the basis and coefficients; applying the gate solves nothing more
        model, kernel = gaussian_torus_5x5()
        calls = count_linalg_calls(monkeypatch, "eigh", "eigvalsh")
        chain = build_transition_matrix(model, kernel)
        assert calls == {"eigh": 0, "eigvalsh": 1}
        gate = QpePhaseGate(chain, OMEGA_PI3, 0.01)
        assert calls == {"eigh": 1, "eigvalsh": 1}
        v = np.ones(len(gate._basis), dtype=complex)
        gate.apply_inverse(gate.apply(v))
        gate.error_bound(v)
        assert calls == {"eigh": 1, "eigvalsh": 1}

    def test_inverse_composes_to_identity_within_residual(self, ring8):
        model, kernel = ring8
        gate, layout, _ = self.build_gate(model, kernel, 0.05)
        rng = np.random.default_rng(0)
        v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        v /= np.linalg.norm(v)
        back = gate.apply_inverse(gate.apply(v))
        assert np.linalg.norm(back - v) <= 2.0 * 0.05 + 1e-9

    def test_charges_per_application(self, two_state_gap_half):
        # the price generation charges per use is the gate's own k QPEs and uncomputes
        model, kernel = two_state_gap_half
        chain = build_transition_matrix(model, kernel)
        for err in (0.1, 1e-9):
            gate = QpePhaseGate(chain, OMEGA_PI3, err)
            assert phase_gate_cost(chain.signed_gap, err) == gate.k * 2 * (2**gate.t - 1)

    def test_rejects_nonpositive_gap(self, two_state_gap_half):
        # exp(-900) underflows: state 1 has no mass, so the chain is refused
        # (ReducibleChainError, a ValueError) before any gate can take its gap
        model, kernel = two_state_gap_half
        with pytest.raises(ValueError):
            QpePhaseGate(build_transition_matrix(model.with_neg_log_lik([0.0, 900.0]), kernel),
                         OMEGA_PI3, 0.1)

    def test_reads_layout_and_walk_from_its_chain(self, monkeypatch):
        # the gate builds no chain: the one it is handed gives it the kernel and the model
        model, kernel = gaussian_torus_5x5()
        chain = build_transition_matrix(model.with_beta(0.5), kernel)
        walks = []

        class Recorded(WalkOperator):
            def __init__(self, model, layout):
                walks.append((model, layout))
                super().__init__(model, layout)

        monkeypatch.setattr(annealing, "WalkOperator", Recorded)
        monkeypatch.setattr(annealing, "build_transition_matrix", None)
        monkeypatch.setattr(annealing, "chain_ladder", None)
        gate = QpePhaseGate(chain, OMEGA_PI3, 0.01)
        [(walk_model, layout)] = walks
        assert walk_model is chain.model and walk_model.beta == 0.5
        expected = RegisterLayout.for_kernel(kernel)
        assert layout.moves == expected.moves and np.array_equal(layout.weights, expected.weights)
        assert (gate.t, gate.k) == gate_plan(math.acos(1.0 - chain.signed_gap), 0.01)


def nae_overlap_reference(state, target, eps, delta, seed):
    """The per-run loop nae_overlap replaced: one rng.random and one rng.choice per run,
    at the certified run count."""
    rng = np.random.default_rng(seed)
    overlap = abs(np.vdot(target / np.linalg.norm(target),
                          state / np.linalg.norm(state)))
    theta = float(np.arccos(np.clip(overlap, 0.0, 1.0)))

    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    N = 2**t
    runs = certified_runs(delta, 27 / 28)
    dist_plus = np.abs(qpe_estimate_amplitudes(2.0 * theta, t)) ** 2
    dist_minus = np.abs(qpe_estimate_amplitudes(-2.0 * theta, t)) ** 2
    dist_plus /= dist_plus.sum()
    dist_minus /= dist_minus.sum()

    estimates = np.empty(runs)
    for r in range(runs):
        dist = dist_plus if rng.random() < 0.5 else dist_minus
        k = int(rng.choice(N, p=dist))
        phi = 2.0 * np.pi * min(k, N - k) / N
        estimates[r] = np.cos(phi / 2.0) ** 2
    return float(np.median(estimates))


def sample_half_angles_before_the_sampler(theta, eps, delta, rng):
    """sample_half_angles as it was before its draw moved into sample_folded_outcomes, at the
    certified run count."""
    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    N = 2**t
    runs = certified_runs(delta, 27 / 28)
    plus, minus = (np.cumsum(d) for d in annealing._qpe_outcome_distributions(2.0 * theta, t))
    u = rng.random((runs, 2))
    k = np.where(u[:, 0] < 0.5, (plus / plus[-1]).searchsorted(u[:, 1], side="right"),
                 (minus / minus[-1]).searchsorted(u[:, 1], side="right"))
    # each Grover step is two reflections; QPE uses 2^t - 1 steps per run
    return np.pi * np.minimum(k, N - k) / N, runs * (N - 1) * 2


def sample_half_angles_before_the_readout(theta, eps, delta, rng):
    """sample_half_angles as it was before median_estimate took over its readers' medians."""
    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    N = 2**t
    runs = annealing.median_runs(delta, annealing.MEDIAN_RUN_SUCCESS)
    m, _ = annealing.sample_folded_outcomes(theta, t, runs, rng)
    # each Grover step is two reflections; QPE uses 2^t - 1 steps per run
    return np.pi * m / N, runs * (N - 1) * 2


def test_median_estimate_is_the_half_angle_readout():
    # the median of cos^2 (overlap) or sin^2 (CDF) of both earlier half-angle samplers,
    # drawn from default_rng(seed): estimate and reflections bit for bit
    rng = np.random.default_rng(13)
    for seed in range(200):
        theta = float(rng.choice([0.0, np.pi / 2, rng.uniform(0.0, np.pi / 2)]))
        eps = float(rng.choice([0.3, 0.1, NAE_ACCURACY, 0.02, 0.004]))
        delta = float(rng.uniform(0.01, 0.45))
        amplitude = (np.cos, np.sin)[seed % 2]
        got = annealing.median_estimate(theta, amplitude, eps, delta, seed)
        for sampler in (sample_half_angles_before_the_readout,
                        sample_half_angles_before_the_sampler):
            angles, reflections = sampler(theta, eps, delta, np.random.default_rng(seed))
            assert got == (float(np.median(np.float_power(amplitude(angles), 2))), reflections)


def parent_readout_outcomes(theta, eps, delta, seed):
    """The folded outcomes median_estimate drew when every median took ceil(12 ln(1/delta))
    runs, and their t."""
    t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
    runs = int(np.ceil(12.0 * np.log(1.0 / delta)))
    return annealing.sample_folded_outcomes(theta, t, runs, np.random.default_rng(seed))[0], t


def test_certified_runs_are_a_prefix_of_the_parent_runs():
    # each run draws one row of rng.random((runs, 2)), so fewer runs from the same seed
    # are the parent's leading runs, and the median is taken over them
    rng = np.random.default_rng(29)
    for seed in range(200):
        theta = float(rng.choice([0.0, np.pi / 2, rng.uniform(0.0, np.pi / 2)]))
        eps = float(rng.choice([0.3, 0.1, NAE_ACCURACY, 0.02]))
        delta = float(rng.choice([rng.uniform(1e-4, 0.45), 1.19e-3, 1e-12]))
        amplitude = (np.cos, np.sin)[seed % 2]
        parent, t = parent_readout_outcomes(theta, eps, delta, seed)
        runs = annealing.median_runs(delta, annealing.MEDIAN_RUN_SUCCESS)
        assert runs < len(parent)
        m = parent[:runs]
        assert annealing.median_estimate(theta, amplitude, eps, delta, seed) == (
            float(np.median(np.float_power(amplitude(np.pi * m / 2**t), 2))),
            runs * (2**t - 1) * 2)
    # a faithful table's per-state generators alike
    thetas = rng.uniform(0.0, np.pi / 2, 6)
    fewer, more = (annealing.sample_folded_outcomes(
        thetas, 9, runs, [np.random.default_rng([7, x]) for x in range(6)])[0] for runs in (5, 39))
    assert np.array_equal(fewer, more[:, :5])


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (-0.1, 0.1), (0.1, 0.0),
                                       (0.1, 1.0)])
def test_median_estimate_rejects_eps_or_delta_outside_the_unit_interval(eps, delta):
    with pytest.raises(ValueError, match=r"eps and delta must be in \(0, 1\)"):
        annealing.median_estimate(0.3, np.cos, eps, delta, 0)


def test_stacked_angles_draw_as_lone_calls():
    # one generator per angle: each row of m, and of the one-run CDF, is that angle's lone call
    rng = np.random.default_rng(17)
    for t in (1, 4, 9, 12):
        thetas = np.append(rng.uniform(0.0, np.pi / 2, 5), [0.0, np.pi / 2])
        m, cdf = annealing.sample_folded_outcomes(
            thetas, t, 45, [np.random.default_rng([3, i]) for i in range(len(thetas))])
        cdfs = cdf()
        assert m.shape == (len(thetas), 45) and cdfs.shape == (len(thetas), 2 ** (t - 1) + 1)
        for i, theta in enumerate(thetas):
            lone_m, lone_cdf = annealing.sample_folded_outcomes(float(theta), t, 45,
                                                                np.random.default_rng([3, i]))
            assert np.array_equal(m[i], lone_m) and np.array_equal(cdfs[i], lone_cdf())
    with pytest.raises(ValueError, match="2 angles need as many generators, not 1"):
        annealing.sample_folded_outcomes(np.zeros(2), 3, 5, [np.random.default_rng(0)])


class TestNaeOverlap:
    def test_matches_per_run_reference(self):
        rng = np.random.default_rng(7)
        for seed in range(240):
            d = int(rng.integers(2, 10))
            state, target = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
            if seed % 8 == 0:
                target = state                      # overlap 1: theta = 0
            eps = float(rng.choice([0.3, 0.1, NAE_ACCURACY, 0.02]))
            delta = float(rng.uniform(0.01, 0.45))
            est, _ = nae_overlap(state, target, eps, delta, seed)
            assert est == nae_overlap_reference(state, target, eps, delta, seed)

    def test_exact_overlap_cases(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        assert nae_overlap(v, v, eps=0.01, delta=0.1, seed=0)[0] == pytest.approx(1.0, abs=0.01)
        assert nae_overlap(v, w, eps=0.01, delta=0.1, seed=0)[0] == pytest.approx(0.0, abs=0.01)

    def test_accuracy_over_many_seeds(self):
        p = 0.37
        v = np.array([np.sqrt(p), np.sqrt(1.0 - p)], dtype=complex)
        t = np.array([1.0, 0.0], dtype=complex)
        eps, delta = 0.02, 0.1
        hits = sum(abs(nae_overlap(v, t, eps, delta, seed=s)[0] - p) <= eps
                   for s in range(200))
        assert hits >= int((1.0 - delta) * 200)

    def test_ledger_charge_matches_schedule(self, ring8, monkeypatch):
        # each estimate returns its reflections, runs x (2^t - 1) Grover steps of two,
        # and the search charges them at its per-reflection price, once per estimate
        v = np.array([1.0, 0.0], dtype=complex)
        eps, delta = 0.05, 0.2
        t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
        runs = certified_runs(delta, 27 / 28)
        assert runs == 1 and nae_overlap(v, v, eps, delta, seed=1)[1] == runs * (2**t - 1) * 2
        model, kernel = ring8
        reflections, charges, nae = [], [], annealing.nae_overlap

        def recorded(*args, **kwargs):
            estimate, spent = nae(*args, **kwargs)
            reflections.append(spent)
            return estimate, spent

        monkeypatch.setattr(annealing, "nae_overlap", recorded)
        ledger = QueryLedger()
        monkeypatch.setattr(ledger, "charge", lambda n, tag: charges.append((n, tag)))
        schedule = qsa_schedule(model, kernel, 0.5, eta=0.1, seed=0, ledger=ledger)
        l_max, L_max = schedule.l_max, float(model.neg_log_lik.max())
        delta_nae = min(0.49, 0.1 / (l_max * max(L_max, 1.0)))
        # each of a call's reflections is one gate at an equal share of its failure weight
        assert charges == [(r * phase_gate_cost(0.5, delta_nae / r), "schedule")
                           for r in reflections] and reflections


class TestScheduleSearch:
    def test_stage_count_limit(self):
        assert stage_count_limit(0.0) == 1
        assert stage_count_limit(np.e) == int(np.ceil(np.sqrt(np.e)))
        lbar = 50.0
        assert stage_count_limit(lbar) == int(np.ceil(np.sqrt(lbar * np.log(lbar))))

    def test_schedule_contract(self, ring8):
        model, kernel = ring8
        chain = build_transition_matrix(model, kernel)
        ledger = QueryLedger()
        schedule = qsa_schedule(model, kernel, chain.spectral_gap, eta=0.1,
                                seed=0, ledger=ledger)
        assert schedule.success
        assert schedule.betas[0] == 0.0 and schedule.betas[-1] == 1.0
        assert list(schedule.betas) == sorted(schedule.betas)
        assert len(schedule.betas) - 1 <= schedule.l_max
        assert all(o >= KEEP_THRESHOLD for o in schedule.overlaps)
        assert ledger.by_tag["schedule"] == ledger.total > 0

    def test_flat_likelihood_trivial_schedule(self):
        space = StateSpace.regular_grid((6,))
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0),
                            neg_log_lik=np.zeros(6))
        kernel = ProposalKernel.nearest_neighbor(space)
        ledger = QueryLedger()
        schedule = qsa_schedule(model, kernel, 0.5, eta=0.1, seed=0, ledger=ledger)
        assert schedule.success
        assert schedule.betas == (0.0, 1.0)
        assert ledger.total == 0

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(0.0, 0.5), overlaps=(0.9,), success=True, l_max=3)
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(0.0, 0.6, 0.4, 1.0), overlaps=(0.9, 0.9, 0.9),
                              success=True, l_max=5)
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(0.0, 1.0), overlaps=(0.01,), success=True, l_max=3)

    def test_queries_scale_inverse_sqrt_gap(self, ring8):
        # reflection cost per gate tracks 1/sqrt(signed gap) through the QPE
        # register size; fitted log-log slope is -0.5 up to bit quantization
        model, kernel = ring8
        gaps = [0.5, 0.25, 0.125]
        totals = []
        for g in gaps:
            ledger = QueryLedger()
            schedule = qsa_schedule(model, kernel, g, eta=0.1, seed=0, ledger=ledger)
            assert schedule.success
            totals.append(ledger.total)
        slope = np.polyfit(np.log(gaps), np.log(np.asarray(totals, float)), 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_reflections_priced_at_the_signed_gap(self, monkeypatch, tmp_path):
        # an 8-ring without a stay move has an eigenvalue near -1: spectral gap
        # 0.074, signed gap 0.263, which phase_gate_cost is defined on; the
        # spectral gap would price each reflection higher
        space = StateSpace.regular_grid((8,))
        L = 0.05 * space.points[:, 0]
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=L)
        kernel = ProposalKernel.nearest_neighbor(space)
        chain = build_transition_matrix(model, kernel)
        assert chain.spectral_gap < 0.08 and chain.signed_gap > 0.26
        reflections, charges, prices = [], [], []
        nae, charge, price = annealing.nae_overlap, QueryLedger.charge, annealing.phase_gate_cost

        def recorded(*args, **kwargs):
            estimate, spent = nae(*args, **kwargs)
            reflections.append(spent)
            return estimate, spent

        def recorded_charge(ledger, n, tag=""):
            if tag == "schedule":
                charges.append(n)
            charge(ledger, n, tag)

        def recorded_price(signed_gap, err):
            prices.append((signed_gap, err))
            return price(signed_gap, err)

        monkeypatch.setattr(annealing, "nae_overlap", recorded)
        monkeypatch.setattr(QueryLedger, "charge", recorded_charge)
        monkeypatch.setattr(annealing, "phase_gate_cost", recorded_price)
        oracle = LikelihoodOracle.from_nll(L, M=64, spread=0.5, seed=0)
        for run in (lambda: qsa_with_qmci(oracle, model, kernel, eps=0.2, delta=0.02, seed=0),
                    lambda: cli.experiment_anneal(model, kernel, str(tmp_path))):
            run()
            # the search prices before generation does
            searched = prices[:len(reflections)]
            assert charges == [r * price(g, e) for r, (g, e) in zip(reflections, searched)]
            # at the signed gap of the chain prepared, the perturbed one in the pipeline
            assert charges and all(abs(g - chain.signed_gap) < 0.01 for g, _ in searched)
            assert all(price(chain.spectral_gap, e) > price(g, e) for g, e in searched)
            reflections.clear()
            charges.clear()
            prices.clear()


class TestGeneration:
    @pytest.mark.parametrize("mode", ["exact", "qpe"])
    def test_final_fidelity(self, ring8, mode):
        model, kernel = ring8
        chain = build_transition_matrix(model, kernel)
        schedule = qsa_schedule(model, kernel, chain.spectral_gap, eta=0.1, seed=0,
                                ledger=QueryLedger())
        assert schedule.success
        eps = 0.1
        ledger = QueryLedger()
        state = qsa_generate(schedule, model, kernel, eps=eps, mode=mode,
                             ledger=ledger)
        layout = RegisterLayout.for_kernel(kernel)
        target = encode_distribution(model.distribution(), layout)
        fidelity = abs(np.vdot(target, state)) ** 2
        assert fidelity >= 1.0 - 2.0 * eps
        assert ledger.total > 0

    @pytest.mark.parametrize("instance", ["ring8", "gaussian-torus-5x5"])
    def test_qpe_mode_tracks_exact_mode(self, ring8, monkeypatch, instance):
        # each QPE gate application is within its error_bound of the exact
        # gate on the same input; exact gates are unitary, so the errors add
        # up, and renormalizing a stage at most doubles its share
        model, kernel = ring8 if instance == "ring8" else gaussian_torus_5x5()
        chain = build_transition_matrix(model, kernel)
        schedule = qsa_schedule(model, kernel, chain.spectral_gap, eta=0.1, seed=0,
                                ledger=QueryLedger())
        assert schedule.success
        bounds = []

        def tracked(method):
            def wrapper(self, v):
                bounds.append(self.error_bound(v))
                return method(self, v)
            return wrapper

        exact = qsa_generate(schedule, model, kernel, eps=0.1, mode="exact",
                             ledger=QueryLedger())
        monkeypatch.setattr(QpePhaseGate, "apply", tracked(QpePhaseGate.apply))
        monkeypatch.setattr(QpePhaseGate, "apply_inverse", tracked(QpePhaseGate.apply_inverse))
        qpe = qsa_generate(schedule, model, kernel, eps=0.1, mode="qpe", ledger=QueryLedger())
        assert len(bounds) > 0
        assert np.linalg.norm(qpe - exact) <= 2.0 * sum(bounds)
        # every gate use is within its share of the stage's eps, so all of them within eps
        assert sum(bounds) <= 0.1

    @pytest.mark.parametrize("instance", ["gw-8x8", "ring8-three-stages"])
    def test_exact_gates_charged_at_their_own_temperature(self, ring8, monkeypatch, instance):
        # one gate per temperature, each at its own chain's rate; on the 8x8 GW
        # instance the one stage's R1 sits at beta = 0 (signed gap 0.146, 84
        # walk applications per gate) and its R2 at beta = 1 (0.025, 240), each of
        # the 3^m - 1 = 8 uses at error eps / 8
        if instance == "gw-8x8":
            inst = synth_gw_instance(0.1, 0.0, 256, 2.0, 0, grid_shape=(8, 8))
            model, kernel = inst.model, ProposalKernel.nearest_neighbor(inst.space)
            betas = (0.0, 1.0)
        else:
            model, kernel = ring8
            betas = (0.0, 0.3, 0.6, 1.0)
        prices, price = [], annealing.phase_gate_cost

        def recorded(signed_gap, err):
            prices.append(price(signed_gap, err))
            return prices[-1]

        monkeypatch.setattr(annealing, "phase_gate_cost", recorded)
        n = len(betas) - 1
        schedule = AnnealingSchedule(betas=betas, overlaps=(0.5,) * n, success=True, l_max=n)
        ledger = QueryLedger()
        qsa_generate(schedule, model, kernel, eps=0.1 * n, mode="exact", ledger=ledger)
        # every stage has depth m: each gate use at error 0.1 / (3^m - 1)
        m = amplification_depth(0.5 - NAE_ACCURACY, 0.1)
        rates = [phase_gate_cost(build_transition_matrix(model.with_beta(b), kernel).signed_gap,
                                 0.1 / (3**m - 1)) for b in betas]
        assert prices == rates
        assert instance != "gw-8x8" or (m, rates) == (2, [84, 240])
        # U_m applies each of its two gates (3^m - 1) / 2 times
        assert ledger.total == sum((3**m - 1) // 2 * (c1 + c2)
                                   for c1, c2 in zip(rates, rates[1:])) > 0

    def test_amplification_depth_minimal(self):
        for p in (OVERLAP_GUARANTEE, 0.3, 0.8):
            for eps in (0.3, 0.05):
                m = amplification_depth(p, eps)
                assert (1.0 - p) ** (3**m) <= eps**2
                if m > 0:
                    assert (1.0 - p) ** (3 ** (m - 1)) > eps**2

    def test_failed_schedule_rejected(self, ring8):
        model, kernel = ring8
        bad = AnnealingSchedule(betas=(0.0,), overlaps=(), success=False, l_max=3)
        with pytest.raises(ValueError):
            qsa_generate(bad, model, kernel, eps=0.1, ledger=QueryLedger())


class SelfChargingExactPhaseGate:
    """ExactPhaseGate as it was when each application charged a ledger its cost."""

    def __init__(self, target: np.ndarray, omega: complex,
                 cost: int = 0, ledger: QueryLedger | None = None, tag: str = ""):
        target = np.asarray(target, complex)
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target state must be normalized")
        self.target = target
        self.omega = complex(omega)
        self.cost = int(cost)
        self.ledger, self.tag = ledger, tag

    def _charge(self):
        if self.ledger is not None:
            self.ledger.charge(self.cost, self.tag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        self._charge()
        return v + (self.omega - 1.0) * np.vdot(self.target, v) * self.target

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        self._charge()
        return v + (np.conj(self.omega) - 1.0) * np.vdot(self.target, v) * self.target


class SelfChargingQpePhaseGate(QpePhaseGate):
    """QpePhaseGate as it was when it priced itself and each application charged a ledger."""

    def __init__(self, chain, omega: complex, err: float,
                 ledger: QueryLedger | None = None, tag: str = ""):
        super().__init__(chain, omega, err)
        self.ledger, self.tag = ledger, tag
        self.cost = phase_gate_cost(chain.signed_gap, err)

    def _charge(self):
        if self.ledger is not None:
            self.ledger.charge(self.cost, self.tag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        self._charge()
        return super().apply(v)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        self._charge()
        return super().apply_inverse(v)


def stage_depths(schedule, eps):
    n_stages = len(schedule.betas) - 1
    return [amplification_depth(max(OVERLAP_GUARANTEE, min(1.0, o - NAE_ACCURACY)), eps / n_stages)
            for o in schedule.overlaps]


def gate_errors(schedule, eps):
    """Per-use error of each temperature's gate: the least eps_stage / (3^m - 1) over the
    stages with m > 0 that the gate serves, at most 1."""
    n_stages = len(schedule.betas) - 1
    errs = [1.0] * (n_stages + 1)
    for i, m in enumerate(stage_depths(schedule, eps)):
        if m > 0:
            share = eps / n_stages / (3**m - 1)
            for j in (i, i + 1):          # stage i amplifies between gates i and i + 1
                errs[j] = min(errs[j], share)
    return errs


def self_charging_generate(schedule, model, kernel, eps, mode="exact", ledger=None):
    """qsa_generate's gate loop as it was when each gate application charged the ledger."""
    layout = RegisterLayout.for_kernel(kernel)
    state = encode_distribution(model.with_beta(0.0).distribution(), layout)
    chains = annealing.chain_ladder(model, kernel, schedule.betas)
    errs = iter(gate_errors(schedule, eps))

    def next_gate():
        chain, err = next(chains), next(errs)
        if mode == "qpe":
            return SelfChargingQpePhaseGate(chain, OMEGA_PI3, err, ledger=ledger, tag="generate")
        target = encode_distribution(chain.stationary, layout)
        return SelfChargingExactPhaseGate(target, OMEGA_PI3,
                                          cost=phase_gate_cost(chain.signed_gap, err),
                                          ledger=ledger, tag="generate")

    R2 = next_gate()
    for m in stage_depths(schedule, eps):
        R1 = R2
        R2 = next_gate()
        state = pi3_amplify(R1, R2, m, state)
        norm = np.linalg.norm(state)
        if norm > 0:
            state = state / norm
    return state


class ChainPerGateQpePhaseGate(SelfChargingQpePhaseGate):
    """The self-charging QPE gate as it was when it built its own chain from (model, kernel)."""

    def __init__(self, model: TargetModel, kernel: ProposalKernel, omega: complex,
                 err: float, ledger: QueryLedger | None = None, tag: str = ""):
        super().__init__(build_transition_matrix(model, kernel), omega, err, ledger, tag)


def chain_per_gate_generate(schedule, model, kernel, eps, mode="exact", ledger=None):
    """qsa_generate's per-gate loop as it was before generation read one chain ladder:
    each gate builds its own chain at its temperature, by build_transition_matrix."""
    layout = RegisterLayout.for_kernel(kernel)
    state = encode_distribution(model.with_beta(0.0).distribution(), layout)
    errs = gate_errors(schedule, eps)

    def gate(i):
        model_b = model.with_beta(schedule.betas[i])
        if mode == "qpe":
            return ChainPerGateQpePhaseGate(model_b, kernel, OMEGA_PI3, errs[i],
                                            ledger=ledger, tag="generate")
        gap = build_transition_matrix(model_b, kernel).signed_gap
        return SelfChargingExactPhaseGate(encode_distribution(model_b.distribution(), layout),
                                          OMEGA_PI3, cost=phase_gate_cost(gap, errs[i]),
                                          ledger=ledger, tag="generate")

    for i, m in enumerate(stage_depths(schedule, eps)):
        # stage i's R2 is stage i+1's R1: same temperature, same gate
        R1 = gate(i) if i == 0 else R2
        R2 = gate(i + 1)
        state = pi3_amplify(R1, R2, m, state)
        norm = np.linalg.norm(state)
        if norm > 0:
            state = state / norm
    return state


def gw_4x4(rho):
    inst = synth_gw_instance(0.1, 0.0, 256, rho, 0, grid_shape=(4, 4))
    return inst.model, ProposalKernel.nearest_neighbor(inst.space)


class TestOneLadderGeneration:
    """Generation from one chain ladder gives, bit for bit, the state and ledger that
    building one chain per gate gave."""

    @pytest.mark.parametrize("mode", ["exact", "qpe"])
    @pytest.mark.parametrize("instance", ["default", "gw-4x4-rho2", "gw-4x4-rho6"])
    def test_matches_the_chain_per_gate_loop(self, instance, mode):
        model, kernel = {"default": cli._default_model, "gw-4x4-rho2": lambda: gw_4x4(2.0),
                         "gw-4x4-rho6": lambda: gw_4x4(6.0)}[instance]()
        gap = build_transition_matrix(model, kernel).signed_gap
        stages = set()
        for seed in range(3):
            schedule = qsa_schedule(model, kernel, gap, eta=0.1, seed=seed, ledger=QueryLedger())
            assert schedule.success
            stages.add(len(schedule.betas) - 1)
            ledger, oracle_ledger = QueryLedger(), QueryLedger()
            state = qsa_generate(schedule, model, kernel, 0.05, mode=mode, ledger=ledger)
            expected = chain_per_gate_generate(schedule, model, kernel, 0.05, mode=mode,
                                               ledger=oracle_ledger)
            assert np.array_equal(state, expected)
            assert ledger.by_tag == oracle_ledger.by_tag and ledger.total > 0
        # the sharp posterior anneals through an intermediate temperature
        assert instance != "gw-4x4-rho6" or stages == {2}

    @pytest.mark.parametrize("mode", ["exact", "qpe"])
    def test_one_ladder_and_no_other_chain(self, ring8, monkeypatch, mode):
        model, kernel = ring8
        schedule = AnnealingSchedule(betas=(0.0, 0.3, 0.6, 1.0), overlaps=(0.5,) * 3,
                                     success=True, l_max=3)
        ladders, ladder = [], annealing.chain_ladder

        def recorded(model, kernel, betas):
            ladders.append(betas)
            return ladder(model, kernel, betas)

        monkeypatch.setattr(annealing, "chain_ladder", recorded)
        monkeypatch.setattr(annealing, "build_transition_matrix", None)
        qsa_generate(schedule, model, kernel, 0.3, mode=mode, ledger=QueryLedger())
        assert ladders == [schedule.betas]

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected_before_any_gate(self, ring8, monkeypatch, eps):
        model, kernel = ring8
        schedule = AnnealingSchedule(betas=(0.0, 1.0), overlaps=(0.5,), success=True, l_max=1)
        monkeypatch.setattr(annealing, "chain_ladder", None)
        with pytest.raises(ValueError, match="eps must be positive"):
            qsa_generate(schedule, model, kernel, eps, ledger=QueryLedger())


class TestGenerationChargesItsGates:
    """Generation with gates that only compute, charged once per stage for its gate uses,
    gives, bit for bit, the state and ledger that self-charging gates gave."""

    @pytest.mark.parametrize("mode", ["exact", "qpe"])
    @pytest.mark.parametrize("instance", ["default", "gw-4x4-rho2", "gw-4x4-rho6"])
    def test_matches_the_self_charging_loop(self, instance, mode):
        model, kernel = {"default": cli._default_model, "gw-4x4-rho2": lambda: gw_4x4(2.0),
                         "gw-4x4-rho6": lambda: gw_4x4(6.0)}[instance]()
        gap = build_transition_matrix(model, kernel).signed_gap
        for seed in range(3):
            schedule = qsa_schedule(model, kernel, gap, eta=0.1, seed=seed, ledger=QueryLedger())
            ledger, oracle_ledger = QueryLedger(), QueryLedger()
            state = qsa_generate(schedule, model, kernel, 0.05, mode=mode, ledger=ledger)
            expected = self_charging_generate(schedule, model, kernel, 0.05, mode=mode,
                                              ledger=oracle_ledger)
            assert np.array_equal(state, expected)
            assert ledger.by_tag == oracle_ledger.by_tag and ledger.total == oracle_ledger.total
            assert ledger.total > 0

    def test_depth_zero_stages_charge_nothing(self, ring8):
        # a coarse eps needs no amplification: no gate is applied, and no tag is opened
        model, kernel = ring8
        schedule = AnnealingSchedule(betas=(0.0, 1.0), overlaps=(0.999,), success=True, l_max=1)
        ledger, oracle_ledger = QueryLedger(), QueryLedger()
        state = qsa_generate(schedule, model, kernel, 0.5, ledger=ledger)
        expected = self_charging_generate(schedule, model, kernel, 0.5, ledger=oracle_ledger)
        assert np.array_equal(state, expected)
        assert ledger.by_tag == oracle_ledger.by_tag == {}


def parent_phase_gate_cost(signed_gap, delta):
    """phase_gate_cost as it was before gate_plan: one QPE of t_res resolution ancillas
    padded by ceil(log2(2 + 1/(2 delta))) more, priced at one failure weight per gate."""
    t_res = int(np.ceil(np.log2(4.0 * 2.0 * np.pi / float(np.arccos(1.0 - signed_gap)))))
    t_pad = int(np.ceil(np.log2(2.0 + 1.0 / (2.0 * delta))))
    return 2 * (2 ** (t_res + t_pad) - 1)


PARENT_GATE_DELTA = 0.01


def parent_schedule(model, kernel, signed_gap, eta, seed, ledger):
    """qsa_schedule as it was when every reflection was priced at failure weight delta_nae."""
    L = model.neg_log_lik
    mean_nll = float(np.dot(model.prior, L))
    l_max = stage_count_limit(mean_nll)
    if mean_nll == 0:
        return AnnealingSchedule(betas=(0.0, 1.0), overlaps=(1.0,), success=True, l_max=l_max)
    L_max = float(L.max())
    precision = min(1.0 / L_max, 0.5)
    delta_nae = min(0.49, eta / (l_max * max(L_max, 1.0)))
    refl_cost = parent_phase_gate_cost(signed_gap, delta_nae)
    rng = np.random.default_rng(seed)

    def estimate(b1, b2):
        state, target = (np.sqrt(model.with_beta(b).distribution()).astype(complex)
                         for b in (b1, b2))
        est, reflections = nae_overlap(state, target, NAE_ACCURACY, delta_nae,
                                       seed=int(rng.integers(2**63)))
        ledger.charge(reflections * refl_cost, "schedule")
        return est

    betas, overlaps = [0.0], []
    while betas[-1] < 1.0:
        if len(betas) - 1 >= l_max:
            return AnnealingSchedule(tuple(betas), tuple(overlaps), False, l_max)
        b = betas[-1]
        est_full = estimate(b, 1.0)
        if est_full >= KEEP_THRESHOLD:
            betas.append(1.0)
            overlaps.append(est_full)
            continue
        lo, hi, est_lo = b, 1.0, None
        while hi - lo > precision:
            mid = 0.5 * (lo + hi)
            est_mid = estimate(b, mid)
            if est_mid >= KEEP_THRESHOLD:
                lo, est_lo = mid, est_mid
            else:
                hi = mid
        if est_lo is None:
            return AnnealingSchedule(tuple(betas), tuple(overlaps), False, l_max)
        betas.append(lo)
        overlaps.append(est_lo)
    return AnnealingSchedule(tuple(betas), tuple(overlaps), True, l_max)


def parent_generate(schedule, model, kernel, eps, ledger):
    """Exact-mode qsa_generate as it was when every gate was priced at PARENT_GATE_DELTA."""
    layout = RegisterLayout.for_kernel(kernel)
    n_stages = len(schedule.betas) - 1
    state = encode_distribution(model.with_beta(0.0).distribution(), layout)
    gates = [(ExactPhaseGate(encode_distribution(c.stationary, layout), OMEGA_PI3),
              parent_phase_gate_cost(c.signed_gap, PARENT_GATE_DELTA))
             for c in annealing.chain_ladder(model, kernel, schedule.betas)]
    for i in range(n_stages):
        p = max(OVERLAP_GUARANTEE, min(1.0, schedule.overlaps[i] - NAE_ACCURACY))
        m = amplification_depth(p, eps / n_stages)
        (R1, c1), (R2, c2) = gates[i], gates[i + 1]
        if m > 0:
            ledger.charge((3**m - 1) // 2 * (c1 + c2), "generate")
        state = pi3_amplify(R1, R2, m, state)
        norm = np.linalg.norm(state)
        if norm > 0:
            state = state / norm
    return state


class TestParentPricing:
    """Per-use gate budgets move only the ledger: exact-mode schedules, overlap estimates
    and states are, bit for bit, those of the single padded QPE's pricing."""

    @pytest.mark.parametrize("instance", ["default", "gw-4x4-rho2", "gw-4x4-rho6"])
    def test_exact_mode_matches_and_charges_less(self, instance):
        model, kernel = {"default": cli._default_model, "gw-4x4-rho2": lambda: gw_4x4(2.0),
                         "gw-4x4-rho6": lambda: gw_4x4(6.0)}[instance]()
        eps, delta = 0.1, 0.2
        gap = build_transition_matrix(model, kernel).signed_gap
        for seed in range(3):
            schedule, state, ledger = prepare(model, kernel, eps, delta, seed)
            parent = QueryLedger()
            expected = parent_schedule(model, kernel, gap, delta / 2.0, seed, parent)
            assert schedule == expected and schedule.success
            assert np.array_equal(state, parent_generate(expected, model, kernel,
                                                         min(0.1, eps / 2.0), parent))
            assert set(ledger.by_tag) == set(parent.by_tag) == {"schedule", "generate"}
            assert all(0 < ledger.by_tag[tag] < parent.by_tag[tag] for tag in parent.by_tag)

    def test_gw_8x8_schedule_price_per_reflection(self):
        # the gw-credible instances' one-stage search: 131,070 walk applications per
        # reflection at one padded t = 16 QPE, against k runs of a t = 4 or 5 one
        inst = synth_gw_instance(0.1, 0.0, 256, 2.0, 0, grid_shape=(8, 8))
        kernel = ProposalKernel.nearest_neighbor(inst.space)
        gap = build_transition_matrix(inst.model, kernel).signed_gap
        new, parent = QueryLedger(), QueryLedger()
        schedule = qsa_schedule(inst.model, kernel, gap, 0.1, 0, new)
        assert schedule == parent_schedule(inst.model, kernel, gap, 0.1, 0, parent)
        assert len(schedule.overlaps) == 1
        delta_nae = min(0.49, 0.1 / (schedule.l_max * float(inst.model.neg_log_lik.max())))
        t = int(np.ceil(np.log2(2.0 * np.pi / NAE_ACCURACY))) + 3
        # 5 certified runs at delta_nae = 1.22e-3, of 2 (2^12 - 1) reflections each
        reflections = certified_runs(delta_nae, 27 / 28) * (2**t - 1) * 2
        assert reflections == 40950 and parent.total == reflections * 131070
        assert new.total == reflections * phase_gate_cost(gap, delta_nae / reflections)
        t, k = gate_plan(math.acos(1.0 - gap), delta_nae / reflections)
        assert t in (4, 5) and 100 * new.total < parent.total


class TestPrepare:
    @pytest.mark.parametrize("eps,gate_mode", [(0.1, "exact"), (0.3, "exact"), (0.1, "qpe")])
    def test_one_budget_rule(self, ring8, eps, gate_mode):
        # the search at eta = delta / 2, priced at the beta = 1 chain's signed gap, and
        # generation at min(0.1, eps / 2): the assembly qsa_with_qmci made by hand
        model, kernel = ring8
        delta, seed = 0.2, 3
        by_hand = QueryLedger()
        schedule, state, ledger = prepare(model, kernel, eps, delta, seed, gate_mode=gate_mode)
        gap = build_transition_matrix(model, kernel).signed_gap
        expected = qsa_schedule(model, kernel, gap, eta=delta / 2.0, seed=seed, ledger=by_hand)
        assert schedule == expected and schedule.success
        assert np.array_equal(state, qsa_generate(expected, model, kernel, min(0.1, eps / 2.0),
                                                  mode=gate_mode, ledger=by_hand))
        assert ledger.by_tag == by_hand.by_tag and set(ledger.by_tag) == {"schedule", "generate"}

    @pytest.mark.parametrize("gate_mode", ["exact", "qpe"])
    def test_sharp_gw_posterior_anneals_in_two_stages(self, gate_mode):
        # rho = 6 on the 4x4 grid: pi_min is 1.7e-61, and the search stops at beta = 0.75
        # on the way to 1; the QMCI pipeline prepares the same instance
        eps, delta = 0.1, 0.2
        inst = synth_gw_instance(0.1, 0.0, 256, 6.0, 0, grid_shape=(4, 4))
        kernel = ProposalKernel.nearest_neighbor(inst.space)
        schedule, state, _ = prepare(inst.model, kernel, eps, delta, 0, gate_mode=gate_mode)
        assert schedule.success and len(schedule.betas) == 3
        assert schedule.betas[0] == 0.0 and schedule.betas[-1] == 1.0
        target = encode_distribution(inst.model.distribution(), RegisterLayout.for_kernel(kernel))
        assert abs(np.vdot(target, state)) ** 2 >= 1.0 - 2.0 * min(0.1, eps / 2.0)
        result = qsa_with_qmci(inst.oracle, inst.model, kernel, eps, delta, 0,
                               gate_mode=gate_mode)
        assert len(result.schedule.betas) == 3
        assert result.tv_realized <= eps and result.oracle_queries > 0

    def test_failed_search_leaves_no_state_and_only_its_charge(self, ring8, monkeypatch, tmp_path):
        # the chains this lab admits pass the search, so every overlap is reported as 0
        model, kernel = ring8
        nae = annealing.nae_overlap

        def no_overlap(*args, **kwargs):
            return 0.0, nae(*args, **kwargs)[1]     # charged as the real estimate is

        monkeypatch.setattr(annealing, "nae_overlap", no_overlap)
        schedule, state, ledger = prepare(model, kernel, 0.1, 0.2, 0)
        assert state is None and not schedule.success
        assert set(ledger.by_tag) == {"schedule"} and ledger.total > 0
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=16, spread=0.5, seed=0)
        with pytest.raises(RuntimeError, match="schedule search failed"):
            qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0)
        passed, payload = cli.experiment_anneal(model, kernel, str(tmp_path))
        assert not passed and not payload["success"] and "total_queries" not in payload
        assert payload["schedule_queries"] == ledger.total

    def test_each_preparation_owns_a_fresh_ledger(self, ring8):
        model, kernel = ring8
        first, second = (prepare(model, kernel, 0.1, 0.2, 0)[2] for _ in range(2))
        assert first is not second and first.by_tag == second.by_tag
        assert first.total == sum(first.by_tag.values()) > 0

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected_before_any_chain(self, ring8, monkeypatch, eps):
        # eps = 0 once amplified until (1 - p)^(3^m) underflowed; eps < 0 passed as |eps|
        model, kernel = ring8
        monkeypatch.setattr(annealing, "build_transition_matrix", None)
        with pytest.raises(ValueError, match="eps must be positive"):
            prepare(model, kernel, eps, 0.2, 0)

    @pytest.mark.parametrize("stubs", ["no-work", "failing-search"])
    def test_unknown_gate_mode_refused_before_any_work(self, ring8, monkeypatch, stubs):
        # "bogus" once built the beta = 1 chain and ran the whole search before generation
        # refused it; after a failed search, prepare returned (schedule, None, ledger)
        model, kernel = ring8
        failed = AnnealingSchedule(betas=(0.0,), overlaps=(), success=False, l_max=1)
        monkeypatch.setattr(annealing, "qsa_schedule", lambda *args, **kwargs: failed)
        if stubs == "no-work":
            for name in ("build_transition_matrix", "chain_ladder", "qsa_schedule"):
                monkeypatch.setattr(annealing, name, refuse_work)
        with pytest.raises(ValueError, match="unknown gate mode 'bogus'"):
            prepare(model, kernel, 0.1, 0.2, 0, gate_mode="bogus")

    @pytest.mark.parametrize("stubs", ["no-work", "failing-search"])
    def test_pipeline_refuses_an_unknown_gate_mode_before_any_charge(self, ring8, monkeypatch,
                                                                      stubs):
        # on the bundled 8-ring, "bogus" once charged the table's 320,837,040 queries first
        model, kernel = ring8
        failed = AnnealingSchedule(betas=(0.0,), overlaps=(), success=False, l_max=1)
        monkeypatch.setattr(annealing, "qsa_schedule", lambda *args, **kwargs: failed)
        monkeypatch.setattr(LikelihoodOracle, "charge", refuse_work)
        if stubs == "no-work":
            for module, name in ((qmci, "internal_accuracy"), (qmci, "estimate_nll"),
                                 (annealing, "build_transition_matrix"),
                                 (annealing, "chain_ladder")):
                monkeypatch.setattr(module, name, refuse_work)
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=64, spread=0.5, seed=0)
        with pytest.raises(ValueError, match="unknown gate mode 'bogus'"):
            qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, 0, gate_mode="bogus")
        assert oracle.queries == 0


def refuse_work(*args, **kwargs):
    raise AssertionError("work done that the check should have come before")


LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "qmhlab").glob("*.py"))


def library_calls(*callees):
    """(module, top-level definition, callee) of each call in src/qmhlab to one of callees."""
    calls = []
    for path in LIBRARY:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                callee = isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None))
                if callee in callees:
                    calls.append((path.stem, getattr(top, "name", None), callee))
    return sorted(calls)


def library_charges():
    """(module, top-level definition, receiver) of each .charge call in src/qmhlab."""
    return sorted((path.stem, getattr(top, "name", None), node.func.value.id)
                  for path in LIBRARY for top in ast.parse(path.read_text()).body
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "charge")


class TestOnePreparationAssembly:
    """annealing.prepare is the library's only chain -> schedule -> generation assembly:
    no other function of src/qmhlab calls the schedule search or generation, or makes a
    ledger, and a QPE gate is built from a chain it is handed.  Only the search and
    generation charge the ledger: the gates and overlap estimation take none, and no
    estimator charges the likelihood oracle."""

    def test_search_and_generation_are_called_from_prepare_alone(self):
        assert library_calls("qsa_schedule", "qsa_generate") == [
            ("annealing", "prepare", "qsa_generate"), ("annealing", "prepare", "qsa_schedule")]

    def test_prepare_alone_makes_a_ledger(self):
        assert library_calls("QueryLedger") == [("annealing", "prepare", "QueryLedger")]

    def test_qpe_gate_builds_no_chain(self):
        chain_calls = library_calls("build_transition_matrix", "chain_ladder")
        assert chain_calls and not [c for c in chain_calls if c[1] == "QpePhaseGate"]

    def test_search_and_generation_alone_charge_a_ledger(self):
        # every other .charge in the library is a likelihood oracle's query counter
        assert [c for c in library_charges() if c[2] != "oracle"] == [
            ("annealing", "qsa_generate", "ledger"), ("annealing", "qsa_schedule", "ledger")]

    def test_only_the_loops_that_own_a_price_charge(self):
        # estimators only estimate: the oracle is charged by the table builder, and by the
        # pipeline for its table and its walk; no estimator calls .charge
        assert library_charges() == [
            ("annealing", "qsa_generate", "ledger"), ("annealing", "qsa_schedule", "ledger"),
            ("qmci", "_estimate_and_charge", "oracle"), ("qmci", "qsa_with_qmci", "oracle"),
            ("qmci", "qsa_with_qmci", "oracle")]

    def test_estimators_charge_nothing(self, monkeypatch):
        monkeypatch.setattr(QueryLedger, "charge", refuse_work)
        monkeypatch.setattr(LikelihoodOracle, "charge", refuse_work)
        oracle = LikelihoodOracle.from_nll(np.linspace(0.0, 3.0, 6), M=16, spread=0.5, seed=0)
        for mode in ("emulated", "faithful"):
            assert qmci.qmci_mean(oracle, np.arange(6), 0.05, 0.1, mode, 0).queries > 0
            assert qmci.qmci_mean(oracle, 2, 0.05, 0.1, mode, 0).queries > 0
            qmci.estimate_nll(oracle, 0.05, 0.1, mode, 0)
        v = np.array([0.6, 0.8], complex)
        assert nae_overlap(v, np.array([1.0, 0.0], complex), 0.05, 0.1, 0)[1] > 0
        assert annealing.median_estimate(0.3, np.sin, 0.05, 0.1, 0)[1] > 0
        handle = PosteriorHandle(np.full(6, 1.0 / 6.0), StateSpace.regular_grid((6,)), 7)
        assert cdf_qmci(handle, 0, 2.5, 0.05, 0.1, 0)[1] > 0
        assert oracle.queries == 0

    def test_gates_and_overlap_estimation_take_no_ledger(self):
        tree = {node.name: node for node in ast.parse(
            Path(annealing.__file__).read_text()).body if hasattr(node, "name")}
        functions = [tree["nae_overlap"]] + [item for name in ("ExactPhaseGate", "QpePhaseGate")
                                             for item in tree[name].body
                                             if isinstance(item, ast.FunctionDef)]
        params = {a.arg for f in functions for a in f.args.args + f.args.kwonlyargs}
        assert params and not {p for p in params
                               if p in ("ledger", "tag") or "cost" in p}

    def test_gates_define_both_applications_in_their_own_bodies(self):
        # the benchmark's tracer counts gate uses by patching each class's own methods
        for gate in (ExactPhaseGate, QpePhaseGate):
            assert {"apply", "apply_inverse"} <= set(vars(gate))


class TestMedianRuns:
    FLOORS = (annealing.MEDIAN_RUN_SUCCESS, qmci.FAITHFUL_RUN_SUCCESS,
              qmci.ESTIMATION_RUN_SUCCESS, 0.75)
    DELTAS = np.concatenate([np.geomspace(1e-9, 0.5, 13), [0.04, 0.05, 0.1, 0.2, 0.99]])

    def test_is_the_fewest_odd_runs_of_the_exact_tail(self):
        # against the binomial tail summed in rationals from math.comb
        for success in self.FLOORS:
            for delta in self.DELTAS:
                assert annealing.median_runs(float(delta), success) == \
                    certified_runs(float(delta), success)

    def test_counts_the_lab_prices(self):
        # NAE at delta_nae = 1.19e-3, CDF at 0.04, query_charge at 0.05 and at 7e-25
        assert annealing.median_runs(1.19e-3, annealing.MEDIAN_RUN_SUCCESS) == 5
        assert annealing.median_runs(0.04, annealing.MEDIAN_RUN_SUCCESS) == 1
        assert annealing.median_runs(0.05, qmci.ESTIMATION_RUN_SUCCESS) == 7
        assert annealing.median_runs(0.05, 0.75) == 9
        assert annealing.median_runs(7e-25, qmci.ESTIMATION_RUN_SUCCESS) == 215

    def test_odd_and_monotone_in_delta(self):
        deltas = np.geomspace(1e-30, 0.99, 120)
        for success in self.FLOORS + (1.0,):
            runs = [annealing.median_runs(float(d), success) for d in deltas]
            assert all(n % 2 == 1 for n in runs)
            assert runs == sorted(runs, reverse=True)
        assert annealing.median_runs(1e-30, 1.0) == 1

    @pytest.mark.parametrize("delta,success", [(0.0, 0.9), (1.0, 0.9), (-0.1, 0.9),
                                               (0.1, 0.5), (0.1, 0.2), (0.1, 1.5)])
    def test_refuses_a_weight_or_success_it_cannot_certify(self, delta, success):
        with pytest.raises(ValueError, match=r"delta in \(0, 1\) and success in \(1/2, 1\]"):
            annealing.median_runs(delta, success)

    def test_one_owner_of_the_run_count(self):
        # median_estimate, faithful QMCI and query_charge all read median_runs, each at its
        # own named floor; binomial_sf has one owner, and no Hoeffding count is left
        hoeffding = [(path.stem, getattr(top, "name", None)) for path in LIBRARY
                     for top in ast.parse(path.read_text()).body for node in ast.walk(top)
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                     and getattr(node.left, "value", None) == 12.0
                     and getattr(getattr(node.right, "func", None), "attr", None) == "log"]
        assert hoeffding == []
        assert library_calls("median_runs") == [
            ("annealing", "median_estimate", "median_runs"),
            ("qmci", "_faithful_means", "median_runs"), ("qmci", "query_charge", "median_runs")]
        floors = sorted(ast.unparse(node.args[1]) for path in LIBRARY
                        for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "attr", getattr(node.func, "id", None))
                        == "median_runs")
        assert floors == ["ESTIMATION_RUN_SUCCESS", "FAITHFUL_RUN_SUCCESS", "MEDIAN_RUN_SUCCESS"]
        assert library_calls("binomial_sf") == [
            ("annealing", "median_runs", "binomial_sf"),
            ("qmci", "_faithful_means", "binomial_sf"), ("qmci", "_faithful_means", "binomial_sf")]
        owners = [(path.stem, top.name) for path in LIBRARY
                  for top in ast.parse(path.read_text()).body
                  if isinstance(top, ast.FunctionDef) and "binomial" in top.name]
        assert owners == [("annealing", "binomial_sf")]


def one_run_success(t, eps, amplitude, thetas):
    """P(|amplitude(pi m / 2^t)^2 - amplitude(theta)^2| <= eps) of one run at each theta,
    from sample_folded_outcomes' one-run CDF of m: the good m form one range."""
    N = 2**t
    values = np.float_power(amplitude(np.pi * np.arange(N // 2 + 1) / N), 2)
    out = []
    for block in np.array_split(thetas, max(1, len(thetas) * N // 2**20)):
        _, cdf = annealing.sample_folded_outcomes(block, t, 1,
                                                  [np.random.default_rng(0)] * len(block))
        below = np.hstack([np.zeros((len(block), 1)), cdf()])          # P(m < j)
        good = np.abs(values - np.float_power(amplitude(block), 2)[:, None]) <= eps
        g0, g1 = good.argmax(axis=1), N // 2 - good[:, ::-1].argmax(axis=1)
        assert good.any(axis=1).all()
        out.append(below[np.arange(len(block)), g1 + 1] - below[np.arange(len(block)), g0])
    return np.concatenate(out)


class TestRunSuccessFloors:
    """Each floor median_runs is sized at is at most the exact one-run success of the
    readout it prices, min over a theta grid of spacing pi / 2^(t + 2)."""

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.1, NAE_ACCURACY, 0.05 / 3])
    def test_median_estimate_floor(self, eps):
        # overlap (cos) and CDF (sin) estimation at median_estimate's t
        t = int(np.ceil(np.log2(2.0 * np.pi / eps))) + 3
        thetas = np.linspace(0.0, np.pi / 2, 2**(t + 1) + 1)
        worst = min(one_run_success(t, eps, amp, thetas).min() for amp in (np.cos, np.sin))
        assert annealing.MEDIAN_RUN_SUCCESS <= worst

    @pytest.mark.parametrize("eps_norm", [0.5, 0.3, 0.1, 0.02, 0.01])
    def test_faithful_floor(self, eps_norm):
        # a faithful run's normalized estimate sin^2 within eps_norm, at its t
        t = int(np.ceil(np.log2(2.0 * np.pi / eps_norm))) + 2
        thetas = np.linspace(0.0, np.pi / 2, 2**(t + 1) + 1)
        assert qmci.FAITHFUL_RUN_SUCCESS <= one_run_success(t, eps_norm, np.sin, thetas).min()

    def test_floors_are_the_cited_bounds(self):
        # 1 - 1 / (2 (e - 1)) at e = 15 and e = 7, and 8 / pi^2 for one amplitude estimation
        assert annealing.MEDIAN_RUN_SUCCESS == 1.0 - 1.0 / (2 * 14)
        assert qmci.FAITHFUL_RUN_SUCCESS == 1.0 - 1.0 / (2 * 6)
        assert qmci.ESTIMATION_RUN_SUCCESS == 8.0 / np.pi**2
