"""Walk-operator construction and its spectral identities."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmhlab import cli, qmci, qsim
from qmhlab.annealing import QpePhaseGate
from qmhlab.markov import (ProposalKernel, StateSpace, TargetModel, acceptance_table,
                           build_transition_matrix, negation_slots)
from qmhlab.qsim import (
    RegisterLayout,
    WalkOperator,
    _complete_unitary,
    build_core,
    build_walk_operator,
    decode_distribution,
    encode_distribution,
    invariant_subspace,
    symmetrized_transition,
    verify_phase_gap,
)

from conftest import (build_F, build_S, count_linalg_calls, random_instance, torus_cases,
                      torus_negate, torus_shift)

TORUS_CASES = torus_cases()
TORUS_IDS = [name for name, _, _ in TORUS_CASES]

UNITARY_ATOL = 1e-10
BLOCK_ATOL = 1e-10
SF_ATOL = 1e-12
PHASE_ATOL = 1e-8
CORE_ATOL = 1e-14


def basis_state(layout, x, m=0, c=0):
    """|x>|m>|c> as a column of the register product."""
    v = np.zeros(layout.total_dim, dtype=complex)
    v[layout.index(x, m, c)] = 1.0
    return v


def make_setup(seed, allow_2d=True):
    model, kernel = random_instance(seed, allow_2d=allow_2d)
    layout = RegisterLayout.for_kernel(kernel)
    return model, kernel, layout


# Dense D x D reference factors: WalkOperator applies them through their structure


def build_V(kernel, layout):
    """V |x>|0>|c> = |x> sum_m sqrt(T(x, x+m)) |m> |c>, completed to a unitary."""
    w = layout.weights
    if abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("move weights do not normalize")
    VM = _complete_unitary(np.sqrt(w).astype(complex))
    return np.kron(np.eye(layout.space_dim), np.kron(VM, np.eye(2)))


def acceptance_slots(model, layout):
    """A(x, x+m) for each (x, slot) of the layout; 0 on zero-weight slots."""
    return acceptance_table(model, layout.neighbours(), layout.weights, layout.neg_slots())


def build_B(model, layout):
    """Controlled Y rotation of R_C by 2 arcsin sqrt(A(x, x+m)); identity on unsupported slots."""
    A = acceptance_slots(model, layout)
    if np.any(A < -1e-12) or np.any(A > 1.0 + 1e-12):
        raise ValueError("acceptance values must lie in [0, 1]")
    A = np.clip(A, 0.0, 1.0)
    x, m = np.nonzero(np.broadcast_to(layout.weights > 0, A.shape))
    i0, i1 = layout.index(x, m, 0), layout.index(x, m, 1)
    s, c = np.sqrt(A[x, m]), np.sqrt(1.0 - A[x, m])
    B = np.eye(layout.total_dim, dtype=complex)
    B[i0, i0], B[i0, i1], B[i1, i0], B[i1, i1] = c, -s, s, c
    return B


def build_R(layout):
    """Reflection 2 Lambda_0 - I about the span of |x>|0>|0>, as a dense matrix."""
    return np.diag(layout.reflection_signs()).astype(complex)


def dense_core(model, kernel, layout):
    """G = V' B' S F B V as a product of dense factors."""
    V = build_V(kernel, layout)
    B = build_B(model, layout)
    prod = build_S(layout) @ build_F(layout) @ B @ V
    return V.conj().T @ B.conj().T @ prod


def reference_images(model, layout):
    """G A: the core applied to the reference columns |x>|0>|0>."""
    return WalkOperator(model, layout).core(layout.reference_states())


class TestRegisterLayout:
    def test_zero_move_first_and_index_bijective(self):
        _, kernel = random_instance(2)
        layout = RegisterLayout.for_kernel(kernel)
        assert layout.moves[0] == tuple(0 for _ in layout.shape)
        seen = set()
        for x in range(layout.space_dim):
            for m in range(layout.n_moves):
                for c in (0, 1):
                    seen.add(layout.index(x, m, c))
        assert seen == set(range(layout.total_dim))

    def test_zero_move_slot_without_stay_mass(self):
        space = StateSpace.regular_grid((6,))
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.0)
        layout = RegisterLayout.for_kernel(kernel)
        assert layout.weights[0] == 0.0
        assert abs(layout.weights.sum() - 1.0) <= 1e-12

    def test_negate_slot_involution(self):
        _, kernel = random_instance(12)
        layout = RegisterLayout.for_kernel(kernel)
        neg = layout.neg_slots()
        assert np.array_equal(neg[neg], np.arange(layout.n_moves))

    def test_rejects_oversized_layout(self):
        space = StateSpace.regular_grid((70, 70))
        kernel = ProposalKernel.nearest_neighbor(space)
        with pytest.raises(ValueError):
            RegisterLayout.for_kernel(kernel)


class TestStates:
    def test_encode_decode_round_trip(self):
        model, _, layout = make_setup(5)
        P = model.distribution()
        v = encode_distribution(P, layout)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        np.testing.assert_allclose(decode_distribution(v, layout), P, atol=1e-12)

    def test_encode_rejects_nondistribution(self):
        _, _, layout = make_setup(7)
        with pytest.raises(ValueError):
            encode_distribution(np.full(layout.space_dim, 0.5), layout)


class TestOperatorsUnitary:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_all_factors_unitary(self, seed):
        model, kernel, layout = make_setup(seed)
        eye = np.eye(layout.total_dim)
        for op in (build_V(kernel, layout), build_B(model, layout),
                   build_F(layout), build_S(layout), build_R(layout)):
            assert np.linalg.norm(op.conj().T @ op - eye) <= UNITARY_ATOL

    def test_v_proposal_amplitudes(self):
        # two symmetric moves with no stay mass: amplitudes 1/sqrt(2) each
        space = StateSpace.regular_grid((5,))
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        V = build_V(kernel, layout)
        col = V @ basis_state(layout, 2, 0, 0)
        for m in range(layout.n_moves):
            amp = col[layout.index(2, m, 0)]
            assert abs(amp) == pytest.approx(np.sqrt(layout.weights[m]), abs=1e-12)
        amps = [abs(col[layout.index(2, m, 0)]) for m in range(1, layout.n_moves)]
        np.testing.assert_allclose(amps, 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_b_rotation_entries_at_half_acceptance(self):
        # uniform prior, L with one doubled weight: A = 1/2 on the downhill move
        space = StateSpace.regular_grid((4,))
        model = TargetModel(space=space, prior=np.full(4, 0.25),
                            neg_log_lik=np.log(2.0) * np.array([0.0, 1.0, 1.0, 1.0]))
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        B = build_B(model, layout)
        m_plus = layout.moves.index((1,))
        i0 = layout.index(0, m_plus, 0)
        i1 = layout.index(0, m_plus, 1)
        assert B[i1, i0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert B[i0, i0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_f_shifts_only_on_coin_one(self):
        _, _, layout = make_setup(11)
        F = build_F(layout)
        m = 1
        x = 0
        v0 = basis_state(layout, x, m, 0)
        np.testing.assert_array_equal(F @ v0, v0)
        v1 = basis_state(layout, x, m, 1)
        out = F @ v1
        assert out[layout.index(layout.neighbours()[x, m], m, 1)] == 1.0

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_table_builders_match_scalar_loops(self, name, model, kernel):
        layout = RegisterLayout.for_kernel(kernel)
        n, k, D = layout.space_dim, layout.n_moves, layout.total_dim

        def shift_state(x, m):
            return torus_shift(layout.shape, x, layout.moves[m])

        def negate_slot(m):
            return layout.moves.index(torus_negate(layout.shape, layout.moves[m]))

        def slots():
            A = np.zeros((n, k))
            p = model.unnormalized()
            with np.errstate(divide="ignore", invalid="ignore"):
                for m in range(1, k):
                    if layout.weights[m] <= 0:
                        continue
                    mn = negate_slot(m)
                    for x in range(n):
                        y = shift_state(x, m)
                        A[x, m] = min(1.0, (p[y] * layout.weights[mn])
                                      / (p[x] * layout.weights[m]))
            if layout.weights[0] > 0:
                A[:, 0] = 1.0
            return A

        F = np.zeros((D, D), dtype=complex)
        S = np.zeros((D, D), dtype=complex)
        for x in range(n):
            for m in range(k):
                F[layout.index(x, m, 0), layout.index(x, m, 0)] = 1.0
                F[layout.index(shift_state(x, m), m, 1), layout.index(x, m, 1)] = 1.0
                S[layout.index(x, m, 0), layout.index(x, m, 0)] = 1.0
                S[layout.index(x, negate_slot(m), 1), layout.index(x, m, 1)] = 1.0

        def rotations():
            A = np.clip(slots(), 0.0, 1.0)
            B = np.eye(D, dtype=complex)
            for x in range(n):
                for m in range(k):
                    if layout.weights[m] <= 0:
                        continue
                    a = A[x, m]
                    i0, i1 = layout.index(x, m, 0), layout.index(x, m, 1)
                    s, c = np.sqrt(a), np.sqrt(1.0 - a)
                    B[i0, i0], B[i0, i1] = c, -s
                    B[i1, i0], B[i1, i1] = s, c
            return B

        assert np.array_equal(acceptance_slots(model, layout), slots())
        assert np.array_equal(build_B(model, layout), rotations())
        assert np.array_equal(build_F(layout), F)
        assert np.array_equal(build_S(layout), S)

    def test_supported_zero_move_reads_one_where_target_underflows(self):
        # exp(-900) underflows on half the ring: the zero move's ratio is 0/0 there
        space = StateSpace.regular_grid((8,))
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0),
                            neg_log_lik=np.array([0.0] * 4 + [900.0] * 4))
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.3)
        A = acceptance_slots(model, RegisterLayout.for_kernel(kernel))
        assert np.array_equal(A[:, 0], np.ones(8))

    def test_sf_squared_identity(self):
        for seed in range(4):
            _, _, layout = make_setup(seed)
            SF = build_S(layout) @ build_F(layout)
            err = np.max(np.abs(SF @ SF - np.eye(layout.total_dim)))
            assert err <= SF_ATOL

    def test_r_reflection_signs(self):
        _, _, layout = make_setup(13)
        R = build_R(layout)
        diag = np.diag(R).real
        for x in range(layout.space_dim):
            assert diag[layout.index(x, 0, 0)] == 1.0
        assert np.sum(diag == 1.0) == layout.space_dim


class TestCoreIdentities:
    @pytest.mark.parametrize("seed", range(40))
    def test_core_matches_dense_product(self, seed):
        model, kernel, layout = make_setup(seed)
        err = np.max(np.abs(build_core(model, layout) - dense_core(model, kernel, layout)))
        assert err <= CORE_ATOL

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_core_matches_dense_product_on_torus_cases(self, name, model, kernel):
        layout = RegisterLayout.for_kernel(kernel)
        err = np.max(np.abs(build_core(model, layout) - dense_core(model, kernel, layout)))
        assert err <= CORE_ATOL

    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_core_hermitian_involution(self, seed):
        model, kernel, layout = make_setup(seed)
        G = build_core(model, layout)
        assert np.max(np.abs(G - G.conj().T)) <= 1e-10
        assert np.max(np.abs(G @ G - np.eye(layout.total_dim))) <= 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_reference_block_conjugates_transition(self, seed):
        model, kernel, layout = make_setup(seed)
        chain = build_transition_matrix(model, kernel)
        G = build_core(model, layout)
        ref = layout.reference_indices()
        err = np.max(np.abs(G[np.ix_(ref, ref)] - symmetrized_transition(chain)))
        assert err <= BLOCK_ATOL

    def test_invariant_subspace_closed_under_walk(self):
        model, kernel, layout = make_setup(17)
        chain = build_transition_matrix(model, kernel)
        U = build_walk_operator(model, kernel, layout)
        Q, pair = invariant_subspace(reference_images(model, layout), layout, chain)
        # A O and one partner per non-unit eigenpair, orthonormal
        n = layout.space_dim
        assert Q.shape == (layout.total_dim, 2 * n - 1)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= 1e-9
        proj = Q @ Q.conj().T
        # U maps the subspace into itself
        assert np.linalg.norm(proj @ U @ Q - U @ Q) <= 1e-9
        # pair names each column's eigenpair: U turns the plane of A o_j and its
        # partner by the eigenphases +-arccos(lambda_j)
        assert np.array_equal(pair, np.concatenate([np.arange(n), np.arange(n - 1)]))
        lam, _ = chain.eigenpairs
        for c in range(n, 2 * n - 1):
            plane = Q[:, [pair[c], c]]
            phases = np.sort(np.angle(np.linalg.eigvals(plane.conj().T @ U @ plane)))
            theta = np.arccos(lam[pair[c]])
            np.testing.assert_allclose(phases, [-theta, theta], atol=1e-9)

    def test_invariant_subspace_of_bipartite_ring(self):
        # uniform 8-ring, no stay mass: W has eigenvalue -1, whose A o is
        # already a walk eigenvector (G A o = -A o) and gets no partner
        space = StateSpace.regular_grid((8,))
        model = TargetModel(space=space, prior=np.full(8, 0.125), neg_log_lik=np.zeros(8))
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        chain = build_transition_matrix(model, kernel)
        assert chain.eigenpairs[0][0] == pytest.approx(-1.0, abs=1e-12)
        Q, pair = invariant_subspace(reference_images(model, layout), layout, chain)
        assert Q.shape == (layout.total_dim, 2 * layout.space_dim - 2)
        assert np.array_equal(pair[layout.space_dim:], np.arange(1, layout.space_dim - 1))
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= 1e-9
        U = build_walk_operator(model, kernel, layout)
        assert np.linalg.norm(Q @ (Q.conj().T @ U @ Q) - U @ Q) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_apply_core_matches_dense_core(self, seed):
        model, kernel, layout = make_setup(seed)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(layout.total_dim, 3)) + 1j * rng.normal(size=(layout.total_dim, 3))
        G = build_core(model, layout)
        assert np.max(np.abs(WalkOperator(model, layout).core(X) - G @ X)) <= 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_walk_operator_is_row_signed_core(self, seed):
        model, kernel, layout = make_setup(seed)
        G = build_core(model, layout)
        assert np.array_equal(build_walk_operator(model, kernel, layout), build_R(layout) @ G)


def corrupted_negation_slots(layout):
    """The zero move, its own negation, sent to slot 1: S F is no longer an involution."""
    neg = negation_slots(layout.shape, layout.moves).copy()    # the cached table is read-only
    neg[0] = 1
    return neg


class TestUnitarityCertificate:
    """The factor-by-factor certificate stands in for a dense U^dagger U check."""

    @pytest.mark.parametrize("seed", range(40))
    def test_walk_operator_unitary(self, seed):
        model, kernel, layout = make_setup(seed)
        U = build_walk_operator(model, kernel, layout)
        assert np.linalg.norm(U.conj().T @ U - np.eye(layout.total_dim)) <= UNITARY_ATOL

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_walk_operator_unitary_on_torus_cases(self, name, model, kernel):
        layout = RegisterLayout.for_kernel(kernel)
        U = build_walk_operator(model, kernel, layout)
        assert np.linalg.norm(U.conj().T @ U - np.eye(layout.total_dim)) <= UNITARY_ATOL

    def test_corrupted_negation_table_rejected(self, ring8, monkeypatch):
        model, kernel = ring8
        layout = RegisterLayout.for_kernel(kernel)
        monkeypatch.setattr(RegisterLayout, "neg_slots", corrupted_negation_slots)
        with pytest.raises(ValueError, match="negation tables"):
            build_walk_operator(model, kernel, layout)
        with pytest.raises(ValueError, match="negation tables"):
            QpePhaseGate(build_transition_matrix(model, kernel), np.exp(1j * np.pi / 3.0), 0.1)

    def test_non_unitary_move_register_rejected(self, monkeypatch):
        model, kernel, layout = make_setup(3)
        complete = qsim._complete_unitary
        monkeypatch.setattr(qsim, "_complete_unitary", lambda col: 1.001 * complete(col))
        with pytest.raises(ValueError, match="V_M is not unitary"):
            build_walk_operator(model, kernel, layout)

    @pytest.mark.parametrize("corrupt", [False, True], ids=["tables", "corrupted"])
    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_sf_involution_matches_dense_square(self, name, model, kernel, corrupt, monkeypatch):
        if corrupt:
            monkeypatch.setattr(RegisterLayout, "neg_slots", corrupted_negation_slots)
        layout = RegisterLayout.for_kernel(kernel)
        SF = build_S(layout) @ build_F(layout)
        dense = np.array_equal(SF @ SF, np.eye(layout.total_dim))
        assert qsim.sf_involution(layout.neighbours(), layout.neg_slots()) == dense != corrupt


class TestPhaseGap:
    def test_two_state_gap_half_gives_pi_over_three(self, two_state_gap_half):
        model, kernel = two_state_gap_half
        layout = RegisterLayout.for_kernel(kernel)
        chain = build_transition_matrix(model, kernel)
        U = build_walk_operator(model, kernel, layout)
        report = verify_phase_gap(U, layout, chain)
        assert report.passed
        assert report.min_nonzero_phase == pytest.approx(np.pi / 3.0, abs=PHASE_ATOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_phase_gap_report_passes(self, seed):
        model, kernel, layout = make_setup(seed)
        chain = build_transition_matrix(model, kernel)
        U = build_walk_operator(model, kernel, layout)
        report = verify_phase_gap(U, layout, chain)
        assert report.passed
        assert report.unit_multiplicity == 1
        assert report.principal_overlap >= 1.0 - 1e-9
        assert report.min_nonzero_phase >= report.phase_bound - PHASE_ATOL

    def test_one_eigh_per_chain(self, monkeypatch):
        model, kernel, layout = make_setup(5)
        U = build_walk_operator(model, kernel, layout)
        calls = count_linalg_calls(monkeypatch, "eigh")
        chain = build_transition_matrix(model, kernel)
        assert calls["eigh"] == 0
        first = verify_phase_gap(U, layout, chain)
        assert calls["eigh"] == 1
        # a second report on the same chain reuses its eigenpairs
        assert np.array_equal(verify_phase_gap(U, layout, chain).eigenphases, first.eigenphases)
        assert calls["eigh"] == 1

    def test_sharply_peaked_ring_passes(self):
        # 64-ring with L = 0.05 (x - 32)^2, 51 nats deep: the images of the
        # reference states are nearly dependent, so a rank-tolerance basis miscounts
        space = StateSpace.regular_grid((64,))
        model = TargetModel(space=space, prior=np.full(64, 1.0 / 64.0),
                            neg_log_lik=0.05 * (space.points[:, 0] - 32.0) ** 2)
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        chain = build_transition_matrix(model, kernel)
        report = verify_phase_gap(build_walk_operator(model, kernel, layout), layout, chain)
        assert report.passed
        assert report.unit_multiplicity == 1
        assert len(report.eigenphases) == 2 * 64 - 1

    def test_rejects_zero_gap(self):
        # uniform 2-ring with no stay mass: W swaps the states, eigenvalues +-1
        space = StateSpace.regular_grid((2,))
        model = TargetModel(space=space, prior=np.full(2, 0.5), neg_log_lik=np.zeros(2))
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        chain = build_transition_matrix(model, kernel)
        with pytest.raises(ValueError, match="spectral gap is zero"):
            verify_phase_gap(build_walk_operator(model, kernel, layout), layout, chain)

    def test_walk_of_another_chain_does_not_pass(self):
        model, kernel, layout = make_setup(23, allow_2d=False)
        chain = build_transition_matrix(model, kernel)
        other = model.with_neg_log_lik(model.neg_log_lik[::-1])
        U = build_walk_operator(other, kernel, layout)
        try:
            report = verify_phase_gap(U, layout, chain)
        except ValueError:
            return
        assert not report.passed

    def test_stationary_state_is_fixed(self):
        model, kernel, layout = make_setup(21)
        chain = build_transition_matrix(model, kernel)
        U = build_walk_operator(model, kernel, layout)
        v = encode_distribution(chain.stationary, layout)
        assert np.linalg.norm(U @ v - v) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_factored_and_dense_reports_agree(self, seed):
        model, kernel, layout = make_setup(seed)
        chain = build_transition_matrix(model, kernel)
        factored = verify_phase_gap(WalkOperator(model, layout), layout, chain)
        dense = verify_phase_gap(build_walk_operator(model, kernel, layout), layout, chain)
        assert (factored.passed, factored.unit_multiplicity) == (dense.passed,
                                                                  dense.unit_multiplicity)
        assert np.max(np.abs(factored.eigenphases - dense.eigenphases)) <= 1e-12
        assert abs(factored.min_nonzero_phase - dense.min_nonzero_phase) <= 1e-12
        assert abs(factored.principal_overlap - dense.principal_overlap) <= 1e-12

    @pytest.mark.parametrize("seed", [23, 4, 9])
    def test_walk_of_another_chain_same_verdict_factored_and_dense(self, seed):
        model, kernel, layout = make_setup(seed, allow_2d=False)
        chain = build_transition_matrix(model, kernel)
        other = model.with_neg_log_lik(model.neg_log_lik[::-1])

        def verdict(U):
            try:
                return verify_phase_gap(U, layout, chain).passed
            except ValueError as exc:
                return str(exc)

        dense = verdict(build_walk_operator(other, kernel, layout))
        assert dense is not True
        assert verdict(WalkOperator(other, layout)) == dense


class TestNoDenseWalkAtRunTime:
    """Every runtime path applies the walk through its factors; the dense builders
    are test oracles, so replacing them with a refusal changes no result."""

    @pytest.fixture(autouse=True)
    def refuse_dense_builders(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a runtime path built a dense walk operator")

        # the qsim functions and every binding a library module imported of them
        for module in [m for name, m in sys.modules.items() if name.startswith("qmhlab.")]:
            for name in ("build_walk_operator", "build_core"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    def test_verify_walk_experiment(self, tmp_path):
        space = StateSpace.regular_grid((8, 8))
        nll = 0.3 * np.sum((space.points - [3.0, 4.0]) ** 2, axis=1)
        model = TargetModel(space=space, prior=np.full(64, 1.0 / 64.0), neg_log_lik=nll)
        kernel = ProposalKernel.gaussian(space, width=1.0, radius=1)
        passed, payload = cli.experiment_verify_walk(model, kernel, str(tmp_path))
        assert passed
        assert payload["reference_block_error"] <= BLOCK_ATOL

    def test_qsa_with_qmci_qpe_gates(self):
        space = StateSpace.regular_grid((6,))
        nll = 0.3 * (space.points[:, 0] - 2.0) ** 2
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0), neg_log_lik=nll)
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.2)
        oracle = qmci.LikelihoodOracle.from_nll(nll, M=16, spread=0.5, seed=0)
        result = qmci.qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0, gate_mode="qpe")
        layout = RegisterLayout.for_kernel(kernel)
        target = encode_distribution(result.model_pert.distribution(), layout)
        assert abs(np.vdot(target, result.state)) ** 2 >= 0.8

    def test_faithful_walk_verified(self):
        space = StateSpace.regular_grid((5, 5))
        nll = 0.3 * np.sum((space.points - 2.0) ** 2, axis=1)
        model = TargetModel(space=space, prior=np.full(25, 1.0 / 25.0), neg_log_lik=nll)
        kernel = ProposalKernel.gaussian(space, width=1.0, radius=1)
        layout = RegisterLayout.for_kernel(kernel)
        oracle = qmci.LikelihoodOracle.from_nll(nll, M=16, spread=0.5, seed=0)
        U, model_pert, _ = qmci.approx_walk_operator(oracle, model, kernel, layout, 0.1, 0.1,
                                                     seed=0, mode="faithful")
        report = verify_phase_gap(U, layout, build_transition_matrix(model_pert, kernel))
        assert report.passed
