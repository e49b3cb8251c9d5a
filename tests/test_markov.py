"""Transition-matrix construction, spectral data, sampling, and mixing bounds."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from qmhlab import markov
from qmhlab.annealing import gate_plan, phase_gate_cost
from qmhlab.markov import (
    ChainModel,
    NonReversibleChainError,
    ProposalKernel,
    ReducibleChainError,
    StateSpace,
    TargetModel,
    acceptance_matrix,
    acceptance_table,
    build_transition_matrix,
    load_model,
    mixing_bound_check,
    mixing_time_bound,
    negation_slots,
    neighbour_table,
    run_mh,
    tv_distance,
)

from qmhlab.inference import synth_gw_instance

from conftest import (count_linalg_calls, random_instance, torus_cases, torus_negate,
                      torus_shift)

TORUS_CASES = torus_cases()
TORUS_IDS = [name for name, _, _ in TORUS_CASES]

ROW_SUM_ATOL = 1e-12
BALANCE_ATOL = 1e-10
EIG_ATOL = 1e-9


def dense_transition_reference(model, kernel):
    """W as the product of the dense T and A, and the pattern of the error its build must
    raise, None for an irreducible chain: SciPy's strong components of the dense support
    T > 0 first, then a zero in pi, where the target underflowed."""
    W = kernel.matrix() * acceptance_matrix(model, kernel)
    np.fill_diagonal(W, 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    n_comp, _ = connected_components(kernel.matrix() > 0, directed=True, connection="strong")
    if n_comp > 1:
        return W, rf"^chain is reducible \({n_comp} strongly connected components\)$"
    if np.any(model.distribution() == 0.0):
        return W, rf"^target underflows to 0 at beta = {model.beta:g}: "
    return W, None


def dense_reference_cases():
    """Random instances, every third with zero-weight moves and every fifth with
    half its target underflowed to 0, then the torus cases."""
    cases = []
    for seed in range(60):
        model, kernel = random_instance(seed)
        if seed % 3 == 0:
            drop = np.arange(len(kernel.weights)) % 4 == 1
            drop |= drop[[kernel.moves.index(torus_negate(kernel.space.shape, m))
                          for m in kernel.moves]]
            w = np.where(drop, 0.0, kernel.weights)
            kernel = ProposalKernel(kernel.space, kernel.moves, w / w.sum())
        if seed % 5 == 0:
            L = model.neg_log_lik.copy()
            L[: len(L) // 2] = 900.0
            model = model.with_neg_log_lik(L)
        cases.append((f"random-{seed}", model, kernel))
    return cases + TORUS_CASES


DENSE_CASES = dense_reference_cases()


def uniform_model(n):
    space = StateSpace.regular_grid((n,))
    return TargetModel(space=space, prior=np.full(n, 1.0 / n),
                       neg_log_lik=np.zeros(n))


class TestStateSpace:
    def test_points_unique_and_indexable(self):
        space = StateSpace.regular_grid((3, 4))
        pts = space.points
        assert pts.shape == (12, 2)
        assert len({tuple(p) for p in pts}) == 12
        for i in range(space.size):
            mi = np.unravel_index(i, space.shape)
            assert tuple(pts[i]) == tuple(ax[k] for ax, k in zip(space.axes, mi))

    def test_shift_wraps_torus(self):
        nb = neighbour_table((5,), [(1,), (-1,)])
        assert nb[4, 0] == 0
        assert nb[0, 1] == 4
        nb = neighbour_table((2, 3), [(1, 2)])
        assert nb[5, 0] == 1            # (1, 2) + (1, 2) wraps to (0, 1)

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_neighbour_table_matches_scalar_shift(self, name, model, kernel):
        shape = model.space.shape
        nb = neighbour_table(shape, kernel.moves)
        ref = [[torus_shift(shape, x, m) for m in kernel.moves] for x in range(model.space.size)]
        assert np.array_equal(nb, ref)

    def test_tables_built_once_per_grid_and_read_only(self):
        nb = neighbour_table((5,), [(1,), (-1,)])
        assert neighbour_table([5], ((1,), (-1,))) is nb
        assert neighbour_table((np.int64(5),), [[1], [-1]]) is nb
        assert neighbour_table((5,), [(-1,), (1,)]) is not nb
        neg = negation_slots((5,), [(1,), (4,)])
        assert negation_slots([5], [[1], [4]]) is neg
        assert neg.tolist() == [1, 0]
        for table in (nb, neg):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(ValueError):
            StateSpace(shape=(2,), axes=(np.array([1.0, 1.0]),))


class TestTargetModel:
    def test_distribution_normalizes(self):
        model, _ = random_instance(3)
        P = model.distribution()
        assert abs(P.sum() - 1.0) <= 1e-12
        assert np.all(P > 0)

    def test_beta_zero_is_prior(self):
        model, _ = random_instance(5)
        np.testing.assert_allclose(model.with_beta(0.0).distribution(),
                                   model.prior, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.5])
    def test_with_beta_shares_arrays_and_matches_fresh_model(self, beta, monkeypatch):
        model, _ = random_instance(7)
        checks = []
        check = TargetModel.__post_init__
        monkeypatch.setattr(TargetModel, "__post_init__", lambda m: checks.append(check(m)))
        twin = model.with_beta(beta)
        assert checks == []             # the arrays were checked when the model was built
        model.with_neg_log_lik(model.neg_log_lik + 1.0)
        assert len(checks) == 1         # a new array is checked
        assert twin.prior is model.prior and twin.neg_log_lik is model.neg_log_lik
        assert twin.beta == beta and model.beta == 1.0
        fresh = TargetModel(space=model.space, prior=model.prior.copy(),
                            neg_log_lik=model.neg_log_lik.copy(), beta=beta)
        assert np.array_equal(twin.distribution(), fresh.distribution())

    def test_rejects_negative_nll(self):
        space = StateSpace.regular_grid((4,))
        with pytest.raises(ValueError):
            TargetModel(space=space, prior=np.full(4, 0.25),
                        neg_log_lik=np.array([0.0, 1.0, -0.1, 0.0]))

    def test_large_nll_does_not_underflow(self):
        # exp(-L) underflows to 0 everywhere above ~745 nats; the min-L shift keeps P finite
        space = StateSpace.regular_grid((8,))
        L = np.linspace(760.0, 770.0, 8)
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=L)
        P = model.distribution()
        softmax = np.exp(-(L - L.min())) / np.exp(-(L - L.min())).sum()
        assert np.all(np.isfinite(P))
        np.testing.assert_allclose(P, softmax, rtol=1e-14, atol=0.0)
        chain = build_transition_matrix(model, ProposalKernel.nearest_neighbor(space))
        assert chain.spectral_gap > 0

    def test_rejects_unnormalized_prior(self):
        space = StateSpace.regular_grid((4,))
        with pytest.raises(ValueError):
            TargetModel(space=space, prior=np.full(4, 0.3),
                        neg_log_lik=np.zeros(4))


class TestProposalKernel:
    def test_matrix_rows_sum_to_one(self):
        _, kernel = random_instance(7)
        T = kernel.matrix()
        np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=ROW_SUM_ATOL)

    def test_support_symmetric_and_translation_invariant(self):
        space = StateSpace.regular_grid((6,))
        kernel = ProposalKernel.gaussian(space, width=1.3, radius=2)
        T = kernel.matrix()
        assert np.array_equal(T > 0, (T > 0).T)
        # T(x, x+d) must not depend on x
        for m, w in zip(kernel.moves, kernel.weights):
            col = [T[x, torus_shift(space.shape, x, m)] for x in range(space.size)]
            np.testing.assert_allclose(col, col[0], atol=1e-14)

    def test_rejects_asymmetric_weights(self):
        space = StateSpace.regular_grid((5,))
        with pytest.raises(ValueError, match="symmetric under negation"):
            ProposalKernel(space=space, moves=((1,), (4,)),
                           weights=np.array([0.7, 0.3]))

    def test_rejects_move_set_not_closed_under_negation(self):
        space = StateSpace.regular_grid((5,))
        with pytest.raises(ValueError, match=r"not closed under negation: \(1,\)"):
            ProposalKernel(space=space, moves=((1,),), weights=np.array([1.0]))

    def test_rejects_moves_equal_on_the_torus(self):
        # 6 = 1 mod 5: the two offsets are one move
        space = StateSpace.regular_grid((5,))
        with pytest.raises(ValueError, match="duplicate moves"):
            ProposalKernel(space=space, moves=((1,), (6,)), weights=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_matrix_matches_scalar_loop(self, name, model, kernel):
        space = kernel.space
        T = np.zeros((space.size, space.size))
        for x in range(space.size):
            for m, w in zip(kernel.moves, kernel.weights):
                T[x, torus_shift(space.shape, x, m)] += w
        assert np.array_equal(kernel.matrix(), T)

    @pytest.mark.parametrize("name,model,kernel", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
    def test_max_column_mass_matches_dense_matrix(self, name, model, kernel):
        T = kernel.matrix()
        assert kernel.max_column_mass == float(np.max((T - np.diag(np.diag(T))).sum(axis=0)))

    def test_nearest_neighbor_stay_mass(self):
        space = StateSpace.regular_grid((6,))
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.4)
        assert dict(zip(kernel.moves, kernel.weights))[(0,)] == pytest.approx(0.4)


def acceptance_matrix_reference(model, kernel):
    """The dense formula acceptance_matrix replaced: ratios over the whole of T."""
    T = kernel.matrix()
    p = model.unnormalized()
    n = len(p)
    ratio = np.zeros((n, n))
    mask = T > 0
    py_tyx = np.outer(np.ones(n), p) * T.T
    px_txy = np.outer(p, np.ones(n)) * T
    ratio[mask] = np.minimum(1.0, py_tyx[mask] / px_txy[mask])
    return ratio


class TestAcceptance:
    @pytest.mark.parametrize("seed", range(40))
    def test_matrix_matches_dense_reference(self, seed):
        model, kernel = random_instance(seed)
        assert np.array_equal(acceptance_matrix(model, kernel),
                              acceptance_matrix_reference(model, kernel))

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_matrix_matches_dense_reference_on_torus_cases(self, name, model, kernel):
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = acceptance_matrix_reference(model, kernel)
        A = acceptance_matrix(model, kernel)
        # only the underflow case has 0/0 ratios: the dense formula read them
        # as nan, the shared table (like run_mh) as 1
        nan = np.isnan(ref)
        assert nan.any() == (name == "underflow")
        assert np.all(A[nan] == 1.0)
        assert np.array_equal(A[~nan], ref[~nan])

    def test_ratio_two_thirds_one_third(self):
        # P = (2/3, 1/3) with a symmetric proposal: A(0,1) = 1/2, A(1,0) = 1
        space = StateSpace.regular_grid((2,))
        model = TargetModel(space=space, prior=np.array([2.0 / 3.0, 1.0 / 3.0]),
                            neg_log_lik=np.zeros(2))
        A = acceptance_matrix(model, ProposalKernel.nearest_neighbor(space))
        assert A[0, 1] == pytest.approx(0.5)
        assert A[1, 0] == pytest.approx(1.0)

    def test_ratio_undefined_off_support(self):
        model, _ = random_instance(11)
        kernel = ProposalKernel.nearest_neighbor(model.space)
        assert acceptance_matrix(model, kernel)[0, model.space.size // 2] == 0.0

    def test_matrix_matches_pairwise_ratio(self):
        # T(x, y) as the weight of the one move taking x to y, T(y, x) its negation's
        model, kernel = random_instance(13, allow_2d=False)
        A = acceptance_matrix(model, kernel)
        p, n = model.unnormalized(), model.space.size
        for (m,), w in zip(kernel.moves, kernel.weights):
            w_back = kernel.weights[kernel.moves.index(torus_negate(model.space.shape, (m,)))]
            for x in range(n):
                y = (x + m) % n
                if w > 0 and x != y:
                    assert A[x, y] == pytest.approx(min(1.0, p[y] * w_back / (p[x] * w)),
                                                    abs=1e-14)

    @pytest.mark.parametrize("name,model,kernel", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
    def test_ratio_matches_dense_proposal_reference(self, name, model, kernel):
        # the per-pair formula with T(x, y) read off a dense T; zero off the support
        T = kernel.matrix()
        p = model.unnormalized()
        A = acceptance_matrix(model, kernel)
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, y in zip(*np.nonzero(T)):
                assert A[x, y] == min(1.0, (p[y] * T[y, x]) / (p[x] * T[x, y]))
        assert np.all(A[T == 0] == 0.0)

    def test_uniform_target_accepts_everything(self):
        model = uniform_model(8)
        kernel = ProposalKernel.nearest_neighbor(model.space)
        A = acceptance_matrix(model, kernel)
        assert np.all(A[kernel.matrix() > 0] == 1.0)

    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_table_reads_zero_on_zero_weight_moves(self, name, model, kernel):
        # a zero weight makes the ratio inf or nan, which fmin alone would read as 1
        nb = neighbour_table(model.space.shape, kernel.moves)
        neg = negation_slots(model.space.shape, kernel.moves)
        full = acceptance_table(model, nb, kernel.weights, neg)
        for j in range(len(kernel.moves)):
            w = kernel.weights.copy()
            w[j] = 0.0
            acc = acceptance_table(model, nb, w, neg)
            assert np.all(acc[:, j] == 0.0)
            same = (np.arange(len(w)) != j) & (neg != j)
            assert np.array_equal(acc[:, same], full[:, same])


class TestTvDistance:
    def test_known_value(self):
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        r = rng.dirichlet(np.ones(n))
        assert tv_distance(p, p) == 0.0
        assert 0.0 <= tv_distance(p, q) <= 1.0
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestTransitionMatrix:
    def test_two_state_gap_exact(self, two_state_gap_half):
        model, kernel = two_state_gap_half
        chain = build_transition_matrix(model, kernel)
        np.testing.assert_allclose(chain.transition,
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-14)
        assert chain.spectral_gap == pytest.approx(0.5, abs=EIG_ATOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_chain_invariants(self, seed):
        model, kernel = random_instance(seed)
        chain = build_transition_matrix(model, kernel)
        W, pi = chain.transition, chain.stationary
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(W >= -1e-14)
        np.testing.assert_allclose(pi @ W, pi, atol=BALANCE_ATOL)
        assert chain.is_reversible()
        assert 0.0 < chain.spectral_gap <= 1.0
        assert chain.signed_gap >= chain.spectral_gap - 1e-12

    def test_reducible_chain_raises(self):
        # zero-move-only proposal never leaves the initial state
        model = uniform_model(4)
        kernel = ProposalKernel(space=model.space, moves=((0,),),
                                weights=np.array([1.0]))
        with pytest.raises(ReducibleChainError):
            build_transition_matrix(model, kernel)

    @pytest.mark.parametrize("name,model,kernel", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
    def test_matches_dense_product_reference(self, name, model, kernel):
        W, error = dense_transition_reference(model, kernel)
        if error is not None:
            with pytest.raises(ReducibleChainError, match=error):
                build_transition_matrix(model, kernel)
            return
        chain = build_transition_matrix(model, kernel)
        assert np.array_equal(chain.transition, W)
        d = np.sqrt(model.distribution())
        S = (d[:, None] * W) / d[None, :]
        S = 0.5 * (S + S.T)
        ev = np.linalg.eigvalsh(S)
        assert chain.signed_gap == 1.0 - ev[-2]
        assert chain.spectral_gap == 1.0 - max(abs(ev[0]), ev[-2])
        lam, O = np.linalg.eigh(S)
        assert np.array_equal(chain.eigenpairs[0], lam)
        assert np.array_equal(chain.eigenpairs[1], O)

    def test_second_eigenvalue_matches_power_iteration(self, ring8):
        model, kernel = ring8
        chain = build_transition_matrix(model, kernel)
        d = np.sqrt(chain.stationary)
        S = (d[:, None] * chain.transition) / d[None, :]
        v0 = d / np.linalg.norm(d)
        # deflate the principal eigenvector, then power-iterate
        M = S - np.outer(v0, v0)
        v = np.ones(len(chain.stationary)) / np.sqrt(len(chain.stationary))
        for _ in range(20000):
            v = M @ v
            v /= np.linalg.norm(v)
        lam1 = abs(v @ (M @ v))
        assert 1.0 - lam1 == pytest.approx(chain.spectral_gap, abs=1e-8)

    def test_condition_number_diagonalizes(self):
        model, kernel = random_instance(19)
        chain = build_transition_matrix(model, kernel)
        W = chain.transition
        # the nonsymmetric solver never sees the symmetrized D W D^-1
        lam, O = chain.eigenpairs
        np.testing.assert_allclose(lam, np.sort(np.linalg.eigvals(W).real), atol=1e-12)
        Q = O / np.sqrt(chain.stationary)[:, None]
        np.testing.assert_allclose(np.linalg.solve(Q, W @ Q), np.diag(lam), atol=1e-12)
        assert chain.condition_number >= 1.0
        assert chain.condition_number == pytest.approx(np.linalg.cond(Q), rel=1e-12)

    def test_spectral_data_match_reference(self):
        for seed in range(200):
            chain = build_transition_matrix(*random_instance(seed))
            gap, signed, kappa = spectral_reference(chain.transition, chain.stationary)
            assert abs(chain.spectral_gap - gap) <= 1e-12
            assert abs(chain.signed_gap - signed) <= 1e-12
            assert chain.condition_number == pytest.approx(kappa, rel=1e-12)

    def test_gw_ladder_step_counts_match_reference(self):
        eps = 0.05
        for M in (256, 512, 1024, 2048, 4096):
            for s in (0, 1, 2):
                inst = synth_gw_instance(0.1, 0.0, M, 2.0, s, grid_shape=(8, 8))
                chain = build_transition_matrix(
                    inst.model, ProposalKernel.nearest_neighbor(inst.space))
                gap, signed, kappa = spectral_reference(chain.transition, chain.stationary)
                n_b = int(np.ceil(np.log(1.0 / (eps * chain.stationary.min())) / gap))
                assert mixing_time_bound(chain, eps) == n_b
                assert np.ceil(2.0 / (chain.signed_gap * eps**2)) == np.ceil(
                    2.0 / (signed * eps**2))
                assert chain.condition_number == pytest.approx(kappa, rel=1e-12)


def log_domain_gaps(model, kernel):
    """(spectral, signed) gaps of the symmetrized D W D^-1 built from log pi differences:
    w e^(-|log pi(y) - log pi(x)| / 2) off the diagonal, W's own diagonal on it, so no
    entry carries pi itself."""
    n, w = model.space.size, kernel.weights
    nb = neighbour_table(model.space.shape, kernel.moves)
    log_p = np.log(model.prior) - model.beta * (model.neg_log_lik - model.neg_log_lik.min())
    S = np.zeros((n, n))
    for j, move in enumerate(kernel.moves):
        if w[j] > 0 and any(move):
            d = log_p[nb[:, j]] - log_p
            S[np.arange(n), nb[:, j]] = w[j] * np.exp(-np.abs(d) / 2.0)
            S[np.arange(n), np.arange(n)] -= w[j] * np.exp(np.minimum(d, 0.0))
    S[np.arange(n), np.arange(n)] += 1.0
    lam = np.linalg.eigvalsh(S)
    return 1.0 - max(abs(lam[0]), lam[-2]), 1.0 - lam[-2]


class TestSharpGwPosteriors:
    """The paper's example past rho = 3: every chain of the grid x rho table is
    admitted, and its gaps are those of the log-domain build."""

    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_grid_by_rho_table_is_admitted_with_log_domain_gaps(self, side):
        for rho in (2.0, 3.0, 4.0, 6.0, 8.0, 12.0):
            inst = synth_gw_instance(0.1, 0.0, 256, rho, 0, grid_shape=(side, side))
            kernel = ProposalKernel.nearest_neighbor(inst.space)
            chain = build_transition_matrix(inst.model, kernel)
            gap, signed = log_domain_gaps(inst.model, kernel)
            assert chain.spectral_gap == pytest.approx(gap, rel=1e-10, abs=0.0)
            assert chain.signed_gap == pytest.approx(signed, rel=1e-10, abs=0.0)
        # the last row, rho = 12, is sharp far past PROB_ATOL's reach
        assert 0.0 < chain.stationary.min() < 1e-200


def eigh_gaps(chain):
    """The spectral and signed gaps from the eigh eigenvalues, as they were taken before."""
    lam = chain.eigenpairs[0]
    second = float(lam[-2]) if len(lam) > 1 else 0.0
    bottom = abs(float(lam[0])) if len(lam) > 1 else 0.0
    return 1.0 - max(bottom, second), 1.0 - second


class TestSpectrumOnDemand:
    """Chains take their values-only spectrum; eigenvectors wait for a reader."""

    def test_build_runs_eigvalsh_once_and_eigh_never(self, monkeypatch):
        calls = count_linalg_calls(monkeypatch, "eigh", "eigvalsh")
        chain = build_transition_matrix(*random_instance(4))
        assert calls == {"eigh": 0, "eigvalsh": 1}
        lam, O = chain.eigenpairs
        assert chain.eigenpairs[1] is O
        assert calls == {"eigh": 1, "eigvalsh": 1}
        for a in (lam, O):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_gaps_and_integer_costs_match_eigh(self):
        chains = [build_transition_matrix(*random_instance(seed)) for seed in range(200)]
        for M in (256, 512, 1024, 2048, 4096):
            for s in (0, 1, 2):
                inst = synth_gw_instance(0.1, 0.0, M, 2.0, s, grid_shape=(8, 8))
                kernel = ProposalKernel.nearest_neighbor(inst.space)
                chains += [build_transition_matrix(inst.model.with_beta(float(b)), kernel)
                           for b in np.linspace(0.1, 1.0, 10)]
        assert len(chains) == 350
        for chain in chains:
            gap, signed = eigh_gaps(chain)
            assert abs(chain.spectral_gap - gap) <= 1e-14
            assert abs(chain.signed_gap - signed) <= 1e-14
            for err in (1e-12, 1e-4, 0.01, 0.1):
                assert phase_gate_cost(chain.signed_gap, err) == phase_gate_cost(signed, err)
                assert gate_plan(math.acos(1.0 - chain.signed_gap), err) \
                    == gate_plan(math.acos(1.0 - signed), err)
            for eps in (0.01, 0.05, 0.25):
                assert mixing_time_bound(chain, eps) == mixing_time_bound(
                    dataclasses.replace(chain, spectral_gap=gap), eps)


def chain_fields(chain):
    return (chain.transition, chain.stationary, chain.spectral_gap, chain.signed_gap,
            chain.condition_number)


def check_ladder(model, kernel, betas):
    """Each chain of the ladder is its single build, bit for bit; when a single build
    raises, the ladder raises the first such error, message and all.  True when the
    chains were built."""
    singles = []
    for beta in betas:
        try:
            singles.append(build_transition_matrix(model.with_beta(beta), kernel))
        except ReducibleChainError as exc:
            with pytest.raises(ReducibleChainError, match=f"^{re.escape(str(exc))}$"):
                list(markov.chain_ladder(model, kernel, betas))
            return False
    ladder = list(markov.chain_ladder(model, kernel, betas))
    assert len(ladder) == len(betas)
    for chain, single in zip(ladder, singles):
        for got, want in zip(chain_fields(chain), chain_fields(single)):
            assert np.array_equal(got, want)
    return True


def uphill_ring():
    """An 8-ring whose +-2 uphill flows fall below PROB_ATOL at beta = 1 but not at
    beta = 0.5: a sharp target, positive everywhere, on a connected support."""
    space = StateSpace.regular_grid((8,))
    L = 12.0 * np.minimum(np.arange(8), 8 - np.arange(8))
    model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=L)
    return model, ProposalKernel.gaussian(space, width=1.2, radius=2)


class TestChainLadder:
    """One stacked build per chunk of temperatures, chain for chain the single build."""

    BETAS = [0.0, 0.1, 0.35, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("name,model,kernel", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
    def test_matches_single_builds_on_dense_cases(self, name, model, kernel):
        built = check_ladder(model, kernel, self.BETAS)
        # random 1-D and 2-D instances, zero-weight moves, and the cases that raise at
        # beta = 1, which raise in their ladder too
        assert built or dense_transition_reference(model, kernel)[1] is not None

    def test_grids_and_kernels(self):
        for shape in ((9,), (4, 5)):
            space = StateSpace.regular_grid(shape)
            L = np.random.default_rng(len(shape)).uniform(0.0, 4.0, space.size)
            model = TargetModel(space, np.full(space.size, 1.0 / space.size), L - L.min())
            for kernel in (ProposalKernel.nearest_neighbor(space),
                           ProposalKernel.nearest_neighbor(space, stay_prob=0.2),
                           ProposalKernel.gaussian(space, width=1.0, radius=2)):
                assert check_ladder(model, kernel, self.BETAS)

    def test_one_state_space(self):
        model = uniform_model(1)
        kernel = ProposalKernel.nearest_neighbor(model.space)
        assert check_ladder(model, kernel, self.BETAS)
        chain = next(markov.chain_ladder(model, kernel, [1.0]))
        assert chain.transition.tolist() == [[1.0]]
        assert chain.spectral_gap == chain.signed_gap == 1.0

    def test_sharp_temperatures_are_admitted_on_one_support_count(self):
        model, kernel = uphill_ring()
        W = kernel.weights * acceptance_table(
            model, neighbour_table((8,), kernel.moves), kernel.weights,
            negation_slots((8,), kernel.moves))
        assert 0.0 < W.min() <= markov.PROB_ATOL
        betas = [0.0, 0.5, 1.0, 2.0, 5.0]
        assert all(dense_transition_reference(model.with_beta(b), kernel)[1] is None
                   for b in betas)
        markov._support_components.cache_clear()
        # every beta admitted, in the ladder and in its single builds, on one count
        assert check_ladder(model, kernel, betas)
        assert markov._support_components.cache_info().misses == 1

    def test_support_graph_count_is_cached_per_support(self):
        model, kernel = random_instance(7)
        list(markov.chain_ladder(model, kernel, self.BETAS[:3]))
        misses = markov._support_components.cache_info().misses
        list(markov.chain_ladder(model, kernel, self.BETAS[:3]))
        build_transition_matrix(model, kernel)
        assert markov._support_components.cache_info().misses == misses

    def test_reducible_support_graph_raises_todays_message(self):
        # +-2 steps on a 6-ring reach only the states of one parity
        space = StateSpace.regular_grid((6,))
        model = TargetModel(space, np.full(6, 1.0 / 6.0), np.arange(6.0))
        kernel = ProposalKernel(space, ((2,), (4,)), np.array([0.5, 0.5]))
        pattern = r"^chain is reducible \(2 strongly connected components\)$"
        assert dense_transition_reference(model, kernel)[1] == pattern
        for betas in ([0.0], [1.0, 0.0]):
            with pytest.raises(ReducibleChainError, match=pattern):
                list(markov.chain_ladder(model, kernel, betas))
        assert not check_ladder(model, kernel, self.BETAS)

    def test_underflowed_target_raises_its_own_message(self):
        # 900 nats: pi is 0 on half the ring at beta = 1, positive at beta = 0.5
        space = StateSpace.regular_grid((8,))
        model = TargetModel(space, np.full(8, 1.0 / 8.0), np.repeat([0.0, 900.0], 4))
        kernel = ProposalKernel.nearest_neighbor(space)
        build_transition_matrix(model.with_beta(0.5), kernel)
        # the message names the first temperature, in ladder order, whose pi underflowed
        for betas, first in (([1.0], 1), ([0.5, 1.0, 2.0], 1), ([0.5, 2.0, 1.0], 2)):
            with pytest.raises(ReducibleChainError,
                               match=rf"^target underflows to 0 at beta = {first}: [^\n]*745"):
                list(markov.chain_ladder(model, kernel, betas))
        assert not check_ladder(model, kernel, [0.5, 2.0, 1.0])

    def test_checks_run_before_the_stacked_eigvalsh(self, monkeypatch):
        # beta = 1 underflows pi on half the ring, where beta = 0 is fine; +-2 steps
        # split the support at every beta: either ladder raises before its stack
        # reaches eigvalsh
        space = StateSpace.regular_grid((8,))
        model = TargetModel(space, np.full(8, 1.0 / 8.0), np.repeat([0.0, 900.0], 4))
        nearest = ProposalKernel.nearest_neighbor(space)
        build_transition_matrix(model.with_beta(0.0), nearest)
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        for kernel, cause in ((nearest, "target underflows"),
                              (ProposalKernel(space, ((2,), (6,)), np.array([0.5, 0.5])),
                               "chain is reducible")):
            with pytest.raises(ReducibleChainError, match=f"^{cause} "):
                list(markov.chain_ladder(model, kernel, [0.0, 1.0]))
        assert calls == {"eigvalsh": 0}

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 6])
    def test_one_eigvalsh_per_chunk(self, monkeypatch, per_chunk):
        model, kernel = random_instance(11, allow_2d=False)
        n = model.space.size
        monkeypatch.setattr(markov, "_LADDER_BYTES", per_chunk * 8 * n * n)
        calls = count_linalg_calls(monkeypatch, "eigvalsh")
        ladder = list(markov.chain_ladder(model, kernel, self.BETAS))
        assert calls == {"eigvalsh": -(-len(self.BETAS) // per_chunk)}
        for beta, chain in zip(self.BETAS, ladder):
            want = build_transition_matrix(model.with_beta(beta), kernel)
            for got, ref in zip(chain_fields(chain), chain_fields(want)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(8,), (5, 5), (8, 8), (16, 16), (20, 20), "gw-16x16"])
    def test_each_rung_carries_its_model_and_kernel(self, shape):
        # pi is the stacked target normalized row by row: bit for bit each rung's own
        # distribution, as the rung's model computes it alone
        if shape == "gw-16x16":
            inst = synth_gw_instance(0.1, 0.0, 256, 6.0, 0, grid_shape=(16, 16))
            model = inst.model
        else:
            space = StateSpace.regular_grid(shape)
            L = 0.7 * np.sum((space.points - np.array(shape) // 3) ** 2, axis=1)
            model = TargetModel(space, np.full(space.size, 1.0 / space.size), L)
        kernel = ProposalKernel.nearest_neighbor(model.space)
        betas = np.linspace(0.0, 1.0, 15)
        for beta, chain in zip(betas, markov.chain_ladder(model, kernel, betas)):
            assert chain.kernel is kernel and chain.model.beta == beta
            assert chain.model.prior is model.prior
            assert chain.model.neg_log_lik is model.neg_log_lik
            assert np.array_equal(chain.stationary, model.with_beta(beta).distribution())


def scipy_support_components(shape, moves, kept):
    """SciPy's strong components of the graph x -> nb[x, j] over the slots j kept."""
    nb = neighbour_table(shape, moves)[:, kept]
    adjacency = np.zeros((len(nb), len(nb)), bool)
    adjacency[np.arange(len(nb))[:, None], nb] = True
    return connected_components(adjacency, directed=True, connection="strong")[0]


class TestIrreducibility:
    """The cached support count is SciPy's on seeded random negation-symmetric supports,
    and a target underflowed on half the states is refused for that, not for a count."""

    SHAPES = [(1,), (2,), (9,), (4, 5), (3, 4, 3)]     # a one-state space first
    DENSITIES = (0.05, 0.1, 0.3, 0.7, 1.0)

    @staticmethod
    def kernels(shape, radii=(1, 2, 3)):
        """The nearest-neighbour kernel and Gaussian ones; radius 3 brings the 9-ring's +-3."""
        space = StateSpace.regular_grid(shape)
        return [ProposalKernel.nearest_neighbor(space)] + [
            ProposalKernel.gaussian(space, width=1.0, radius=r) for r in radii]

    @staticmethod
    def random_support(rng, neg, p):
        """A random slot mask closed under negation, as symmetric weights make it; never empty."""
        kept = rng.random(len(neg)) < p
        kept |= kept[neg]
        kept[rng.integers(len(neg))] |= not kept.any()
        return kept | kept[neg]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_random_masks(self, shape):
        rng = np.random.default_rng(shape)
        verdicts = set()
        for kernel in self.kernels(shape):
            neg = negation_slots(shape, kernel.moves)
            for p in self.DENSITIES:
                for _ in range(10):
                    kept = self.random_support(rng, neg, p)
                    got = markov._support_components(
                        shape, kernel.moves, tuple(np.flatnonzero(kept).tolist()))
                    assert got == scipy_support_components(shape, kernel.moves, kept)
                    verdicts.add(got == 1)
        assert verdicts == ({True} if shape == (1,) else {True, False})

    @pytest.mark.parametrize("shape", SHAPES[2:], ids=str)
    def test_zero_weight_moves(self, shape):
        # the build reads its support off the weights: a chain raises the count of the
        # moves its kernel gives weight, and only when that count passes one
        rng = np.random.default_rng(shape)
        space = StateSpace.regular_grid(shape)
        model = TargetModel(space, np.full(space.size, 1.0 / space.size),
                            rng.uniform(0.0, 4.0, space.size))
        verdicts = set()
        for kernel in self.kernels(shape, radii=(2, 3))[1:]:
            neg = negation_slots(shape, kernel.moves)
            for p in self.DENSITIES:
                for _ in range(10):
                    w = np.where(self.random_support(rng, neg, p), kernel.weights, 0.0)
                    thinned = ProposalKernel(space, kernel.moves, w / w.sum())
                    count = scipy_support_components(shape, kernel.moves, w > 0)
                    try:
                        build_transition_matrix(model, thinned)
                    except ReducibleChainError as exc:
                        assert str(exc) == (f"chain is reducible ({count} strongly "
                                            "connected components)")
                    else:
                        assert count == 1
                    verdicts.add(count == 1)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("shape", SHAPES[1:], ids=str)
    def test_underflowed_half(self, shape):
        # L at 900 nats on half the states: pi is 0 there, every in-flow to them dead,
        # and the chain is refused for the underflow on each connected support
        rng = np.random.default_rng(shape)
        space = StateSpace.regular_grid(shape)
        n = space.size
        for kernel in self.kernels(shape):
            for half in [np.arange(n) < (n + 1) // 2] + [rng.permutation(n) < n // 2
                                                         for _ in range(3)]:
                model = TargetModel(space, np.full(n, 1.0 / n), np.where(half, 900.0, 0.0))
                with pytest.raises(ReducibleChainError,
                                   match=r"^target underflows to 0 at beta = 1: "):
                    build_transition_matrix(model, kernel)


def diagonalizer_reference(W, pi):
    """Q with Q^-1 W Q diagonal, canonical under detailed balance.

    Q = D^-1 O with O an orthonormal eigenbasis of the symmetrized D W D^-1,
    D = diag(sqrt(pi)); columns sign-fixed so the largest-modulus component
    is positive.
    """
    d = np.sqrt(pi)
    S = (d[:, None] * W) / d[None, :]
    S = 0.5 * (S + S.T)
    _, O = np.linalg.eigh(S)
    for j in range(O.shape[1]):
        k = int(np.argmax(np.abs(O[:, j])))
        if O[k, j] < 0:
            O[:, j] = -O[:, j]
    return O / d[:, None]


def spectral_reference(W, pi):
    """The gaps and kappa build_transition_matrix took from eigvals(W) and cond(Q)."""
    eig = np.linalg.eigvals(W)
    order = np.argsort(-np.abs(eig))
    eig = eig[order]
    # non-unit eigenvalue of largest modulus; ties are harmless for the gap
    sub = eig[1:]
    gap = 1.0 - (float(np.max(np.abs(sub))) if len(sub) else 0.0)
    signed = 1.0 - (float(np.max(np.real(sub))) if len(sub) else 0.0)
    kappa = float(np.linalg.cond(diagonalizer_reference(W, pi)))
    return gap, signed, kappa


def run_mh_reference(model, kernel, n_b, n, seed):
    """The per-step loop run_mh replaced: one rng.choice and one rng.random per step."""
    rng = np.random.default_rng(seed)
    p = model.unnormalized()
    weights = kernel.weights
    moves = kernel.moves
    neg = [torus_negate(model.space.shape, m) for m in moves]
    w_of = {m: float(w) for m, w in zip(moves, weights)}

    x = int(rng.choice(model.space.size, p=model.prior))
    out = np.empty(n_b + n, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n_b + n):
            k = int(rng.choice(len(moves), p=weights))
            y = torus_shift(model.space.shape, x, moves[k])
            a = 1.0 if y == x else min(1.0, (p[y] * w_of[neg[k]]) / (p[x] * w_of[moves[k]]))
            if rng.random() < a:
                x = y
            out[t] = x
    return out


class TestSampling:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name,model,kernel", TORUS_CASES, ids=TORUS_IDS)
    def test_matches_scalar_reference(self, name, model, kernel, seed):
        n_b, n = 20, markov._MH_CHUNK + 100      # spans two chunks of uniforms
        ref = run_mh_reference(model, kernel, n_b, n, seed)
        assert np.array_equal(run_mh(model, kernel, n_b, n, seed).states, ref)

    def test_underflow_case_meets_inf_and_nan_ratios(self):
        # with seed 0 the chain starts where p underflowed to 0 and takes both
        # a p = 0 -> p = 0 step (ratio nan) and a p = 0 -> p > 0 step (ratio inf)
        (_, model, kernel), = [c for c in TORUS_CASES if c[0] == "underflow"]
        zero = model.unnormalized()[run_mh_reference(model, kernel, 0, 50, seed=0)] == 0.0
        steps = set(zip(zero[:-1].tolist(), zero[1:].tolist()))
        assert (True, True) in steps and (True, False) in steps

    def test_trajectory_shape_and_range(self):
        model, kernel = random_instance(23, allow_2d=False)
        sample = run_mh(model, kernel, n_b=10, n=50, seed=1)
        assert len(sample.states) == 60
        assert len(sample.kept) == 50
        assert np.all(sample.states >= 0)
        assert np.all(sample.states < model.space.size)

    def test_deterministic_in_seed(self):
        model, kernel = random_instance(29, allow_2d=False)
        s1 = run_mh(model, kernel, 5, 40, seed=7)
        s2 = run_mh(model, kernel, 5, 40, seed=7)
        assert np.array_equal(s1.states, s2.states)

    def test_empirical_distribution_mixes(self, two_state_gap_half):
        model, kernel = two_state_gap_half
        chain = build_transition_matrix(model, kernel)
        eps = 0.1
        t_mix = mixing_time_bound(chain, eps)
        rng_seeds = range(4000)
        last = np.array([run_mh(model, kernel, 0, t_mix, seed=s).states[-1]
                         for s in rng_seeds])
        emp = np.bincount(last, minlength=2) / len(last)
        assert tv_distance(emp, chain.stationary) <= 2.0 * eps


class TestMixing:
    def test_two_state_closed_form(self, two_state_gap_half):
        # point-mass TV after n steps is 0.5 * 0.5^n; the bound is 0.5^n / sqrt(2)
        model, kernel = two_state_gap_half
        chain = build_transition_matrix(model, kernel)
        d10, bound10 = mixing_bound_check(chain, 10)
        assert d10 == pytest.approx(0.5 * 0.5**10, abs=1e-14)
        assert bound10 == pytest.approx(0.5**10 / np.sqrt(2.0), abs=1e-14)
        assert d10 <= bound10

    @given(st.integers(0, 10**6), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds(self, seed, n):
        model, kernel = random_instance(seed, allow_2d=False)
        chain = build_transition_matrix(model, kernel)
        d_exact, bound = mixing_bound_check(chain, n)
        assert d_exact <= bound + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_distance_matches_per_row_reference(self, seed):
        chain = build_transition_matrix(*random_instance(seed))
        for n in (1, 3, 17, 100):
            Wn = np.linalg.matrix_power(chain.transition, n)
            ref = max(tv_distance(Wn[x], chain.stationary) for x in range(len(chain.stationary)))
            assert mixing_bound_check(chain, n)[0] == ref

    @pytest.mark.parametrize("seed", range(6))
    def test_power_is_matrix_power_bit_for_bit(self, seed):
        # one chain answers n = 0..130 (2 and 3 are numpy's special cases), in
        # shuffled order, from one squaring ladder
        chain = build_transition_matrix(*random_instance(seed))
        for n in np.random.default_rng(seed).permutation(131).tolist():
            assert np.array_equal(chain.power(n),
                                  np.linalg.matrix_power(chain.transition, n)), n

    def test_ladder_arrays_are_read_only(self, ring8):
        chain = build_transition_matrix(*ring8)
        chain.power(100)
        assert all(not W.flags.writeable for W in (chain.power(2), chain.power(64)))
        with pytest.raises(ValueError, match="read-only"):
            chain.power(4)[0, 0] = 0.0
        assert np.array_equal(chain.power(4), np.linalg.matrix_power(chain.transition, 4))

    def test_call_order_does_not_change_results(self):
        steps = [1, 2, 3, 4, 5, 16, 17, 64, 100]
        for seed in range(6):
            up = build_transition_matrix(*random_instance(seed))
            down = build_transition_matrix(*random_instance(seed))
            ascending = [mixing_bound_check(up, n) for n in steps]
            descending = [mixing_bound_check(down, n) for n in reversed(steps)]
            assert ascending == descending[::-1]

    def test_non_reversible_chain_rejected_on_every_call(self):
        # a lazy walk round a 3-cycle: uniform pi, no detailed balance
        W = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
        space = StateSpace.regular_grid((3,))
        chain = ChainModel(model=TargetModel(space, np.full(3, 1.0 / 3.0), np.zeros(3)),
                           kernel=ProposalKernel.nearest_neighbor(space), transition=W,
                           stationary=np.full(3, 1.0 / 3.0), spectral_gap=0.25,
                           signed_gap=0.25, condition_number=1.0)
        for n in (1, 4):
            assert not chain.is_reversible()
            with pytest.raises(NonReversibleChainError):
                mixing_bound_check(chain, n)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_step_count_rejected(self, ring8, n):
        model, _ = ring8
        kernel = ProposalKernel.nearest_neighbor(model.space, stay_prob=0.2)
        chain = build_transition_matrix(model, kernel)
        with pytest.raises(ValueError, match="n >= 0"):
            mixing_bound_check(chain, n)
        d0, bound0 = mixing_bound_check(chain, 0)       # zero steps stays valid
        assert 0.0 < d0 < 1.0 and d0 <= bound0

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_accuracy_rejected(self, ring8, eps):
        chain = build_transition_matrix(*ring8)
        with pytest.raises(ValueError, match="eps > 0"):
            mixing_time_bound(chain, eps)

    def test_mixing_time_bound_sufficient(self, ring8):
        model, kernel = ring8
        chain = build_transition_matrix(model, kernel)
        for eps in (0.25, 0.1, 0.01):
            n = mixing_time_bound(chain, eps)
            d_exact, _ = mixing_bound_check(chain, n)
            assert d_exact <= eps


class TestLoadModel:
    def test_quadratic_config(self, tmp_path):
        cfg = {
            "grid": {"shape": [8]},
            "prior": {"type": "uniform"},
            "nll": {"type": "quadratic", "center": [3.0], "scale": 0.5},
            "proposal": {"type": "nearest"},
            "seed": 11,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        model, kernel, seed = load_model(path)
        assert seed == 11
        assert model.space.size == 8
        expected = 0.5 * (model.space.points[:, 0] - 3.0) ** 2
        np.testing.assert_allclose(model.neg_log_lik, expected - expected.min(),
                                   atol=1e-12)

    def test_table_config_and_unknown_type(self, tmp_path):
        cfg = {
            "grid": {"shape": [4]},
            "prior": {"type": "table", "values": [0.1, 0.2, 0.3, 0.4]},
            "nll": {"type": "table", "values": [0.0, 1.0, 2.0, 1.0]},
            "proposal": {"type": "gaussian", "width": 1.0, "radius": 1},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        model, kernel, _ = load_model(path)
        np.testing.assert_allclose(model.prior, [0.1, 0.2, 0.3, 0.4])
        cfg["nll"] = {"type": "cubic"}
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("field,value", [("nll", {"type": "table",
                                                       "values": [0.0, float("nan"), 2.0, 1.0]}),
                                              ("proposal", {"type": "nearest",
                                                            "stay_prob": float("nan")})])
    def test_non_finite_input_rejected(self, tmp_path, field, value):
        # json writes and reads NaN; construction must refuse it before any linear algebra
        cfg = {"grid": {"shape": [4]}, "nll": {"type": "table", "values": [0.0, 1.0, 2.0, 1.0]}}
        cfg[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="finite"):
            load_model(path)
