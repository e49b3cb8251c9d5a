"""Tail-CDF estimation, credible-bound search, and the synthetic signal instance."""

import hashlib

import numpy as np
import pytest

from qmhlab import annealing
from qmhlab.inference import (
    CredibleQuery,
    CredibleResult,
    GwInstance,
    PosteriorHandle,
    cdf_exact,
    cdf_qmci,
    classical_credible,
    credible_bound_search,
    gw_identity_error,
    synth_gw_instance,
)
from qmhlab.markov import (
    ChainSample,
    ProposalKernel,
    StateSpace,
    TargetModel,
    build_transition_matrix,
    mixing_time_bound,
    run_mh,
)

from conftest import certified_runs, qpe_estimate_amplitudes

IDENTITY_ATOL = 1e-9


def posterior_16():
    """16-point 1D posterior whose tail CDF passes near 0.25."""
    space = StateSpace.regular_grid((16,))
    nll = 0.05 * (space.points[:, 0] - 7.5) ** 2
    model = TargetModel(space=space, prior=np.full(16, 1.0 / 16.0),
                        neg_log_lik=nll - nll.min())
    return model


def cdf_qmci_reference(handle, axis, a, eps, delta, seed):
    """The per-run loop cdf_qmci replaced: one rng.random and one rng.choice per run, at the
    certified run count."""
    rng = np.random.default_rng(seed)
    amp = cdf_exact(handle.distribution, handle.space, axis, a)
    theta = float(np.arcsin(np.sqrt(np.clip(amp, 0.0, 1.0))))
    t = int(np.ceil(np.log2(2.0 * np.pi / (eps / 3.0)))) + 3
    N = 2**t
    runs = certified_runs(delta, 27 / 28)
    dist_p = np.abs(qpe_estimate_amplitudes(2.0 * theta, t)) ** 2
    dist_m = np.abs(qpe_estimate_amplitudes(-2.0 * theta, t)) ** 2
    dist_p /= dist_p.sum()
    dist_m /= dist_m.sum()
    estimates = np.empty(runs)
    for r in range(runs):
        dist = dist_p if rng.random() < 0.5 else dist_m
        k = int(rng.choice(N, p=dist))
        estimates[r] = np.sin(np.pi * min(k, N - k) / N) ** 2
    estimate = float(np.median(estimates))
    queries = runs * (N - 1) * 2 * handle.prep_queries
    return estimate, queries


# CDF estimation and the search as they were when the estimate charged the
# preparation cost itself, verbatim, with the half-angle sampler it called.

def charging_cdf_qmci(handle, axis, a, eps, delta, seed):
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must be in (0, 1)")
    amp = cdf_exact(handle.distribution, handle.space, axis, a)
    theta = float(np.arcsin(np.sqrt(np.clip(amp, 0.0, 1.0))))
    rng = np.random.default_rng(seed)
    t = int(np.ceil(np.log2(2.0 * np.pi / (eps / 3.0)))) + 3
    N = 2**t
    runs = annealing.median_runs(delta, annealing.MEDIAN_RUN_SUCCESS)
    m, _ = annealing.sample_folded_outcomes(theta, t, rng.random((runs, 2)))
    half_angles, reflections = np.pi * m / N, runs * (N - 1) * 2
    estimates = np.float_power(np.sin(half_angles), 2)
    # one preparation per reflection about the prepared state
    return float(np.median(estimates)), reflections * handle.prep_queries


def search_over_charging_estimates(query, handle, seed):
    grid = np.asarray(handle.space.axes[query.axis], float)
    n_i = len(grid)
    target = query.alpha / 2.0 if query.side == "upper" else 1.0 - query.alpha / 2.0
    n_max = int(np.ceil(np.log2(n_i - 2))) + 1
    delta_call = query.delta / (n_max + 1)
    rng = np.random.default_rng(seed)
    window = 2.0 * query.eps / 3.0
    queries = 0
    j_lb, j_ub = 0, n_i - 1
    iterations = 0
    while True:
        j_mid = int(np.ceil((j_ub + j_lb) / 2.0))
        est, q = charging_cdf_qmci(handle, query.axis, float(grid[j_mid]), query.eps,
                                   delta_call, seed=int(rng.integers(2**63)))
        queries += q
        iterations += 1
        if abs(est - target) <= window:
            return CredibleResult(float(grid[j_mid]), True, iterations, queries)
        if est > target:
            j_lb = j_mid
        else:
            j_ub = j_mid
        if j_ub - j_lb <= 1 or iterations >= n_max:
            return CredibleResult(None, False, iterations, queries)


class TestCdf:
    def test_matches_per_run_reference(self):
        rng = np.random.default_rng(11)
        space = StateSpace.regular_grid((12,))
        for seed in range(240):
            handle = PosteriorHandle(distribution=rng.dirichlet(np.ones(12)), space=space,
                                     prep_queries=int(rng.integers(1, 100)))
            a = float(rng.uniform(-1.0, 12.0))      # includes tails of mass 0 and 1
            eps = float(rng.choice([0.3, 0.1, 0.05]))
            delta = float(rng.uniform(0.01, 0.45))
            est, reflections = cdf_qmci(handle, 0, a, eps, delta, seed)
            assert (est, reflections * handle.prep_queries) == \
                cdf_qmci_reference(handle, 0, a, eps, delta, seed)

    def test_matches_the_charging_estimate(self):
        # the estimate and its reflections, priced at the preparation by the caller,
        # are the charging estimate's pair bit for bit
        rng = np.random.default_rng(12)
        space = StateSpace.regular_grid((12,))
        for seed in range(120):
            handle = PosteriorHandle(distribution=rng.dirichlet(np.ones(12)), space=space,
                                     prep_queries=int(rng.integers(1, 10**12)))
            a = float(rng.uniform(-1.0, 12.0))
            eps = float(rng.choice([0.9, 0.3, 0.1, 0.05, 0.01]))
            delta = float(rng.uniform(0.001, 0.45))
            est, reflections = cdf_qmci(handle, 0, a, eps, delta, seed)
            assert (est, reflections * handle.prep_queries) == \
                charging_cdf_qmci(handle, 0, a, eps, delta, seed)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (2.9, 0.1), (-0.1, 0.1),
                                           (0.1, 0.0), (0.1, 1.0)])
    def test_eps_and_delta_outside_the_unit_interval_rejected(self, eps, delta):
        # eps / 3 is below 1 up to eps = 3, so the eps check is the estimate's own
        handle = PosteriorHandle(np.full(4, 0.25), StateSpace.regular_grid((4,)), 1)
        with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
            cdf_qmci(handle, 0, 1.5, eps, delta, 0)

    def test_exact_enumeration(self):
        space = StateSpace.regular_grid((4,))
        P = np.array([0.1, 0.2, 0.3, 0.4])
        assert cdf_exact(P, space, 0, 1.5) == pytest.approx(0.7)
        assert cdf_exact(P, space, 0, 3.0) == pytest.approx(0.0)
        assert cdf_exact(P, space, 0, -1.0) == pytest.approx(1.0)

    def test_axis_reads_match_the_points_meshgrid(self):
        rng = np.random.default_rng(5)
        for shape in ((7,), (3, 5), (2, 3, 4)):
            axes = tuple(np.sort(rng.uniform(-2.0, 2.0, n)) for n in shape)
            space = StateSpace(shape=shape, axes=axes)
            points = space.points
            P = rng.dirichlet(np.ones(space.size))
            sample = ChainSample(states=rng.integers(0, space.size, 300), burn_in=40)
            for axis in range(len(shape)):
                assert np.array_equal(space.coordinates(axis, np.arange(space.size)),
                                      points[:, axis])
                for a in np.r_[-3.0, axes[axis], 3.0]:
                    assert cdf_exact(P, space, axis, a) == \
                        float(P[points[:, axis] > a].sum())
                vals = points[sample.kept, axis]
                assert classical_credible(sample, space, axis, 0.3) == \
                    (float(np.percentile(vals, 100.0 * 0.3 / 2.0)),
                     float(np.percentile(vals, 100.0 * (1.0 - 0.3 / 2.0))))

    def test_qmci_estimate_accuracy(self):
        model = posterior_16()
        handle = PosteriorHandle(distribution=model.distribution(),
                                 space=model.space, prep_queries=1)
        a = float(model.space.axes[0][10])
        truth = cdf_exact(model.distribution(), model.space, 0, a)
        eps, delta = 0.05, 0.1
        hits = 0
        for seed in range(200):
            est, queries = cdf_qmci(handle, 0, a, eps, delta, seed)
            assert queries > 0
            hits += abs(est - truth) <= eps / 3.0
        assert hits >= int((1.0 - delta) * 200)

    def test_queries_scale_with_preparation_cost(self):
        # the estimate spends reflections whatever a preparation costs; the search prices them
        model = posterior_16()
        h1 = PosteriorHandle(distribution=model.distribution(),
                             space=model.space, prep_queries=1)
        h2 = PosteriorHandle(distribution=model.distribution(),
                             space=model.space, prep_queries=50)
        assert cdf_qmci(h1, 0, 8.0, 0.05, 0.1, seed=0) == cdf_qmci(h2, 0, 8.0, 0.05, 0.1, seed=0)
        query = CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1)
        r1, r2 = (credible_bound_search(query, h, seed=0) for h in (h1, h2))
        assert (r2.value, r2.found, r2.iterations) == (r1.value, r1.found, r1.iterations)
        assert r2.queries == 50 * r1.queries > 0


def test_nae_and_cdf_estimates_are_pinned_for_fixed_seeds():
    # median_estimate reads default_rng(seed).random((runs, 2)) as it did when the sampler
    # took a generator: the digest of 300 overlap and 300 CDF estimates, each with its
    # reflections, is the one the generator-taking sampler gave
    rng = np.random.default_rng(41)
    digest = hashlib.sha256()
    space = StateSpace.regular_grid((9,))
    for seed in range(300):
        eps = float(rng.choice([0.3, 0.1, annealing.NAE_ACCURACY, 0.02]))
        delta = float(rng.choice([rng.uniform(1e-6, 0.45), 1.19e-3, 0.04]))
        state, target = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        est, reflections = annealing.nae_overlap(state, target, eps, delta, seed)
        digest.update(f"{est.hex()} {reflections};".encode())
        handle = PosteriorHandle(rng.dirichlet(np.ones(9)), space, 1)
        est, reflections = cdf_qmci(handle, 0, float(rng.choice(space.axes[0])), eps, delta,
                                    seed)
        digest.update(f"{est.hex()} {reflections};".encode())
    assert digest.hexdigest() == (
        "9e64845dfb4097fe9d39c186a0fffb104b8ab75f1afca1da3e593f27d12951b5")


class TestCredibleSearch:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            CredibleQuery(axis=0, alpha=0.5, eps=0.3, delta=0.1)
        with pytest.raises(ValueError):
            CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1, side="middle")
        for delta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
                CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=delta)

    def test_target_tail_error_and_premise(self):
        # the target is alpha/2 above the upper bound and 1 - alpha/2 above the lower; the
        # premise holds when some grid point's tail mass is within eps/3 of it
        model = posterior_16()
        P, space = model.distribution(), model.space
        tails = np.array([cdf_exact(P, space, 0, v) for v in space.axes[0]])
        for side, target in (("upper", 0.25), ("lower", 0.75)):
            for eps in (0.01, 0.05, 0.2):
                q = CredibleQuery(axis=0, alpha=0.5, eps=eps, delta=0.1, side=side)
                assert q.target == target
                assert q.tail_error(P, space, None) is None
                assert [q.tail_error(P, space, v) for v in space.axes[0]] == list(
                    np.abs(tails - target))
                assert q.tail_error(P, space, 7.5) == abs(cdf_exact(P, space, 0, 7.5) - target)
                assert q.premise(P, space) == bool(np.any(np.abs(tails - target) <= eps / 3))
        # the 16-point posterior's tails step past 0.25 by more than 2 * 0.01 / 3
        assert not CredibleQuery(axis=0, alpha=0.5, eps=0.01, delta=0.1).premise(P, space)
        assert CredibleQuery(axis=0, alpha=0.5, eps=0.2, delta=0.1).premise(P, space)

    def test_bound_found_with_high_probability(self):
        model = posterior_16()
        handle = PosteriorHandle(distribution=model.distribution(),
                                 space=model.space, prep_queries=1)
        query = CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1)
        P = model.distribution()
        iter_cap = int(np.ceil(np.log2(14))) + 1
        good = 0
        for seed in range(100):
            res = credible_bound_search(query, handle, seed)
            assert res.iterations <= iter_cap
            if res.found:
                tail = cdf_exact(P, model.space, 0, res.value)
                good += abs(tail - 0.25) <= query.eps
        assert good >= 90

    def test_lower_side_targets_opposite_tail(self):
        model = posterior_16()
        handle = PosteriorHandle(distribution=model.distribution(),
                                 space=model.space, prep_queries=1)
        query = CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1, side="lower")
        res = credible_bound_search(query, handle, seed=0)
        assert res.found
        tail = cdf_exact(model.distribution(), model.space, 0, res.value)
        assert abs(tail - 0.75) <= query.eps

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_matches_the_search_over_charging_estimates(self, side):
        rng = np.random.default_rng(21)
        for seed in range(60):
            n = int(rng.integers(3, 40))
            handle = PosteriorHandle(distribution=rng.dirichlet(np.full(n, 0.5)),
                                     space=StateSpace.regular_grid((n,)),
                                     prep_queries=int(rng.integers(1, 10**15)))
            query = CredibleQuery(axis=0, alpha=float(rng.uniform(0.2, 0.8)),
                                  eps=float(rng.uniform(0.01, 0.09)),
                                  delta=float(rng.uniform(0.01, 0.4)), side=side)
            assert credible_bound_search(query, handle, seed) == \
                search_over_charging_estimates(query, handle, seed)

    def test_no_output_when_no_grid_point_matches(self):
        # point-mass posterior: tail CDF jumps straight past alpha/2
        space = StateSpace.regular_grid((8,))
        P = np.full(8, 1e-9)
        P[4] = 1.0 - 7e-9
        handle = PosteriorHandle(distribution=P / P.sum(), space=space,
                                 prep_queries=1)
        query = CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.1)
        res = credible_bound_search(query, handle, seed=0)
        assert not res.found
        assert res.value is None

    def test_classical_baseline_brackets_mass(self):
        model = posterior_16()
        kernel = ProposalKernel.nearest_neighbor(model.space)
        chain = build_transition_matrix(model, kernel)
        sample = run_mh(model, kernel, n_b=mixing_time_bound(chain, 0.02),
                        n=20000, seed=0)
        lower, upper = classical_credible(sample, model.space, 0, alpha=0.5)
        assert lower < upper
        P = model.distribution()
        mass = float(P[(model.space.points[:, 0] >= lower)
                       & (model.space.points[:, 0] <= upper)].sum())
        assert mass >= 0.5 - 0.1


class TestGwInstance:
    def test_structural_identity_exact(self):
        for M in (256, 1024):
            inst = synth_gw_instance(0.1, 0.0, M, rho=2.0, seed=0)
            assert gw_identity_error(inst) <= IDENTITY_ATOL

    def test_injected_norm_matches_rho(self):
        inst = synth_gw_instance(0.1, 0.0, 512, rho=2.0, seed=1, noiseless=True)
        # with zero noise, -2 (h|s) at the true parameters is -2 rho^2, and
        # ell0 there is rho^2, so L is minimized at the injection
        truth_x = None
        for x in range(inst.space.size):
            i, j = np.unravel_index(x, inst.space.shape)
            if np.isclose(inst.space.axes[0][i], 0.1) and np.isclose(
                    inst.space.axes[1][j], 0.0):
                truth_x = x
        assert truth_x is None  # default 4x4 grid excludes the center point
        inst = synth_gw_instance(0.1, 0.0, 512, rho=2.0, seed=1,
                                 grid_shape=(5, 5), noiseless=True)
        L = inst.oracle.full_nll()
        center = int(np.ravel_multi_index((2, 2), inst.space.shape))
        assert int(np.argmin(L)) == center

    def test_oracle_adopts_the_fresh_table(self, monkeypatch):
        from qmhlab import inference, qmci
        handed = []

        class Recording(qmci.LikelihoodOracle):
            def __init__(self, table, *args, **kwargs):
                handed.append(table)
                super().__init__(table, *args, **kwargs)

        monkeypatch.setattr(inference, "LikelihoodOracle", Recording)
        inst = synth_gw_instance(0.1, 0.0, 256, rho=2.0, seed=0)
        assert inst.oracle.table is handed[0]
        assert not inst.oracle.table.flags.writeable

    def test_sigma_bound_holds_on_table(self):
        inst = synth_gw_instance(0.1, 0.0, 256, rho=2.0, seed=3)
        assert float(inst.oracle.table.std(axis=0, ddof=0).max()) <= inst.sigma

    def test_sigma_scales_as_sqrt_m(self):
        Ms = [2**8, 2**9, 2**10, 2**11, 2**12]
        sigmas = np.zeros(len(Ms))
        for seed in range(3):
            sigmas += [synth_gw_instance(0.1, 0.0, M, rho=2.0, seed=seed).sigma for M in Ms]
        sigmas /= 3.0
        ratios = sigmas[1:] / sigmas[:-1]
        assert np.all(np.abs(ratios - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M", [2, 0, -2])
    def test_fewer_than_four_terms_rejected(self, M):
        # M = 2 has no frequency mode: an all-zero table after a divide-by-zero warning;
        # M = 0 died inside NumPy's FFT
        with pytest.raises(ValueError, match=f"M must be even and at least 4, not {M}"):
            synth_gw_instance(0.1, 0.0, M, rho=2.0, seed=0)
        assert synth_gw_instance(0.1, 0.0, 4, rho=2.0, seed=0).sigma > 0

    def test_rejects_odd_length_and_bad_rho(self):
        with pytest.raises(ValueError):
            synth_gw_instance(0.1, 0.0, 255, rho=2.0, seed=0)
        with pytest.raises(ValueError):
            synth_gw_instance(0.1, 0.0, 256, rho=0.0, seed=0)
