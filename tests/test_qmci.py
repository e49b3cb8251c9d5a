"""Mean estimation of likelihood tables and the annealing pipeline on top."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmhlab import annealing, cli, markov, qmci
from qmhlab.inference import synth_gw_instance
from qmhlab.markov import (
    ProposalKernel,
    StateSpace,
    TargetModel,
    build_transition_matrix,
    tv_distance,
)
from qmhlab.annealing import binomial_sf
from qmhlab.perturbation import tv_perturbation_bound
from qmhlab.qmci import (
    FAITHFUL_MAX_TERMS,
    LikelihoodOracle,
    QmciResult,
    _truncate,
    approx_acceptance_table,
    approx_walk_operator,
    estimate_nll,
    estimation_charge,
    internal_accuracy,
    qmci_mean,
    qsa_with_qmci,
    query_charge,
    round_at_bit,
)
from qmhlab.qsim import RegisterLayout, verify_phase_gap

from conftest import certified_runs, count_linalg_calls


# The per-outcome faithful estimator, kept as the reference for the array code:
# it folds the outcome law in a Python loop, takes two binomial tails, rounds
# each outcome in a Python loop, and recomputes the oracle's mean.

def reference_outcome_distribution(amplitude_sq: float, t: int):
    theta = float(np.arcsin(np.sqrt(np.clip(amplitude_sq, 0.0, 1.0))))
    N = 2**t
    plus, minus = annealing._qpe_outcome_distributions(2.0 * theta, t)
    probs = 0.5 * (plus + minus)
    probs /= probs.sum()
    values = np.round(np.sin(np.pi * np.arange(N) / N) ** 2, 15)[:N // 2 + 1]
    # outcomes m and N-m encode the same estimate; 0 and N/2 have no partner
    agg = [probs[m] + probs[N - m] if 0 < m < N // 2 else probs[m] for m in range(N // 2 + 1)]
    return values, np.array(agg)


def rounding_keyed_outcome_distribution(amplitude_sq: float, t: int):
    """The fold the library used before outcomes were paired by index: values
    rounded to 15 decimals and merged where equal, which leaves some k and N-k apart."""
    theta = float(np.arcsin(np.sqrt(np.clip(amplitude_sq, 0.0, 1.0))))
    N = 2**t
    plus, minus = annealing._qpe_outcome_distributions(2.0 * theta, t)
    probs = 0.5 * (plus + minus)
    probs /= probs.sum()
    k = np.arange(N)
    values = np.sin(np.pi * k / N) ** 2
    # outcomes k and N-k encode the same estimate
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    uniq, inv = np.unique(np.round(values, 15), return_inverse=True)
    agg = np.zeros(len(uniq))
    np.add.at(agg, inv, probs)
    return uniq, agg


def reference_median_distribution(probs, runs: int):
    cdf = np.clip(np.cumsum(probs), 0.0, 1.0)
    below = np.concatenate([[0.0], cdf[:-1]])
    from scipy.stats import binom
    half = runs // 2
    # P(median = v_j) = P(at least half+1 draws <= v_j) - P(... <= v_{j-1})
    p_le = binom.sf(half, runs, cdf)
    p_lt = binom.sf(half, runs, below)
    pmf = np.maximum(p_le - p_lt, 0.0)
    pmf /= pmf.sum()
    return pmf


def reference_qmci_mean(oracle, x, eps, delta, mode, seed):
    """The estimator's result and, for a simulated faithful call, its law: the
    rounded estimate per folded outcome, the median's law over them and the
    good-outcome mask (None otherwise).  The faithful draw is one value from
    that law, as the library drew it before the median was taken of sampled runs.
    Emulated mode draws eta for every state from default_rng(seed) and reads x's."""
    truth = float(oracle.table.mean(axis=0)[x])
    b = int(np.floor(np.log2(eps / 1.5)))
    if eps >= 4.0 * oracle.sigma:
        est = round_at_bit(truth, b) if truth >= 0 else -round_at_bit(-truth, b)
        return QmciResult(est, 0, True, 0.0), None
    eps_in = 2.0 ** (b - 1)
    delta_in = delta / 4.0
    charge = query_charge(oracle.sigma, eps, delta)

    def rounded(v: float) -> float:
        return round_at_bit(v, b) if v >= 0 else -round_at_bit(-v, b)

    if mode == "emulated":
        eta = np.random.default_rng(seed).uniform(-1.0, 1.0, oracle.n_states)[x]
        est = rounded(truth + eps_in * eta)
        if abs(est - truth) > eps:
            est = rounded(truth)
        return QmciResult(est, charge, True, 0.0), None

    assert mode == "faithful" and oracle.M <= FAITHFUL_MAX_TERMS
    rng = np.random.default_rng(seed)
    col = oracle.table[:, x]
    lo, hi = float(col.min()), float(col.max())
    if hi - lo < 1e-15:
        est = rounded(truth)
        return QmciResult(est, charge, True, 0.0), None
    a = (truth - lo) / (hi - lo)
    eps_norm = eps_in / (hi - lo)
    t = int(np.ceil(np.log2(2.0 * np.pi / min(eps_norm, 0.5)))) + 2
    t = min(t, 16)
    runs = certified_runs(delta_in, 11 / 12)
    values, probs = reference_outcome_distribution(a, t)
    med_pmf = reference_median_distribution(probs, runs)
    raw_values = lo + values * (hi - lo)
    est_values = np.array([rounded(v) for v in raw_values])
    good = np.abs(est_values - truth) <= eps
    residual = float(med_pmf[~good].sum())
    j = int(rng.choice(len(values), p=med_pmf))
    return (QmciResult(float(est_values[j]), charge, bool(good[j]), residual),
            (est_values, med_pmf, good))


# The per-state faithful estimator as it was before tables became one array pass, with
# the one-angle sampler and the one-p binomial tail it called; re-derived on the one
# stream per table (state x's runs are column x of default_rng(seed).random((runs, n, 2)))
# and the truncation bit floor(log2(eps / 1.5)), otherwise verbatim.

def binomial_sf_before_the_array_pass(k: int, n: int, p: float) -> float:
    if not 0.0 < p < 1.0:
        return float(p >= 1.0 and k < n)
    ratio = (n - np.arange(n)) / np.arange(1, n + 1) * (p / (1.0 - p))   # term j+1 over term j
    mode = min(int((n + 1) * p), n)
    terms = np.ones(n + 1)
    terms[mode + 1:] = np.cumprod(ratio[mode:])
    terms[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return float(terms[k + 1:].sum() / terms.sum())


def sample_folded_outcomes_before_the_array_pass(theta, t, u):
    N = 2**t
    plus = annealing._qpe_outcome_law(2.0 * theta, t, np.arange(N))
    plus /= plus.sum()
    laws = plus, np.roll(plus[::-1], 1)
    plus, minus = (np.cumsum(d) for d in laws)
    k = np.where(u[:, 0] < 0.5, (plus / plus[-1]).searchsorted(u[:, 1], side="right"),
                 (minus / minus[-1]).searchsorted(u[:, 1], side="right"))
    # either eigenvector gives m the same law; outcome N - j folds onto j
    return np.minimum(k, N - k), lambda: np.cumsum(
        laws[0][:N // 2 + 1] + np.concatenate([[0.0], laws[0][:N // 2:-1], [0.0]]))


def qmci_mean_before_the_array_pass(oracle, x, eps, delta, mode, seed):
    qmci._check_request(eps, delta, mode)
    if not 0 <= x < oracle.n_states:
        raise ValueError(f"state index {x} outside 0..{oracle.n_states - 1}")
    charge = estimation_charge(oracle, eps, delta)
    if mode == "emulated" or charge == 0:
        oracle.charge(charge)
        est = qmci._emulated_means(oracle, [x], eps, seed, shortcut=charge == 0)
        return QmciResult(float(est[0]), charge, True, 0.0)
    if oracle.M > FAITHFUL_MAX_TERMS:
        raise ValueError(f"faithful mode limited to M <= {FAITHFUL_MAX_TERMS}")
    oracle.charge(charge)

    truth = float(oracle.mean_table()[x])
    b = int(np.floor(np.log2(eps / 1.5)))
    lo, hi = float(oracle.table[:, x].min()), float(oracle.table[:, x].max())
    if hi - lo < 1e-15:
        return QmciResult(float(_truncate(truth, b)), charge, True, 0.0)
    theta = float(np.arcsin(np.sqrt(np.clip((truth - lo) / (hi - lo), 0.0, 1.0))))
    eps_norm = 2.0 ** (b - 1) / (hi - lo)
    t = min(int(np.ceil(np.log2(2.0 * np.pi / min(eps_norm, 0.5)))) + 2, 16)
    runs = certified_runs(delta / 4.0, 11 / 12)
    u = np.random.default_rng(seed).random((runs, oracle.n_states, 2))[:, x]
    m, cdf = sample_folded_outcomes_before_the_array_pass(theta, t, u)
    median = int(np.median(m))
    # outcome m estimates sin^2(pi m / 2^t); the estimates rise with m, so the
    # good outcomes form one range [g0, g1] (empty when t = 16 cannot resolve eps)
    values = np.round(np.sin(np.pi * np.arange(2 ** (t - 1) + 1) / 2**t) ** 2, 15)
    est = _truncate(lo + values * (hi - lo), b)
    good = np.flatnonzero(np.abs(est - truth) <= eps)
    g0, g1 = (good[0], good[-1]) if good.size else (len(est), len(est) - 1)
    # the median misses [g0, g1] when over half the runs land below g0, or above g1
    below, h = np.append(0.0, cdf()), runs // 2           # below[j] = P(m < j)
    residual = (binomial_sf_before_the_array_pass(h, runs, below[g0])
                + binomial_sf_before_the_array_pass(h, runs, 1.0 - below[g1 + 1]))
    return QmciResult(float(est[median]), charge, bool(g0 <= median <= g1), residual)


# The estimator and table builder as they were when the estimator charged the oracle
# itself and the builder topped the charge up to its pairs', verbatim.

def charging_qmci_mean(oracle, x, eps, delta, mode, seed):
    qmci._check_request(eps, delta, mode)
    states = np.atleast_1d(x)
    if np.any((states < 0) | (states >= oracle.n_states)):
        raise ValueError(f"state index {x} outside 0..{oracle.n_states - 1}")
    charge = estimation_charge(oracle, eps, delta)
    faithful = mode == "faithful" and charge > 0
    if faithful and oracle.M > FAITHFUL_MAX_TERMS:
        raise ValueError(f"faithful mode limited to M <= {FAITHFUL_MAX_TERMS}")
    oracle.charge(len(states) * charge)
    est, success, residual = (
        qmci._faithful_means(oracle, states, eps, delta, seed) if faithful else
        (qmci._emulated_means(oracle, states, eps, seed, shortcut=charge == 0),
         np.ones(len(states), bool), np.zeros(len(states))))
    if np.ndim(x) == 0:
        return QmciResult(float(est[0]), charge, bool(success[0]), float(residual[0]))
    return QmciResult(est, len(states) * charge, success, residual)


def charging_estimate_and_charge(oracle, kernel, eps, delta, seed, mode):
    res = charging_qmci_mean(oracle, np.arange(oracle.n_states), eps, delta, mode, seed)
    nll = np.maximum(0.0, res.estimate + oracle.ell0 + oracle.const)
    charge = estimation_charge(oracle, eps, delta)
    n_pairs = kernel.space.size * sum(any(m) for m, w in zip(kernel.moves, kernel.weights) if w > 0)
    # charge the uncompute halves on top of the per-state estimations
    oracle.charge(max(0, n_pairs * 4 * charge - oracle.n_states * charge))
    return nll, float(res.residual.max()), 4 * charge


def small_oracle(seed=0, M=8, n=5, lo=0.0, hi=4.0):
    rng = np.random.default_rng(seed)
    table = rng.uniform(lo, hi, size=(M, n))
    sigma = float(table.std(axis=0, ddof=0).max()) * 1.05 + 1e-12
    return LikelihoodOracle(table, sigma)


class TestRounding:
    def test_examples(self):
        assert round_at_bit(1.375, -1) == 1.0
        assert round_at_bit(1.375, -2) == 1.25
        assert round_at_bit(1.375, -3) == 1.375
        assert round_at_bit(0.0, -4) == 0.0

    @given(st.floats(0.0, 100.0, allow_nan=False), st.integers(-20, 3))
    @settings(max_examples=100, deadline=None)
    def test_truncation_error_below_bit(self, x, a):
        r = round_at_bit(x, a)
        assert 0.0 <= x - r < 2.0**a + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            round_at_bit(-0.5, -1)

    def test_signed_array_truncation_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        v = np.concatenate([rng.uniform(-50.0, 50.0, 400), rng.normal(0.0, 1e-3, 100),
                            [0.0, -0.0, 0.75, -0.75, 2.0**-9, -(2.0**-9)]])
        for a in range(-12, 4):
            loop = [round_at_bit(x, a) if x >= 0 else -round_at_bit(-x, a) for x in v]
            assert np.array_equal(_truncate(v, a), loop)
            assert all(float(_truncate(x, a)) == r for x, r in zip(v[:20], loop))


class TestQueryCharge:
    @given(st.floats(0.01, 100.0), st.floats(0.001, 10.0), st.floats(0.01, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_positive_and_monotone_in_accuracy(self, sigma, eps, delta):
        q = query_charge(sigma, eps, delta)
        assert q >= 1
        assert query_charge(sigma, eps / 2.0, delta) >= q

    def test_monotone_in_sigma_and_delta(self):
        assert query_charge(2.0, 0.1, 0.1) >= query_charge(1.0, 0.1, 0.1)
        assert query_charge(1.0, 0.1, 0.01) >= query_charge(1.0, 0.1, 0.1)


class TestLikelihoodOracle:
    def test_variance_bound_enforced(self):
        table = np.array([[0.0, 0.0], [2.0, 2.0]])
        with pytest.raises(ValueError):
            LikelihoodOracle(table, sigma=0.5)
        LikelihoodOracle(table, sigma=1.01)

    def test_mean_reproducible_from_table(self):
        oracle = small_oracle(3)
        np.testing.assert_allclose(oracle.mean_table(),
                                   oracle.table.mean(axis=0), atol=0.0)

    def test_counter_never_decreases(self):
        oracle = small_oracle(5)
        oracle.charge(10)
        with pytest.raises(ValueError):
            oracle.charge(-1)
        assert oracle.queries == 10

    def test_from_nll_centers_the_mean(self):
        L = np.array([0.0, 1.0, 2.5])
        oracle = LikelihoodOracle.from_nll(L, M=32, spread=0.5, seed=0)
        np.testing.assert_allclose(oracle.mean_table(), L, atol=1e-12)
        assert oracle.sigma >= float(oracle.table.std(axis=0, ddof=0).max())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M", [0, -1])
    def test_no_terms_is_rejected_before_any_draw(self, M):
        # an empty table's mean is NumPy's "Mean of empty slice" warning and a NaN
        with pytest.raises(ValueError, match=f"M >= 1 terms, not M = {M}"):
            LikelihoodOracle.from_nll(np.zeros(4), M=M, spread=0.5, seed=0)
        with pytest.raises(ValueError, match=r"M >= 1 terms, not \(0, 4\)"):
            LikelihoodOracle(np.zeros((0, 4)), sigma=1.0)

    def test_table_is_read_only_and_caller_array_stays_writable(self):
        table = np.random.default_rng(1).uniform(0.0, 4.0, size=(6, 3))
        oracle = LikelihoodOracle(table, sigma=4.0)
        with pytest.raises(ValueError):
            oracle.table[0, 0] = 1.0
        with pytest.raises(ValueError):
            oracle.mean_table()[0] = 1.0
        table[0, 0] = table[0, 0]
        assert table.flags.writeable
        assert np.array_equal(oracle.mean_table(), table.mean(axis=0))
        # a later write to the caller's array reaches neither the table nor its mean
        snapshot, mean = oracle.table.copy(), oracle.mean_table().copy()
        table[:, 0] = 5.0
        assert np.array_equal(oracle.table, snapshot)
        assert np.array_equal(oracle.mean_table(), mean)

    def test_adopts_read_only_table_that_owns_its_data(self):
        table = np.random.default_rng(2).uniform(0.0, 4.0, size=(6, 3))
        table.flags.writeable = False
        oracle = LikelihoodOracle(table, sigma=4.0)
        assert oracle.table is table
        assert np.array_equal(oracle.mean_table(), table.mean(axis=0))

    def test_copies_every_other_table(self):
        base = np.random.default_rng(3).uniform(0.0, 4.0, size=(6, 4))
        view = base[:, :3]
        view.flags.writeable = False                 # read-only, but base can still write
        ints = np.arange(12).reshape(4, 3)
        ints.flags.writeable = False
        for table in (base, view, ints, base.tolist()):
            oracle = LikelihoodOracle(table, sigma=10.0)
            assert not np.shares_memory(oracle.table, np.asarray(table))
            assert oracle.table.dtype == float and not oracle.table.flags.writeable


class TestEmulatedMode:
    def test_error_within_eps_exhaustively(self):
        for seed in range(5):
            oracle = small_oracle(seed)
            eps = 0.25 * oracle.sigma
            for x in range(oracle.n_states):
                res = qmci_mean(oracle, x, eps, 0.1, "emulated", seed=seed)
                assert res.success
                assert abs(res.estimate - oracle.mean_table()[x]) <= eps

    def test_deterministic_per_state_and_seed(self):
        oracle = small_oracle(11)
        eps = 0.2 * oracle.sigma
        r1 = qmci_mean(oracle, 2, eps, 0.1, "emulated", seed=9)
        r2 = qmci_mean(oracle, 2, eps, 0.1, "emulated", seed=9)
        assert r1.estimate == r2.estimate
        r3 = qmci_mean(oracle, 2, eps, 0.1, "emulated", seed=10)
        assert r3.estimate != r1.estimate or True  # may coincide; no crash

    def test_queries_match_schedule(self):
        oracle = small_oracle(13)
        eps, delta = 0.2 * oracle.sigma, 0.1
        res = qmci_mean(oracle, 0, eps, delta, "emulated", seed=0)
        assert res.queries == query_charge(oracle.sigma, eps, delta)
        assert oracle.queries == 0                      # reported, not charged

    def test_coarse_eps_clamps_to_zero_queries(self):
        oracle = small_oracle(17)
        eps = 4.0 * oracle.sigma
        res = qmci_mean(oracle, 1, eps, 0.1, "emulated", seed=0)
        assert res.queries == 0
        assert abs(res.estimate - oracle.mean_table()[1]) <= eps


    @pytest.mark.parametrize("mode", ["emulated", "faithful"])
    def test_table_pass_matches_per_state_estimates(self, mode):
        # estimate_nll equals one qmci_mean per state, clipped after the offsets, and
        # neither charges the oracle; eps = 40 is the classical shortcut
        rng = np.random.default_rng(3)
        for trial in range(12):
            M, n = int(rng.integers(2, FAITHFUL_MAX_TERMS + 1)), int(rng.integers(2, 13))
            table = rng.uniform(-1.0, 3.0, size=(M, n))
            sigma = float(table.std(axis=0).max()) * 1.05 + 1e-12
            ell0, const = rng.uniform(-0.5, 0.5, n), float(rng.uniform(-0.5, 0.5))
            for eps in (0.01, 0.1, 0.3, 40.0):
                whole, single = (LikelihoodOracle(table, sigma, ell0, const) for _ in range(2))
                nll, residual, misses = estimate_nll(whole, eps, 0.1, mode, seed=trial)
                results = [qmci_mean(single, x, eps, 0.1, mode, seed=trial) for x in range(n)]
                expected = np.maximum(0.0, np.array([r.estimate for r in results]) + ell0 + const)
                assert np.array_equal(nll, expected)
                assert residual == max(r.residual for r in results)
                assert misses == sum(not r.success for r in results)
                assert whole.queries == single.queries == 0
                assert sum(r.queries for r in results) == n * estimation_charge(whole, eps, 0.1)


class TestFaithfulMode:
    def test_success_statistics(self):
        oracle = small_oracle(0, M=8, n=4)
        eps, delta = 0.25 * oracle.sigma, 0.1
        n_runs = 0
        n_success = 0
        for seed in range(100):
            for x in range(oracle.n_states):
                res = qmci_mean(oracle, x, eps, delta, "faithful", seed=seed)
                n_runs += 1
                if res.success:
                    n_success += 1
                    assert abs(res.estimate - oracle.mean_table()[x]) <= eps
                assert res.residual <= delta
        assert n_success / n_runs >= 0.9

    def test_rejects_large_term_count(self):
        oracle = small_oracle(1, M=32)
        with pytest.raises(ValueError):
            qmci_mean(oracle, 0, 0.1, 0.1, "faithful", seed=0)

    def test_constant_column_is_exact(self):
        table = np.tile(np.array([1.0, 2.0]), (4, 1))
        oracle = LikelihoodOracle(table, sigma=1e-6)
        eps = 0.25e-6
        res = qmci_mean(oracle, 1, eps=eps, delta=0.1, mode="faithful", seed=0)
        assert res.success
        assert abs(res.estimate - 2.0) <= eps

    def test_unknown_mode_rejected(self):
        oracle = small_oracle(2)
        with pytest.raises(ValueError):
            qmci_mean(oracle, 0, 0.1, 0.1, "typo", seed=0)


class TestEstimatorsOnlyEstimate:
    """qmci_mean returns, bit for bit, what the charging estimator returned, and charges
    nothing; the table builder alone charges what the charging estimates and top-up did."""

    @pytest.mark.parametrize("mode", ["emulated", "faithful"])
    def test_matches_the_charging_estimator(self, mode):
        rng = np.random.default_rng(8)
        for trial in range(16):
            M, n = int(rng.integers(2, FAITHFUL_MAX_TERMS + 1)), int(rng.integers(2, 9))
            table = rng.uniform(-1.0, 3.0, size=(M, n))
            sigma = float(table.std(axis=0).max()) * 1.05 + 1e-12
            for eps in (0.01, 0.1, 40.0):           # 40 is the classical shortcut
                for x in (np.arange(n), int(rng.integers(n))):
                    pure, charging = (LikelihoodOracle(table, sigma) for _ in range(2))
                    got = qmci_mean(pure, x, eps, 0.1, mode, seed=trial)
                    ref = charging_qmci_mean(charging, x, eps, 0.1, mode, seed=trial)
                    for field in ("estimate", "success", "residual"):
                        assert np.array_equal(getattr(got, field), getattr(ref, field))
                    assert type(got.estimate) is type(ref.estimate)
                    assert got.queries == ref.queries == charging.queries
                    assert pure.queries == 0

    @pytest.mark.parametrize("mode", ["emulated", "faithful"])
    @pytest.mark.parametrize("moves", ["stay-only", "nearest", "nearest-and-stay"])
    def test_table_builder_charges_what_estimates_and_top_up_did(self, mode, moves):
        # a stay-only kernel has no pairs: the table's estimations are the whole charge
        space = StateSpace.regular_grid((6,))
        kernel = {"stay-only": ProposalKernel(space, ((0,),), np.array([1.0])),
                  "nearest": ProposalKernel.nearest_neighbor(space),
                  "nearest-and-stay": ProposalKernel.nearest_neighbor(space, stay_prob=0.2)}[moves]
        nll = 0.3 * (space.points[:, 0] - 2.0) ** 2
        for eps in (0.05, 0.3, 40.0):
            pure, charging = (LikelihoodOracle.from_nll(nll, M=16, spread=0.5, seed=0)
                              for _ in range(2))
            got = qmci._estimate_and_charge(pure, kernel, eps, 0.1, 0, mode)
            ref = charging_estimate_and_charge(charging, kernel, eps, 0.1, 0, mode)
            assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]
            assert pure.queries == charging.queries
            assert pure.queries > 0 or eps == 40.0


class TestRejectBeforeCharge:
    """A rejected call raises ValueError and charges nothing, on the shortcut path too."""

    @staticmethod
    def oracle():
        return LikelihoodOracle.from_nll(np.linspace(0, 3, 8), M=64, spread=0.5, seed=0)

    @pytest.mark.parametrize("eps", [0.01, 2.5], ids=["estimated", "shortcut"])
    @pytest.mark.parametrize("x,mode", [(0, "bogus"), (-1, "emulated"), (8, "emulated"),
                                        (-1, "faithful"), (8, "faithful")])
    def test_bad_mode_or_state_index(self, eps, x, mode):
        oracle = self.oracle()
        assert (estimation_charge(oracle, eps, 0.1) == 0) == (eps == 2.5)
        with pytest.raises(ValueError):
            qmci_mean(oracle, x, eps, 0.1, mode, seed=0)
        assert oracle.queries == 0

    @pytest.mark.parametrize("eps,delta,mode", [
        (0.0, 0.1, "emulated"), (-0.1, 0.1, "emulated"), (0.01, 0.0, "emulated"),
        (0.01, 1.0, "faithful"), (0.01, 0.1, "bogus"), (2.5, 0.1, "bogus"),
        (0.01, 0.1, "faithful")])
    def test_bad_table_estimation_request(self, eps, delta, mode):
        # the last case is faithful mode past its term cap (M = 64)
        oracle = self.oracle()
        with pytest.raises(ValueError):
            estimate_nll(oracle, eps, delta, mode, seed=0)
        assert oracle.queries == 0

    def test_faithful_term_cap_through_table_and_walk_operator(self):
        space = StateSpace.regular_grid((8,))
        model = TargetModel(space, np.full(8, 1.0 / 8.0), np.linspace(0, 3, 8))
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        for run in (lambda o: estimate_nll(o, 0.01, 0.1, "faithful", seed=0),
                    lambda o: approx_walk_operator(o, model, kernel, layout, 0.01, 0.1, seed=0,
                                                   mode="faithful")):
            oracle = self.oracle()
            with pytest.raises(ValueError, match="faithful mode limited"):
                run(oracle)
            assert oracle.queries == 0

    def test_faithful_term_cap(self):
        oracle = self.oracle()
        assert oracle.M > FAITHFUL_MAX_TERMS
        with pytest.raises(ValueError, match="faithful mode limited"):
            qmci_mean(oracle, 0, 0.01, 0.1, "faithful", seed=0)
        assert oracle.queries == 0
        # the shortcut needs no amplitude estimation, so the cap does not apply; it
        # truncates the mean 3.0 at bit floor(log2(2.5 / 1.5)) = 0
        res = qmci_mean(oracle, 7, 2.5, 0.1, "faithful", seed=0)
        assert (res.estimate, res.queries, oracle.queries) == (3.0, 0, 0)


def run_fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter that imports qmhlab from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestMedianTail:
    @pytest.mark.parametrize("runs", [1, 3, 23, 45, 61, 101, 10001])
    def test_incomplete_beta_is_the_binomial_tail(self, runs):
        # P(X > h) summed term by term is binom.sf, the incomplete beta I_p(h+1, runs-h),
        # also at runs = 10001, where comb(runs, j) * p^j would overflow; at 45, 101 and
        # 10001 the array form, fed a few hundred p at a time, is the one-p form bit for bit
        from scipy.stats import binom
        rng = np.random.default_rng(runs)
        h = runs // 2
        for cdf in (np.linspace(0.0, 1.0, 1001), np.sort(rng.uniform(0.0, 1.0, 20000)),
                    np.clip(np.cumsum(np.append(0.0, rng.dirichlet(np.ones(50)))), 0.0, 1.0)):
            got = np.array([binomial_sf(h, runs, p) for p in cdf])
            assert np.max(np.abs(got - binom.sf(h, runs, cdf))) <= 1e-13
            if runs in (45, 101, 10001):
                rows = np.concatenate([binomial_sf(h, runs, part)
                                       for part in np.array_split(cdf, len(cdf) // 200 + 1)])
                assert np.array_equal(rows, got)

    @pytest.mark.parametrize("runs", [45, 101, 10001])
    def test_array_tail_at_the_ends_and_near_1e_38(self, runs):
        # p = 0 and p = 1 are exact, and tails near criterion 06's 1.5389e-38 keep
        # their digits: within 1e-13 absolutely, as everywhere, and 1e-12 relatively
        from scipy.stats import binom
        h = runs // 2
        assert np.array_equal(binomial_sf(h, runs, np.array([0.0, 1.0])), [0.0, 1.0])
        assert np.array_equal(binomial_sf(runs, runs, np.array([0.0, 1.0])), [0.0, 0.0])
        # the p whose tail is 1.5389e-38, by bisection on binom.sf's logarithm
        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if binom.logsf(h, runs, mid) < np.log(1.5389e-38) else (lo, mid)
        p = lo * (1.0 + 1e-3 * np.linspace(-1.0, 1.0, 41))
        got, want = binomial_sf(h, runs, p), binom.sf(h, runs, p)
        assert want.min() < 1.5389e-38 < want.max() and want.min() > 0.0
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        assert np.array_equal(got, [binomial_sf(h, runs, q) for q in p])

    def test_faithful_estimation_and_qpe_gate_leave_scipy_stats_unimported(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from qmhlab import annealing, qmci\n"
            "from qmhlab.markov import (ProposalKernel, StateSpace, TargetModel,\n"
            "                           build_transition_matrix)\n"
            "table = np.random.default_rng(0).uniform(0.0, 4.0, size=(8, 5))\n"
            "oracle = qmci.LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)\n"
            "assert qmci.qmci_mean(oracle, 0, 0.1, 0.1, 'faithful', seed=0).queries > 0\n"
            "space = StateSpace.regular_grid((6,))\n"
            "model = TargetModel(space=space, prior=np.full(6, 1 / 6),\n"
            "                    neg_log_lik=np.linspace(0.0, 1.0, 6))\n"
            "chain = build_transition_matrix(model, ProposalKernel.nearest_neighbor(space))\n"
            "annealing.QpePhaseGate(chain, annealing.OMEGA_PI3, 0.05)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        assert run_fresh(code).strip() == "False"

    def test_numpy_alone_until_faithful_estimation(self):
        # every layer on a small GW instance, a reducible chain's error message, then
        # one faithful estimation: none of them loads SciPy
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from qmhlab import annealing, inference, markov, perturbation, qmci, qsim\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "inst = inference.synth_gw_instance(0.1, 0.0, 64, 2.0, 0, grid_shape=(4, 4))\n"
            "model, kernel = inst.model, markov.ProposalKernel.nearest_neighbor(inst.space)\n"
            "res = qmci.qsa_with_qmci(inst.oracle, model, kernel, 0.1, 0.2, 0)\n"
            "handle = inference.PosteriorHandle(res.model_pert.distribution(), inst.space,\n"
            "                                   res.oracle_queries)\n"
            "query = inference.CredibleQuery(axis=0, alpha=0.5, eps=0.05, delta=0.2,\n"
            "                                side='upper')\n"
            "inference.credible_bound_search(query, handle, 0)\n"
            "chain = markov.build_transition_matrix(model, kernel)\n"
            "markov.run_mh(model, kernel, 10, 100, 0)\n"
            "markov.mixing_bound_check(chain, 4)\n"
            "pert = perturbation.perturb_likelihood(model.neg_log_lik, 0.05, 0)\n"
            "chain_pert = markov.build_transition_matrix(\n"
            "    model.with_neg_log_lik(pert.perturbed), kernel)\n"
            "assert perturbation.acceptance_error_check(model, kernel, pert)[2]\n"
            "assert perturbation.spectral_gap_perturbation_check(\n"
            "    chain, chain_pert, kernel, pert.eps)[2]\n"
            "assert perturbation.tv_perturbation_check(model, kernel, pert)[2]\n"
            "space = markov.StateSpace.regular_grid((6,))\n"
            "parity = markov.ProposalKernel(space, ((2,), (4,)), np.array([0.5, 0.5]))\n"
            "try:\n"
            "    markov.build_transition_matrix(\n"
            "        markov.TargetModel(space, np.full(6, 1 / 6), np.zeros(6)), parity)\n"
            "except markov.ReducibleChainError as exc:\n"
            "    assert '2 strongly connected components' in str(exc)\n"
            "print(json.dumps(scipy_modules()))\n"
            "table = np.random.default_rng(0).uniform(0.0, 4.0, size=(8, 5))\n"
            "oracle = qmci.LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)\n"
            "assert qmci.qmci_mean(oracle, 0, 0.1, 0.1, 'faithful', seed=0).queries > 0\n"
            "print(json.dumps(scipy_modules()))\n"
        )
        emulated, faithful = (json.loads(line) for line in run_fresh(code).splitlines())
        assert emulated == faithful == []


def fold_cdf(a: float, t: int) -> np.ndarray:
    """The sampler's one-run CDF of the folded outcome at amplitude a, t ancillas."""
    theta = float(np.arcsin(np.sqrt(a)))
    _, cdf = annealing.sample_folded_outcomes(theta, t, np.zeros((1, 2)))
    return cdf()


class TestFaithfulArrayCode:
    """The faithful estimator's sampler and tails against the per-outcome reference laws."""

    AMPLITUDES = [0.0, 0.5, 1.0] + list(np.random.default_rng(3).uniform(0.0, 1.0, 3))

    @pytest.mark.parametrize("t", range(1, 17))
    def test_outcome_and_median_distributions(self, t):
        # the fold CDF is the reference law's cumsum; the median's CDF, one binomial tail
        # at it, is the reference median law's cumsum, checked around the law's peak
        N = 2**t
        for a in self.AMPLITUDES:
            cdf = fold_cdf(a, t)
            _, probs = reference_outcome_distribution(a, t)
            assert len(cdf) == N // 2 + 1
            assert np.max(np.abs(cdf - np.cumsum(probs))) <= 1e-13
            peak = int(round(N * np.arcsin(np.sqrt(a)) / np.pi))
            points = np.unique(np.clip(np.concatenate([np.linspace(0, N // 2, 9).astype(int),
                                                       np.arange(peak - 4, peak + 5)]),
                                       0, N // 2))
            for runs in (1, 3, 45, 61):
                median_cdf = np.cumsum(reference_median_distribution(probs, runs))
                got = [binomial_sf(runs // 2, runs, cdf[j]) for j in points]
                assert np.max(np.abs(got - median_cdf[points])) <= 1e-12

    @pytest.mark.parametrize("t", range(1, 17))
    def test_one_bin_per_pair_and_rounding_keyed_fold_summed(self, t):
        # the rounding-keyed fold left some pairs k, N-k in neighbouring bins whose
        # values differ in the 15th decimal; summed, its law is the sampler's fold, and
        # the estimate values sin^2(pi m / N) rise strictly with m
        N = 2**t
        values = np.round(np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2, 15)
        assert np.all(np.diff(values) > 0)
        for a in self.AMPLITUDES:
            cdf = fold_cdf(a, t)
            old_values, old_probs = rounding_keyed_outcome_distribution(a, t)
            group = np.concatenate([[0], np.cumsum(np.diff(old_values) > 1e-12)])
            summed = np.zeros(group[-1] + 1)
            np.add.at(summed, group, old_probs)
            assert len(summed) == len(cdf)
            assert np.max(np.abs(np.cumsum(summed) - cdf)) <= 1e-13
            first = np.concatenate([[True], np.diff(group) > 0])
            assert np.max(np.abs(old_values[first] - values)) <= 2e-15

    def test_results_match_reference(self):
        # bit for bit where nothing is drawn; a simulated faithful call draws a median
        # of runs, so its estimate is one of the law's values, good exactly when the
        # law says so, and its residual is the law's bad mass
        rng = np.random.default_rng(5)
        n_simulated = 0
        for trial in range(36):
            M, n = int(rng.integers(2, FAITHFUL_MAX_TERMS + 1)), int(rng.integers(2, 7))
            table = rng.uniform(-1.0, rng.uniform(-0.5, 1.5), size=(M, n))
            table[:, 0] = table[0, 0] if trial % 5 == 0 else table[:, 0]
            oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05 + 1e-12)
            for x in range(n):
                # 6 to 11 amplitude-estimation ancillas, and the clamped shortcut
                for eps in (0.1, 0.25, 0.5, 1.0, 40.0):
                    for delta in (0.01, 0.2):
                        for mode in ("faithful", "emulated"):
                            res = qmci_mean(oracle, x, eps, delta, mode, seed=trial)
                            ref, law = reference_qmci_mean(oracle, x, eps, delta, mode, trial)
                            assert oracle.queries == 0
                            if law is None:
                                assert res == ref
                                continue
                            est_values, med_pmf, good = law
                            assert res.queries == ref.queries
                            assert abs(res.residual - med_pmf[~good].sum()) <= 1e-12
                            at = np.flatnonzero(est_values == res.estimate)
                            assert at.size and res.success == good[at[0]]
                            n_simulated += 1
        assert n_simulated >= 1000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_medians_follow_reference_median_law(self, seed):
        # pooled chi-square over three (t, a, runs) of the medians of sampled runs
        from scipy.stats import chi2
        rng = np.random.default_rng(seed)
        stat, dof = 0.0, 0
        for t, a, runs in ((5, 0.05, 3), (6, 0.3, 45), (8, 0.71, 61)):
            m, _ = annealing.sample_folded_outcomes(float(np.arcsin(np.sqrt(a))), t,
                                                    rng.random((20_000 * runs, 2)))
            medians = np.median(m.reshape(-1, runs), axis=1).astype(int)
            expected = 20_000 * reference_median_distribution(
                reference_outcome_distribution(a, t)[1], runs)
            observed = np.bincount(medians, minlength=len(expected))
            # pool the bins expecting fewer than 5 into their neighbours toward the mode
            keep = expected >= 5
            cell = np.cumsum(keep) - 1
            cell[:np.argmax(keep)] = 0
            exp_cells = np.bincount(cell, expected)
            obs_cells = np.bincount(cell, observed)
            stat += float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
            dof += len(exp_cells) - 1
        assert chi2.sf(stat, dof) > 1e-3


@st.composite
def faithful_tables(draw):
    """A term table whose columns span 0 (constant), a sliver, or up to 4, at an eps
    that asks for anything from the t = 16 cap to the eps >= 4 sigma shortcut."""
    M, n = draw(st.integers(2, FAITHFUL_MAX_TERMS)), draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spans = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, 4.0]),
                                   min_size=n, max_size=n)))
    table = rng.uniform(-1.0, 2.0, n) + rng.uniform(0.0, 1.0, (M, n)) * spans
    eps = draw(st.sampled_from([2.0**-12, 0.003, 0.01, 0.1, 0.3, 1.0, 40.0]))
    delta = draw(st.sampled_from([0.2, 0.1, 0.01, 1e-6]))
    return table, eps, delta, seed % 2**31


class TestFaithfulArrayPass:
    """A faithful table is one array pass; each state's result is the per-state body's."""

    @given(faithful_tables(), st.sampled_from([None, 1, 3 * 8 * 2**11]))
    @settings(max_examples=60, deadline=None)
    def test_array_pass_is_the_per_state_body(self, case, chunk_bytes):
        # chunk_bytes 1 runs one state per chunk; 3 * 8 * 2^11, three at t = 11
        table, eps, delta, seed = case
        sigma = float(table.std(axis=0).max()) * 1.05 + 1e-12
        n = table.shape[1]
        ell0 = np.random.default_rng(seed).uniform(-0.5, 0.5, n)
        body, array, single, whole = (LikelihoodOracle(table, sigma, ell0, 0.25)
                                      for _ in range(4))
        refs = [qmci_mean_before_the_array_pass(body, x, eps, delta, "faithful", seed)
                for x in range(n)]
        with mock.patch.object(qmci, "_CHUNK_BYTES", chunk_bytes or qmci._CHUNK_BYTES):
            got = qmci_mean(array, np.arange(n), eps, delta, "faithful", seed)
            nll, residual, misses = estimate_nll(whole, eps, delta, "faithful", seed)
        assert np.array_equal(got.estimate, [r.estimate for r in refs])
        assert np.array_equal(got.success, [r.success for r in refs])
        assert np.max(np.abs(got.residual - [r.residual for r in refs])) <= 1e-13
        # the per-state body charged what the array pass reports and does not charge
        assert got.queries == body.queries == sum(r.queries for r in refs)
        assert array.queries == whole.queries == 0
        assert np.array_equal(nll, np.maximum(0.0, got.estimate + ell0 + 0.25))
        assert residual == got.residual.max()
        assert misses == np.count_nonzero(~got.success)
        # a call on one state is the per-state body bit for bit
        for x in {0, n - 1}:
            assert qmci_mean(single, x, eps, delta, "faithful", seed) == refs[x]

    def test_several_ancilla_counts_in_one_table(self):
        # the cases the hypothesis search must reach, pinned: a constant column, three
        # ancilla counts up to the t = 16 cap, and a column the cap cannot resolve to
        # eps, whose good range is empty: it fails with all its mass bad
        rng = np.random.default_rng(0)
        table = rng.uniform(0.0, 1.0, (16, 5)) * [0.0, 1e-3, 0.03, 4.0, 40.0] + 1.0
        oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)
        eps = 2.0**-12
        span = np.ptp(table, axis=0)[1:]
        ts = np.minimum(np.ceil(np.log2(2.0 * np.pi / np.minimum(eps / 2 / span, 0.5))) + 2, 16)
        assert list(ts) == [8, 13, 16, 16] and np.ptp(table[:, 0]) == 0.0
        got = qmci_mean(oracle, np.arange(5), eps, 0.1, "faithful", seed=3)
        refs = [qmci_mean_before_the_array_pass(oracle, x, eps, 0.1, "faithful", 3)
                for x in range(5)]
        assert np.array_equal(got.estimate, [r.estimate for r in refs])
        assert np.array_equal(got.residual, [r.residual for r in refs])
        assert list(got.success) == [True, True, True, True, False]
        assert got.residual[0] == 0.0 and got.residual[4] == 1.0

    @pytest.mark.parametrize("eps", [0.003, 0.012, 0.1, 0.75, 2.0**-6, 2.0**-4, 0.25])
    def test_residual_within_the_certified_weight(self, eps):
        # where t < 16 resolves eps' = 2^(b - 1), truncation at b = floor(log2(eps / 1.5))
        # keeps a run within eps' of the mean within 1.5 * 2^b <= eps, eps a power of two
        # too, so every run succeeds with probability at least FAITHFUL_RUN_SUCCESS and the
        # median misses with weight at most delta / 4, the weight its runs are sized at
        b = qmci._truncation_bit(eps)
        assert 1.5 * 2.0**b <= eps < 3.0 * 2.0**b
        rng = np.random.default_rng(23)
        resolved = 0
        for trial in range(30):
            M, n = int(rng.integers(2, FAITHFUL_MAX_TERMS + 1)), int(rng.integers(2, 12))
            spans = rng.choice([1e-3, 0.05, 0.3, 1.0, 4.0], n)
            table = rng.uniform(-1.0, 2.0, n) + rng.uniform(0.0, 1.0, (M, n)) * spans
            oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05 + 1e-12)
            span = np.ptp(table, axis=0)
            ts = np.ceil(np.log2(2.0 * np.pi / np.minimum(2.0 ** (b - 1) / span, 0.5))) + 2
            if eps >= 4.0 * oracle.sigma:
                continue                                   # the classical shortcut answers
            for delta in (0.2, 0.1, 0.01, 1e-6):
                res = qmci_mean(oracle, np.arange(n), eps, delta, "faithful", trial)
                assert np.all(res.residual[ts < 16] <= delta / 4.0)
                resolved += np.count_nonzero(ts < 16)
        assert resolved >= 200

    def test_peak_memory_is_set_by_the_chunk_budget(self):
        # 64 states at the t = 16 cap: unchunked, each (state, outcome) array would be
        # 64 * 2^16 * 8 bytes = 32 MiB; a 2 MiB chunk of four states peaks far below one
        table = np.random.default_rng(1).uniform(0.0, 4.0, size=(16, 64))
        oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)
        eps = 2.0**-12
        assert np.all(2.0 * np.pi / (eps / 2 / np.ptp(table, axis=0)) > 2.0**14)   # t = 16
        qmci_mean(oracle, 0, eps, 0.1, "faithful", seed=0)                # warm caches
        tracemalloc.start()
        estimate_nll(oracle, eps, 0.1, "faithful", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert qmci._CHUNK_BYTES == 2**21
        assert peak <= 12 * qmci._CHUNK_BYTES


class TestOneStreamPerTable:
    """Each estimation call draws once from default_rng(seed), for every state of the
    oracle, so a state's estimate is a fixed function of (x, seed) whatever else is asked."""

    @pytest.mark.parametrize("mode", ["emulated", "faithful"])
    def test_any_states_read_their_table_entries(self, mode):
        # a scalar call, a subset and a shuffled repeat all equal the whole table's entries
        rng = np.random.default_rng(31)
        for trial in range(10):
            M, n = int(rng.integers(2, FAITHFUL_MAX_TERMS + 1)), int(rng.integers(2, 12))
            table = rng.uniform(-1.0, 3.0, size=(M, n))
            oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05 + 1e-12)
            for eps, delta in ((0.01, 0.1), (0.1, 1e-6), (2.0**-4, 0.2)):
                whole = qmci_mean(oracle, np.arange(n), eps, delta, mode, seed=trial)
                some = rng.choice(n, size=int(rng.integers(1, 2 * n)))
                part = qmci_mean(oracle, some, eps, delta, mode, seed=trial)
                for field in ("estimate", "success", "residual"):
                    assert np.array_equal(getattr(part, field), getattr(whole, field)[some])
                for x in (0, n - 1):
                    one = qmci_mean(oracle, x, eps, delta, mode, seed=trial)
                    assert (one.estimate, one.success, one.residual) == (
                        whole.estimate[x], whole.success[x], whole.residual[x])

    def test_emulated_eta_is_one_draw_over_every_state(self):
        # eta = -1 + 2 random(n_states) from default_rng(seed): L~ before truncation
        table = np.random.default_rng(4).uniform(0.0, 4.0, size=(8, 9))
        oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)
        eps = 0.1
        b = qmci._truncation_bit(eps)
        for seed in range(20):
            eta = -1.0 + 2.0 * np.random.default_rng(seed).random(9)
            want = _truncate(oracle.mean_table() + 2.0 ** (b - 1) * eta, b)
            got = qmci_mean(oracle, np.arange(9), eps, 0.1, "emulated", seed).estimate
            assert np.array_equal(got, want)

    def test_first_faithful_runs_do_not_depend_on_the_run_count(self):
        # state x's runs are column x of random((runs, n_states, 2)), so a smaller delta's
        # longer median reads the same leading runs of each state
        table = np.random.default_rng(6).uniform(0.0, 4.0, size=(8, 7))
        oracle = LikelihoodOracle(table, float(table.std(axis=0).max()) * 1.05)
        seen = []
        sampler = annealing.sample_folded_outcomes

        def recording(theta, t, u):
            seen.append(np.array(u))
            return sampler(theta, t, u)

        with mock.patch.object(annealing, "sample_folded_outcomes", recording):
            for delta in (0.2, 1e-12):
                seen.clear()
                qmci_mean(oracle, np.arange(7), 0.05, delta, "faithful", seed=5)
                assert len(seen) == 1                  # one ancilla count, one chunk
                runs = annealing.median_runs(delta / 4.0, qmci.FAITHFUL_RUN_SUCCESS)
                assert seen[0].shape == (7, runs, 2)
                if delta == 0.2:
                    fewer = seen[0]
        assert fewer.shape[1] < seen[0].shape[1]
        assert np.array_equal(fewer, seen[0][:, :fewer.shape[1]])

    def test_library_draws_one_generator_per_call(self):
        # no generator is seeded per state: every default_rng of qmci takes the call's seed
        tree = ast.parse(Path(qmci.__file__).read_text())
        seeds = [ast.unparse(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("default_rng")]
        assert seeds and set(seeds) == {"seed"}


class TestApproxChain:
    def make_model(self, oracle):
        n = oracle.n_states
        space = StateSpace.regular_grid((n,))
        model = TargetModel(space=space, prior=np.full(n, 1.0 / n),
                            neg_log_lik=np.maximum(0.0, oracle.full_nll()))
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.2)
        return model, kernel

    def test_acceptance_table_error_bound(self):
        oracle = small_oracle(21, n=6)
        model, kernel = self.make_model(oracle)
        eps = 0.1
        A_pert, nll, max_err, pair_charge = approx_acceptance_table(
            oracle, model, kernel, eps, 0.1, seed=0)
        assert max_err <= 8.0 * eps + 1e-12
        assert pair_charge == 4 * query_charge(oracle.sigma, eps, 0.1)
        assert np.all(nll >= 0.0)
        assert np.all(A_pert <= 1.0 + 1e-12)

    def test_tiny_eps_recovers_exact_chain(self):
        oracle = small_oracle(23, n=6)
        model, kernel = self.make_model(oracle)
        layout = RegisterLayout.for_kernel(kernel)
        from qmhlab.qsim import build_walk_operator
        U_exact = build_walk_operator(model, kernel, layout)
        U_pert, model_pert, residual = approx_walk_operator(
            oracle, model, kernel, layout, eps=1e-9, delta=0.1, seed=0)
        assert np.max(np.abs(U_pert @ np.eye(layout.total_dim) - U_exact)) <= 1e-6
        assert residual == 0.0
        assert tv_distance(model.distribution(), model_pert.distribution()) <= 1e-7

    def test_perturbed_walk_phase_gap_verified(self):
        oracle = small_oracle(25, n=6)
        model, kernel = self.make_model(oracle)
        layout = RegisterLayout.for_kernel(kernel)
        U, model_pert, _ = approx_walk_operator(
            oracle, model, kernel, layout, eps=0.05, delta=0.1, seed=0)
        chain_pert = build_transition_matrix(model_pert, kernel)
        report = verify_phase_gap(U, layout, chain_pert)
        assert report.passed

    def test_faithful_walk_charges_only_the_table(self):
        space = StateSpace.regular_grid((6,))
        nll = 0.3 * (space.points[:, 0] - 2.0) ** 2
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0), neg_log_lik=nll)
        kernel = ProposalKernel.nearest_neighbor(space)
        layout = RegisterLayout.for_kernel(kernel)
        eps, delta = 0.05, 0.1

        def oracle():
            return LikelihoodOracle.from_nll(nll, M=16, spread=0.5, seed=0)

        table_oracle, walk_oracle = oracle(), oracle()
        approx_acceptance_table(table_oracle, model, kernel, eps, delta, seed=0, mode="faithful")
        _, _, residual = approx_walk_operator(walk_oracle, model, kernel, layout, eps, delta,
                                              seed=0, mode="faithful")
        # 4 estimations per supported pair, 48, at 662 queries per run and 3 runs certified
        # at delta = 0.1 and one-run success 8 / pi^2
        assert certified_runs(0.1, 8 / np.pi**2) == 3
        assert table_oracle.queries == walk_oracle.queries == 48 * 662 * 3 == 95_328
        assert residual == max(qmci_mean(oracle(), x, eps, delta, "faithful", 0).residual
                               for x in range(6))

    @pytest.mark.parametrize("case", ["zero-weight-move", "stay-move", "aliased-torus"])
    def test_pair_charge_matches_dense_pair_count(self, case):
        # supported ordered pairs are the x != y with T(x, y) > 0 in the dense proposal
        shape = (2, 3) if case == "aliased-torus" else (6,)
        space = StateSpace.regular_grid(shape)
        if case == "zero-weight-move":
            kernel = ProposalKernel(space=space, moves=((1,), (5,), (2,), (4,)),
                                    weights=np.array([0.5, 0.5, 0.0, 0.0]))
        elif case == "stay-move":
            kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.2)
        else:       # offsets (+-2, 0) alias onto the zero move: a stay move with weight
            kernel = ProposalKernel.gaussian(space, width=1.0, radius=2)
        nll = 0.3 * np.sum((space.points - 1.0) ** 2, axis=1)
        model = TargetModel(space=space, prior=np.full(space.size, 1.0 / space.size),
                            neg_log_lik=nll)
        layout = RegisterLayout.for_kernel(kernel)
        eps, delta = 0.05, 0.1

        def oracle():
            return LikelihoodOracle.from_nll(nll, M=8, spread=0.5, seed=0)

        T = kernel.matrix()
        n_pairs = int(np.sum((T > 0) & ~np.eye(len(T), dtype=bool)))
        estimates = qmci_mean(oracle(), np.arange(space.size), eps, delta, "emulated", seed=0)
        per_state = estimates.queries // space.size
        table_oracle, walk_oracle = oracle(), oracle()
        *_, pair_charge = approx_acceptance_table(table_oracle, model, kernel, eps, delta, seed=0)
        approx_walk_operator(walk_oracle, model, kernel, layout, eps, delta, seed=0)
        assert pair_charge == 4 * per_state > 0
        assert table_oracle.queries == walk_oracle.queries == max(estimates.queries,
                                                                  n_pairs * pair_charge)

    def test_internal_accuracy_guarantees_tv(self):
        oracle = small_oracle(27, n=6)
        model, kernel = self.make_model(oracle)
        eps = 0.2
        eps_in = internal_accuracy(model, kernel, eps)
        assert 0.0 < eps_in <= 0.25
        nll, _, _ = estimate_nll(oracle, eps_in, 0.05, "emulated", seed=0)
        tv = tv_distance(model.distribution(),
                         model.with_neg_log_lik(nll).distribution())
        assert tv <= eps
        chain = build_transition_matrix(model, kernel)
        assert tv_perturbation_bound(chain, eps_in) <= eps + 1e-12


def internal_accuracy_reference(model, kernel, eps):
    """internal_accuracy with one build_transition_matrix per temperature."""
    chains = [build_transition_matrix(model.with_beta(float(b)), kernel)
              for b in np.linspace(0.1, 1.0, 10)]
    gap_min = min(c.spectral_gap for c in chains)
    kappa_max = max(c.condition_number for c in chains)
    p_min = min(c.stationary.min() for c in chains)
    steps = np.ceil(np.log(2.0 * np.sqrt(p_min)) / np.log(1.0 - gap_min))
    terms = [gap_min * eps / (8.0 * (gap_min * steps + 1.0)),
             gap_min / (16.0 * np.sqrt(kernel.max_column_mass) * kappa_max)]
    mean_nll = float(np.dot(model.prior, model.neg_log_lik))
    if mean_nll > 0:
        terms.append(mean_nll / 2.0)
    return float(min(terms))


class TestInternalAccuracyLadder:
    """internal_accuracy builds its ten temperatures as one chain ladder."""

    def test_matches_per_beta_reference_on_gw_ladder(self):
        for M in (256, 512, 1024, 2048, 4096):
            for s in (0, 1, 2):
                inst = synth_gw_instance(0.1, 0.0, M, 2.0, s, grid_shape=(8, 8))
                kernel = ProposalKernel.nearest_neighbor(inst.space)
                for eps in (0.05, 0.1):
                    assert internal_accuracy(inst.model, kernel, eps) == \
                        internal_accuracy_reference(inst.model, kernel, eps)

    @pytest.mark.parametrize("per_chunk,calls", [(None, 1), (1, 10), (3, 4), (5, 2)])
    def test_one_eigvalsh_per_stacked_chunk(self, monkeypatch, per_chunk, calls):
        inst = synth_gw_instance(0.1, 0.0, 256, 2.0, 0, grid_shape=(8, 8))
        kernel = ProposalKernel.nearest_neighbor(inst.space)
        want = internal_accuracy_reference(inst.model, kernel, 0.1)
        if per_chunk is not None:
            monkeypatch.setattr(markov, "_LADDER_BYTES", per_chunk * 8 * inst.space.size**2)
        counted = count_linalg_calls(monkeypatch, "eigvalsh")
        assert internal_accuracy(inst.model, kernel, 0.1) == want
        assert counted == {"eigvalsh": calls}

    def test_peak_memory_is_one_chain_build(self):
        space = StateSpace.regular_grid((24, 24))
        L = np.random.default_rng(3).uniform(0.0, 2.0, space.size)
        model = TargetModel(space, np.full(space.size, 1.0 / space.size), L - L.min())
        kernel = ProposalKernel.nearest_neighbor(space)
        build_transition_matrix(model, kernel)          # neighbour tables and caches
        peaks = []
        for run in (lambda: build_transition_matrix(model, kernel),
                    lambda: internal_accuracy(model, kernel, 0.1)):
            tracemalloc.start()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestPipeline:
    def test_end_to_end_tv_and_accounting(self):
        space = StateSpace.regular_grid((8,))
        nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0),
                            neg_log_lik=nll - nll.min())
        kernel = ProposalKernel.nearest_neighbor(space)
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=64, spread=0.5,
                                           seed=0)
        eps = 0.2
        result = qsa_with_qmci(oracle, model, kernel, eps, delta=0.1, seed=0)
        assert result.schedule.success
        assert result.tv_realized <= eps
        assert result.tv_realized == pytest.approx(
            tv_distance(result.model_pert.distribution(), model.distribution()))
        assert result.walk_applications > 0
        per_gate = 4 * query_charge(oracle.sigma, result.eps_internal, 0.1 / 4.0)
        n_states = oracle.n_states
        single = query_charge(oracle.sigma, result.eps_internal, 0.1 / 4.0)
        expected = n_states * single + result.walk_applications * per_gate
        assert result.oracle_queries == expected

    @pytest.mark.parametrize("mode,eps_internal", [("emulated", None), ("faithful", 0.05),
                                                   ("emulated", 40.0)],
                             ids=["emulated", "faithful", "shortcut"])
    def test_oracle_queries_is_the_oracle_delta(self, monkeypatch, mode, eps_internal):
        space = StateSpace.regular_grid((6,))
        nll = 0.3 * (space.points[:, 0] - 2.0) ** 2
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0), neg_log_lik=nll)
        kernel = ProposalKernel.nearest_neighbor(space)
        oracle = LikelihoodOracle.from_nll(nll, M=16, spread=0.5, seed=0)
        oracle.charge(123)                  # spent before the pipeline, not by it
        if eps_internal is not None:
            monkeypatch.setattr(qmci, "internal_accuracy", lambda *a: eps_internal)
        res = qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0, mode=mode)
        single = estimation_charge(oracle, res.eps_internal, 0.1 / 4.0)
        assert (single == 0) == (eps_internal == 40.0) and res.walk_applications > 0
        assert res.oracle_queries == oracle.queries - 123 == \
            (oracle.n_states + 4 * res.walk_applications) * single

    def test_failed_search_charges_its_walk(self, monkeypatch):
        # the search's walk applications are charged before the failure is raised: once
        # only the table was, while a standalone prepare charged the search's whole walk
        space = StateSpace.regular_grid((8,))
        nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=nll - nll.min())
        kernel = ProposalKernel.nearest_neighbor(space)
        monkeypatch.setattr(annealing, "KEEP_THRESHOLD", 2.0)     # no overlap is kept
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=64, spread=0.5, seed=0)
        with pytest.raises(RuntimeError, match="schedule search failed"):
            qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0)
        eps_in = internal_accuracy(model, kernel, 0.2)
        table, _, _ = estimate_nll(oracle, eps_in, 0.1 / 4.0, "emulated", 0)
        schedule, state, ledger = annealing.prepare(model.with_neg_log_lik(table), kernel,
                                                    0.2, 0.1, 0)
        assert state is None and ledger.by_tag == {"schedule": 34_398_000}
        single = estimation_charge(oracle, eps_in, 0.1 / 4.0)
        assert oracle.queries == (oracle.n_states + 4 * ledger.total) * single
        # 891,214 queries per run, 9 runs certified at delta / 4 = 0.025
        assert certified_runs(0.025, 8 / np.pi**2) == 9
        assert oracle.n_states * single == 8 * 891_214 * 9 == 64_167_408

    def test_failed_faithful_table_raises(self):
        # GW 4x4, M = 16: eps'' = 5.8e-6 needs t = 32 ancillas over each column's range,
        # beyond the cap of 16, so every state's estimate misses (residual 1.0) and max
        # |L~ - L| is 2.4e-3; the pipeline once returned this table's posterior as prepared
        inst = synth_gw_instance(0.1, 0.0, 16, 2.0, 0, grid_shape=(4, 4))
        kernel = ProposalKernel.nearest_neighbor(inst.space)
        with pytest.raises(RuntimeError, match="bad-branch mass 1 exceeds its failure "
                                               r"weight 0\.05"):
            qsa_with_qmci(inst.oracle, inst.model, kernel, 0.1, 0.2, seed=0, mode="faithful")

    def test_a_missed_estimate_within_the_weight_is_reported(self, monkeypatch, tmp_path):
        # one state misses eps'' at residual 0: the table is within its weight and the
        # pipeline returns, but the miss is counted, and the qmci-pipeline report writes it
        model, kernel = cli._default_model()
        estimate = qmci.qmci_mean

        def one_miss(*args, **kwargs):
            res = estimate(*args, **kwargs)
            success = res.success.copy()
            success[3] = False
            return dataclasses.replace(res, success=success)

        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=64, spread=0.5, seed=0)
        clean = qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0)
        assert clean.table_misses == 0
        monkeypatch.setattr(qmci, "qmci_mean", one_miss)
        assert estimate_nll(oracle, clean.eps_internal, 0.1 / 4.0, "emulated", 0)[1:] == (0.0, 1)
        missed = qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0)
        assert missed.table_misses == 1 and np.array_equal(missed.state, clean.state)
        passed, payload = cli.experiment_qmci_pipeline(model, kernel, str(tmp_path))
        assert payload["table_misses"] == 1
        with open(tmp_path / "qmci_pipeline.json") as fh:
            assert json.load(fh)["table_misses"] == 1

    def test_faithful_table_within_its_weight_returns(self):
        # the bundled 8-ring at M = 16: eps'' = 1.57 * 2^-13, so the faithful floor covers
        # the truncated estimates, and the table's largest residual is 2.0e-3, within the
        # 0.1 / 16 its 5 runs are certified at and the guard's 0.025
        space = StateSpace.regular_grid((8,))
        nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
        model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0), neg_log_lik=nll - nll.min())
        kernel = ProposalKernel.nearest_neighbor(space)
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=16, spread=0.5, seed=0)
        eps_internal = internal_accuracy(model, kernel, 0.2)
        assert certified_runs(0.1 / 16.0, 11 / 12) == 5
        residual = estimate_nll(oracle, eps_internal, 0.1 / 4.0, "faithful", 0)[1]
        assert residual == pytest.approx(2.025e-3, rel=1e-3) and residual <= 0.1 / 16.0
        result = qsa_with_qmci(oracle, model, kernel, 0.2, 0.1, seed=0, mode="faithful")
        assert result.schedule.success and result.tv_realized <= 0.2

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -0.1])
    def test_failure_weight_outside_unit_interval_rejected_first(self, monkeypatch, delta):
        # delta = 2.0 once ran the whole pipeline and reported a pass
        space = StateSpace.regular_grid((6,))
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0), neg_log_lik=np.zeros(6))
        oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=16, spread=0.5, seed=0)
        monkeypatch.setattr(qmci, "internal_accuracy", None)
        with pytest.raises(ValueError, match=r"delta in \(0, 1\)"):
            qsa_with_qmci(oracle, model, ProposalKernel.nearest_neighbor(space), 0.2, delta, 0)
        assert oracle.queries == 0

    def test_queries_drop_with_smaller_sigma(self, monkeypatch):
        space = StateSpace.regular_grid((6,))
        nll = 0.3 * (space.points[:, 0] - 2.0) ** 2
        model = TargetModel(space=space, prior=np.full(6, 1.0 / 6.0),
                            neg_log_lik=nll - nll.min())
        kernel = ProposalKernel.nearest_neighbor(space)
        monkeypatch.setattr(qmci, "internal_accuracy", lambda *a: 0.01)
        totals = []
        for spread in (1.0, 0.25):
            oracle = LikelihoodOracle.from_nll(model.neg_log_lik, M=32,
                                               spread=spread, seed=1)
            res = qsa_with_qmci(oracle, model, kernel, eps=0.2, delta=0.1, seed=1)
            totals.append(res.oracle_queries)
        assert totals[1] < totals[0]
