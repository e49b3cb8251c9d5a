"""Certified bounds for chains under per-state likelihood perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmhlab.markov import build_transition_matrix, tv_distance
from qmhlab.perturbation import (
    PerturbedLikelihood,
    acceptance_error_check,
    perturb_likelihood,
    spectral_gap_perturbation_check,
    tv_perturbation_bound,
    tv_perturbation_check,
    verification_record,
)

from conftest import random_instance

BOUND_SLACK = 1e-12


class TestPerturbedLikelihood:
    def test_deterministic_in_seed(self):
        L = np.array([0.5, 1.0, 2.0, 0.0])
        p1 = perturb_likelihood(L, 0.1, seed=4)
        p2 = perturb_likelihood(L, 0.1, seed=4)
        np.testing.assert_array_equal(p1.perturbed, p2.perturbed)

    def test_realized_eps_at_most_target(self):
        L = np.linspace(0.0, 3.0, 9)
        pert = perturb_likelihood(L, 0.2, seed=1)
        assert pert.eps <= 0.2 + BOUND_SLACK
        assert np.all(pert.perturbed >= 0.0)

    def test_zero_eps_is_identity(self):
        L = np.array([0.3, 0.7])
        pert = perturb_likelihood(L, 0.0, seed=0)
        np.testing.assert_array_equal(pert.perturbed, L)
        assert pert.eps == 0.0

    def test_clipping_shrinks_realized_eps(self):
        # all-zero L: negative noise clips to 0, so only positive noise counts
        pert = perturb_likelihood(np.zeros(64), 0.1, seed=2)
        assert 0.0 < pert.eps < 0.1
        assert np.all(pert.perturbed >= 0.0)

    def test_mismatched_eps_rejected(self):
        with pytest.raises(ValueError):
            PerturbedLikelihood(base=np.array([1.0]), perturbed=np.array([1.2]),
                                eps=0.1, seed=0)


class TestAcceptanceErrorBound:
    @given(st.integers(0, 10**6), st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_bound_holds(self, seed, eps):
        model, kernel = random_instance(seed)
        pert = perturb_likelihood(model.neg_log_lik, eps, seed=seed + 1)
        diff, bound, ok = acceptance_error_check(model, kernel, pert)
        assert ok
        assert diff <= bound + BOUND_SLACK

    def test_rejects_large_eps(self):
        model, kernel = random_instance(3)
        pert = PerturbedLikelihood(base=model.neg_log_lik,
                                   perturbed=model.neg_log_lik + 0.3,
                                   eps=0.3, seed=0)
        with pytest.raises(ValueError):
            acceptance_error_check(model, kernel, pert)


class TestSpectralGapBound:
    @given(st.integers(0, 10**6), st.sampled_from([0.01, 0.05, 0.1]))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds(self, seed, eps):
        model, kernel = random_instance(seed)
        pert = perturb_likelihood(model.neg_log_lik, eps, seed=seed + 17)
        chain = build_transition_matrix(model, kernel)
        chain_pert = build_transition_matrix(
            model.with_neg_log_lik(pert.perturbed), kernel)
        gap_pert, bound, ok = spectral_gap_perturbation_check(
            chain, chain_pert, kernel, pert.eps)
        assert ok
        assert gap_pert >= bound - BOUND_SLACK

    def test_zero_eps_bound_is_the_gap(self):
        model, kernel = random_instance(9)
        chain = build_transition_matrix(model, kernel)
        _, bound, ok = spectral_gap_perturbation_check(chain, chain, kernel, 0.0)
        assert ok
        assert bound == pytest.approx(chain.spectral_gap)


class TestTvBound:
    @given(st.integers(0, 10**6), st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_bound_holds(self, seed, eps):
        model, kernel = random_instance(seed)
        pert = perturb_likelihood(model.neg_log_lik, eps, seed=seed + 7)
        tv, bound, ok = tv_perturbation_check(model, kernel, pert)
        assert ok
        assert tv <= bound + BOUND_SLACK

    def test_exact_tv_from_closed_form(self):
        model, kernel = random_instance(51)
        pert = perturb_likelihood(model.neg_log_lik, 0.1, seed=8)
        tv, _, _ = tv_perturbation_check(model, kernel, pert)
        expected = tv_distance(model.distribution(),
                               model.with_neg_log_lik(pert.perturbed).distribution())
        assert tv == pytest.approx(expected, abs=1e-14)

    def test_bound_scales_linearly_in_eps(self):
        model, kernel = random_instance(53)
        chain = build_transition_matrix(model, kernel)
        b1 = tv_perturbation_bound(chain, 0.01)
        b2 = tv_perturbation_bound(chain, 0.02)
        assert b2 == pytest.approx(2.0 * b1)


class TestReporting:
    def test_record_and_write(self):
        model, kernel = random_instance(61)
        rec = verification_record("inst-0", model, kernel, 0.05, seed=0)
        assert rec["pass"]
        assert rec["acceptance_diff"] <= rec["acceptance_bound"]
        assert rec["tv"] <= rec["tv_bound"]
        assert rec["gap_pert"] >= rec["gap_bound"] - BOUND_SLACK
