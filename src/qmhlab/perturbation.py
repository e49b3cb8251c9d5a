"""Perturbation bounds for MH chains under likelihood error.

Certifies numerically: the acceptance-ratio error bound max|A~ - A| <= 8 eps,
the spectral-gap drift lower bound via eigenvalue perturbation of the
transition matrix, and the stationary-distribution TV drift bound, for a
deterministic per-state likelihood perturbation of size eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import (
    ChainModel,
    ProposalKernel,
    TargetModel,
    acceptance_matrix,
    build_transition_matrix,
    tv_distance,
)


@dataclass(frozen=True)
class PerturbedLikelihood:
    """Base L, perturbed L~, and the realized eps = max |L~ - L|."""

    base: np.ndarray
    perturbed: np.ndarray
    eps: float
    seed: int

    def __post_init__(self):
        if self.base.shape != self.perturbed.shape:
            raise ValueError("base/perturbed length mismatch")
        if np.any(self.perturbed < 0):
            raise ValueError("perturbed L must be nonnegative")
        realized = float(np.max(np.abs(self.perturbed - self.base))) if len(self.base) else 0.0
        if abs(realized - self.eps) > 1e-12:
            raise ValueError("eps does not match the tables")


def perturb_likelihood(L, eps_target: float, seed: int) -> PerturbedLikelihood:
    """L~(x) = max(0, L(x) + eps_target * eta(x)), eta uniform in [-1, 1] per state.

    The noise profile is fixed per state so L~ is one deterministic function,
    not per-query noise.  Clipping at zero can shrink the realized eps below
    eps_target.
    """
    if eps_target < 0:
        raise ValueError("eps_target must be nonnegative")
    L = np.asarray(L, float)
    rng = np.random.default_rng(seed)
    eta = rng.uniform(-1.0, 1.0, size=len(L))
    Lt = np.maximum(0.0, L + eps_target * eta)
    eps = float(np.max(np.abs(Lt - L))) if len(L) else 0.0
    return PerturbedLikelihood(base=L, perturbed=Lt, eps=eps, seed=seed)


def acceptance_error_check(model: TargetModel, kernel: ProposalKernel,
                           pert: PerturbedLikelihood):
    """Exhaustive max |A~(x,y) - A(x,y)| against the 8*eps bound.

    Requires eps <= 1/4; above that the bound does not apply.
    """
    if pert.eps > 0.25:
        raise ValueError("acceptance error bound requires eps <= 1/4")
    A = acceptance_matrix(model, kernel)
    At = acceptance_matrix(model.with_neg_log_lik(pert.perturbed), kernel)
    diff = float(np.max(np.abs(At - A)))
    bound = 8.0 * pert.eps
    return diff, bound, diff <= bound + 1e-12


def spectral_gap_perturbation_check(chain: ChainModel, chain_pert: ChainModel,
                                    kernel: ProposalKernel, eps: float):
    """Delta~ against the lower bound Delta - 16 sqrt(max_y sum_{x!=y} T_xy) kappa eps."""
    if eps > 0.25:
        raise ValueError("spectral gap bound requires eps <= 1/4")
    col = kernel.max_column_mass
    bound = chain.spectral_gap - 16.0 * np.sqrt(col) * chain.condition_number * eps
    gap_pert = chain_pert.spectral_gap
    return gap_pert, bound, gap_pert >= bound - 1e-12


def tv_perturbation_bound(chain: ChainModel, eps: float) -> float:
    """8 eps (ceil(log(2 sqrt(pi_min)) / log(1 - Delta)) + 1/Delta).

    Valid bound on ||P~ - P||_TV for eps <= 1/4; for larger eps it exceeds 1
    and holds vacuously.
    """
    if chain.spectral_gap <= 0:
        raise ValueError("bound requires a positive spectral gap")
    pi_min = float(chain.stationary.min())
    steps = np.ceil(np.log(2.0 * np.sqrt(pi_min)) / np.log(1.0 - chain.spectral_gap))
    return 8.0 * eps * (steps + 1.0 / chain.spectral_gap)


def tv_perturbation_check(model: TargetModel, kernel: ProposalKernel,
                          pert: PerturbedLikelihood):
    """Exact ||P~ - P||_TV (both stationary distributions in closed form) vs the bound."""
    return _tv_check(build_transition_matrix(model, kernel), pert)


def _tv_check(chain: ChainModel, pert: PerturbedLikelihood):
    """tv_perturbation_check on an already built base chain."""
    bound = tv_perturbation_bound(chain, pert.eps)
    P = chain.model.distribution()
    P_pert = chain.model.with_neg_log_lik(pert.perturbed).distribution()
    tv = tv_distance(P, P_pert)
    return tv, bound, tv <= bound + 1e-12


def verification_record(instance_id, model: TargetModel, kernel: ProposalKernel,
                        eps_target: float, seed: int) -> dict:
    """Run all three checks on one instance and return a JSON-ready record."""
    pert = perturb_likelihood(model.neg_log_lik, eps_target, seed)
    chain = build_transition_matrix(model, kernel)
    chain_pert = build_transition_matrix(model.with_neg_log_lik(pert.perturbed), kernel)
    a_diff, a_bound, a_ok = acceptance_error_check(model, kernel, pert)
    g_val, g_bound, g_ok = spectral_gap_perturbation_check(chain, chain_pert, kernel, pert.eps)
    tv, tv_bound, tv_ok = _tv_check(chain, pert)
    return {
        "instance": str(instance_id),
        "eps": pert.eps,
        "gap": chain.spectral_gap,
        "gap_pert": g_val,
        "acceptance_diff": a_diff,
        "acceptance_bound": a_bound,
        "gap_bound": g_bound,
        "tv": tv,
        "tv_bound": tv_bound,
        "pass": bool(a_ok and g_ok and tv_ok),
    }
