import math
from fractions import Fraction

import numpy as np
import pytest

from qmhlab.markov import ProposalKernel, StateSpace, TargetModel


def random_instance(seed, max_points=16, allow_2d=True):
    """Random MH instance: torus grid, uniform-ish prior, random L, kernel."""
    rng = np.random.default_rng(seed)
    if allow_2d and rng.random() < 0.4:
        space = StateSpace.regular_grid((4, 4))
    else:
        space = StateSpace.regular_grid((int(rng.integers(6, max_points + 1)),))
    n = space.size
    prior = rng.uniform(0.5, 1.5, n)
    prior /= prior.sum()
    L = rng.uniform(0.0, 3.0, n)
    L -= L.min()
    model = TargetModel(space=space, prior=prior, neg_log_lik=L)
    if space.dimension == 2:
        kernel = ProposalKernel.gaussian(space, width=1.0, radius=1)
    elif rng.random() < 0.5:
        kernel = ProposalKernel.nearest_neighbor(space, stay_prob=float(rng.uniform(0, 0.3)))
    else:
        kernel = ProposalKernel.gaussian(space, width=1.2, radius=2)
    return model, kernel


# Dense D x D factors of the walk's shift-negation S F, as test oracles


def coin_one_permutation(layout, to_state, to_slot) -> np.ndarray:
    """Dense D x D permutation: identity on R_C = |0>, |x>|m>|1> -> |to_state>|to_slot>|1>."""
    x = np.arange(layout.space_dim)[:, None]
    m = np.arange(layout.n_moves)[None, :]
    stay = layout.index(x, m, 0).ravel()
    P = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    P[stay, stay] = 1.0
    P[layout.index(to_state, to_slot, 1).ravel(), layout.index(x, m, 1).ravel()] = 1.0
    return P


def build_F(layout) -> np.ndarray:
    """State shift: adds the move to R_S (mod the torus) when R_C = |1>."""
    return coin_one_permutation(layout, layout.neighbours(), np.arange(layout.n_moves))


def build_S(layout) -> np.ndarray:
    """Move negation on R_M when R_C = |1>."""
    return coin_one_permutation(layout, np.arange(layout.space_dim)[:, None],
                                layout.neg_slots())


def qpe_estimate_amplitudes(phase, t: int) -> np.ndarray:
    """Outcome amplitudes (last axis) of t-ancilla phase estimation at fixed eigenphase(s).

    The inverse QFT of the phase register e^{i phase j}, j < 2^t, as one FFT: the
    oracle the closed-form outcome law is checked against.
    """
    N = 2**t
    return np.fft.fft(np.exp(1j * np.multiply.outer(phase, np.arange(N)))) / N


def certified_runs(delta, success) -> int:
    """The fewest odd n with P(Binomial(n, success) <= n // 2) <= delta, the tail summed
    exactly in rationals from math.comb: the reference for annealing.median_runs."""
    s, n = Fraction(success), 1
    while sum(math.comb(n, j) * s**j * (1 - s) ** (n - j)
              for j in range(n // 2 + 1)) > Fraction(delta):
        n += 2
    return n


def count_linalg_calls(monkeypatch, *names):
    """Wrap the named np.linalg solvers to count their calls; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def torus_shift(shape, idx, offset):
    """Scalar reference for the neighbour table: idx moved by offset on the torus."""
    mi = np.unravel_index(idx, shape)
    return int(np.ravel_multi_index([(a + o) % n for a, o, n in zip(mi, offset, shape)], shape))


def torus_negate(shape, move):
    """Scalar reference for the negation table: the move's negation, reduced onto the torus."""
    return tuple((-c) % n for c, n in zip(move, shape))


def _torus_model(shape, L=None, seed=0):
    space = StateSpace.regular_grid(shape)
    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.5, 1.5, space.size)
    prior /= prior.sum()
    L = rng.uniform(0.0, 3.0, space.size) if L is None else np.asarray(L, float)
    return TargetModel(space=space, prior=prior, neg_log_lik=L - L.min())


def torus_cases():
    """(name, model, kernel) for the exactness checks of the neighbour table.

    A plain ring; a (2, 3) torus whose Gaussian radius-2 offsets alias onto
    each other and onto the zero move; explicit stay mass; the 2-ring, whose
    one move is its own negation; and a target whose exp(-L) underflows to 0
    on half the ring, so acceptance ratios read inf and nan there.
    """
    ring = _torus_model((7,), seed=1)
    torus = _torus_model((2, 3), seed=2)
    stay = _torus_model((6,), seed=3)
    ring2 = _torus_model((2,), seed=4)
    underflow = _torus_model((8,), L=[0.0] * 4 + [900.0] * 4, seed=5)
    return [
        ("ring", ring, ProposalKernel.nearest_neighbor(ring.space)),
        ("aliased-torus", torus, ProposalKernel.gaussian(torus.space, width=1.0, radius=2)),
        ("stay-mass", stay, ProposalKernel.nearest_neighbor(stay.space, stay_prob=0.3)),
        ("2-ring", ring2, ProposalKernel.nearest_neighbor(ring2.space)),
        ("underflow", underflow, ProposalKernel.nearest_neighbor(underflow.space)),
    ]


@pytest.fixture
def two_state_gap_half():
    """Uniform 2-state chain with W = [[.75,.25],[.25,.75]]: gap exactly 0.5."""
    space = StateSpace.regular_grid((2,))
    model = TargetModel(space=space, prior=np.array([0.5, 0.5]),
                        neg_log_lik=np.zeros(2))
    kernel = ProposalKernel.nearest_neighbor(space, stay_prob=0.75)
    return model, kernel


@pytest.fixture
def ring8():
    space = StateSpace.regular_grid((8,))
    nll = 0.5 * (space.points[:, 0] - 3.0) ** 2
    model = TargetModel(space=space, prior=np.full(8, 1.0 / 8.0),
                        neg_log_lik=nll - nll.min())
    kernel = ProposalKernel.nearest_neighbor(space)
    return model, kernel
