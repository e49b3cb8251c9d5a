"""Finite-state-space Metropolis-Hastings machinery.

State spaces are regular periodic grids in R^d, so moves and proposal
probabilities are translation invariant and the move set is closed under
negation.  Everything downstream (walk operators, perturbation checks,
annealing) builds on the exact transition matrices computed here.  Chains are
built as temperature ladders: the chains of one model and kernel at a list of
beta are assembled, checked and given their values-only spectrum as stacked
arrays, a byte-bounded chunk at a time, with one eigvalsh per chunk; a single
chain is the one-temperature ladder, and each chain carries its beta's model
and its kernel.  A chain is irreducible when its target is positive, which fails
where exp underflows (past about 745 nats), and its proposal's support graph,
undirected as the weights are negation symmetric, is connected: one NumPy count
per support, cached; each error message states its cause.
A chain keeps what it derives on first need: its eigenpairs, its reversibility
verdict, and the squarings W^(2^j) behind its matrix powers, so mixing checks at
several step counts share one squaring ladder and one reversibility check.
"""

from __future__ import annotations

import copy
import json
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

PROB_ATOL = 1e-10
_MH_CHUNK = 8192             # run_mh steps per bulk draw of uniforms
_LADDER_BYTES = 2**21        # transition-matrix bytes per chain_ladder chunk


class ReducibleChainError(ValueError):
    """Raised when a chain's support graph is disconnected or its target underflows to 0."""


class NonReversibleChainError(ValueError):
    """Raised when an operation requires detailed balance and the chain lacks it."""


@dataclass(frozen=True)
class StateSpace:
    """Periodic (torus) grid of points in R^d.

    Points are indexed 0..size-1 in row-major order over the grid shape.
    ``axes[i]`` holds the sorted per-axis values.
    """

    shape: tuple[int, ...]
    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.shape) != len(self.axes):
            raise ValueError("shape/axes dimension mismatch")
        for n, ax in zip(self.shape, self.axes):
            if len(ax) != n:
                raise ValueError("axis length does not match grid shape")
            if n < 1:
                raise ValueError("empty axis")
            if len(np.unique(ax)) != n:
                raise ValueError("axis values must be distinct")

    @classmethod
    def regular_grid(cls, shape, low=None, high=None):
        """Evenly spaced grid; axis i spans [low[i], high[i]] with shape[i] points."""
        shape = tuple(int(n) for n in shape)
        d = len(shape)
        low = np.zeros(d) if low is None else np.asarray(low, float)
        high = np.array([n - 1 for n in shape], float) if high is None else np.asarray(high, float)
        axes = tuple(np.linspace(low[i], high[i], shape[i]) for i in range(d))
        return cls(shape=shape, axes=axes)

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def points(self) -> np.ndarray:
        """(size, d) array of grid points, row-major index order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def coordinates(self, axis: int, states) -> np.ndarray:
        """points[states, axis], read off the state indices without building points."""
        return np.asarray(self.axes[axis])[np.unravel_index(states, self.shape)[axis]]


def neighbour_table(shape, moves) -> np.ndarray:
    """(n, k) table whose entry [x, j] is the index reached from x by moves[j].

    Indices are row-major over the torus grid ``shape``; each column is the
    index grid rolled back by the move, so offsets wrap around every axis.
    Built once per (shape, moves), lists or tuples alike, and read-only.
    """
    return _neighbour_table(*_table_key(shape, moves))


def negation_slots(shape, moves) -> np.ndarray:
    """Index of each move's torus negation in ``moves``; raises if one is absent; read-only."""
    return _negation_slots(*_table_key(shape, moves))


def _table_key(shape, moves) -> tuple:
    return tuple(int(n) for n in shape), tuple(tuple(int(c) for c in m) for m in moves)


@cache
def _neighbour_table(shape, moves) -> np.ndarray:
    grid = np.arange(int(np.prod(shape))).reshape(shape)
    axes = tuple(range(len(shape)))
    nb = np.stack([np.roll(grid, tuple(-c for c in m), axis=axes).ravel() for m in moves], axis=1)
    nb.flags.writeable = False
    return nb


@cache
def _negation_slots(shape, moves) -> np.ndarray:
    slot = {m: j for j, m in enumerate(moves)}
    neg = np.array([slot.get(tuple((-c) % n for c, n in zip(m, shape)), -1) for m in moves])
    if np.any(neg < 0):
        raise ValueError(f"move set not closed under negation: {moves[np.argmax(neg < 0)]}")
    neg.flags.writeable = False
    return neg


@dataclass(frozen=True)
class TargetModel:
    """Target P ~ prior * exp(-beta * L) over a state space."""

    space: StateSpace
    prior: np.ndarray
    neg_log_lik: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        prior = np.asarray(self.prior, float)
        nll = np.asarray(self.neg_log_lik, float)
        if prior.shape != (self.space.size,) or nll.shape != (self.space.size,):
            raise ValueError("prior/L length must match the state space")
        if not (np.all(np.isfinite(prior)) and np.all(np.isfinite(nll))):
            raise ValueError("prior and L must be finite")
        if np.any(prior <= 0):
            raise ValueError("prior must be strictly positive")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ValueError("prior must sum to 1")
        if np.any(nll < 0):
            raise ValueError("negative log-likelihood must be nonnegative")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "neg_log_lik", nll)

    def unnormalized(self) -> np.ndarray:
        """prior * exp(-beta (L - min L)): the shift keeps the largest weight from underflowing."""
        return self.prior * np.exp(-self.beta * (self.neg_log_lik - self.neg_log_lik.min()))

    def distribution(self) -> np.ndarray:
        p = self.unnormalized()
        return p / p.sum()

    def with_beta(self, beta: float) -> "TargetModel":
        """The same model at another beta, sharing the checked prior and L arrays."""
        twin = copy.copy(self)
        object.__setattr__(twin, "beta", float(beta))
        return twin

    def with_neg_log_lik(self, nll) -> "TargetModel":
        return TargetModel(self.space, self.prior, np.asarray(nll, float), beta=self.beta)


@dataclass(frozen=True)
class ProposalKernel:
    """Translation-invariant proposal on a periodic grid.

    ``moves`` are grid offsets (tuples mod shape); ``weights[k]`` is the
    probability of proposing move k from any state.  The move set is closed
    under (torus) negation and weights are negation symmetric.
    """

    space: StateSpace
    moves: tuple[tuple[int, ...], ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        if len(self.moves) != len(w):
            raise ValueError("moves/weights length mismatch")
        if not np.all(np.isfinite(w)):
            raise ValueError("proposal weights must be finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("proposal weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("proposal weights must be nonnegative")
        canon = tuple(tuple(int(c) % n for c, n in zip(m, self.space.shape)) for m in self.moves)
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate moves")
        if np.any(np.abs(w - w[negation_slots(self.space.shape, canon)]) > 1e-12):
            raise ValueError("proposal weights must be symmetric under negation")
        object.__setattr__(self, "moves", canon)
        object.__setattr__(self, "weights", w)

    @cached_property
    def max_column_mass(self) -> float:
        """max_y sum_{x != y} T(x, y), added in x order as T's column sums add it; computed once."""
        off = np.array([any(m) for m in self.moves])        # the zero move stays on the diagonal
        to = neighbour_table(self.space.shape, self.moves)[:, off]
        mass = np.bincount(to.ravel(), np.broadcast_to(self.weights[off], to.shape).ravel(),
                           minlength=self.space.size)
        return float(mass.max())

    def matrix(self) -> np.ndarray:
        """Dense row-stochastic proposal matrix T."""
        n = self.space.size
        T = np.zeros((n, n))
        # moves are distinct on the torus, so each (x, y) gets at most one weight
        T[np.arange(n)[:, None], neighbour_table(self.space.shape, self.moves)] = self.weights
        return T

    @classmethod
    def nearest_neighbor(cls, space: StateSpace, stay_prob: float = 0.0) -> "ProposalKernel":
        """Symmetric +-1 steps along each axis, optional self-loop mass."""
        steps = [s * np.eye(space.dimension, dtype=int)[i]
                 for i in range(space.dimension) for s in (1, -1)]
        moves = list(dict.fromkeys(tuple(int(c) % n for c, n in zip(m, space.shape))
                                   for m in steps))
        w = np.full(len(moves), (1.0 - stay_prob) / len(moves))
        if stay_prob > 0:
            moves.append(tuple(0 for _ in space.shape))
            w = np.append(w, stay_prob)
        return cls(space=space, moves=tuple(moves), weights=w)

    @classmethod
    def gaussian(cls, space: StateSpace, width: float = 1.0, radius: int = 2) -> "ProposalKernel":
        """Discretized isotropic normal over offsets in [-radius, radius]^d \\ {0}."""
        d = space.dimension
        offs = np.indices(tuple(2 * radius + 1 for _ in range(d))).reshape(d, -1).T - radius
        # torus wrapping can alias distinct offsets onto one move; merge mass
        merged: dict[tuple[int, ...], float] = {}
        for off in offs[np.any(offs, axis=1)]:
            m = tuple(int(c) % n for c, n in zip(off, space.shape))
            merged[m] = merged.get(m, 0.0) + np.exp(-float(np.dot(off, off)) / (2.0 * width**2))
        ms = tuple(sorted(merged))
        w = np.array([merged[m] for m in ms])
        return cls(space=space, moves=ms, weights=w / w.sum())


def acceptance_table(model: TargetModel, nb: np.ndarray, weights: np.ndarray,
                     neg: np.ndarray) -> np.ndarray:
    """(n, k) MH acceptance min{1, P(y)T(y,x) / (P(x)T(x,y))} with y = nb[x, j].

    T(x, y) is the weight of move j and T(y, x) that of its negation neg[j].
    fmin, like min(1.0, r), reads 1 for the inf and nan of an underflowed
    target; the zero move, its own negation, gets r = 1 or nan, hence 1.
    Columns of zero-weight moves, never proposed, read 0.
    """
    return _acceptance(model.unnormalized(), nb, weights, neg)


def _acceptance(p: np.ndarray, nb: np.ndarray, weights: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """acceptance_table from the unnormalized target p; leading axes of p stack temperatures."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(weights > 0, np.fmin(1.0, (p[..., nb] * weights[neg])
                                             / (p[..., :, None] * weights)), 0.0)


def acceptance_matrix(model: TargetModel, kernel: ProposalKernel) -> np.ndarray:
    """A(x, y) for all pairs with T(x, y) > 0; zero elsewhere."""
    n = model.space.size
    nb = neighbour_table(model.space.shape, kernel.moves)
    A = np.zeros((n, n))
    # moves are distinct on the torus, so each (x, y) gets at most one value
    A[np.arange(n)[:, None], nb] = acceptance_table(
        model, nb, kernel.weights, negation_slots(model.space.shape, kernel.moves))
    return A


def tv_distance(p, q) -> float:
    """Total variation distance, max_A |P(A)-Q(A)| = half the L1 distance."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class ChainModel:
    """MH transition matrix of model under kernel's proposal, with its derived spectral data."""

    model: TargetModel               # the target at this chain's beta
    kernel: ProposalKernel
    transition: np.ndarray
    stationary: np.ndarray
    spectral_gap: float              # 1 - max(|lambda_min|, lambda_2)
    signed_gap: float                # 1 - lambda_2 (second largest eigenvalue)
    condition_number: float          # cond of the diagonalizing Q = D^-1 O

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, O): eigh of the symmetrized D W D^-1, run on first read; read-only.

        O's orthonormal columns give Q = D^-1 O, which diagonalizes W.  lambda
        agrees with the eigvalsh behind the gaps to rounding, not bit for bit.
        """
        lam, O = np.linalg.eigh(_symmetrized(self.transition, self.stationary))
        lam.flags.writeable = O.flags.writeable = False
        return lam, O

    def is_reversible(self) -> bool:
        """Detailed balance pi(x) W(x, y) = pi(y) W(y, x) to PROB_ATOL, checked once per chain."""
        return self._reversible

    @cached_property
    def _reversible(self) -> bool:
        flow = self.stationary[:, None] * self.transition
        return bool(np.max(np.abs(flow - flow.T)) <= PROB_ATOL)

    def power(self, n: int) -> np.ndarray:
        """W^n, bit for bit np.linalg.matrix_power(W, n): its products in its order.

        The squarings W^(2^j) are made on first need and kept on the chain,
        read-only, so calls at several n share one ladder of them: floor(log2 n)
        D x D arrays for the largest n asked, 7.7 MB at D = 400 and n = 64.  The
        set bits of n, least significant first, each multiply the result on the
        right, except for n = 3, which is (W W) W.
        """
        n = operator.index(n)
        if n < 0:
            raise ValueError("need n >= 0 steps")
        if n == 0:
            return np.eye(len(self.stationary))
        ladder = self._ladder
        while len(ladder) < n.bit_length():
            square = ladder[-1] @ ladder[-1]
            square.flags.writeable = False
            ladder.append(square)
        if n == 3:
            return ladder[1] @ ladder[0]
        result = None
        for j, z in enumerate(ladder[:n.bit_length()]):
            if n >> j & 1:
                result = z if result is None else result @ z
        return result

    @cached_property
    def _ladder(self) -> list[np.ndarray]:
        """W, W^2, W^4, ...: W and the squarings made so far."""
        return [self.transition]


def _symmetrized(W: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The symmetric part of D W D^-1, D = diag(sqrt(pi)); leading axes stack chains."""
    d = np.sqrt(pi)
    S = d[..., :, None] * W
    S /= d[..., None, :]
    S += np.swapaxes(S, -1, -2)          # numpy buffers the overlapping transpose
    S *= 0.5
    return S


def build_transition_matrix(model: TargetModel, kernel: ProposalKernel) -> ChainModel:
    """Assemble W from T and the acceptance ratios, with spectrum and gap.

    The one-temperature case of ``chain_ladder``, at model.beta.
    """
    return _ladder_chunk(model, kernel, [model.beta])[0]


def chain_ladder(model: TargetModel, kernel: ProposalKernel, betas):
    """The chains of model at each beta in turn, as build_transition_matrix builds them.

    The proposal is negation symmetric, so each chain is reversible and the
    eigvalsh of its symmetrized D W D^-1, D = diag(sqrt(pi)), gives its real
    spectrum; its eigenvectors O wait for ``ChainModel.eigenpairs``.
    Q = D^-1 O diagonalizes W, and cond(Q) = sqrt(pi_max / pi_min).

    Temperatures are stacked a chunk at a time, as many as keep the chunk's
    transition matrices within _LADDER_BYTES (one at least): one assembly, one
    round of checks and one eigvalsh per chunk.  Every chain of a chunk is
    checked before any is handed out, so a bad temperature raises there.  A
    chain's W is a view into its chunk: a caller that keeps only the scalars of
    the chains it is handed holds one chunk at a time.
    """
    betas = [float(b) for b in betas]
    per_chunk = max(1, _LADDER_BYTES // (8 * model.space.size**2))
    for start in range(0, len(betas), per_chunk):
        yield from _ladder_chunk(model, kernel, betas[start:start + per_chunk])


def _ladder_chunk(model: TargetModel, kernel: ProposalKernel, betas: list) -> list[ChainModel]:
    n, w = model.space.size, kernel.weights
    shape, moves = model.space.shape, kernel.moves
    # the support graph does not depend on beta: its cached count comes first
    n_comp = _support_components(*_table_key(shape, moves), tuple(np.flatnonzero(w > 0).tolist()))
    if n_comp > 1:
        raise ReducibleChainError(f"chain is reducible ({n_comp} strongly connected components)")

    models = [model.with_beta(b) for b in betas]
    nb, neg = neighbour_table(shape, moves), negation_slots(shape, moves)
    # zero for zero-weight moves; distinct moves give each (x, y) at most one value
    p = np.stack([m.unnormalized() for m in models])
    flow = w * _acceptance(p, nb, w, neg)
    W = np.zeros((len(models), n, n))
    W[:, np.arange(n)[:, None], nb] = flow
    diagonal = (slice(None), np.arange(n), np.arange(n))
    W[diagonal] = 0.0
    W[diagonal] = 1.0 - W.sum(axis=2)

    # every chain is checked before the stack's one eigvalsh, which a bad one could fail
    pi = p / p.sum(axis=1, keepdims=True)
    negative, underflowed = np.any(W < -1e-14, axis=(1, 2)), np.any(pi == 0.0, axis=1)
    if np.any(negative | underflowed):
        b = int(np.argmax(negative | underflowed))
        if negative[b]:
            raise ValueError("transition matrix has a negative entry")
        raise ReducibleChainError(f"target underflows to 0 at beta = {betas[b]:g}: log(prior)"
                                  " - beta (L - min L) is below float64's floor of about -745"
                                  " nats at some state")

    lam = np.linalg.eigvalsh(_symmetrized(W, pi))
    kappa = np.sqrt(pi.max(axis=1) / pi.min(axis=1))
    chains = []
    for b in range(len(models)):
        # lam[b, -1] is the unit eigenvalue; a one-state chain has no other
        second = float(lam[b, -2]) if n > 1 else 0.0
        bottom = abs(float(lam[b, 0])) if n > 1 else 0.0
        chains.append(ChainModel(model=models[b], kernel=kernel, transition=W[b],
                                 stationary=pi[b], spectral_gap=1.0 - max(bottom, second),
                                 signed_gap=1.0 - second, condition_number=float(kappa[b])))
    return chains


@cache
def _support_components(shape, moves, supported) -> int:
    """Components of the support graph x -- nb[x, j], j in supported: undirected, as supported
    moves are closed under negation, so one forward reach finds each component."""
    nb = _neighbour_table(shape, moves)[:, list(supported)]
    left, count = np.ones(len(nb), bool), 0
    while left.any():
        frontier = np.array([np.argmax(left)])
        while frontier.size:
            left[frontier] = False
            step = nb[frontier].ravel()
            frontier = np.unique(step[left[step]])
        count += 1
    return count


@dataclass(frozen=True)
class ChainSample:
    """MH trajectory of state indices, burn-in included."""

    states: np.ndarray
    burn_in: int

    @property
    def kept(self) -> np.ndarray:
        return self.states[self.burn_in:]


def run_mh(model: TargetModel, kernel: ProposalKernel, n_b: int, n: int, seed: int) -> ChainSample:
    """Generate an MH chain: draw x0 from the prior, then propose/accept.

    Each step spends two uniforms, the first picking the move (by inverse CDF
    over the weights, as ``rng.choice(k, p=weights)`` does) and the second
    deciding acceptance, so a seed fixes the chain.
    """
    if n_b < 0 or n < 1:
        raise ValueError("need n_b >= 0 and n >= 1")
    rng = np.random.default_rng(seed)
    w = kernel.weights
    k = len(w)
    nb = neighbour_table(model.space.shape, kernel.moves)
    acc = acceptance_table(model, nb, w, negation_slots(model.space.shape, kernel.moves))
    nb_flat = nb.ravel().tolist()
    acc_flat = acc.ravel().tolist()
    cdf = w.cumsum()
    cdf /= cdf[-1]

    x = int(rng.choice(model.space.size, p=model.prior))
    out = np.empty(n_b + n, dtype=np.int64)
    for start in range(0, n_b + n, _MH_CHUNK):
        u = rng.random((min(_MH_CHUNK, n_b + n - start), 2))
        picks = cdf.searchsorted(u[:, 0], side="right").tolist()
        states = []
        for j, v in zip(picks, u[:, 1].tolist()):
            i = x * k + j
            if v < acc_flat[i]:
                x = nb_flat[i]
            states.append(x)
        out[start:start + len(states)] = states
    return ChainSample(states=out, burn_in=n_b)


def mixing_bound_check(chain: ChainModel, n: int) -> tuple[float, float]:
    """Exact worst-case TV after n steps vs the (1-Delta)^n / (2 sqrt(pi_min)) bound.

    The sup over initial distributions is attained at a point mass, so d(n)
    is a max over rows of W^n.
    """
    if not chain.is_reversible():
        raise NonReversibleChainError("mixing bound requires a reversible chain")
    Wn = chain.power(n)
    d_exact = 0.5 * float(np.abs(Wn - chain.stationary).sum(axis=1).max())
    bound = (1.0 - chain.spectral_gap) ** n / (2.0 * np.sqrt(chain.stationary.min()))
    return float(d_exact), float(bound)


def mixing_time_bound(chain: ChainModel, eps: float) -> int:
    """log(1 / (eps * pi_min)) / Delta upper bound on t_mix(eps)."""
    if eps <= 0:
        raise ValueError("need eps > 0")
    return int(np.ceil(np.log(1.0 / (eps * chain.stationary.min())) / chain.spectral_gap))


def load_model(path) -> tuple[TargetModel, ProposalKernel, int]:
    """Read a model definition file: grid, prior, L table or formula, proposal.

    Returns the target model, the proposal kernel, and the declared seed.  A
    missing or wrongly typed entry raises ValueError naming it.
    """
    with open(path) as fh:
        cfg = json.load(fh)

    def entry(key, default=None):
        value = cfg[key] if default is None else cfg.get(key, default)
        if not isinstance(value, dict):
            raise ValueError(f"entry {key!r} must be an object, not {type(value).__name__}")
        return value

    if not isinstance(cfg, dict):
        raise ValueError(f"holds a {type(cfg).__name__}, not an object")
    try:
        grid = entry("grid")
        space = StateSpace.regular_grid(grid["shape"], grid.get("low"), grid.get("high"))
        n = space.size

        prior_cfg = entry("prior", {"type": "uniform"})
        if prior_cfg["type"] == "uniform":
            prior = np.full(n, 1.0 / n)
        elif prior_cfg["type"] == "table":
            prior = np.asarray(prior_cfg["values"], float)
        else:
            raise ValueError(f"unknown prior type {prior_cfg['type']!r}")

        nll_cfg = entry("nll")
        if nll_cfg["type"] == "table":
            nll = np.asarray(nll_cfg["values"], float)
        elif nll_cfg["type"] == "quadratic":
            center = np.asarray(nll_cfg["center"], float)
            scale = float(nll_cfg.get("scale", 1.0))
            nll = scale * np.sum((space.points - center) ** 2, axis=1)
        else:
            raise ValueError(f"unknown nll type {nll_cfg['type']!r}")
        nll = nll - nll.min()

        prop_cfg = entry("proposal", {"type": "nearest"})
        if prop_cfg["type"] == "nearest":
            kernel = ProposalKernel.nearest_neighbor(space, prop_cfg.get("stay_prob", 0.0))
        elif prop_cfg["type"] == "gaussian":
            kernel = ProposalKernel.gaussian(space, prop_cfg.get("width", 1.0),
                                             prop_cfg.get("radius", 2))
        else:
            raise ValueError(f"unknown proposal type {prop_cfg['type']!r}")

        model = TargetModel(space=space, prior=prior, neg_log_lik=nll,
                            beta=float(cfg.get("beta", 1.0)))
        seed = int(cfg.get("seed", 0))
        if seed < 0:
            raise ValueError(f"entry 'seed' must be non-negative, not {seed}")
        return model, kernel, seed
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
    except TypeError as exc:        # a wrongly typed value inside an entry
        raise ValueError(f"wrongly typed entry: {exc}") from None
