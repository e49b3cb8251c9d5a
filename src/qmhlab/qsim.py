"""Dense tensor-product register simulator and the quantum walk operator.

Registers: R_S (state, dim |Omega|), R_M (move alphabet, slot 0 reserved for
the zero move), R_C (coin, dim 2).  ``WalkOperator`` keeps the walk operator
U = R V' B' S F B V as its factors and acts on column blocks in O(D k) per
column through each one's structure (a Kronecker contraction, 2 x 2 coin
rotations, a gather, a row sign mask).  Verifying its phase gap against the
chain's spectral gap reads U only through U @ X; dense U, that action on the
identity, is a test oracle.  Its unitarity is certified factor by factor in
O(D k + k^3): V_M by its Gram matrix, S F by the table check verify-walk
reports too, B as 2 x 2 rotations, R as a +-1 mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import (ChainModel, ProposalKernel, TargetModel, acceptance_table,
                     negation_slots, neighbour_table)

UNITARY_ATOL = 1e-10
PARTNER_ATOL = 1e-12        # 1 - lambda^2 at or below this: A o is itself a walk eigenvector
MAX_TOTAL_DIM = 2**14


@dataclass(frozen=True)
class RegisterLayout:
    """Index bookkeeping for the R_S x R_M x R_C product space.

    The move alphabet always carries the zero move at slot 0 (the reference
    state of R_M), with weight 0 when the proposal never stays put; the rest
    are the kernel's moves, distinct and closed under torus negation.
    """

    space_dim: int
    moves: tuple[tuple[int, ...], ...]
    weights: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        if any(self.moves[0]):
            raise ValueError("move alphabet must start with the zero move")
        if self.total_dim > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {self.total_dim} exceeds {MAX_TOTAL_DIM}")

    @classmethod
    def for_kernel(cls, kernel: ProposalKernel) -> "RegisterLayout":
        zero = tuple(0 for _ in kernel.space.shape)
        moves = [zero] + sorted(m for m in kernel.moves if m != zero)
        w = dict(zip(kernel.moves, kernel.weights))
        weights = np.array([w.get(m, 0.0) for m in moves])
        return cls(space_dim=kernel.space.size, moves=tuple(moves), weights=weights,
                   shape=kernel.space.shape)

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    @property
    def total_dim(self) -> int:
        return self.space_dim * self.n_moves * 2

    def index(self, x: int, m: int, c: int) -> int:
        return (x * self.n_moves + m) * 2 + c

    def neighbours(self) -> np.ndarray:
        """(space_dim, n_moves) state index reached from x by each slot's move."""
        return neighbour_table(self.shape, self.moves)

    def neg_slots(self) -> np.ndarray:
        """Slot of each slot's negated move."""
        return negation_slots(self.shape, self.moves)

    def reference_indices(self) -> np.ndarray:
        """Index of each reference state |x>|0>|0>, in state order."""
        return self.index(np.arange(self.space_dim), 0, 0)

    def reference_states(self) -> np.ndarray:
        """A: the (total_dim, space_dim) block whose columns are the reference states."""
        A = np.zeros((self.total_dim, self.space_dim), dtype=complex)
        A[self.reference_indices(), np.arange(self.space_dim)] = 1.0
        return A

    def reflection_signs(self) -> np.ndarray:
        """Diagonal of R = 2 Lambda_0 - I: +1 on the reference states, -1 elsewhere."""
        signs = -np.ones(self.total_dim)
        signs[self.reference_indices()] = 1.0
        return signs


def encode_distribution(P, layout: RegisterLayout) -> np.ndarray:
    """|P> = sum_x sqrt(P(x)) |x>|0>|0>."""
    P = np.asarray(P, float)
    if abs(P.sum() - 1.0) > 1e-10 or np.any(P < 0):
        raise ValueError("P must be a probability vector")
    v = np.zeros(layout.total_dim, dtype=complex)
    v[layout.reference_indices()] = np.sqrt(P)
    return v


def _complete_unitary(first_column: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector (QR completion)."""
    n = len(first_column)
    M = np.eye(n, dtype=complex)
    M[:, 0] = first_column
    Q, _ = np.linalg.qr(M)
    # QR may flip the first column's sign
    phase = np.vdot(Q[:, 0], first_column)
    Q[:, 0] *= phase / abs(phase)
    return Q


def sf_involution(nb: np.ndarray, neg: np.ndarray) -> bool:
    """Whether S F, |x>|m>|1> -> |nb[x, m]>|neg[m]>|1>, is an involution (so a permutation)."""
    return bool(np.all(nb[nb, neg] == np.arange(len(nb))[:, None])
                and np.all(neg[neg] == np.arange(len(neg))))


class WalkOperator:
    """The walk operator U = R G of a chain, G = V' B' S F B V, kept as its factors.

    Construction certifies unitarity factor by factor.  The factors act on a
    (D, c) block's columns as an (n, k, 2, c) array over (state, slot, coin,
    column), in O(D k) per column: V is V_M (first column sqrt(w)) on the slot
    axis, B a 2 x 2 coin rotation by 2 arcsin sqrt(A) per (state, slot), the
    identity where A = 0, and B' its transpose; S F is
    out[y, m', 1] = in[y + m', -m', 1]; R is a +-1 row mask.
    """

    def __init__(self, model: TargetModel, layout: RegisterLayout):
        if abs(layout.weights.sum() - 1.0) > 1e-10:
            raise ValueError("move weights do not normalize")
        self._nb, self._neg = layout.neighbours(), layout.neg_slots()
        if not sf_involution(self._nb, self._neg):
            raise ValueError("S F's neighbour and negation tables do not invert each other")
        self._VM = _complete_unitary(np.sqrt(layout.weights).astype(complex))
        if np.linalg.norm(self._VM.conj().T @ self._VM - np.eye(layout.n_moves)) > UNITARY_ATOL:
            raise ValueError("V_M is not unitary")
        # B's 2 x 2 blocks are rotations for any A in [0, 1], where acceptance_table's fmin keeps it
        A = acceptance_table(model, self._nb, layout.weights, self._neg)
        s, c = np.sqrt(A), np.sqrt(1.0 - A)
        self._B = np.array([[c, -s], [s, c]]).transpose(2, 3, 0, 1)
        self._signs = layout.reflection_signs()[:, None]

    def core(self, X: np.ndarray) -> np.ndarray:
        """G X for a (D, c) block."""
        VM, B = self._VM, self._B
        n, k, cols = *B.shape[:2], X.shape[1]
        Y = B @ (VM @ X.reshape(n, k, 2 * cols)).reshape(n, k, 2, cols)
        Y[:, :, 1] = Y[self._nb, self._neg, 1]
        Y = B.transpose(0, 1, 3, 2) @ Y
        return (VM.conj().T @ Y.reshape(n, k, 2 * cols)).reshape(-1, cols)

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """U X = R G X for a (D, c) block: R is diagonal with entries +-1, a row sign flip."""
        return self._signs * self.core(X)


def build_core(model: TargetModel, layout: RegisterLayout) -> np.ndarray:
    """Dense G, a test oracle: Hermitian involution whose reference block conjugates W."""
    return WalkOperator(model, layout).core(np.eye(layout.total_dim, dtype=complex))


def build_walk_operator(model: TargetModel, kernel: ProposalKernel,
                        layout: RegisterLayout) -> np.ndarray:
    """Dense U, a test oracle."""
    return WalkOperator(model, layout) @ np.eye(layout.total_dim, dtype=complex)


def symmetrized_transition(chain: ChainModel) -> np.ndarray:
    """D_P W D_P^{-1} with D_P = diag(sqrt(P)); symmetric under detailed balance."""
    d = np.sqrt(chain.stationary)
    return (d[:, None] * chain.transition) / d[None, :]


def invariant_subspace(GA: np.ndarray, layout: RegisterLayout,
                       chain: ChainModel) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis [A O, partners] of span{A} + G span{A}, A the reference states,
    and the index into ``chain.eigenpairs`` of the eigenpair behind each column.

    GA is G A for the core involution G = R U.  With (lambda_j, o_j) the
    eigenpairs of G's reference block, the chain's symmetrized W (from
    ``chain.eigenpairs``), the normalized partners G A o_j - lambda_j A o_j
    complete A O; at lambda_j = -1, G A o_j = -A o_j needs none.  The span is
    invariant under U.
    """
    ref = layout.reference_indices()
    lam, O = chain.eigenpairs
    keep = 1.0 - lam[:-1] ** 2 > PARTNER_ATOL
    lam_k, O_k = lam[:-1][keep], O[:, :-1][:, keep]
    partners = GA @ O_k
    partners[ref] -= O_k * lam_k
    partners /= np.linalg.norm(partners, axis=0)    # sqrt(1 - lambda^2), to rounding
    AO = np.zeros((layout.total_dim, layout.space_dim), dtype=complex)
    AO[ref] = O
    pair = np.concatenate([np.arange(len(lam)), np.flatnonzero(keep)])
    return np.hstack([AO, partners]), pair


@dataclass(frozen=True)
class PhaseGapReport:
    eigenphases: np.ndarray
    min_nonzero_phase: float
    unit_multiplicity: int
    principal_overlap: float
    phase_bound: float
    passed: bool


def verify_phase_gap(U: WalkOperator | np.ndarray, layout: RegisterLayout,
                     chain: ChainModel) -> PhaseGapReport:
    """Diagonalize U, read only through U @ X, on its invariant subspace and check
    the phase-gap claims.

    Asserted: eigenvalue 1 is simple there, its eigenvector is the encoded
    stationary state, and every other eigenphase theta obeys
    |theta| >= arccos(1 - Delta) - 1e-8.
    """
    if chain.spectral_gap <= 0:         # an eigenvalue -1 breaks the phase-gap claim
        raise ValueError("spectral gap is zero (chain has a second unit-modulus eigenvalue)")
    # R R = I, so G A = R (U A)
    GA = layout.reflection_signs()[:, None] * (U @ layout.reference_states())
    Q, _ = invariant_subspace(GA, layout, chain)
    U_sub = Q.conj().T @ (U @ Q)
    if np.linalg.norm(U_sub.conj().T @ U_sub - np.eye(U_sub.shape[0])) > 1e-8:
        raise ValueError("subspace is not invariant under the walk operator")
    lam, vecs = np.linalg.eig(U_sub)
    phases = np.angle(lam)
    unit = np.abs(lam - 1.0) < 1e-8
    mult = int(unit.sum())

    target = encode_distribution(chain.stationary, layout)
    overlap = 0.0
    if mult >= 1:
        principal = Q @ vecs[:, np.argmax(unit)]
        overlap = float(np.abs(np.vdot(target, principal)) ** 2)

    nonzero = np.abs(phases[~unit])
    min_phase = float(nonzero.min()) if len(nonzero) else np.pi
    bound = float(np.arccos(1.0 - chain.spectral_gap))
    passed = mult == 1 and overlap >= 1.0 - 1e-9 and min_phase >= bound - 1e-8
    return PhaseGapReport(eigenphases=np.sort(phases), min_nonzero_phase=min_phase,
                          unit_multiplicity=mult, principal_overlap=overlap,
                          phase_bound=bound, passed=passed)


def decode_distribution(state: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Probability vector read off the reference-slot amplitudes, renormalized."""
    p = np.abs(state[layout.reference_indices()]) ** 2
    total = p.sum()
    if total <= 0:
        raise ValueError("state has no mass on the reference slots")
    return p / total
