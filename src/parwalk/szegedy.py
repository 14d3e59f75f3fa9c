"""Reference quantum walks on doubled state space, used as independent
oracles for the compressed constructions, and the ancilla count of the PAR
walk that the compressed encoding is measured against.

Column x of a walk isometry T is nonzero only on its own block of m rows,
x m ... x m + m - 1 (m = N for the standard walk, 2N for the flagged
walks), so a walk stores T as the N x m array of those entries. Every
reflector here is a row permutation (the register swap, or the swap on the
accept flag's 0 branch and the identity on its 1 branch), kept as its
involutive index array. Both checks, orthonormal columns and T^dag R T,
then take O(N m) time and memory. The dense T (N m x N), reflector and walk
step ((N m)^2 each) are built on first access, for the spectral checks at
small N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DecompositionMismatch,
    DimensionMismatch,
    NotSymmetricUnitary,
)
from .markov import StochasticMatrix, discriminant, stationary_distribution
from .parchain import DiscriminantDecomposition

IDENT_TOL = 1e-10


@dataclass(frozen=True)
class SzegedyWalk:
    """Isometry T in block-diagonal form (column x holds vals[x] on rows
    x m ... x m + m - 1, m = vals.shape[1]), reflector R given by the
    involution perm (R v = v[perm]), trt = T^dag R T, and trt_dev, the
    largest entry of |trt - the matrix it was checked against|. The dense T,
    reflector and one walk step W = R (2 T T^dag - I) are computed on first
    access."""

    vals: np.ndarray
    perm: np.ndarray
    trt: np.ndarray
    trt_dev: float

    @property
    def total_dim(self) -> int:
        return self.vals.size

    @cached_property
    def t(self) -> np.ndarray:
        n, m = self.vals.shape
        t = np.zeros((n * m, n), dtype=self.vals.dtype)
        t[np.arange(n * m), np.repeat(np.arange(n), m)] = self.vals.ravel()
        return t

    @cached_property
    def reflector(self) -> np.ndarray:
        dim = self.total_dim
        r = np.zeros((dim, dim))
        r[np.arange(dim), self.perm] = 1.0
        return r

    @cached_property
    def w(self) -> np.ndarray:
        # R (2 T T^dag - I) = 2 (R T) T^dag - R, with R T = t[perm]: rank N
        return 2.0 * (self.t[self.perm] @ self.t.conj().T) - self.reflector


def _swap(n: int) -> np.ndarray:
    """Index of |y, x> at position x * n + y: the register swap on C^N (x) C^N."""
    x = np.arange(n)
    return (x[None, :] * n + x[:, None]).ravel()


def _checked_walk(
    vals: np.ndarray, perm: np.ndarray, expected: np.ndarray, what: str
) -> SzegedyWalk:
    n, m = vals.shape
    # the columns' row blocks are disjoint, so T^dag T is diagonal
    norms = np.einsum("xk,xk->x", vals.conj(), vals).real
    if not np.abs(norms - 1.0).max() <= IDENT_TOL:
        raise DecompositionMismatch("isometry columns are not orthonormal")
    # (T^dag R T)[x', x] sums conj(T[r, x']) T[perm[r], x] over rows r, and
    # row r belongs to column r // m only
    flat = vals.ravel()
    prod = flat.conj() * flat[perm]
    idx = (n * np.arange(n)[:, None] + (perm // m).reshape(n, m)).ravel()
    trt = np.bincount(idx, prod.real, n * n)
    if np.iscomplexobj(prod):
        trt = trt + 1j * np.bincount(idx, prod.imag, n * n)
    trt = trt.reshape(n, n)
    dev = float(np.abs(trt - expected).max())
    if not dev <= IDENT_TOL:
        raise DecompositionMismatch(f"{what} by {dev:.3e}")
    return SzegedyWalk(vals=vals, perm=perm, trt=trt, trt_dev=dev)


def standard_walk(p: StochasticMatrix) -> SzegedyWalk:
    """Walk on C^N (x) C^N from |psi_x> = |x> (x) sum_y sqrt(p_yx) |y>.

    Verifies T^dag T = I, T T^dag = projector onto span{psi_x}, and
    T^dag S T = discriminant(P), each within 1e-10.
    """
    pi = stationary_distribution(p)
    q = discriminant(p, pi)  # raises NotReversible first if unbalanced
    return _checked_walk(
        np.sqrt(p.entries.T), _swap(p.n), q,
        "T^dag S T deviates from the discriminant",
    )


def _par_q(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Discriminant of the chain proposed by s and accepted by a."""
    q = np.sqrt(a * a.T) * s
    stay = 1.0 - (a * s).sum(axis=0) + np.diag(a * s)
    np.fill_diagonal(q, stay)
    return q


def _flagged_walk(
    accepted: np.ndarray, rejected: np.ndarray, expected: np.ndarray, what: str
) -> SzegedyWalk:
    """Walk on C^N (x) C^N (x) C^2: column x carries accepted[y, x] on
    |x,y,0> and rejected[y, x] on |x,y,1>, at index 2 (x n + y) + flag,
    that is at vals[x, 2 y + flag]. The reflector swaps the state registers
    on flag 0 only."""
    n = accepted.shape[0]
    vals = np.stack([accepted.T, rejected.T], axis=-1).reshape(n, 2 * n)
    perm = np.arange(2 * n * n)
    perm[0::2] = 2 * _swap(n)
    return _checked_walk(vals, perm, expected, what)


def par_walk(dec: DiscriminantDecomposition) -> SzegedyWalk:
    """Walk on C^N (x) C^N (x) C^2 whose extra flag records acceptance.

    |psi_x> carries amplitude sqrt(s_yx a_yx) on |x,y,0> and
    sqrt(s_yx (1 - a_yx)) on |x,y,1>, read from the decomposition's S and
    A; the reflector swaps the state registers only on the accepted branch.
    T^dag R T is checked against the decomposition's Q within 1e-10, so the
    walk reproduces the chain's discriminant without ever forming P.
    """
    s, a = dec.s, dec.a
    return _flagged_walk(
        np.sqrt(s * a), np.sqrt(s * (1.0 - a)), dec.q,
        "T^dag R T deviates from Q",
    )


def par_ancillas(n_states: int) -> int:
    """Qubits the PAR walk adds to the system register: the second state
    register, ceil(log N), plus the accept flag."""
    return (n_states - 1).bit_length() + 1


def quantum_enhanced_walk(u_prop: np.ndarray, a: np.ndarray) -> SzegedyWalk:
    """PAR walk whose proposal amplitudes come from a symmetric unitary.

    The induced classical proposal is s_yx = |u_yx|^2; T^dag R T equals the
    discriminant of that induced chain. Symmetry of u makes the swap term
    real and nonnegative, which the construction requires.
    """
    u = np.asarray(u_prop)
    n = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch("proposal unitary must be square")
    if np.abs(u @ u.conj().T - np.eye(n)).max() > IDENT_TOL:
        raise NotSymmetricUnitary("proposal matrix is not unitary")
    if np.abs(u - u.T).max() > IDENT_TOL:
        raise NotSymmetricUnitary("proposal unitary is not symmetric")
    if a.shape != (n, n):
        raise DimensionMismatch(f"acceptance shape {a.shape} vs unitary dim {n}")
    return _flagged_walk(
        u * np.sqrt(a), u * np.sqrt(1.0 - a),
        _par_q(np.abs(u) ** 2, a), "T^dag R T deviates from the induced Q",
    )
