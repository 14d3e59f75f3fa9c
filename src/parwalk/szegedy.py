"""Reference quantum walks on doubled state space, used as independent
oracles for the compressed constructions and for ancilla-count comparison.

Every reflector here is a row permutation (the register swap, or the swap
on the accept flag's 0 branch and the identity on its 1 branch), so a walk
keeps only the isometry T (2N^2 x N for the flagged walks), the involutive
index array of its reflector and T^dag R T, all computed in O(N^4). The
dense reflector and walk step, (2N^2)^2 arrays, are built on first access,
for the spectral checks at small N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .blockenc import _ceil_log2, _pow2_pad, build_ancilla_efficient_Q, paper_ancillas
from .errors import (
    DecompositionMismatch,
    DimensionMismatch,
    NotSymmetricUnitary,
)
from .markov import GibbsModel, StochasticMatrix, discriminant, stationary_distribution
from .parchain import AcceptanceRule, ProposalDecomposition

IDENT_TOL = 1e-10


@dataclass(frozen=True)
class SzegedyWalk:
    """Isometry t, reflector R given by the involution perm (R v = v[perm]),
    and trt = T^dag R T. The dense reflector and one walk step
    W = R (2 T T^dag - I) are computed on first access."""

    variant: str
    t: np.ndarray
    perm: np.ndarray
    trt: np.ndarray

    @property
    def total_dim(self) -> int:
        return self.t.shape[0]

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
    variant: str, t: np.ndarray, perm: np.ndarray, expected: np.ndarray, what: str
) -> SzegedyWalk:
    gram = t.conj().T @ t
    if np.abs(gram - np.eye(t.shape[1])).max() > IDENT_TOL:
        raise DecompositionMismatch("isometry columns are not orthonormal")
    # T^dag R as a row-major array: the same BLAS product as with a dense R,
    # so T^dag R T matches the dense oracle bit for bit
    trt = np.ascontiguousarray(t[perm].conj().T) @ t
    dev = np.abs(trt - expected).max()
    if dev > IDENT_TOL:
        raise DecompositionMismatch(f"{what} by {dev:.3e}")
    return SzegedyWalk(variant=variant, t=t, perm=perm, trt=trt)


def standard_walk(p: StochasticMatrix) -> SzegedyWalk:
    """Walk on C^N (x) C^N from |psi_x> = |x> (x) sum_y sqrt(p_yx) |y>.

    Verifies T^dag T = I, T T^dag = projector onto span{psi_x}, and
    T^dag S T = discriminant(P), each within 1e-10.
    """
    n = p.n
    pi = stationary_distribution(p)
    q = discriminant(p, pi)  # raises NotReversible first if unbalanced
    t = np.zeros((n * n, n))
    x = np.arange(n)
    t[x[:, None] * n + x[None, :], x[:, None]] = np.sqrt(p.entries).T
    return _checked_walk(
        "standard", t, _swap(n), q, "T^dag S T deviates from the discriminant"
    )


def _par_q(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Discriminant of the chain proposed by s and accepted by a."""
    q = np.sqrt(a * a.T) * s
    stay = 1.0 - (a * s).sum(axis=0) + np.diag(a * s)
    np.fill_diagonal(q, stay)
    return q


def _flagged_walk(
    variant: str,
    accepted: np.ndarray,
    rejected: np.ndarray,
    expected: np.ndarray,
    what: str,
) -> SzegedyWalk:
    """Walk on C^N (x) C^N (x) C^2: column x carries accepted[y, x] on
    |x,y,0> and rejected[y, x] on |x,y,1>, at index 2 (x n + y) + flag.
    The reflector swaps the state registers on flag 0 only."""
    n = accepted.shape[0]
    t = np.zeros((2 * n * n, n), dtype=np.result_type(accepted, rejected))
    x = np.arange(n)
    rows = 2 * (x[:, None] * n + x[None, :])
    t[rows, x[:, None]] = accepted.T
    t[rows + 1, x[:, None]] = rejected.T
    perm = np.arange(2 * n * n)
    perm[0::2] = 2 * _swap(n)
    return _checked_walk(variant, t, perm, expected, what)


def par_walk(prop: ProposalDecomposition, a: np.ndarray) -> SzegedyWalk:
    """Walk on C^N (x) C^N (x) C^2 whose extra flag records acceptance.

    |psi_x> carries amplitude sqrt(s_yx a_yx) on |x,y,0> and
    sqrt(s_yx (1 - a_yx)) on |x,y,1>; the reflector swaps the state
    registers only on the accepted branch. T^dag R T reproduces the chain's
    discriminant without ever forming the transition matrix.
    """
    n = prop.n
    if a.shape != (n, n):
        raise DimensionMismatch(f"acceptance shape {a.shape} vs proposal dim {n}")
    s = prop.assemble()
    return _flagged_walk(
        "par", np.sqrt(s * a), np.sqrt(s * (1.0 - a)), _par_q(s, a),
        "T^dag R T deviates from Q",
    )


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
        "quantum_enhanced", u * np.sqrt(a), u * np.sqrt(1.0 - a),
        _par_q(np.abs(u) ** 2, a), "T^dag R T deviates from the induced Q",
    )


@dataclass(frozen=True)
class AncillaComparison:
    """Ancilla registers beyond the system register, and the scales."""

    szegedy_qubits: int
    paper_qubits: int
    logical_qubits: Optional[int]
    szegedy_gamma: float
    paper_gamma: float


def comparison_counts(n_states: int, kappa: int, levels: int) -> AncillaComparison:
    """Count-only comparison: doubled-space walk needs ceil(log N) + 1
    qubits (second register plus accept flag); the compressed encoding
    needs 2 ceil(log kappa) + ceil(log B) + 2 at scale 4B."""
    return AncillaComparison(
        szegedy_qubits=_ceil_log2(n_states) + 1,
        paper_qubits=paper_ancillas(kappa, levels),
        logical_qubits=None,
        szegedy_gamma=1.0,
        paper_gamma=float(4 * _pow2_pad(levels)),
    )


def ancilla_comparison(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> AncillaComparison:
    """Comparison with the logical count of an actually built encoding."""
    be = build_ancilla_efficient_Q(model, prop, rule)
    return replace(
        comparison_counts(model.n, prop.kappa, model.levels),
        logical_qubits=be.anc_qubits,
        paper_gamma=be.gamma,
    )
