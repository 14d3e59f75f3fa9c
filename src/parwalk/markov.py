"""Reversible Markov chain fundamentals: Gibbs models, stationary
distributions, discriminant matrices and spectral gaps.

Conventions: transition matrices are column-stochastic, entry (y, x) is the
probability of moving from x to y. Energies are integers in {0, ..., B-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EnergyOutOfRange,
    NotErgodic,
    NotReversible,
    ParwalkError,
    SpectrumOutOfRange,
)

COLUMN_SUM_TOL = 1e-12
STRUCT_TOL = 1e-10
EIG_TOL = 1e-9


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic matrix with entries in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
            raise DimensionMismatch("transition matrix must be square and nonempty")
        # written so that NaN fails every range check
        if not (p.min() >= -COLUMN_SUM_TOL and p.max() <= 1 + COLUMN_SUM_TOL):
            raise SpectrumOutOfRange("transition probabilities must lie in [0, 1]")
        colsums = p.sum(axis=0)
        if not np.abs(colsums - 1.0).max() <= COLUMN_SUM_TOL:
            raise DimensionMismatch(
                f"columns must sum to 1 (max deviation {np.abs(colsums - 1).max():.3e})"
            )
        object.__setattr__(self, "entries", p)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Distribution:
    """Strictly positive probability vector."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise DimensionMismatch("distribution must be a vector")
        if not abs(p.sum() - 1.0) <= COLUMN_SUM_TOL:
            raise DimensionMismatch(f"probabilities sum to {p.sum()!r}, expected 1")
        if not p.min() > 0:
            raise NotErgodic("distribution has a nonpositive entry")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class GibbsModel:
    """Integer-energy model with Boltzmann weights e^{-beta E_x}."""

    energies: np.ndarray
    levels: int  # number of allowed energy levels B; energies lie in {0..B-1}
    beta: float

    def __post_init__(self):
        e = np.asarray(self.energies)
        if e.ndim != 1 or e.size == 0:
            raise DimensionMismatch("energies must be a nonempty vector")
        if not np.issubdtype(e.dtype, np.integer):
            raise EnergyOutOfRange("energies must be integers")
        if e.min() < 0 or e.max() >= self.levels:
            raise EnergyOutOfRange(
                f"energies must lie in [0, {self.levels - 1}], got range "
                f"[{e.min()}, {e.max()}]"
            )
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ParwalkError(f"beta must be finite and nonnegative, got {self.beta!r}")
        object.__setattr__(self, "energies", e.astype(np.intp))

    @property
    def n(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues (descending), their eigenvector columns and the gaps."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    delta: float        # 1 - max{lambda_2, |lambda_min|}
    delta_plus: float   # 1 - lambda_2
    periodic: bool

    def lazy(self) -> "SpectralReport":
        """Report of the half-lazy chain, whose discriminant is (I + Q)/2:
        eigenvalues (1 + lambda)/2, the same eigenvectors, no new solve."""
        return _gap_report(0.5 * (1.0 + self.eigenvalues), self.eigenvectors)


def gibbs_distribution(model: GibbsModel) -> Distribution:
    """Boltzmann distribution pi_x = e^{-beta E_x} / Z."""
    w = np.exp(-model.beta * model.energies.astype(float))
    return Distribution(w / w.sum())


def stationary_distribution(p: StochasticMatrix) -> Distribution:
    """Unique stationary distribution of p.

    Grassmann-Taksar-Heyman state reduction censors the states one at a
    time, last first, and sums each escape probability instead of taking
    1 - p_kk: with no subtraction, every entry of pi is accurate relative
    to its own size, however many orders pi spans. It rejects every
    structurally reducible chain exactly, with NotErgodic: either a
    censored state has no escape, or a transient state's pi is an exact
    zero. A chain whose eigenvalue 1 is degenerate only numerically passes
    here: the one-sided gap floor (Delta+ <= EIG_TOL) is what rejects it.
    """
    # row-stochastic copy: a[x, y] is the probability of moving from x to y
    a = p.entries.T.copy()
    for k in range(p.n - 1, 0, -1):
        escape = a[k, :k].sum()
        if escape <= 0.0:  # k is absorbing once censored: no mass below it
            raise NotErgodic(
                f"state {k} cannot reach a lower state: the chain is reducible "
                "and has no unique strictly positive stationary distribution"
            )
        a[:k, k] /= escape
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    v = np.ones(p.n)
    for k in range(1, p.n):
        v[k] = v[:k] @ a[:k, k]
    v = v / v.sum()
    if v.min() <= 0:
        raise NotErgodic("stationary distribution is not strictly positive")
    return Distribution(v)


def certify_stationary(p: StochasticMatrix, pi: Distribution, perms, tol: float) -> None:
    """Certify that pi is the unique stationary distribution of p, given the
    permutations perms along which p proposes its moves.

    Two checks: the residual |P pi - pi| (max norm) is at most tol, and the
    graph that joins x and perms[k][x] wherever p moves both ways between
    them (p[perms[k][x], x] > 0 and p[x, perms[k][x]] > 0) is connected. Its
    edges are positive entries of p in both directions, so connectivity
    makes p irreducible, and an irreducible chain has exactly one
    stationary distribution; with detailed balance, which discriminant's
    symmetry check and decompose_discriminant's bound give, this is what
    state reduction (stationary_distribution) establishes, in O(N^2)
    for the one product P pi and O(N kappa) per sweep of label propagation
    instead of O(N^3). A chain connected only through one-way moves, or
    through moves that no permutation proposes, is rejected too. Raises
    NotErgodic when either check fails.
    """
    if p.n != pi.n:
        raise DimensionMismatch(f"matrix dim {p.n} vs distribution dim {pi.n}")
    entries = p.entries
    residual = float(np.abs(entries @ pi.probs - pi.probs).max())
    # written so that NaN fails
    if not residual <= tol:
        raise NotErgodic(
            f"|P pi - pi| = {residual:.3e} exceeds {tol:g}: pi is not stationary"
        )
    states = np.arange(p.n)
    edges = []
    for q in perms:
        q = np.asarray(q, dtype=np.intp)
        both = (entries[q, states] > 0) & (entries[states, q] > 0)
        edges.append((states[both], q[both]))
    # every state takes the smallest label among its neighbours, then that
    # of the state its label names, until nothing changes; labels only
    # decrease, and at the fixed point each class of connected states
    # shares the label of its smallest state
    labels = states.copy()
    while True:
        before = labels.copy()
        for x, y in edges:
            low = np.minimum(labels[x], labels[y])
            labels[x] = low
            labels[y] = np.minimum(labels[y], low)
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    classes = np.count_nonzero(labels == states)
    if classes > 1:
        raise NotErgodic(
            f"the two-way moves of P split its {p.n} states into {classes} "
            "classes: the chain is reducible and has no unique stationary "
            "distribution"
        )


def check_detailed_balance(p: StochasticMatrix, pi: Distribution, tol: float = STRUCT_TOL) -> bool:
    """True when p_xy pi_y = p_yx pi_x entrywise within tol; the CLI runs no
    such check, as decompose_discriminant bounds the defect instead."""
    if p.n != pi.n:
        raise DimensionMismatch(f"matrix dim {p.n} vs distribution dim {pi.n}")
    flow = p.entries * pi.probs[None, :]
    return bool(np.abs(flow - flow.T).max() <= tol)


def discriminant(p: StochasticMatrix, pi: Distribution) -> np.ndarray:
    """Symmetric discriminant D^{-1/2} P D^{1/2} of a reversible chain.

    One check: D^{-1/2} P D^{1/2} is symmetric within STRUCT_TOL. It bounds
    the detailed-balance defect, p_yx pi_x - p_xy pi_y = (q_yx - q_xy)
    sqrt(pi_x pi_y) with sqrt(pi_x pi_y) <= 1, and the entrywise form,
    |q_yx - sqrt(p_yx p_xy)| = |a - sqrt(ab)| <= |a - b| for a = q_yx and
    b = q_xy.
    """
    if p.n != pi.n:
        raise DimensionMismatch(f"matrix dim {p.n} vs distribution dim {pi.n}")
    root = np.sqrt(pi.probs)
    q = p.entries * root[None, :]
    q /= root[:, None]
    work = q - q.T
    # written so that NaN fails
    if not np.abs(work, out=work).max() <= STRUCT_TOL:
        raise NotReversible("detailed balance fails, discriminant is not symmetric")
    # the symmetric part (q + q^T)/2, in the same storage
    np.add(q, q.T, out=work)
    work *= 0.5
    return work


def spectral_gaps(q: np.ndarray) -> SpectralReport:
    """Eigenpairs (descending) and gaps of a symmetric contraction, from one eigh."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise DimensionMismatch("spectral_gaps expects a nonempty square matrix")
    if not np.isfinite(q).all():
        raise SpectrumOutOfRange("q has non-finite entries")
    if not _asymmetry(q) <= STRUCT_TOL:
        raise NotReversible("spectral_gaps expects a symmetric matrix")
    vals, vecs = np.linalg.eigh(q)
    return _gap_report(vals[::-1], vecs[:, ::-1])


def _asymmetry(q: np.ndarray) -> float:
    """max |q - q^T| over the upper triangle, NaN if an entry is NaN, in
    blocks of b = ceil(N^(2/3)) rows. Each block's b columns below the
    diagonal are first copied, rows of b floats at a time, so that no pass
    strides down a column of q: two N x b arrays instead of two N x N
    temporaries (16 MiB against 256 MiB at N = 4096), and about N^(1/3)
    blocks, whose fixed cost of a few numpy calls is what small N pays."""
    n = q.shape[0]
    step = math.ceil(n ** (2 / 3))
    rows, cols = np.empty((step, n)), np.empty((n, step))
    peaks = np.empty(-(-n // step))
    for i, lo in enumerate(range(0, n, step)):
        hi = min(lo + step, n)
        col = cols[: n - lo, : hi - lo]
        np.copyto(col, q[lo:, lo:hi])
        diff = np.subtract(q[lo:hi, lo:], col.T, out=rows[: hi - lo, : n - lo])
        peaks[i] = np.abs(diff, out=diff).max()
    # ndarray.max, unlike the builtin max, returns NaN if any peak is NaN
    return float(peaks.max())


def _gap_report(vals: np.ndarray, vecs: np.ndarray) -> SpectralReport:
    if np.abs(vals).max() > 1 + EIG_TOL:
        raise SpectrumOutOfRange(f"eigenvalue {vals[np.abs(vals).argmax()]} outside [-1, 1]")
    lam2 = vals[1] if vals.size > 1 else -1.0  # one state: delta_plus = 2
    delta, delta_plus = float(1.0 - max(lam2, abs(vals[-1]))), float(1.0 - lam2)
    return SpectralReport(
        eigenvalues=vals,
        eigenvectors=vecs,
        delta=delta,
        delta_plus=delta_plus,
        periodic=bool(vals[-1] <= -1 + 1e-12),
    )


def lazy(p: StochasticMatrix) -> StochasticMatrix:
    """Half-lazy chain (I + P)/2; shifts the spectrum to [0, 1]. Its
    discriminant is (I + Q)/2, which the CLI derives from Q instead."""
    return StochasticMatrix(0.5 * (np.eye(p.n) + p.entries))

