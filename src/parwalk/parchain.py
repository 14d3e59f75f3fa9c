"""Propose-accept/reject chains: permutation-sum proposals, acceptance
rules, transition assembly, and the decompositions

    P = A(.)S + R        and        Q = (G(.)A)(.)S + R

where (.) is the entrywise product, S is the symmetric proposal, A the
acceptance matrix, R the diagonal rejection matrix, and G the Boltzmann
reweighting g_yx = e^{beta(E_y - E_x)/2}.  Matrices whose entries depend
only on the endpoint energies are B x B arrays indexed by energy level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    BadWeights,
    DecompositionMismatch,
    DimensionMismatch,
    FunctionalEquationViolated,
    NegativeDiagonal,
    NotSymmetricProposal,
    WeightMismatch,
)
from .markov import Distribution, GibbsModel, StochasticMatrix, discriminant, gibbs_distribution

RATIO_TOL = 1e-12
DECOMP_TOL = 1e-10


@dataclass(frozen=True)
class ProposalDecomposition:
    """Symmetric proposal given as a convex sum of permutation matrices.

    perms[k] is an index map: state x is proposed to move to perms[k][x].
    """

    weights: np.ndarray
    perms: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        perms = tuple(np.asarray(p, dtype=np.intp) for p in self.perms)
        if w.ndim != 1 or w.size == 0:
            raise BadWeights("weights must be a nonempty vector")
        if w.size != len(perms):
            raise WeightMismatch(f"{w.size} weights for {len(perms)} permutations")
        if not w.min() > 0:
            raise BadWeights("weights must be strictly positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")
        n = perms[0].size
        ref = np.arange(n)
        for p in perms:
            if p.ndim != 1 or p.size != n or np.any(np.sort(p) != ref):
                raise DimensionMismatch("each perm must be a bijection on {0..N-1}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "perms", perms)
        if np.abs(self.s - self.s.T).max() > 1e-12:
            raise NotSymmetricProposal("assembled proposal matrix is not symmetric")

    @property
    def n(self) -> int:
        return self.perms[0].size

    @property
    def kappa(self) -> int:
        return len(self.perms)

    @cached_property
    def s(self) -> np.ndarray:
        """Dense S = sum_k w_k Pi_k, assembled once and read-only."""
        s = np.zeros((self.n, self.n))
        cols = np.arange(self.n)
        for w, p in zip(self.weights, self.perms):
            s[p, cols] += w
        s.flags.writeable = False
        return s

    @cached_property
    def inverses(self) -> tuple:
        return tuple(np.argsort(p) for p in self.perms)

    @property
    def all_involutions(self) -> bool:
        return all(np.array_equal(p[p], np.arange(self.n)) for p in self.perms)

    def paired_slots(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """The same S over slots closed under inversion, as (weights, perms,
        partner): perms[partner[k]] is the inverse of perms[k] at the same
        weight, and an involution is its own partner. A permutation left
        without a partner, (p, w), becomes (p, w/2) in its own slot plus
        (p^-1, w/2) in a slot appended after the given ones, so there are at
        most 2 kappa slots. R and Q are unchanged: S is symmetric, so
        sum_k w_k a[p_k^-1 x, x] = sum_k w_k a[p_k x, x]."""
        inverses = self.inverses
        partner = np.full(self.kappa, -1)
        for k in range(self.kappa):
            if partner[k] >= 0:
                continue
            for j in range(k, self.kappa):
                if (partner[j] < 0 and self.weights[j] == self.weights[k]
                        and np.array_equal(self.perms[j], inverses[k])):
                    partner[k], partner[j] = j, k
                    break
        lone = np.flatnonzero(partner < 0)
        weights = self.weights.copy()
        weights[lone] /= 2
        partner[lone] = self.kappa + np.arange(lone.size)
        return (
            np.concatenate([weights, weights[lone]]),
            self.perms + tuple(inverses[k] for k in lone),
            np.concatenate([partner, lone]),
        )


def hypercube_proposal(n: int) -> ProposalDecomposition:
    """Uniform single-bit-flip proposal on the n-cube.

    Permutation k flips the bit of place value 2^k, i.e. x -> x XOR 2^k.
    """
    if n < 1:
        raise DimensionMismatch("need at least one bit")
    states = np.arange(1 << n)
    perms = tuple(states ^ (1 << k) for k in range(n))
    return ProposalDecomposition(np.full(n, 1.0 / n), perms)


@dataclass(frozen=True)
class AcceptanceRule:
    """Acceptance probability as a function of the integer energy change.

    f(delta, beta) must satisfy f(delta) = e^{-beta delta} f(-delta) and
    take values in (0, 1]; checked over the full delta range in table().
    """

    kind: str
    f: Callable[[int, float], float]

    def table(self, beta: float, levels: int) -> np.ndarray:
        """Acceptance values for delta in {-(levels-1), ..., levels-1},
        validated against the functional equation.

        Index by table[delta + levels - 1].
        """
        deltas = np.arange(-(levels - 1), levels)
        vals = np.array([self.f(int(d), beta) for d in deltas], dtype=float)
        # both checks are written so that a NaN value fails them
        if not (vals.min() > 0 and vals.max() <= 1 + RATIO_TOL):
            zero = np.flatnonzero(vals == 0)
            if zero.size and math.isfinite(beta):
                raise FunctionalEquationViolated(
                    f"{self.kind}: f({deltas[zero[0]]}) underflows to 0 in "
                    f"float64 at beta={beta}"
                )
            raise FunctionalEquationViolated(
                f"{self.kind}: acceptance values must lie in (0, 1]"
            )
        # f(d) = e^{-beta d} f(-d), checked as e^{beta d/2}f(d) = e^{-beta d/2}f(-d);
        # both sides stay <= 1 for valid rules, so an absolute tolerance is safe
        half = np.exp(0.5 * beta * deltas)
        sym = half * vals
        if not np.abs(sym - sym[::-1]).max() <= RATIO_TOL:
            raise FunctionalEquationViolated(
                f"{self.kind}: f(d) = e^(-beta d) f(-d) fails at beta={beta}"
            )
        return vals


def metropolis() -> AcceptanceRule:
    # min(1, e^x) as e^min(0, x): the exponent never overflows
    return AcceptanceRule("metropolis", lambda d, beta: math.exp(min(0.0, -beta * d)))


def glauber() -> AcceptanceRule:
    def f(d, beta):
        try:
            w = math.exp(-beta * d)
        except OverflowError:
            return 1.0  # w / (1 + w) rounds to 1 long before e^x overflows
        return w / (1.0 + w)

    return AcceptanceRule("glauber", f)


@dataclass(frozen=True)
class LevelTables:
    """The B x B level tables of one chain, indexed [E', E]: values[E', E] =
    f(E'-E), the rule's validated acceptance values, ga[E', E] =
    e^{beta(E'-E)/2} f(E'-E), symmetric with entries in [0, 1], and
    rejection[E', E] = 1 - f(E'-E). The diagonal of values and ga carries
    f(0), not the unit acceptance of staying put; rejection's diagonal
    cancels it.

    No norm is computed here: ||t||_2 <= sqrt(||t||_1 ||t||_inf) holds for
    every matrix, and sqrt(||t||_1 ||t||_inf) <= B for every B x B matrix
    with entries in [0, 1], which ga and rejection are."""

    values: np.ndarray
    ga: np.ndarray
    rejection: np.ndarray


def level_tables(model: GibbsModel, rule: AcceptanceRule) -> LevelTables:
    """Evaluate the rule once (rule.table checks the functional equation)
    and gather the three level tables from those 2B - 1 values."""
    vals = rule.table(model.beta, model.levels)
    lv = np.arange(model.levels)
    deltas = np.subtract.outer(lv, lv)
    f = vals[deltas + model.levels - 1]
    # a validated table has 0 < f(d) <= e^{-beta d}, which bounds beta |d|
    # by ~745, so the reweighting below cannot overflow
    return LevelTables(f, np.exp(0.5 * model.beta * deltas) * f, 1.0 - f)


def _at_states(model: GibbsModel, table: np.ndarray) -> np.ndarray:
    """N x N matrix table[E_y, E_x] at (y, x), with a unit diagonal."""
    e = model.energies
    out = table[np.ix_(e, e)]
    np.fill_diagonal(out, 1.0)
    return out


def acceptance_matrix(model: GibbsModel, rule: AcceptanceRule) -> np.ndarray:
    """Dense A with a_yx = f(E_y - E_x) off the diagonal and a_xx = 1.

    Its detailed-balance ratio a_yx / a_xy = e^{-beta delta} is the
    functional equation that rule.table checks on the same values."""
    return _at_states(model, level_tables(model, rule).values)


def transition_matrix(prop: ProposalDecomposition, a: np.ndarray) -> StochasticMatrix:
    """P with p_yx = a_yx s_yx off the diagonal, columns topped up to 1."""
    if a.shape != (prop.n, prop.n):
        raise DimensionMismatch(f"acceptance shape {a.shape} vs proposal dim {prop.n}")
    p = a * prop.s
    off_sum = p.sum(axis=0) - np.diag(p)
    stay = 1.0 - off_sum
    if stay.min() < -1e-12:
        raise NegativeDiagonal(f"column overflow {stay.min():.3e}")
    np.fill_diagonal(p, np.maximum(stay, 0.0))
    return StochasticMatrix(p)


def rejection_diagonal(prop: ProposalDecomposition, a: np.ndarray) -> np.ndarray:
    """Diagonal r of the rejection matrix R = sum_k w_k Pi_k^T ((J - A) (.) Pi_k),
    that is r_x = sum_k w_k (1 - a[p_k x, x])."""
    if a.shape != (prop.n, prop.n):
        raise DimensionMismatch(f"acceptance shape {a.shape} vs proposal dim {prop.n}")
    cols = np.arange(prop.n)
    r = np.zeros(prop.n)
    for w, p in zip(prop.weights, prop.perms):
        r += w * (1.0 - a[p, cols])
    if r.min() < -1e-12 or r.max() > 1 + 1e-12:
        raise NegativeDiagonal("rejection probabilities must lie in [0, 1]")
    return r


@dataclass(frozen=True)
class DiscriminantDecomposition:
    """Factors of Q = (G(.)A)(.)S + R, built once per chain: the level
    tables that a and G(.)A are gathered from, the Gibbs distribution pi,
    the acceptance matrix a, the transition matrix p, the proposal's own
    read-only s, the diagonal r of R as a length-N vector, the discriminant
    q, and the verified deviation of the recomposition from q. G(.)A is
    gathered only to compute that deviation; tables.ga holds its values."""

    tables: LevelTables
    pi: Distribution
    a: np.ndarray
    p: StochasticMatrix
    s: np.ndarray
    r: np.ndarray
    q: np.ndarray
    deviation: float


def decompose_discriminant(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> DiscriminantDecomposition:
    """Build the chain and verify Q = (G(.)A)(.)S + R within DECOMP_TOL.

    Detailed balance needs no check of its own: with d = E_y - E_x, the
    flow defect p_yx pi_x - p_xy pi_y off the diagonal is s_yx sqrt(pi_x
    pi_y) (e^{beta d/2} f(d) - e^{-beta d/2} f(-d)), where rule.table bounds
    the bracket by RATIO_TOL and sqrt(pi_x pi_y) <= 1/2, so the defect is at
    most RATIO_TOL / 2 plus rounding; the diagonal terms cancel exactly.
    That takes S exactly symmetric, as the bit-flip S of every built-in
    model is; ProposalDecomposition admits |s_yx - s_xy| <= 1e-12 more."""
    if model.n != prop.n:
        raise DimensionMismatch(f"model dim {model.n} vs proposal dim {prop.n}")
    tables = level_tables(model, rule)
    a = _at_states(model, tables.values)
    s = prop.s
    p = transition_matrix(prop, a)
    r = rejection_diagonal(prop, a)
    pi = gibbs_distribution(model)
    q = discriminant(p, pi)

    # transition_matrix writes every off-diagonal entry as the product a * s,
    # so P = A(.)S + R can differ only on the diagonal, where it compares the
    # two formulas for the rejection probability
    p_dev = float(np.abs(np.diagonal(a) * np.diagonal(s) + r - np.diagonal(p.entries)).max())
    if not p_dev <= 1e-12:
        raise DecompositionMismatch(f"|A(.)S + R - P| = {p_dev:.3e} exceeds 1e-12")

    # symmetric, since rule.table checked the functional equation
    ga = _at_states(model, tables.ga)
    if ga.min() < 0 or ga.max() > 1 + 1e-12:
        raise DecompositionMismatch("G(.)A entries leave [0, 1]")

    # the recomposition, in ga's own storage
    ga *= s
    ga.flat[:: ga.shape[0] + 1] += r
    ga -= q
    deviation = float(np.abs(ga, out=ga).max())
    if not deviation <= DECOMP_TOL:
        raise DecompositionMismatch(
            f"|(G(.)A)(.)S + R - Q| = {deviation:.3e} exceeds {DECOMP_TOL:g}"
        )
    return DiscriminantDecomposition(
        tables=tables, pi=pi, a=a, p=p, s=s, r=r, q=q, deviation=deviation
    )
