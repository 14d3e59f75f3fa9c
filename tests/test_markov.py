"""Stochastic-matrix layer: validation, stationary states, discriminants,
spectral gaps. The 2-state chain with energies (0, 1) at beta = ln 2 is the
worked oracle used throughout: P = [[1/2, 1], [1/2, 0]], pi = (2/3, 1/3),
Q = [[1/2, 1/sqrt 2], [1/sqrt 2, 0]], eigenvalues (1, -1/2)."""

import numpy as np
import pytest

from parwalk.errors import (
    DimensionMismatch,
    EnergyOutOfRange,
    NotErgodic,
    NotReversible,
    ParwalkError,
    SpectrumOutOfRange,
)
from parwalk.markov import (
    Distribution,
    GibbsModel,
    StochasticMatrix,
    certify_stationary,
    check_detailed_balance,
    discriminant,
    gibbs_distribution,
    lazy,
    qsample,
    spectral_gaps,
    stationary_distribution,
)
from parwalk.models import build_hypercube
from parwalk.parchain import (
    ProposalDecomposition,
    decompose_discriminant,
    metropolis,
    proposal_from_permutations,
)

RT = np.sqrt(0.5)


@pytest.fixture
def two_state():
    p = StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]]))
    pi = Distribution(np.array([2.0 / 3.0, 1.0 / 3.0]))
    return p, pi


def test_stochastic_matrix_validation():
    with pytest.raises(ParwalkError):
        StochasticMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ParwalkError):
        StochasticMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    with pytest.raises(ParwalkError):
        StochasticMatrix(np.array([[0.6, 0.0], [0.6, 1.0]]))


def test_distribution_validation():
    with pytest.raises(ParwalkError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ParwalkError):
        Distribution(np.array([1.0, 0.0]))


def test_gibbs_model_validation():
    # energies off the integer levels are energy errors; a beta out of
    # range is a plain ParwalkError, as the command line's --beta refusal
    for energies in ([0.5, 1.0], [0, 3], [-1, 0]):
        with pytest.raises(EnergyOutOfRange):
            GibbsModel(energies=np.array(energies), levels=3, beta=1.0)
    with pytest.raises(ParwalkError, match="nonnegative") as caught:
        GibbsModel(energies=np.array([0, 1]), levels=2, beta=-1.0)
    assert type(caught.value) is ParwalkError


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: StochasticMatrix(np.full((2, 2), NAN)),
        lambda: StochasticMatrix(np.zeros((0, 0))),
        lambda: Distribution(np.array([NAN, 1.0])),
        lambda: GibbsModel(energies=np.array([], dtype=int), levels=2, beta=1.0),
        lambda: GibbsModel(energies=np.zeros((2, 2), dtype=int), levels=2, beta=1.0),
        lambda: ProposalDecomposition(np.array([NAN]), (np.arange(2),)),
        lambda: ProposalDecomposition(np.array([1.0]), (np.arange(4).reshape(2, 2),)),
        lambda: spectral_gaps(np.zeros((2, 3))),
        lambda: spectral_gaps(np.zeros((0, 0))),
    ],
    ids=[
        "nan-matrix",
        "empty-matrix",
        "nan-distribution",
        "empty-energies",
        "2d-energies",
        "nan-weight",
        "2d-perm",
        "nonsquare-gaps",
        "empty-gaps",
    ],
)
def test_malformed_inputs_raise_parwalk_errors(make):
    # NaN fails no comparison with a tolerance, and empty or misshaped
    # arrays reach numpy reductions that raise a bare ValueError
    with pytest.raises(ParwalkError):
        make()


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
def test_gibbs_model_rejects_nonfinite_beta(beta):
    with pytest.raises(ParwalkError, match="finite") as caught:
        GibbsModel(energies=np.array([0, 1]), levels=2, beta=beta)
    assert type(caught.value) is ParwalkError


def test_gibbs_distribution_two_state():
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=np.log(2.0))
    pi = gibbs_distribution(model)
    assert np.allclose(pi.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    flat = gibbs_distribution(GibbsModel(energies=np.array([0, 1]), levels=2, beta=0.0))
    assert np.allclose(flat.probs, [0.5, 0.5], atol=1e-15)


def test_stationary_two_state(two_state):
    p, pi = two_state
    got = stationary_distribution(p)
    assert np.abs(got.probs - pi.probs).max() < 1e-12


def test_stationary_rejects_degenerate_fixed_space():
    with pytest.raises(NotErgodic):
        stationary_distribution(StochasticMatrix(np.eye(2)))


def test_stationary_of_nearly_decoupled_blocks_is_exact():
    # two doubly stochastic blocks {0, 1} and {2, 3} joined by eps = 1e-12:
    # eigenvalue 1 is numerically double, but the chain is irreducible and
    # state reduction returns the uniform pi exactly
    eps = 1e-12
    p = StochasticMatrix(
        np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5 - eps, eps, 0.0],
                [0.0, eps, 0.5 - eps, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
    )
    assert np.array_equal(stationary_distribution(p).probs, np.full(4, 0.25))


def test_stationary_rejects_transient_state():
    # eigenvalue 1 is simple, but state 1 is left for good: pi = (1, 0)
    with pytest.raises(NotErgodic, match="strictly positive"):
        stationary_distribution(StochasticMatrix(np.array([[1.0, 0.5], [0.0, 0.5]])))
    # and mirrored: state 0 is left for good, state 1 absorbs, pi = (0, 1)
    with pytest.raises(NotErgodic, match="strictly positive"):
        stationary_distribution(StochasticMatrix(np.array([[0.5, 0.0], [0.5, 1.0]])))


SWAP = [np.array([1, 0])]
UNIFORM2 = Distribution(np.full(2, 0.5))


def test_certificate_rejects_a_proposal_of_two_cycles():
    # one involution pairs the states {0, 1}, {2, 3}, {4, 5}: P is block
    # diagonal and every Gibbs-weighted mix of the blocks is stationary
    model = GibbsModel(energies=np.array([0, 1, 2, 0, 1, 2]), levels=3, beta=0.7)
    prop = proposal_from_permutations([1.0], [np.array([1, 0, 3, 2, 5, 4])])
    p = decompose_discriminant(model, prop, metropolis()).p
    pi = gibbs_distribution(model)
    assert np.abs(p.entries @ pi.probs - pi.probs).max() <= 1e-15
    with pytest.raises(NotErgodic, match="into 3 classes"):
        certify_stationary(p, pi, prop.perms, tol=1e-10)
    with pytest.raises(NotErgodic):
        stationary_distribution(p)


def test_certificate_rejects_the_reducible_and_transient_chains():
    for entries in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 0.5]], [[0.5, 0.0], [0.5, 1.0]]):
        p = StochasticMatrix(np.array(entries))
        with pytest.raises(NotErgodic):
            stationary_distribution(p)
        # the Gibbs residual cannot save them: state reduction's pi is
        # stationary too, and the transient chains move one way only
        for pi in (UNIFORM2, Distribution(np.array([1.0 - 1e-12, 1e-12]))):
            with pytest.raises(NotErgodic):
                certify_stationary(p, pi, SWAP, tol=1.0)


def test_certificate_passes_nearly_decoupled_blocks():
    # the blocks {0, 1} and {2, 3} of the state-reduction test, joined by
    # eps = 1e-12 both ways: irreducible, with the uniform pi
    eps = 1e-12
    p = StochasticMatrix(
        np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5 - eps, eps, 0.0],
                [0.0, eps, 0.5 - eps, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
    )
    perms = [np.array([1, 0, 3, 2]), np.array([0, 2, 1, 3])]
    certify_stationary(p, Distribution(np.full(4, 0.25)), perms, tol=1e-10)
    # without the permutation that carries the eps moves, it is two blocks
    with pytest.raises(NotErgodic, match="into 2 classes"):
        certify_stationary(p, Distribution(np.full(4, 0.25)), perms[:1], tol=1e-10)


def test_certificate_flags_a_gibbs_residual_above_tolerance():
    model, prop = build_hypercube(3, energy="random", levels=4, seed=1, beta=0.8)
    p = decompose_discriminant(model, prop, metropolis()).p
    pi = gibbs_distribution(model)
    certify_stationary(p, pi, prop.perms, tol=1e-10)
    # move mass delta of column x from staying to its first proposed move:
    # P pi - pi grows by delta pi_x in two entries, P stays stochastic
    x = int(np.argmax(pi.probs))
    y = int(prop.perms[0][x])
    for scale, flagged in ((0.5, False), (2.0, True)):
        delta = scale * 1e-10 / pi.probs[x]
        moved = p.entries.copy()
        moved[x, x] -= delta
        moved[y, x] += delta
        residual = np.abs(moved @ pi.probs - pi.probs).max()
        assert abs(residual - scale * 1e-10) <= 1e-16
        if flagged:
            with pytest.raises(NotErgodic, match="pi is not stationary"):
                certify_stationary(StochasticMatrix(moved), pi, prop.perms, tol=1e-10)
        else:
            certify_stationary(StochasticMatrix(moved), pi, prop.perms, tol=1e-10)


def test_certificate_follows_moves_against_the_permutation():
    # the birth-death chain 0 - 1 - 2 with both moves on one 3-cycle
    # x -> x + 1 mod 3: its edge 2 -> 0 is absent, so state 2 is reached
    # only against the permutation's direction
    p = StochasticMatrix(np.array([[0.5, 0.25, 0.0], [0.5, 0.5, 0.5], [0.0, 0.25, 0.5]]))
    pi = Distribution(np.array([0.25, 0.5, 0.25]))
    certify_stationary(p, pi, [np.array([1, 2, 0])], tol=1e-15)


def test_certificate_connects_long_paths():
    # a path 0 - 1 - ... - 99 through two involutions: label propagation
    # must cross 99 edges
    n = 100
    states = np.arange(n)
    even = np.where(states % 2 == 0, np.minimum(states + 1, n - 1), states - 1)
    odd = np.where(states % 2 == 1, np.minimum(states + 1, n - 1), states - 1)
    odd[0] = 0
    prop = proposal_from_permutations([0.5, 0.5], [even, odd])
    model = GibbsModel(energies=np.zeros(n, dtype=int), levels=1, beta=1.0)
    p = decompose_discriminant(model, prop, metropolis()).p
    pi = gibbs_distribution(model)
    certify_stationary(p, pi, prop.perms, tol=1e-10)
    cut = p.entries.copy()
    cut[[n // 2, n // 2 - 1], [n // 2 - 1, n // 2]] = 0.0
    cut[n // 2 - 1, n // 2 - 1] += p.entries[n // 2, n // 2 - 1]
    cut[n // 2, n // 2] += p.entries[n // 2 - 1, n // 2]
    with pytest.raises(NotErgodic, match="into 2 classes"):
        certify_stationary(StochasticMatrix(cut), pi, prop.perms, tol=1e-10)


def test_stationary_accurate_when_pi_spans_orders_of_magnitude():
    # the warm-up chain of the benchmark's encode-n7 workload at seed 17:
    # pi spans almost seven orders of magnitude, and the eigenvector of the
    # nonsymmetric eigensolver deviated from Gibbs by 1.9e-10
    model, prop = build_hypercube(4, energy="random", levels=17, seed=856035082, beta=1.0)
    p = decompose_discriminant(model, prop, metropolis()).p
    pi = gibbs_distribution(model)
    assert pi.probs.max() / pi.probs.min() > 1e6
    assert np.abs(stationary_distribution(p).probs - pi.probs).max() <= 1e-11


@pytest.mark.parametrize("beta", [15.0, 40.0])
def test_stationary_keeps_relative_accuracy_at_large_beta(beta):
    # pi reaches 8.8e-27 at beta = 15 and 3.3e-70 at beta = 40, below the
    # absolute accuracy of a linear solve, which returned nonpositive entries
    model, prop = build_hypercube(4, beta=beta)
    p = decompose_discriminant(model, prop, metropolis()).p
    pi = gibbs_distribution(model).probs
    assert pi.min() < 1e-26
    got = stationary_distribution(p).probs
    assert np.abs(got / pi - 1.0).max() <= 1e-14


def test_detailed_balance(two_state):
    p, pi = two_state
    assert check_detailed_balance(p, pi, tol=1e-12)
    skew = StochasticMatrix(
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    )
    uniform = Distribution(np.ones(3) / 3.0)
    assert not check_detailed_balance(skew, uniform, tol=1e-12)
    with pytest.raises(DimensionMismatch):
        check_detailed_balance(p, uniform)


def test_discriminant_two_state(two_state):
    p, pi = two_state
    q = discriminant(p, pi)
    assert np.abs(q - np.array([[0.5, RT], [RT, 0.0]])).max() < 1e-14
    assert np.abs(q - q.T).max() == 0.0


def test_discriminant_entrywise_form(two_state):
    # q_xy = sqrt(p_xy p_yx) for reversible chains
    p, pi = two_state
    q = discriminant(p, pi)
    assert np.abs(q - np.sqrt(p.entries * p.entries.T)).max() < 1e-12


def test_discriminant_rejects_irreversible():
    skew = StochasticMatrix(
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    )
    with pytest.raises(NotReversible):
        discriminant(skew, Distribution(np.ones(3) / 3.0))


def test_spectral_gaps_two_state(two_state):
    p, pi = two_state
    rep = spectral_gaps(discriminant(p, pi))
    assert np.allclose(rep.eigenvalues, [1.0, -0.5], atol=1e-12)
    assert abs(rep.delta - 0.5) < 1e-12
    assert abs(rep.delta_plus - 1.5) < 1e-12
    assert abs(rep.lazy().delta_plus - 0.75) < 1e-12
    assert not rep.periodic


def test_spectral_gaps_periodic_flip():
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = spectral_gaps(q)
    assert rep.periodic
    assert abs(rep.delta) < 1e-12
    assert abs(rep.delta_plus - 2.0) < 1e-12


def test_lazy_two_state(two_state):
    p, pi = two_state
    pl = lazy(p)
    ql = discriminant(pl, pi)
    rep = spectral_gaps(ql)
    assert np.allclose(rep.eigenvalues, [1.0, 0.25], atol=1e-12)
    assert abs(rep.delta - 0.75) < 1e-12
    derived = spectral_gaps(discriminant(p, pi)).lazy()
    assert np.abs(derived.eigenvalues - rep.eigenvalues).max() < 1e-12
    assert np.abs(np.abs(derived.eigenvectors.T @ rep.eigenvectors) - np.eye(2)).max() < 1e-12
    assert abs(derived.delta - 0.75) < 1e-12 and not derived.periodic


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectral_gaps_rejects_non_finite_q(bad):
    # inf used to warn in q - q.T, and NaN read as an asymmetric matrix
    q = np.array([[0.5, 0.1], [0.1, bad]])
    with pytest.raises(SpectrumOutOfRange, match="non-finite"):
        spectral_gaps(q)


def test_qsample(two_state):
    _, pi = two_state
    amps = qsample(pi)
    assert np.allclose(amps, [0.816497, 0.577350], atol=1e-6)
    assert abs(np.dot(amps, amps) - 1.0) < 1e-14


def test_qsample_is_unit_discriminant_eigenvector(two_state):
    p, pi = two_state
    q = discriminant(p, pi)
    amps = qsample(pi)
    assert np.abs(q @ amps - amps).max() < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_random_reversible_chains(seed):
    # birth-death chains are reversible by construction
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    up = rng.uniform(0.05, 0.45, size=n - 1)
    down = rng.uniform(0.05, 0.45, size=n - 1)
    p = np.zeros((n, n))
    for i in range(n - 1):
        p[i + 1, i] = up[i]
        p[i, i + 1] = down[i]
    p[np.arange(n), np.arange(n)] = 1.0 - p.sum(axis=0)
    chain = StochasticMatrix(p)
    pi = stationary_distribution(chain)
    assert check_detailed_balance(chain, pi, tol=1e-10)
    q = discriminant(chain, pi)
    rep = spectral_gaps(q)
    assert rep.delta_plus >= rep.delta - 1e-15
    assert np.abs(np.sort(rep.eigenvalues) - np.sort(np.linalg.eigvals(p).real)).max() < 1e-9
