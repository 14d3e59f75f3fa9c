"""Doubled-space walk constructions and the ancilla comparison table."""

import math

import numpy as np
import pytest

from parwalk.errors import (
    DecompositionMismatch,
    DimensionMismatch,
    NotReversible,
    NotSymmetricUnitary,
)
from parwalk.markov import GibbsModel, StochasticMatrix, qsample, stationary_distribution
from parwalk.models import hamming_energies
from parwalk.parchain import (
    acceptance_matrix,
    decompose_discriminant,
    glauber,
    hypercube_proposal,
    metropolis,
    transition_matrix,
)
from parwalk.szegedy import (
    ancilla_comparison,
    comparison_counts,
    par_walk,
    quantum_enhanced_walk,
    standard_walk,
)

RT2 = math.sqrt(2.0)


def two_state():
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=math.log(2.0))
    prop = hypercube_proposal(1)
    return model, prop


def walk_identities(walk, q, tol=1e-10):
    t, r = walk.t, walk.reflector
    dim, n = t.shape
    assert np.abs(t.conj().T @ t - np.eye(n)).max() <= tol
    proj = t @ t.conj().T
    assert np.abs(proj @ proj - proj).max() <= tol
    assert np.abs(t.conj().T @ r @ t - q).max() <= tol
    assert np.abs(walk.w - r @ (2.0 * proj - np.eye(dim))).max() <= tol


# ------------------------------------------------------------- standard walk


def test_standard_walk_symmetric_chain():
    # symmetric P is reversible wrt uniform pi, and Q = P itself
    entries = np.full((3, 3), 0.25)
    np.fill_diagonal(entries, 0.5)
    p = StochasticMatrix(entries)
    walk = standard_walk(p)
    walk_identities(walk, entries)


def test_standard_walk_two_state():
    model, prop = two_state()
    rule = metropolis()
    dec = decompose_discriminant(model, prop, rule)
    p = transition_matrix(prop, acceptance_matrix(model, rule))
    walk = standard_walk(p)
    assert walk.total_dim == 4
    walk_identities(walk, dec.q)
    assert abs(dec.q[0, 1] - 1.0 / RT2) < 1e-12
    # the stationary qsample lifts to a fixed point of one walk step
    psi = walk.t @ qsample(stationary_distribution(p))
    assert np.linalg.norm(walk.w @ psi - psi) < 1e-12


def test_standard_walk_rejects_unbalanced_chain():
    cyc = np.zeros((3, 3))
    cyc[[1, 2, 0], [0, 1, 2]] = 1.0  # deterministic 3-cycle
    with pytest.raises(NotReversible):
        standard_walk(StochasticMatrix(cyc))


# ------------------------------------------------------------------ PAR walk


def test_par_walk_all_accept_reduces_to_proposal():
    prop = hypercube_proposal(2)
    a = np.ones((4, 4))
    walk = par_walk(prop, a)
    walk_identities(walk, prop.assemble())


def test_par_walk_two_state():
    model, prop = two_state()
    a = acceptance_matrix(model, metropolis())
    walk = par_walk(prop, a)
    assert walk.total_dim == 8
    q = walk.t.T @ walk.reflector @ walk.t
    assert abs(q[0, 1] - 1.0 / RT2) < 1e-12
    assert abs(q[0, 0] - 0.5) < 1e-12  # rejection mass of the low-energy state
    assert abs(q[1, 1] - 0.0) < 1e-12
    walk_identities(walk, decompose_discriminant(model, prop, metropolis()).q)


def test_par_walk_matches_decomposition_on_cube():
    model = GibbsModel(energies=np.array([0, 2, 1, 3, 1, 2, 0, 1]), levels=4,
                       beta=0.6)
    prop = hypercube_proposal(3)
    for rule in (metropolis(), glauber()):
        a = acceptance_matrix(model, rule)
        walk = par_walk(prop, a)
        dec = decompose_discriminant(model, prop, rule)
        walk_identities(walk, dec.q)


def test_par_walk_shape_guard():
    prop = hypercube_proposal(1)
    with pytest.raises(DimensionMismatch):
        par_walk(prop, np.ones((3, 3)))


def test_par_walk_isospectral_with_transition_matrix():
    model, prop = two_state()
    a = acceptance_matrix(model, glauber())
    walk = par_walk(prop, a)
    q = walk.t.T @ walk.reflector @ walk.t
    p = transition_matrix(prop, a)
    lam_q = np.sort(np.linalg.eigvalsh(q))
    lam_p = np.sort(np.linalg.eigvals(p.entries).real)
    assert np.abs(lam_q - lam_p).max() < 1e-9


def test_par_walk_n7_never_forms_dense_operators():
    # 2N^2 = 32768: a dense reflector or W would take 8 GiB each
    n = 7
    model = GibbsModel(energies=hamming_energies(n), levels=n + 1, beta=0.8)
    prop = hypercube_proposal(n)
    rule = metropolis()
    walk = par_walk(prop, acceptance_matrix(model, rule))
    assert walk.total_dim == 2 * 4**n
    q = decompose_discriminant(model, prop, rule).q
    assert np.abs(walk.trt - q).max() <= 1e-10
    assert "w" not in walk.__dict__ and "reflector" not in walk.__dict__


def _lazy_fields_match_dense_products(walk):
    t, r = walk.t, walk.reflector
    assert np.array_equal(r, r.T) and np.array_equal(r @ r, np.eye(walk.total_dim))
    assert np.array_equal(walk.trt, t.conj().T @ r @ t)
    proj = t @ t.conj().T
    assert np.abs(walk.w - r @ (2.0 * proj - np.eye(walk.total_dim))).max() <= 1e-14


def test_lazy_fields_of_every_constructor_match_dense_products():
    model = GibbsModel(energies=np.array([0, 2, 1, 3, 1, 2, 0, 1]), levels=4,
                       beta=0.6)
    prop = hypercube_proposal(3)
    a = acceptance_matrix(model, glauber())
    _lazy_fields_match_dense_products(par_walk(prop, a))
    _lazy_fields_match_dense_products(
        standard_walk(transition_matrix(prop, a))
    )
    c, s = math.cos(0.4), math.sin(0.4)
    u2 = np.array([[c, s], [s, -c]])
    u = np.kron(np.kron(u2, u2), u2)
    _lazy_fields_match_dense_products(quantum_enhanced_walk(u, a))


# --------------------------------------------------------- quantum-enhanced


def test_quantum_enhanced_reduces_to_par_for_permutation_proposal():
    model, prop = two_state()
    a = acceptance_matrix(model, metropolis())
    u = np.array([[0.0, 1.0], [1.0, 0.0]])  # |u|^2 is the bit-flip proposal
    qe = quantum_enhanced_walk(u, a)
    par = par_walk(prop, a)
    q_qe = qe.t.conj().T @ qe.reflector @ qe.t
    q_par = par.t.T @ par.reflector @ par.t
    assert np.abs(q_qe - q_par).max() < 1e-12


def test_quantum_enhanced_hadamard_like_proposal():
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2  # induced s = J/2
    a = np.full((2, 2), 0.5)
    qe = quantum_enhanced_walk(u, a)
    s = np.abs(u) ** 2
    q = np.sqrt(a * a.T) * s
    np.fill_diagonal(q, 1.0 - (a * s).sum(axis=0) + np.diag(a * s))
    assert np.abs(qe.t.conj().T @ qe.reflector @ qe.t - q).max() < 1e-12
    walk_identities(qe, q)


def test_quantum_enhanced_four_state():
    # symmetric unitary on 4 states: tensor square of the 2-state rotation
    c, s = math.cos(0.4), math.sin(0.4)
    u2 = np.array([[c, s], [s, -c]])
    u = np.kron(u2, u2)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.2, 1.0, size=(4, 4))
    a = np.minimum(a, (a * np.exp(0.3)).T)  # keep it generic but valid
    qe = quantum_enhanced_walk(u, a)
    sprob = np.abs(u) ** 2
    q = np.sqrt(a * a.T) * sprob
    np.fill_diagonal(q, 1.0 - (a * sprob).sum(axis=0) + np.diag(a * sprob))
    assert np.abs(qe.t.conj().T @ qe.reflector @ qe.t - q).max() < 1e-10


def test_quantum_enhanced_rejects_asymmetric_unitary():
    theta = 0.3
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    with pytest.raises(NotSymmetricUnitary):
        quantum_enhanced_walk(u, np.ones((2, 2)))
    with pytest.raises(NotSymmetricUnitary):
        quantum_enhanced_walk(np.ones((2, 2)), np.ones((2, 2)))


# ------------------------------------------------------------------- counts


def test_comparison_counts_examples():
    c = comparison_counts(2, 1, 2)
    assert (c.szegedy_qubits, c.paper_qubits) == (2, 3)
    assert c.szegedy_gamma == 1.0 and c.paper_gamma == 8.0
    c = comparison_counts(256, 8, 9)
    assert (c.szegedy_qubits, c.paper_qubits) == (9, 12)
    c = comparison_counts(1 << 20, 20, 91)
    assert (c.szegedy_qubits, c.paper_qubits) == (21, 19)


def test_ancilla_comparison_builds_logical_count():
    model, prop = two_state()
    rep = ancilla_comparison(model, prop, metropolis())
    assert rep.szegedy_qubits == 2
    assert rep.paper_qubits == 3
    assert rep.logical_qubits == 3
    assert rep.paper_gamma == 8.0
