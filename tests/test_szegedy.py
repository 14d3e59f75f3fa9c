"""Doubled-space walk constructions and their ancilla count."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import parwalk.cli
import parwalk.parchain
from parwalk.errors import DecompositionMismatch, NotReversible, NotSymmetricUnitary
from parwalk.markov import GibbsModel, StochasticMatrix, stationary_distribution
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
    _checked_walk,
    par_ancillas,
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
    psi = walk.t @ np.sqrt(stationary_distribution(p).probs)
    assert np.linalg.norm(walk.w @ psi - psi) < 1e-12


def test_standard_walk_rejects_unbalanced_chain():
    cyc = np.zeros((3, 3))
    cyc[[1, 2, 0], [0, 1, 2]] = 1.0  # deterministic 3-cycle
    with pytest.raises(NotReversible):
        standard_walk(StochasticMatrix(cyc))


# ------------------------------------------------------------------ PAR walk


def test_par_walk_all_accept_reduces_to_proposal():
    # beta = 0 on a flat landscape: every proposal is accepted and Q = S
    model = GibbsModel(energies=np.zeros(4, dtype=int), levels=1, beta=0.0)
    prop = hypercube_proposal(2)
    dec = decompose_discriminant(model, prop, metropolis())
    assert np.array_equal(dec.a, np.ones((4, 4)))
    walk = par_walk(dec)
    walk_identities(walk, prop.s)


def test_par_walk_two_state():
    model, prop = two_state()
    walk = par_walk(decompose_discriminant(model, prop, metropolis()))
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
        dec = decompose_discriminant(model, prop, rule)
        # the walk reads the one S the proposal assembled
        assert dec.s is prop.s and not dec.s.flags.writeable
        walk = par_walk(dec)
        walk_identities(walk, dec.q)


@pytest.mark.parametrize("shift", [1e-9, float("nan")])
def test_par_walk_checks_its_block_against_the_decomposition_q(shift):
    model = GibbsModel(energies=np.array([0, 2, 1, 3]), levels=4, beta=0.6)
    dec = decompose_discriminant(model, hypercube_proposal(2), metropolis())
    q = dec.q.copy()
    q[1, 0] += shift
    with pytest.raises(DecompositionMismatch, match="T\\^dag R T deviates from Q"):
        par_walk(dataclasses.replace(dec, q=q))


def test_par_walk_isospectral_with_transition_matrix():
    model, prop = two_state()
    rule = glauber()
    walk = par_walk(decompose_discriminant(model, prop, rule))
    q = walk.t.T @ walk.reflector @ walk.t
    p = transition_matrix(prop, acceptance_matrix(model, rule))
    lam_q = np.sort(np.linalg.eigvalsh(q))
    lam_p = np.sort(np.linalg.eigvals(p.entries).real)
    assert np.abs(lam_q - lam_p).max() < 1e-9


def test_par_walk_n7_never_forms_dense_operators():
    # 2N^2 = 32768: a dense reflector or W would take 8 GiB each
    n = 7
    model = GibbsModel(energies=hamming_energies(n), levels=n + 1, beta=0.8)
    prop = hypercube_proposal(n)
    dec = decompose_discriminant(model, prop, metropolis())
    walk = par_walk(dec)
    assert walk.total_dim == 2 * 4**n
    assert np.abs(walk.trt - dec.q).max() <= 1e-10
    assert not {"t", "w", "reflector"} & set(walk.__dict__)


def test_par_walk_n9_holds_only_its_block_entries():
    # 2N^2 = 524288: a dense T would take 2 GiB; the walk holds 4 MiB of
    # entries, the 4 MiB index of its reflector and the 2 MiB of T^dag R T,
    # and building it from the decomposition's S, A and Q takes a few more
    # arrays of N x N or 2N^2 entries
    n = 9
    model = GibbsModel(energies=hamming_energies(n), levels=n + 1, beta=0.8)
    dec = decompose_discriminant(model, hypercube_proposal(n), metropolis())
    tracemalloc.start()
    try:
        walk = par_walk(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.total_dim == 2 * 4**n and walk.vals.shape == (2**n, 2**(n + 1))
    assert np.abs(walk.trt - dec.q).max() <= 1e-10
    assert not {"t", "w", "reflector"} & set(walk.__dict__)
    assert peak <= 28 * 2**20


@pytest.mark.parametrize("scale", [1.0 + 1e-6, float("nan")])
def test_checked_walk_rejects_a_column_off_unit_norm(scale):
    model = GibbsModel(energies=np.array([0, 2, 1, 3]), levels=4, beta=0.6)
    walk = par_walk(decompose_discriminant(model, hypercube_proposal(2), metropolis()))
    vals = walk.vals.copy()
    vals[2] *= scale
    with pytest.raises(DecompositionMismatch, match="orthonormal"):
        _checked_walk(vals, walk.perm, walk.trt, "T^dag R T deviates")


def _lazy_fields_match_dense_products(walk):
    t, r = walk.t, walk.reflector
    assert np.array_equal(r, r.T) and np.array_equal(r @ r, np.eye(walk.total_dim))
    # the same nonzero products as the dense one, summed in another order:
    # each entry is a sum of at most m terms of magnitude at most 1
    m = walk.vals.shape[1]
    assert np.abs(walk.trt - t.conj().T @ r @ t).max() <= m * np.finfo(float).eps
    proj = t @ t.conj().T
    assert np.abs(walk.w - r @ (2.0 * proj - np.eye(walk.total_dim))).max() <= 1e-14


def test_lazy_fields_of_every_constructor_match_dense_products():
    model = GibbsModel(energies=np.array([0, 2, 1, 3, 1, 2, 0, 1]), levels=4,
                       beta=0.6)
    prop = hypercube_proposal(3)
    a = acceptance_matrix(model, glauber())
    dec = decompose_discriminant(model, prop, glauber())
    _lazy_fields_match_dense_products(par_walk(dec))
    _lazy_fields_match_dense_products(
        standard_walk(transition_matrix(prop, a))
    )
    c, s = math.cos(0.4), math.sin(0.4)
    u2 = np.array([[c, s], [s, -c]])
    u = np.kron(np.kron(u2, u2), u2)
    _lazy_fields_match_dense_products(quantum_enhanced_walk(u, a))
    # a complex symmetric unitary: the 8-point Fourier transform
    k = np.arange(8)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / 8) / math.sqrt(8)
    _lazy_fields_match_dense_products(quantum_enhanced_walk(dft, a))


# --------------------------------------------------------- quantum-enhanced


def test_quantum_enhanced_reduces_to_par_for_permutation_proposal():
    model, prop = two_state()
    a = acceptance_matrix(model, metropolis())
    u = np.array([[0.0, 1.0], [1.0, 0.0]])  # |u|^2 is the bit-flip proposal
    qe = quantum_enhanced_walk(u, a)
    par = par_walk(decompose_discriminant(model, prop, metropolis()))
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


def test_par_ancillas_examples():
    # the second state register plus the accept flag
    assert [par_ancillas(n) for n in (2, 3, 4, 256, 257, 1 << 20)] == [2, 3, 3, 9, 10, 21]


def test_ancilla_comparison_builds_no_dense_chain(monkeypatch, capsys):
    def dense(*_args):
        raise AssertionError("the comparison built the dense chain")

    for module in (parwalk.parchain, parwalk.cli):
        monkeypatch.setattr(module, "decompose_discriminant", dense)
        monkeypatch.setattr(module, "acceptance_matrix", dense)
    assert parwalk.cli.main(["compare", "--n", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ancillas"] == {"logical": 6, "paper": 8, "szegedy": 4}
    assert report["gamma"] == {"paper": 16.0, "szegedy": 1.0}
