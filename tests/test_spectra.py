"""Walk eigenphase extraction, the arccos phase mapping, and the
quadratic gap lower bound."""

import dataclasses
import math

import numpy as np
import pytest

from parwalk.blockenc import build_ancilla_efficient_Q
from parwalk.errors import (
    BoundViolated,
    DimensionMismatch,
    SpectrumMismatch,
    SpectrumOutOfRange,
)
from parwalk.markov import (
    GibbsModel,
    StochasticMatrix,
    discriminant,
    gibbs_distribution,
    lazy,
    qsample,
    spectral_gaps,
    stationary_distribution,
)
from parwalk.parchain import (
    acceptance_matrix,
    decompose_discriminant,
    hypercube_proposal,
    metropolis,
    proposal_from_permutations,
    transition_matrix,
)
from parwalk.models import build_hypercube
from parwalk.spectra import (
    RESIDUAL_TOL,
    _block_phases,
    eigenbasis_embedding,
    phase_gap_check,
    walk_phases,
    walk_spectrum,
)
from parwalk.szegedy import par_walk, quantum_enhanced_walk, standard_walk

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def two_state():
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=math.log(2.0))
    prop = hypercube_proposal(1)
    return model, prop


# ------------------------------------------------------------ the embedding


def test_embedding_identity_spectrum():
    emb = eigenbasis_embedding(np.eye(3))
    assert np.abs(emb.thetas).max() == 0.0
    spec = walk_spectrum(emb.phases, np.eye(3))
    assert spec.phase_gap == 0.0
    assert np.abs(spec.measured).max() == 0.0
    assert spec.b_perp_dim == 3  # the three partner directions


def test_embedding_single_state_half_turn():
    q = np.zeros((1, 1))
    emb = eigenbasis_embedding(q)
    spec = walk_spectrum(emb.phases, q)
    assert abs(spec.phase_gap - math.pi / 2.0) < 1e-12
    assert spec.b_perp_dim == 0
    report = phase_gap_check(spec, 1.0)
    assert report.holds and abs(report.lower_bound - math.sqrt(2.0)) < 1e-12


def dense_walk(emb):
    """The embedding walk u = s (2 t t^T - I), formed densely."""
    n2 = emb.t.shape[0]
    return emb.s[:, None] * (2.0 * emb.t @ emb.t.T - np.eye(n2))


def test_embedding_verifies_its_own_relations():
    model, prop = two_state()
    dec = decompose_discriminant(model, prop, metropolis())
    emb = eigenbasis_embedding(dec.q)
    n = 2
    assert np.array_equal(emb.s, [1.0, -1.0, 1.0, -1.0])
    assert np.abs(emb.t.T @ emb.t - np.eye(n)).max() < 1e-12
    assert np.abs(emb.t.T @ (emb.s[:, None] * emb.t) - dec.q).max() < 1e-12
    u = dense_walk(emb)
    assert np.abs(u @ u.T - np.eye(2 * n)).max() < 1e-12
    # the walk turns plane j by theta_j: phases +-theta_j
    assert np.abs(emb.phases - np.r_[emb.thetas, -emb.thetas]).max() < 1e-12


def test_embedding_rejects_out_of_range_spectra():
    with pytest.raises(SpectrumOutOfRange):
        eigenbasis_embedding(2.0 * np.eye(2))
    # periodic edge: beta = 0 two-state chain has Q with eigenvalue -1
    with pytest.raises(SpectrumOutOfRange, match="lazy"):
        eigenbasis_embedding(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ------------------------------------------------------- phase mapping, gap


def test_two_state_gap_across_constructions():
    model, prop = two_state()
    rule = metropolis()
    dec = decompose_discriminant(model, prop, rule)
    a = acceptance_matrix(model, rule)
    p = transition_matrix(prop, a)
    walks = [
        standard_walk(p),
        par_walk(prop, a),
        quantum_enhanced_walk(np.array([[0.0, 1.0], [1.0, 0.0]]), a),
    ]
    all_phases = [walk_phases(walk.w) for walk in walks]
    all_phases.append(eigenbasis_embedding(dec.q).phases)
    for phases in all_phases:
        spec = walk_spectrum(phases, dec.q)
        assert abs(spec.phase_gap - TWO_THIRDS_PI) < 1e-10
        report = phase_gap_check(spec, 1.5)
        assert report.holds
        assert abs(report.predicted - TWO_THIRDS_PI) < 1e-12
        assert abs(report.lower_bound - math.sqrt(3.0)) < 1e-12


def test_standard_walk_complement_is_trivial():
    model, prop = two_state()
    rule = metropolis()
    p = transition_matrix(prop, acceptance_matrix(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    spec = walk_spectrum(walk_phases(standard_walk(p).w), dec.q)
    assert spec.b_perp_dim == 1  # 4-dim walk, 3 matched phases
    assert np.abs(spec.measured - spec.predicted).max() < 1e-10


def test_block_encoding_pair_spectrum():
    model, prop = two_state()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, rule)
    dec = decompose_discriminant(model, prop, rule)
    # the qubitized walk V (2 Pi_0 - I), Pi_0 the projector on ancillas |0^c>
    v = be.op.dense()
    signs = -np.ones(v.shape[0])
    signs[: be.sys_dim] = 1.0
    spec = walk_spectrum(walk_phases(v * signs), dec.q / be.gamma)
    lam = np.linalg.eigvalsh(dec.q)[::-1] / be.gamma
    assert abs(spec.phase_gap - math.acos(lam[0])) < 1e-9
    assert np.abs(spec.measured - np.arccos(lam)).max() < 1e-9


def test_lazy_cube_spectrum_and_bound():
    # beta = 0 proposal walk on the 2-cube is periodic; its lazy version has
    # discriminant eigenvalues {1, 1/2, 1/2, 0}
    model = GibbsModel(energies=np.array([0, 1, 1, 2]), levels=3, beta=0.0)
    prop = hypercube_proposal(2)
    a = acceptance_matrix(model, metropolis())
    p = transition_matrix(prop, a)
    gaps = spectral_gaps(discriminant(p, gibbs_distribution(model)))
    assert gaps.periodic
    p_lazy = lazy(p)
    q_lazy = discriminant(p_lazy, gibbs_distribution(model))
    lam = np.sort(np.linalg.eigvalsh(q_lazy))
    assert np.abs(lam - np.array([0.0, 0.5, 0.5, 1.0])).max() < 1e-12

    emb = eigenbasis_embedding(q_lazy)
    spec = walk_spectrum(emb.phases, q_lazy)
    assert abs(spec.phase_gap - math.pi / 3.0) < 1e-10
    lazy_gaps = spectral_gaps(q_lazy)
    report = phase_gap_check(spec, lazy_gaps.delta_plus)
    assert report.holds
    assert spec.phase_gap >= math.sqrt(2.0 * lazy_gaps.delta_plus) - 1e-12


def test_walk_fixed_point_is_stationary_qsample():
    model = GibbsModel(energies=np.array([0, 1, 1, 2]), levels=3, beta=0.8)
    prop = hypercube_proposal(2)
    a = acceptance_matrix(model, metropolis())
    p = transition_matrix(prop, a)
    walk = standard_walk(p)
    psi = walk.t @ qsample(stationary_distribution(p))
    assert np.linalg.norm(walk.w @ psi - psi) < 1e-9


def test_cube_phase_mapping_matches_predictions():
    model = GibbsModel(
        energies=np.array([0, 1, 1, 2, 1, 2, 2, 3]), levels=4, beta=1.0
    )
    prop = hypercube_proposal(3)
    a = acceptance_matrix(model, metropolis())
    p = transition_matrix(prop, a)
    dec = decompose_discriminant(model, prop, metropolis())
    spec = walk_spectrum(walk_phases(standard_walk(p).w), dec.q)
    assert np.abs(spec.measured - spec.predicted).max() <= 1e-8
    gaps = spectral_gaps(dec.q)
    report = phase_gap_check(spec, gaps.delta_plus)
    assert report.holds


# ------------------------------------------------------------------ failures


def test_mismatched_reference_spectrum_raises():
    model, prop = two_state()
    p = transition_matrix(prop, acceptance_matrix(model, metropolis()))
    walk = standard_walk(p)
    wrong_q = np.full((2, 2), 0.5)  # eigenvalues {1, 0}: phases pi/2 missing
    with pytest.raises(SpectrumMismatch):
        walk_spectrum(walk_phases(walk.w), wrong_q)


def test_phase_gap_check_flags_wrong_gap():
    model, prop = two_state()
    dec = decompose_discriminant(model, prop, metropolis())
    spec = walk_spectrum(eigenbasis_embedding(dec.q).phases, dec.q)
    with pytest.raises(BoundViolated):
        phase_gap_check(spec, 0.5)  # arccos(0.5) != the walk's 2pi/3
    with pytest.raises(BoundViolated):
        phase_gap_check(spec, -0.1)


def test_walk_spectrum_takes_the_gap_report_eigenvalues():
    # the CLI passes spectral_gaps' eigenvalues instead of solving q again;
    # the same LAPACK call on the same matrix gives the same bytes
    model, prop = build_hypercube(5, energy="random", levels=7, seed=2, beta=0.8)
    q = decompose_discriminant(model, prop, metropolis()).q
    phases = eigenbasis_embedding(q).phases
    want = walk_spectrum(phases, q)
    got = walk_spectrum(phases, q, spectral_gaps(q).eigenvalues)
    for field in ("eigenphases", "lambdas", "predicted", "measured"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.phase_gap, got.b_perp_dim) == (want.phase_gap, want.b_perp_dim)
    with pytest.raises(SpectrumOutOfRange):
        walk_spectrum(phases, q, 3.0 * spectral_gaps(q).eigenvalues)


def test_walk_spectrum_input_guards():
    with pytest.raises(SpectrumOutOfRange):
        walk_phases(np.eye(2) * 2.0)  # not unitary
    with pytest.raises(DimensionMismatch):
        walk_spectrum(np.eye(2), np.eye(2))  # a walk matrix, not its phases
    with pytest.raises(SpectrumOutOfRange):
        walk_spectrum(np.zeros(2), 3.0 * np.eye(2))  # reference out of range


@pytest.mark.parametrize(
    "q, error",
    [(np.array([[np.nan, 0.0], [0.0, 1.0]]), SpectrumOutOfRange),
     (np.zeros((2, 3)), DimensionMismatch),
     (np.zeros((0, 0)), DimensionMismatch)],
    ids=["nan-entry", "nonsquare", "empty"],
)
def test_embedding_rejects_malformed_q(q, error):
    with pytest.raises(error):
        eigenbasis_embedding(q)


def test_delta_plus_one_keeps_quadratic_bound():
    entries = np.full((2, 2), 0.5)
    p = StochasticMatrix(entries)
    q = discriminant(p, stationary_distribution(p))
    spec = walk_spectrum(eigenbasis_embedding(q).phases, q)
    assert abs(spec.phase_gap - math.pi / 2.0) < 1e-10
    report = phase_gap_check(spec, 1.0)
    assert report.holds
    assert report.lower_bound == math.sqrt(2.0) and spec.phase_gap > report.lower_bound


# ------------------------------------------- batched checks vs the loop form


def loop_eigenphases(w):
    """The former per-cluster loop of walk_phases (complex eigh)."""
    wc = np.asarray(w, dtype=complex)
    hc = 0.5 * (wc + wc.conj().T)
    hs = (wc - wc.conj().T) / 2j
    cos_vals, vecs = np.linalg.eigh(hc)
    phases = np.empty(wc.shape[0])
    i = 0
    while i < cos_vals.size:
        j = i + 1
        while j < cos_vals.size and cos_vals[j] - cos_vals[j - 1] < 1e-8:
            j += 1
        block = vecs[:, i:j]
        sin_vals = np.linalg.eigvalsh(block.conj().T @ hs @ block)
        c = float(cos_vals[i:j].mean())
        phases[i:j] = [math.atan2(float(s), c) for s in sin_vals]
        i = j
    return phases


def loop_relations(u, chi, vecs, thetas):
    """The former per-eigenvalue loop of the embedding's relation checks;
    returns the message it would raise, or None."""
    n2 = chi.shape[0]
    s = np.diag(np.tile([1.0, -1.0], n2 // 2))
    for j in range(chi.shape[1]):
        chi_j = chi[:, j]
        if thetas[j] < 1e-8:
            if np.linalg.norm(u @ chi_j - chi_j) > RESIDUAL_TOL:
                return "unit eigenvalue is not fixed by the walk"
            partner = np.zeros(n2)
            partner[1::2] = vecs[:, j]
            if np.linalg.norm(u @ partner - partner) > RESIDUAL_TOL:
                return "partner of a unit eigenvalue moved"
            continue
        for sign in (1.0, -1.0):
            mu = complex(math.cos(thetas[j]), sign * math.sin(thetas[j]))
            vec = chi_j - mu * (s @ chi_j)
            if np.linalg.norm(u @ vec - mu * vec) > RESIDUAL_TOL:
                return f"two-reflection eigenvector relation fails at theta={thetas[j]:.6f}"
    return None


def embedding_parts(q):
    """The embedding of q with the chi columns and eigenvectors it checks."""
    emb = eigenbasis_embedding(q)
    vecs = np.linalg.eigh(q)[1][:, ::-1]
    chi = np.empty((2 * q.shape[0], q.shape[0]))
    chi[0::2] = np.cos(emb.thetas / 2.0) * vecs
    chi[1::2] = np.sin(emb.thetas / 2.0) * vecs
    return emb, chi, vecs


def check_chains():
    """Discriminants at n = 2..6 (Hamming and random energies), their lazy
    versions at beta = 0, and chains with one or more unit eigenvalues."""
    qs = []
    for n in range(2, 7):
        for energy, levels, beta in (("hamming", None, 0.7), ("random", 4, 1.3)):
            model, prop = build_hypercube(n, energy=energy, levels=levels, seed=n, beta=beta)
            qs.append(decompose_discriminant(model, prop, metropolis()).q)
        model, prop = build_hypercube(n, energy="hamming", beta=0.0)
        p = transition_matrix(prop, acceptance_matrix(model, metropolis()))
        qs.append(discriminant(lazy(p), gibbs_distribution(model)))
    two = qs[0]
    qs += [np.eye(3), np.block([[two, np.zeros((4, 4))], [np.zeros((4, 4)), two]])]
    return qs


def test_batched_spectral_checks_match_loop_form():
    # the block phases against the dense walk, whose eigenvector relations
    # and eigenphases the former loops check
    for q in check_chains():
        emb, chi, vecs = embedding_parts(q)
        u = dense_walk(emb)
        assert loop_relations(u, chi, vecs, emb.thetas) is None
        phases = walk_phases(u)
        assert np.abs(np.sort(phases) - np.sort(loop_eigenphases(u))).max() < 1e-12
        assert np.abs(np.sort(emb.phases) - np.sort(phases)).max() < 1e-12
        spec = walk_spectrum(emb.phases, q)
        assert np.abs(spec.measured - spec.predicted).max() < 1e-8


def test_batched_eigenphases_of_a_complex_unitary_with_clusters():
    rng = np.random.default_rng(12)
    v, _ = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    phases = np.array([0.3, 0.3, -0.3, -0.3, 1.0, math.pi, 0.0, 2.0, 2.0, -2.0])
    w = (v * np.exp(1j * phases)) @ v.conj().T
    got = walk_phases(w)
    assert np.abs(np.sort(got) - np.sort(loop_eigenphases(w))).max() < 1e-12
    # pi may come out as -pi
    assert np.abs(np.sort(np.abs(got)) - np.sort(np.abs(phases))).max() < 1e-9


def test_dense_eigenphases_resolve_close_distinct_eigenvalues():
    # q has the distinct eigenvalues -5.6e-9 and -3e-17; clustering their
    # cosines put the dense phases 2.8e-9 off the block phases
    model = GibbsModel(
        energies=np.array([0, 1, 0, 0, 0, 0, 0, 2, 0, 0]), levels=3, beta=19.0
    )
    prop = proposal_from_permutations([1.0], [np.array([0, 5, 2, 3, 4, 1, 7, 6, 8, 9])])
    emb = eigenbasis_embedding(decompose_discriminant(model, prop, metropolis()).q)
    phases = walk_phases(dense_walk(emb))
    assert np.abs(np.sort(phases) - np.sort(emb.phases)).max() <= 1e-12


def test_sorted_pairing_finds_the_pairing_nearest_first_misses():
    # the first theta's nearest phase belongs to the second: taking it
    # leaves the second 2.4e-8 off, while the sorted pairing is within 9e-9
    thetas = np.array([1.0, 1.0 + 1.5e-8])
    inner = np.array([1.0 + 0.8e-8, 1.0 - 0.9e-8])
    spec = walk_spectrum(np.r_[inner, -inner], np.diag(np.cos(thetas)))
    assert np.abs(spec.measured - spec.predicted).max() <= 9e-9
    assert spec.b_perp_dim == 0


def test_block_check_catches_a_flipped_sine_half():
    model, prop = build_hypercube(3, energy="hamming", beta=0.7)
    q = decompose_discriminant(model, prop, metropolis()).q
    emb, chi, vecs = embedding_parts(q)
    flipped = emb.t.copy()
    flipped[1::2] *= -1.0
    # t^T t and t^T s t cannot see the sign of the sine half ...
    assert np.abs(flipped.T @ flipped - np.eye(8)).max() <= RESIDUAL_TOL
    assert np.abs(flipped.T @ (emb.s[:, None] * flipped) - q).max() <= RESIDUAL_TOL
    # ... but its walk breaks the relations of chi, and the block residual
    # sees that
    u = dense_walk(dataclasses.replace(emb, t=flipped))
    assert loop_relations(u, chi, vecs, emb.thetas).startswith("two-reflection")
    with pytest.raises(SpectrumOutOfRange, match="2x2 blocks"):
        _block_phases(flipped, vecs, emb.thetas)
    assert np.array_equal(_block_phases(emb.t, vecs, emb.thetas), emb.phases)


def test_block_check_catches_one_plane_turned_too_far():
    model, prop = build_hypercube(3, energy="hamming", beta=0.7)
    q = decompose_discriminant(model, prop, metropolis()).q
    emb, chi, vecs = embedding_parts(q)
    # plane 0 holds the unit eigenvalue: its walk must fix chi_0 and its
    # partner |v_0> (x) |1>
    assert emb.thetas[0] == 0.0 < emb.thetas[1]
    for j in (0, 1):
        turned = chi.copy()
        turned[0::2, j] = math.cos(emb.thetas[j] / 2.0 + 0.05) * vecs[:, j]
        turned[1::2, j] = math.sin(emb.thetas[j] / 2.0 + 0.05) * vecs[:, j]
        with pytest.raises(SpectrumOutOfRange, match="2x2 blocks"):
            _block_phases(turned @ vecs.T, vecs, emb.thetas)


def test_shifted_block_phase_is_a_spectrum_mismatch():
    model, prop = build_hypercube(3, energy="hamming", beta=0.7)
    q = decompose_discriminant(model, prop, metropolis()).q
    emb = eigenbasis_embedding(q)
    assert walk_spectrum(emb.phases, q).b_perp_dim == 1
    for j in (0, 1, 9):
        phases = emb.phases.copy()
        phases[j] += 0.1
        with pytest.raises(SpectrumMismatch):
            walk_spectrum(phases, q)
