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
    level_tables,
    metropolis,
    proposal_from_permutations,
    transition_matrix,
)
from parwalk.models import build_hypercube
from parwalk.spectra import (
    RESIDUAL_TOL,
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
    gaps = spectral_gaps(np.eye(3))
    emb = eigenbasis_embedding(np.eye(3), gaps)
    assert np.abs(emb.phases).max() == 0.0
    spec = walk_spectrum(emb.phases, gaps.eigenvalues)
    assert spec.phase_gap == 0.0
    assert np.abs(spec.measured).max() == 0.0
    assert spec.b_perp_dim == 3  # the three partner directions


def test_embedding_single_state_half_turn():
    q = np.zeros((1, 1))
    gaps = spectral_gaps(q)
    spec = walk_spectrum(eigenbasis_embedding(q, gaps).phases, gaps.eigenvalues)
    assert abs(spec.phase_gap - math.pi / 2.0) < 1e-12
    assert spec.b_perp_dim == 0
    report = phase_gap_check(spec, 1.0)
    assert report.holds and abs(report.lower_bound - math.sqrt(2.0)) < 1e-12


def embedding_isometry(vecs, phases):
    """The columns chi_j = v_j (x) (cos(theta_j/2), sin(theta_j/2)), the
    isometry t = chi V^T into C^N (x) C^2 and the signs s of I (x) Z, formed
    densely; the angles theta_j are the first N of the embedding's phases."""
    n = vecs.shape[0]
    thetas = phases[:n]
    chi = np.empty((2 * n, n))
    chi[0::2] = np.cos(thetas / 2.0) * vecs
    chi[1::2] = np.sin(thetas / 2.0) * vecs
    return chi, chi @ vecs.T, np.tile([1.0, -1.0], n)


def dense_walk(vecs, phases):
    """The embedding walk u = s (2 t t^T - I), formed densely: the oracle
    for the phases eigenbasis_embedding returns without forming it."""
    _, t, s = embedding_isometry(vecs, phases)
    return s[:, None] * (2.0 * t @ t.T - np.eye(t.shape[0]))


def test_embedding_verifies_its_own_relations():
    model, prop = two_state()
    dec = decompose_discriminant(model, prop, metropolis())
    gaps = spectral_gaps(dec.q)
    emb = eigenbasis_embedding(dec.q, gaps)
    n = 2
    _, t, s = embedding_isometry(gaps.eigenvectors, emb.phases)
    assert np.array_equal(s, [1.0, -1.0, 1.0, -1.0])
    assert np.abs(t.T @ t - np.eye(n)).max() < 1e-12
    tst_dev = np.abs(t.T @ (s[:, None] * t) - dec.q).max()
    assert tst_dev < 1e-12 and abs(emb.tst_dev - tst_dev) <= 1e-15
    u = dense_walk(gaps.eigenvectors, emb.phases)
    assert np.abs(u @ u.T - np.eye(2 * n)).max() < 1e-12
    assert np.abs(np.sort(walk_phases(u)) - np.sort(emb.phases)).max() < 1e-12
    # the walk turns plane j by theta_j: phases +-theta_j
    assert np.abs(emb.phases - np.r_[emb.phases[:n], -emb.phases[:n]]).max() < 1e-12


def test_embedding_rejects_out_of_range_spectra():
    with pytest.raises(SpectrumOutOfRange):
        eigenbasis_embedding(2.0 * np.eye(2), spectral_gaps(2.0 * np.eye(2)))
    # periodic edge: beta = 0 two-state chain has Q with eigenvalue -1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SpectrumOutOfRange, match="lazy"):
        eigenbasis_embedding(flip, spectral_gaps(flip))


# ------------------------------------------------------- phase mapping, gap


def test_two_state_gap_across_constructions():
    model, prop = two_state()
    rule = metropolis()
    dec = decompose_discriminant(model, prop, rule)
    a = acceptance_matrix(model, rule)
    p = transition_matrix(prop, a)
    walks = [
        standard_walk(p),
        par_walk(dec),
        quantum_enhanced_walk(np.array([[0.0, 1.0], [1.0, 0.0]]), a),
    ]
    all_phases = [walk_phases(walk.w) for walk in walks]
    gaps = spectral_gaps(dec.q)
    all_phases.append(eigenbasis_embedding(dec.q, gaps).phases)
    for phases in all_phases:
        spec = walk_spectrum(phases, gaps.eigenvalues)
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
    spec = walk_spectrum(walk_phases(standard_walk(p).w), spectral_gaps(dec.q).eigenvalues)
    assert spec.b_perp_dim == 1  # 4-dim walk, 3 matched phases
    assert np.abs(spec.measured - spec.predicted).max() < 1e-10


def test_block_encoding_pair_spectrum():
    model, prop = two_state()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    # the qubitized walk V (2 Pi_0 - I), Pi_0 the projector on ancillas |0^c>;
    # the columns of V are the images of the basis vectors
    v = be.op.apply(np.eye(be.op.dim)).T
    signs = -np.ones(v.shape[0])
    signs[: be.sys_dim] = 1.0
    spec = walk_spectrum(walk_phases(v * signs), spectral_gaps(dec.q / be.gamma).eigenvalues)
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

    # the lazy spectrum derived from the one solve of Q embeds q_lazy
    lazy_gaps = gaps.lazy()
    emb = eigenbasis_embedding(q_lazy, lazy_gaps)
    spec = walk_spectrum(emb.phases, lazy_gaps.eigenvalues)
    assert abs(spec.phase_gap - math.pi / 3.0) < 1e-10
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
    gaps = spectral_gaps(dec.q)
    spec = walk_spectrum(walk_phases(standard_walk(p).w), gaps.eigenvalues)
    assert np.abs(spec.measured - spec.predicted).max() <= 1e-8
    report = phase_gap_check(spec, gaps.delta_plus)
    assert report.holds


# ------------------------------------------------------------------ failures


def test_mismatched_reference_spectrum_raises():
    model, prop = two_state()
    p = transition_matrix(prop, acceptance_matrix(model, metropolis()))
    walk = standard_walk(p)
    wrong = np.array([1.0, 0.0])  # eigenvalues of Q are {1, -1/2}: pi/2 has no phase
    with pytest.raises(SpectrumMismatch):
        walk_spectrum(walk_phases(walk.w), wrong)


def test_phase_gap_check_flags_wrong_gap():
    model, prop = two_state()
    dec = decompose_discriminant(model, prop, metropolis())
    gaps = spectral_gaps(dec.q)
    spec = walk_spectrum(eigenbasis_embedding(dec.q, gaps).phases, gaps.eigenvalues)
    with pytest.raises(BoundViolated):
        phase_gap_check(spec, 0.5)  # arccos(0.5) != the walk's 2pi/3
    with pytest.raises(BoundViolated):
        phase_gap_check(spec, -0.1)


def test_phase_gap_check_fails_nan():
    model, prop = two_state()
    dec = decompose_discriminant(model, prop, metropolis())
    gaps = spectral_gaps(dec.q)
    spec = walk_spectrum(eigenbasis_embedding(dec.q, gaps).phases, gaps.eigenvalues)
    assert phase_gap_check(spec, gaps.delta_plus).holds
    # a NaN gap would read as arccos(1) = 0, matching a phase gap of 0
    with pytest.raises(BoundViolated, match="nonnegative"):
        phase_gap_check(dataclasses.replace(spec, phase_gap=0.0), math.nan)
    with pytest.raises(BoundViolated, match="arccos"):
        phase_gap_check(dataclasses.replace(spec, phase_gap=math.nan), gaps.delta_plus)


def test_walk_spectrum_input_guards():
    with pytest.raises(SpectrumOutOfRange):
        walk_phases(np.eye(2) * 2.0)  # not unitary
    with pytest.raises(DimensionMismatch):
        walk_spectrum(np.eye(2), np.ones(2))  # a walk matrix, not its phases
    with pytest.raises(DimensionMismatch):
        walk_spectrum(np.zeros(2), np.eye(2))  # a matrix, not its eigenvalues
    with pytest.raises(SpectrumOutOfRange):
        walk_spectrum(np.zeros(2), np.array([3.0, 3.0]))  # eigenvalues out of range
    # the gap report's eigenvalues scaled out of [-1, 1]
    model, prop = build_hypercube(5, energy="random", levels=7, seed=2, beta=0.8)
    q = decompose_discriminant(model, prop, metropolis()).q
    gaps = spectral_gaps(q)
    phases = eigenbasis_embedding(q, gaps).phases
    with pytest.raises(SpectrumOutOfRange):
        walk_spectrum(phases, 3.0 * gaps.eigenvalues)
    # NaN fails the range check: otherwise [1, nan] matches phases [0, 1, -1]
    with pytest.raises(SpectrumOutOfRange, match="nan"):
        walk_spectrum(np.array([0.0, 1.0, -1.0]), np.array([1.0, np.nan]))


@pytest.mark.parametrize(
    "q, error",
    [(np.array([[np.nan, 0.0], [0.0, 1.0]]), SpectrumOutOfRange),
     (np.zeros((2, 3)), DimensionMismatch),
     (np.zeros((0, 0)), DimensionMismatch)],
    ids=["nan-entry", "nonsquare", "empty"],
)
def test_embedding_rejects_malformed_q(q, error):
    # the eigenpairs of a valid Q: q itself is never solved here
    with pytest.raises(error):
        eigenbasis_embedding(q, spectral_gaps(np.diag([1.0, 0.5])))


def test_delta_plus_one_keeps_quadratic_bound():
    entries = np.full((2, 2), 0.5)
    p = StochasticMatrix(entries)
    q = discriminant(p, stationary_distribution(p))
    gaps = spectral_gaps(q)
    spec = walk_spectrum(eigenbasis_embedding(q, gaps).phases, gaps.eigenvalues)
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
    gaps = spectral_gaps(q)
    emb = eigenbasis_embedding(q, gaps)
    vecs = gaps.eigenvectors
    return emb, embedding_isometry(vecs, emb.phases)[0], vecs


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
    # the returned phases against the dense walk, whose eigenvector
    # relations and eigenphases the former loops check
    for q in check_chains():
        emb, chi, vecs = embedding_parts(q)
        u = dense_walk(vecs, emb.phases)
        assert loop_relations(u, chi, vecs, emb.phases) is None
        phases = walk_phases(u)
        assert np.abs(np.sort(phases) - np.sort(loop_eigenphases(u))).max() < 1e-12
        assert np.abs(np.sort(emb.phases) - np.sort(phases)).max() < 1e-12
        spec = walk_spectrum(emb.phases, spectral_gaps(q).eigenvalues)
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
    # cosines put the dense phases 2.8e-9 off the returned phases
    model = GibbsModel(
        energies=np.array([0, 1, 0, 0, 0, 0, 0, 2, 0, 0]), levels=3, beta=19.0
    )
    prop = proposal_from_permutations([1.0], [np.array([0, 5, 2, 3, 4, 1, 7, 6, 8, 9])])
    q = decompose_discriminant(model, prop, metropolis()).q
    gaps = spectral_gaps(q)
    emb = eigenbasis_embedding(q, gaps)
    phases = walk_phases(dense_walk(gaps.eigenvectors, emb.phases))
    assert np.abs(np.sort(phases) - np.sort(emb.phases)).max() <= 1e-12


def test_sorted_pairing_finds_the_pairing_nearest_first_misses():
    # the first theta's nearest phase belongs to the second: taking it
    # leaves the second 2.4e-8 off, while the sorted pairing is within 9e-9
    thetas = np.array([1.0, 1.0 + 1.5e-8])
    inner = np.array([1.0 + 0.8e-8, 1.0 - 0.9e-8])
    spec = walk_spectrum(np.r_[inner, -inner], np.cos(thetas))
    assert np.abs(spec.measured - spec.predicted).max() <= 9e-9
    assert spec.b_perp_dim == 0


def test_shifted_block_phase_is_a_spectrum_mismatch():
    model, prop = build_hypercube(3, energy="hamming", beta=0.7)
    q = decompose_discriminant(model, prop, metropolis()).q
    gaps = spectral_gaps(q)
    emb = eigenbasis_embedding(q, gaps)
    assert walk_spectrum(emb.phases, gaps.eigenvalues).b_perp_dim == 1
    for j in (0, 1, 9):
        phases = emb.phases.copy()
        phases[j] += 0.1
        with pytest.raises(SpectrumMismatch):
            walk_spectrum(phases, gaps.eigenvalues)


def faulted_eigenpairs(gaps, fault):
    """gaps with one eigenvector column scaled by 1 + 1e-6, or with its
    second eigenvalue shifted by 1e-6."""
    if fault == "scale-column":
        vecs = gaps.eigenvectors.copy()
        vecs[:, 1] *= 1.0 + 1e-6
        return dataclasses.replace(gaps, eigenvectors=vecs)
    lams = gaps.eigenvalues.copy()
    lams[1] += 1e-6
    return dataclasses.replace(gaps, eigenvalues=lams)


@pytest.mark.parametrize(
    "fault, message",
    [("scale-column", "lost orthonormality"), ("shift-eigenvalue", "deviates from q")],
)
def test_embedding_residual_checks_catch_a_faulted_eigenpair(fault, message):
    model, prop = build_hypercube(3, energy="hamming", beta=0.7)
    q = decompose_discriminant(model, prop, metropolis()).q
    gaps = spectral_gaps(q)
    assert eigenbasis_embedding(q, gaps).tst_dev <= 1e-14
    with pytest.raises(SpectrumOutOfRange, match=message):
        eigenbasis_embedding(q, faulted_eigenpairs(gaps, fault))

