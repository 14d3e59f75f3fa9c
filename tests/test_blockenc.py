"""Block-encoding layer: primitives, products, sums, reflections, and the
ancilla-efficient discriminant construction."""

import math
import tracemalloc

import numpy as np
import pytest

import parwalk.blockenc
from parwalk.blockenc import (
    CHUNK_ARRAYS,
    BlockEncoding,
    ZeroIsometry,
    _fused_reflection,
    _generic_reflection,
    build_ancilla_efficient_Q,
    combine_two,
    compressed_hadamard_be,
    extract_block,
    extraction_chunk_width,
    hadamard_be,
    identity_encoding,
    lcu,
    left_multiply_unitary,
    norm_bound,
    prepare_unitary,
    reflectionize,
    rescale_encoding,
    svd_block_encoding,
    unitary_encoding,
    verify_encoding,
)
from parwalk.errors import (
    BadWeights,
    BoundViolated,
    DimensionMismatch,
    EnergyOutOfRange,
    NonPowerOfTwoDim,
    NormTooLarge,
    NotHermitian,
    ScaleMismatch,
    WeightMismatch,
)
from parwalk.linops import (
    Compose,
    DenseUnitary,
    Embedded,
    LinOp,
    Permutation,
    Select,
    SystemControlled,
    householder_to,
)
from parwalk.markov import GibbsModel
from parwalk.models import build_hypercube
from parwalk.parchain import (
    acceptance_matrix,
    compress,
    decompose_discriminant,
    ga_matrix,
    glauber,
    hypercube_proposal,
    metropolis,
    proposal_from_permutations,
    rejection_matrix,
)

RT2 = math.sqrt(2.0)


def two_state_chain(beta=math.log(2.0)):
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=beta)
    prop = hypercube_proposal(1)
    return model, prop


# ---------------------------------------------------------------- primitives


def test_identity_encoding():
    be = identity_encoding(3)
    assert be.anc_qubits == 0 and be.gamma == 1.0
    assert np.abs(extract_block(be) - np.eye(3)).max() == 0.0


def test_unitary_encoding():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    be = unitary_encoding(DenseUnitary(q))
    assert np.abs(extract_block(be) - q).max() < 1e-14


def test_encoding_rejects_wrong_operator_dim():
    with pytest.raises(DimensionMismatch):
        BlockEncoding(sys_dim=3, anc_qubits=1, paper_anc=1, gamma=1.0,
                      op=DenseUnitary(np.eye(4)))


def test_encoding_rejects_nonpositive_scale():
    with pytest.raises(ScaleMismatch):
        BlockEncoding(sys_dim=2, anc_qubits=0, paper_anc=0, gamma=0.0,
                      op=DenseUnitary(np.eye(2)))


def test_logical_count_must_meet_quoted_count():
    with pytest.raises(BoundViolated):
        BlockEncoding(sys_dim=2, anc_qubits=1, paper_anc=0, gamma=1.0,
                      op=DenseUnitary(np.eye(4)))


def test_verify_encoding_pass_and_fail():
    be = identity_encoding(2)
    good = verify_encoding(be, np.eye(2))
    assert good.passed and good.max_abs_dev == 0.0
    bad = verify_encoding(be, np.zeros((2, 2)))
    assert not bad.passed and bad.max_abs_dev == 1.0
    with pytest.raises(DimensionMismatch):
        verify_encoding(be, np.eye(3))


# ----------------------------------------------------------------- isometries


def test_zero_isometry():
    iso = ZeroIsometry(3, 2)
    v = np.array([1.0, 2.0, 3.0])
    out = iso.apply(v)
    assert out.shape == (12,)
    assert np.array_equal(out[:3], v) and np.abs(out[3:]).max() == 0.0
    assert np.array_equal(iso.adjoint_apply(out), v)


# --------------------------------------------------------------- svd encoding


def test_svd_encoding_of_small_table():
    lhat = np.array([[1.0, 1.0 / RT2], [1.0 / RT2, 1.0]])
    be = svd_block_encoding(lhat)
    assert be.gamma == 2.0 and be.anc_qubits == 1
    assert np.abs(extract_block(be) - lhat).max() < 1e-12
    rep = verify_encoding(be, lhat)
    assert rep.passed


def test_svd_encoding_pads_to_power_of_two():
    lhat = np.full((3, 3), 0.5)
    be = svd_block_encoding(lhat)
    assert be.sys_dim == 4 and be.gamma == 4.0
    want = np.zeros((4, 4))
    want[:3, :3] = lhat
    assert np.abs(extract_block(be) - want).max() < 1e-12


def test_svd_encoding_rejects_oversized_norm():
    with pytest.raises(NormTooLarge):
        svd_block_encoding(2.0 * np.ones((3, 3)))  # spectral norm 6 > 4
    with pytest.raises(DimensionMismatch):
        svd_block_encoding(np.ones((2, 3)))


# ------------------------------------------------------- linear combinations


def test_prepare_unitary_first_column():
    w = np.array([0.5, 0.25, 0.25])
    u = prepare_unitary(w)
    assert u.shape == (4, 4)
    assert np.abs(u @ u.T - np.eye(4)).max() < 1e-12
    assert np.abs(u[:, 0] - np.array([*np.sqrt(w), 0.0])).max() < 1e-12
    with pytest.raises(BadWeights):
        prepare_unitary(np.array([0.5, 0.4]))


def test_lcu_recovers_proposal_matrix():
    prop = hypercube_proposal(2)
    encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    be = lcu(prop.weights, encs)
    assert be.anc_qubits == 1 and be.paper_anc == 1 and be.gamma == 1.0
    assert np.abs(extract_block(be) - prop.assemble()).max() < 1e-12


def test_lcu_four_terms_ancillas():
    prop = hypercube_proposal(4)
    encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    be = lcu(prop.weights, encs)
    assert be.anc_qubits == 2 and be.paper_anc == 3
    assert np.abs(extract_block(be) - prop.assemble()).max() < 1e-12


def test_lcu_weight_count_mismatch():
    enc = identity_encoding(2)
    with pytest.raises(WeightMismatch):
        lcu(np.array([0.5]), [enc, enc])
    with pytest.raises(WeightMismatch):
        lcu(np.array([]), [])


def test_lcu_rejects_mixed_scales():
    a = identity_encoding(2)
    b = svd_block_encoding(np.eye(2))  # gamma = 2
    with pytest.raises(ScaleMismatch):
        lcu(np.array([0.5, 0.5]), [a, b])


# ------------------------------------------------------- entrywise products


def test_hadamard_be_ones_mask_is_identity_on_entries():
    ones = svd_block_encoding(np.ones((2, 2)))  # gamma 2
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    be_m = unitary_encoding(DenseUnitary(q))
    be = hadamard_be(ones, be_m)
    assert be.gamma == 2.0
    assert be.anc_qubits == ones.anc_qubits + be_m.anc_qubits + 1
    assert np.abs(extract_block(be) - q).max() < 1e-12


def test_hadamard_be_requires_power_of_two():
    with pytest.raises(NonPowerOfTwoDim):
        hadamard_be(identity_encoding(3), identity_encoding(3))


def test_compressed_hadamard_matches_dense_product():
    model, prop = two_state_chain()
    rule = metropolis()
    table = compress(ga_matrix(model, rule))
    be_tab = svd_block_encoding(table)
    encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    be_s = lcu(prop.weights, encs)
    be = compressed_hadamard_be(be_tab, be_s, model.energies)
    dec = decompose_discriminant(model, prop, rule)
    want = dec.ga * dec.s  # the off-diagonal accept part of Q
    assert np.abs(extract_block(be) - want).max() < 1e-10
    assert be.gamma == 2.0  # inherits the table scale


def test_compressed_hadamard_validates_energies():
    be_tab = svd_block_encoding(np.eye(2))
    be_m = identity_encoding(2)
    with pytest.raises(EnergyOutOfRange):
        compressed_hadamard_be(be_tab, be_m, np.array([0, 5]))
    with pytest.raises(DimensionMismatch):
        compressed_hadamard_be(be_tab, be_m, np.array([0, 1, 0]))


# --------------------------------------------------------- sums and rescaling


def test_left_multiply_unitary():
    be = svd_block_encoding(np.diag([0.5, 0.25]))
    flip = Permutation(np.array([1, 0]))
    out = left_multiply_unitary(be, flip)
    assert out.gamma == be.gamma and out.anc_qubits == be.anc_qubits
    want = flip.dense() @ np.diag([0.5, 0.25])
    assert np.abs(extract_block(out) - want).max() < 1e-12


def test_rescale_encoding_grows_scale():
    be = svd_block_encoding(np.diag([0.5, 0.25]))
    out = rescale_encoding(be, 8.0)
    assert out.gamma == 8.0 and out.anc_qubits == be.anc_qubits + 1
    assert np.abs(extract_block(out) - np.diag([0.5, 0.25])).max() < 1e-12
    assert rescale_encoding(be, be.gamma) is be
    with pytest.raises(ScaleMismatch):
        rescale_encoding(be, 1.0)


def test_combine_two_adds_blocks():
    a = np.array([[0.5, 0.25], [0.25, 0.5]])
    b = np.diag([0.75, 0.125])
    be = combine_two(svd_block_encoding(a), svd_block_encoding(b))
    assert be.gamma == 4.0
    assert np.abs(extract_block(be) - (a + b)).max() < 1e-12


# ----------------------------------------------------------------- reflection


def test_reflectionize_properties():
    lhat = np.array([[0.5, 0.25], [0.25, 0.75]])
    be = svd_block_encoding(lhat)
    w, iso = reflectionize(be)
    assert w.gamma == 2.0 * be.gamma
    assert w.anc_qubits == be.anc_qubits + 1
    dense = w.dense()
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12
    assert np.abs(extract_block(w) - lhat).max() < 1e-12
    # fixed-point isometry contracts the reflection back to L / gamma_old
    t = iso.dense()
    assert np.abs(t.conj().T @ t - np.eye(2)).max() < 1e-12
    assert np.abs(t.conj().T @ dense @ t - lhat / be.gamma).max() < 1e-12


def test_reflectionize_rejects_nonhermitian_block():
    be = unitary_encoding(Permutation(np.array([1, 2, 0])))
    with pytest.raises(NotHermitian):
        reflectionize(be)


# ----------------------------------------------------------------- norm bound


def test_norm_bound():
    bound, holds = norm_bound(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert holds and abs(bound - 2.0) < 1e-12
    model, _ = two_state_chain()
    for rule in (metropolis(), glauber()):
        for table in (compress(ga_matrix(model, rule)),
                      compress(rejection_matrix(model, rule))):
            bound, holds = norm_bound(table)
            assert holds and bound <= model.levels + 1e-9


# ------------------------------------------------- discriminant construction


def test_two_state_discriminant_encoding():
    model, prop = two_state_chain()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, rule)
    dec = decompose_discriminant(model, prop, rule)
    assert be.gamma == 8.0  # 4B with B = 2
    assert be.anc_qubits == 3 and be.paper_anc == 3
    assert np.abs(extract_block(be) - dec.q).max() < 1e-12
    dense = be.dense()
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12


def test_padded_levels_enter_the_scale():
    model = GibbsModel(energies=np.array([0, 2, 1, 2]), levels=3, beta=0.7)
    prop = hypercube_proposal(2)
    be = build_ancilla_efficient_Q(model, prop, rule=glauber())
    assert be.gamma == 16.0  # 4 * pow2pad(3)
    assert be.paper_anc == 2 * 1 + 2 + 2
    dec = decompose_discriminant(model, prop, glauber())
    assert np.abs(extract_block(be) - dec.q).max() < 1e-10


def test_generic_route_matches_fused():
    model = GibbsModel(energies=np.array([0, 2, 1, 2]), levels=3, beta=0.7)
    prop = hypercube_proposal(2)
    rule = metropolis()
    dec = decompose_discriminant(model, prop, rule)
    gen = _generic_reflection(model, prop, rule)
    assert np.abs(extract_block(gen) - dec.q).max() < 1e-9
    assert gen.anc_qubits == 1 + 2 + 3 and gen.paper_anc == 2 * 1 + 2 + 2
    dense = gen.dense()
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-10


def test_generic_route_needs_two_terms():
    model, prop = two_state_chain()
    with pytest.raises(BoundViolated):
        _generic_reflection(model, prop, metropolis())


def test_fused_route_needs_involutions():
    cyc = np.array([1, 2, 0])
    prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
    model = GibbsModel(energies=np.array([0, 1, 1]), levels=2, beta=0.3)
    with pytest.raises(DimensionMismatch):
        _fused_reflection(model, prop, metropolis())
    # non-involutive proposals take the generic route and still encode Q
    be = build_ancilla_efficient_Q(model, prop, metropolis())
    dec = decompose_discriminant(model, prop, metropolis())
    assert np.abs(extract_block(be) - dec.q).max() < 1e-9


def dense_fused_op(model, prop, rule):
    """The fused route built densely: one eigh of the full M_k / 4B per
    permutation slot and an (N, d, d) stack of Householder matrices."""
    n = model.n
    bt = 1 << (model.levels - 1).bit_length()
    m = (prop.kappa - 1).bit_length()
    k_dim = 1 << m
    ga_t = np.zeros((bt, bt))
    ga_t[: model.levels, : model.levels] = compress(ga_matrix(model, rule))
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = compress(rejection_matrix(model, rule))
    weights = list(prop.weights) + [0.0] * (k_dim - prop.kappa)
    perms = list(prop.perms) + [np.arange(n)] * (k_dim - prop.kappa)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    dils = []
    for p in perms:
        pim = np.zeros((n, n))
        pim[p, np.arange(n)] = 1.0
        p_k = (
            np.kron(np.eye(2), np.kron(ga_t, pim))
            + np.kron(lower.T, np.kron(ja_t.T, np.eye(n)))
            + np.kron(lower, np.kron(ja_t, np.eye(n)))
        ) / (4.0 * bt)
        lam, vec = np.linalg.eigh(p_k)
        c_k = (vec * np.sqrt(1.0 - np.clip(lam, -1.0, 1.0) ** 2)) @ vec.T
        dils.append(DenseUnitary(np.block([[p_k, c_k], [c_k, -p_k]])))
    d = k_dim * 2 * bt
    e = model.energies
    amats = np.empty((n, d, d))
    for x in range(n):
        t = np.zeros(d)
        for k, (w, p) in enumerate(zip(weights, perms)):
            if w > 0.0:
                t[(2 * k) * bt + e[x]] += math.sqrt(0.5 * w)
                t[(2 * k + 1) * bt + e[p[x]]] += math.sqrt(0.5 * w)
        amats[x] = householder_to(t)
    emb = Embedded(SystemControlled(amats), [k_dim, 2, 2, bt, n], [0, 2, 3, 4])
    sel = Select(dils) if len(dils) > 1 else dils[0]
    return Compose(emb, sel, emb)


@pytest.mark.parametrize(
    "n, energy, levels, rule",
    [(2, "hamming", 3, metropolis()), (2, "random", 2, glauber()),
     (3, "random", 4, metropolis()), (3, "hamming", 4, glauber())],
)
def test_fused_route_matches_dense_dilations(n, energy, levels, rule):
    model, prop = build_hypercube(n, energy=energy, levels=levels, seed=5, beta=0.9)
    be = build_ancilla_efficient_Q(model, prop, rule)
    want = dense_fused_op(model, prop, rule).dense()
    assert np.abs(be.dense() - want).max() < 1e-12


@pytest.mark.parametrize(
    "n, energy, levels", [(6, "hamming", 7), (7, "random", 16)]
)
def test_fused_route_above_the_old_block_cap(monkeypatch, n, energy, levels):
    # 4 pad(B) N = 2048 and 8192: past the dense dilations' 1024 cap
    def no_generic(*_args):
        raise AssertionError("generic route reached")

    monkeypatch.setattr(parwalk.blockenc, "_generic_reflection", no_generic)
    model, prop = build_hypercube(n, energy=energy, levels=levels, seed=2, beta=0.8)
    rule = glauber()
    be = build_ancilla_efficient_Q(model, prop, rule)
    dec = decompose_discriminant(model, prop, rule)
    m = (prop.kappa - 1).bit_length()
    b = (model.levels - 1).bit_length()
    assert be.anc_qubits == m + b + 2
    assert np.abs(extract_block(be) - dec.q).max() <= 1e-9


def test_ancilla_bound_across_small_grid():
    rule = glauber()
    for n in (1, 2, 3):
        model = GibbsModel(
            energies=np.array([bin(x).count("1") for x in range(1 << n)]),
            levels=n + 1,
            beta=1.0,
        )
        prop = hypercube_proposal(n)
        be = build_ancilla_efficient_Q(model, prop, rule)
        m = (prop.kappa - 1).bit_length() if prop.kappa > 1 else 0
        b = (model.levels - 1).bit_length() if model.levels > 1 else 0
        assert be.anc_qubits <= 2 * m + b + 2
        dec = decompose_discriminant(model, prop, rule)
        assert np.abs(extract_block(be) - dec.q).max() < 1e-10


# ------------------------------------------------------ chunked extraction


def one_batch_block(be):
    """gamma * the top rows of V applied to all N basis columns at once."""
    n = be.sys_dim
    vecs = np.zeros((n, be.op.dim))
    vecs[np.arange(n), np.arange(n)] = 1.0
    return be.gamma * be.op.apply(vecs)[:, :n].T


def test_chunked_extraction_matches_one_batch_on_generic_route(monkeypatch):
    cyc = (np.arange(8) + 1) % 8
    prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
    model = GibbsModel(energies=np.array([0, 1, 2, 1, 0, 2, 1, 1]), levels=3, beta=0.6)
    be = build_ancilla_efficient_Q(model, prop, metropolis())
    assert not prop.all_involutions
    # three columns per chunk: 8 = 3 + 3 + 2
    budget = 3 * CHUNK_ARRAYS * 8 * be.op.dim
    monkeypatch.setattr(parwalk.blockenc, "EXTRACT_BUDGET", budget)
    assert extraction_chunk_width(be.sys_dim, be.op.dim) == 3
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_matches_one_batch_at_n7():
    model, prop = build_hypercube(7, energy="hamming", beta=0.9)
    be = build_ancilla_efficient_Q(model, prop, glauber())
    assert prop.all_involutions
    assert extraction_chunk_width(be.sys_dim, be.op.dim) < be.sys_dim
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_matches_one_batch_at_n7_random_b16():
    # 4B = 64 wide dilation, one 512 KiB column per chunk
    model, prop = build_hypercube(7, energy="random", levels=16, seed=3, beta=0.8)
    be = build_ancilla_efficient_Q(model, prop, metropolis())
    assert extraction_chunk_width(be.sys_dim, be.op.dim) == 1
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_memory_at_n7():
    # one batch of all 128 columns would be 64 MiB per temporary; a chunk's
    # working set is about 2 MiB, and verify_encoding's unitarity spot
    # check runs in chunks of the same width (measured peak: 2.1 MiB)
    model, prop = build_hypercube(7, energy="random", levels=16, seed=3, beta=0.8)
    be = build_ancilla_efficient_Q(model, prop, metropolis())
    q = decompose_discriminant(model, prop, metropolis()).q
    assert be.sys_dim * be.op.dim * 8 == 64 * 2**20
    tracemalloc.start()
    try:
        report = verify_encoding(be, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 4 * 2**20


class RecordingScale(LinOp):
    """A non-unitary diagonal operator that records every batch it is
    applied to."""

    def __init__(self, diag):
        self.diag = diag
        self.dim = diag.size
        self.seen = []

    def apply(self, v):
        self.seen.append(v.copy())
        return v * self.diag

    def adjoint_apply(self, v):
        return v * self.diag


def test_chunked_spot_check_applies_the_eight_vectors_once(monkeypatch):
    n, dim = 4, 64
    # the first of the 8 vectors deviates most, so a check that dropped any
    # chunk but the last would read less than the one-batch check
    diag = 1.0 + 0.1 * np.random.default_rng(1).random(dim)
    # the former one-batch spot check, on all 8 vectors at once
    v = np.random.Generator(np.random.Philox(7)).standard_normal((8, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = v * diag
    want = max(
        np.abs(np.linalg.norm(w, axis=1) - 1.0).max(), np.abs(w * diag - v).max()
    )
    for width in range(1, 9):
        budget = width * CHUNK_ARRAYS * 8 * dim
        monkeypatch.setattr(parwalk.blockenc, "EXTRACT_BUDGET", budget)
        op = RecordingScale(diag)
        be = BlockEncoding(sys_dim=n, anc_qubits=4, paper_anc=4, gamma=1.0, op=op)
        report = verify_encoding(be, np.diag(diag[:n]))
        # n basis columns for the extraction, then the 8 spot-check vectors
        seen = np.concatenate(op.seen)
        assert seen.shape[0] == n + 8
        assert np.array_equal(seen[n:], v)
        assert report.max_abs_dev == 0.0
        assert report.unitary_dev == want and not report.passed
