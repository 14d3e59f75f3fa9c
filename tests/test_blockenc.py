"""Block-encoding layer: primitives, products, sums, reflections, and the
ancilla-efficient discriminant construction."""

import math
import tracemalloc

import numpy as np
import pytest

import parwalk.blockenc
from parwalk.blockenc import (
    CHUNK_ARRAYS,
    UNITARY_TOL,
    BlockEncoding,
    _fused_reflection,
    _generic_reflection,
    build_ancilla_efficient_Q,
    combine_two,
    compressed_hadamard_be,
    extract_block,
    extraction_chunk_width,
    fused_ancillas,
    hadamard_be,
    lcu,
    left_multiply_unitary,
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
    FunctionalEquationViolated,
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
    FactoredSelect,
    Identity,
    Kron,
    LinOp,
    Permutation,
    Select,
    SystemControlled,
    householder_to,
)
from parwalk.cnf import parse_dimacs
from parwalk.markov import GibbsModel
from parwalk.models import build_cnf, build_hypercube
from parwalk.parchain import (
    acceptance_matrix,
    custom_rule,
    decompose_discriminant,
    ga_matrix,
    glauber,
    hypercube_proposal,
    metropolis,
    proposal_from_permutations,
    rejection_matrix,
)
from parwalk.szegedy import comparison_counts

RT2 = math.sqrt(2.0)


def two_state_chain(beta=math.log(2.0)):
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=beta)
    prop = hypercube_proposal(1)
    return model, prop


# ---------------------------------------------------------------- primitives


def test_identity_encoding():
    be = unitary_encoding(Identity(3))
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
    be = unitary_encoding(Identity(2))
    good = verify_encoding(be, np.eye(2))
    assert good.passed and good.max_abs_dev == 0.0
    bad = verify_encoding(be, np.zeros((2, 2)))
    assert not bad.passed and bad.max_abs_dev == 1.0
    with pytest.raises(DimensionMismatch):
        verify_encoding(be, np.eye(3))


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
    enc = unitary_encoding(Identity(2))
    with pytest.raises(WeightMismatch):
        lcu(np.array([0.5]), [enc, enc])
    with pytest.raises(WeightMismatch):
        lcu(np.array([]), [])


def _nan_rule():
    return custom_rule(lambda d, b: float("nan"))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: lcu([0.5], [unitary_encoding(Identity(2))]),
                     BadWeights, id="lcu-one-weight-half"),
        pytest.param(lambda: lcu([float("nan")], [unitary_encoding(Identity(2))]),
                     BadWeights, id="lcu-one-weight-nan"),
        pytest.param(lambda: lcu([2.0], [unitary_encoding(Identity(2))]),
                     BadWeights, id="lcu-one-weight-two"),
        pytest.param(lambda: prepare_unitary([float("nan"), 0.5]),
                     BadWeights, id="prepare-nan-weight"),
        pytest.param(lambda: svd_block_encoding([[0.5, np.inf], [0.0, 0.5]]),
                     NormTooLarge, id="svd-inf-entry"),
        pytest.param(lambda: svd_block_encoding([[0.5, np.nan], [0.0, 0.5]]),
                     NormTooLarge, id="svd-nan-entry"),
        pytest.param(lambda: _nan_rule().table(1.0, 3),
                     FunctionalEquationViolated, id="rule-nan-table"),
        pytest.param(lambda: build_ancilla_efficient_Q(*two_state_chain(), _nan_rule()),
                     FunctionalEquationViolated, id="build-nan-rule"),
    ],
)
def test_malformed_inputs_raise_parwalk_errors(call, error):
    with pytest.raises(error):
        call()


def test_lcu_rejects_mixed_scales():
    a = unitary_encoding(Identity(2))
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
        hadamard_be(unitary_encoding(Identity(3)), unitary_encoding(Identity(3)))


def test_compressed_hadamard_matches_dense_product():
    model, prop = two_state_chain()
    rule = metropolis()
    table = ga_matrix(model, rule)
    be_tab = svd_block_encoding(table)
    encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    be_s = lcu(prop.weights, encs)
    be = compressed_hadamard_be(be_tab, be_s, model.energies)
    dec = decompose_discriminant(model, prop, rule)
    want = dec.ga * dec.s  # the off-diagonal accept part of Q
    assert np.abs(extract_block(be) - want).max() < 1e-10
    assert be.gamma == 2.0  # inherits the table scale


def test_compressed_product_with_identity_energies_is_the_copy_product():
    # the level register replaces the copy register: with B = N levels and
    # E_x = x, both products encode the same block with the same counts
    rng = np.random.default_rng(3)
    lhat = rng.uniform(0.0, 1.0, size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    be_l = svd_block_encoding(lhat)
    be_m = unitary_encoding(DenseUnitary(q))
    copy = hadamard_be(be_l, be_m)
    level = compressed_hadamard_be(be_l, be_m, np.arange(4))
    assert (level.anc_qubits, level.paper_anc, level.gamma) == (
        copy.anc_qubits, copy.paper_anc, copy.gamma
    )
    assert np.abs(extract_block(level) - extract_block(copy)).max() < 1e-14
    assert np.abs(extract_block(copy) - lhat * q).max() < 1e-12


def test_compressed_hadamard_validates_energies():
    be_tab = svd_block_encoding(np.eye(2))
    be_m = unitary_encoding(Identity(2))
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


def hadamard_sandwich_sum(be_a, be_b):
    """L_A + L_B as (H (x) I) Select(A, B) (H (x) I) at twice the larger
    scale, with both operands rescaled to it first: the sum written out
    without lcu."""
    gamma = max(be_a.gamma, be_b.gamma)
    be_a = rescale_encoding(be_a, gamma)
    be_b = rescale_encoding(be_b, gamma)
    c = max(be_a.anc_qubits, be_b.anc_qubits)
    block = (1 << c) * be_a.sys_dim

    def padded(be):
        if be.anc_qubits == c:
            return be.op
        return Kron(Identity(1 << (c - be.anc_qubits)), be.op)

    h = DenseUnitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2)
    op = Compose(
        Kron(h, Identity(block)),
        Select([padded(be_a), padded(be_b)]),
        Kron(h, Identity(block)),
    )
    return BlockEncoding(
        sys_dim=be_a.sys_dim,
        anc_qubits=c + 1,
        paper_anc=max(be_a.paper_anc, be_b.paper_anc) + 1,
        gamma=2.0 * gamma,
        op=op,
    )


@pytest.mark.parametrize("second", ["svd", "unitary"])
def test_combine_two_is_the_hadamard_sandwich(second):
    a = np.array([[0.5, 0.25], [0.25, 0.5]])
    be_a = svd_block_encoding(a)  # gamma 2, one ancilla
    if second == "svd":
        be_b = svd_block_encoding(np.diag([0.75, 0.125]))
    else:
        # gamma 1 and no ancilla: rescaled to gamma 2 with one more qubit
        be_b = unitary_encoding(DenseUnitary(np.array([[0.6, 0.8], [0.8, -0.6]])))
    got = combine_two(be_a, be_b)
    want = hadamard_sandwich_sum(be_a, be_b)
    assert (got.anc_qubits, got.paper_anc, got.gamma) == (
        want.anc_qubits, want.paper_anc, want.gamma
    )
    assert np.abs(got.op.dense() - want.op.dense()).max() < 1e-14


# ----------------------------------------------------------------- reflection


def test_reflectionize_properties():
    lhat = np.array([[0.5, 0.25], [0.25, 0.75]])
    be = svd_block_encoding(lhat)
    w = reflectionize(be)
    assert w.gamma == 2.0 * be.gamma
    assert w.anc_qubits == be.anc_qubits + 1
    dense = w.op.dense()
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12
    assert np.abs(extract_block(w) - lhat).max() < 1e-12
    # fixed-point isometry |x> -> G^dag|+> (x) |0^c, x>, G the pi/12 rotation
    # of the new qubit, contracts the reflection back to L / gamma_old
    c, s = math.cos(math.pi / 12.0), math.sin(math.pi / 12.0)
    block = be.op.dim
    t = np.zeros((2 * block, 2))
    t[:2] = (c + s) / RT2 * np.eye(2)
    t[block : block + 2] = (c - s) / RT2 * np.eye(2)
    assert np.abs(t.conj().T @ t - np.eye(2)).max() < 1e-12
    assert np.abs(t.conj().T @ dense @ t - lhat / be.gamma).max() < 1e-12


def test_reflectionize_rejects_nonhermitian_block():
    be = unitary_encoding(Permutation(np.array([1, 2, 0])))
    with pytest.raises(NotHermitian):
        reflectionize(be)


# ------------------------------------------------- discriminant construction


def test_two_state_discriminant_encoding():
    model, prop = two_state_chain()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, rule)
    dec = decompose_discriminant(model, prop, rule)
    assert be.gamma == 8.0  # 4B with B = 2
    assert be.anc_qubits == 3 and be.paper_anc == 3
    assert np.abs(extract_block(be) - dec.q).max() < 1e-12
    dense = be.op.dense()
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
    dense = gen.op.dense()
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
    ga_t[: model.levels, : model.levels] = ga_matrix(model, rule)
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = rejection_matrix(model, rule)
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
    assert np.abs(be.op.dense() - want).max() < 1e-12


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
        assert be.anc_qubits == fused_ancillas(prop.kappa, model.levels)
        assert be.paper_anc == 2 * m + b + 2
        counts = comparison_counts(model.n, prop.kappa, model.levels)
        assert counts.paper_qubits == be.paper_anc
        dec = decompose_discriminant(model, prop, rule)
        assert np.abs(extract_block(be) - dec.q).max() < 1e-10
    # the generic route quotes the same count: cycles paired with their
    # inverses on 4 and 8 states, B = 3
    for n_states in (4, 8):
        cyc = (np.arange(n_states) + 1) % n_states
        prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
        model = GibbsModel(energies=np.arange(n_states) % 3, levels=3, beta=0.6)
        be = build_ancilla_efficient_Q(model, prop, rule)
        assert not prop.all_involutions
        counts = comparison_counts(n_states, prop.kappa, model.levels)
        assert counts.paper_qubits == be.paper_anc == 2 * 1 + 2 + 2
        dec = decompose_discriminant(model, prop, rule)
        assert np.abs(extract_block(be) - dec.q).max() < 1e-9


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
    # check and the probes run in chunks of the same width (measured peak:
    # 2.13 MiB; the structured block of this fused encoding is ~1 MiB)
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
    # the former one-batch spot check, on all 8 vectors at once, with the
    # row norms verify_encoding takes
    def norms(rows):
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))

    v = np.random.Generator(np.random.SFC64(7)).standard_normal((8, dim))
    v /= norms(v)[:, None]
    w = v * diag
    want = max(np.abs(norms(w) - 1.0).max(), np.abs(w * diag - v).max())
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


@pytest.mark.parametrize("n", [3, 6])
def test_spot_check_sees_a_select_entry_the_block_never_reads(n):
    # a[d-1, d-2] acts on the dilation-1 half of the select block, which the
    # structured block (dilation-0 corners) never reads; it breaks
    # unitarity by ~1e-7, and the 8 spot vectors must see that
    model, prop = build_hypercube(n, energy="hamming")
    be = build_ancilla_efficient_Q(model, prop, metropolis())
    q = decompose_discriminant(model, prop, metropolis()).q
    sel = be.op.ops[1]
    d = sel.block_dim
    sel.a[d - 1, d - 2] += 1e-7
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert not report.passed


# ---------------------------------------------------- structured extraction


def structured_block(be):
    parts = parwalk.blockenc._fused_parts(be)
    assert parts is not None
    return parwalk.blockenc._structured_block(be, *parts)


def random_3sat_chain(num_vars, num_clauses, seed, beta):
    rng = np.random.default_rng(seed)
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        variables = rng.choice(np.arange(1, num_vars + 1), size=3, replace=False)
        signs = rng.choice([-1, 1], size=3)
        lines.append(" ".join(map(str, variables * signs)) + " 0")
    return build_cnf(parse_dimacs("\n".join(lines) + "\n"), beta=beta)


@pytest.mark.parametrize("rule", [metropolis(), glauber()], ids=["metropolis", "glauber"])
@pytest.mark.parametrize(
    "chain",
    [
        lambda: build_hypercube(3, energy="hamming", beta=0.9),
        lambda: build_hypercube(8, energy="hamming", beta=0.9),
        lambda: build_hypercube(5, energy="random", levels=16, seed=3, beta=0.8),
        lambda: build_hypercube(7, energy="random", levels=16, seed=3, beta=0.8),
        lambda: random_3sat_chain(6, 15, seed=1, beta=0.7),
    ],
    ids=["hamming-n3", "hamming-n8", "random-b16-n5", "random-b16-n7", "cnf-n6"],
)
def test_structured_block_matches_full_extraction(chain, rule):
    model, prop = chain()
    be = build_ancilla_efficient_Q(model, prop, rule)
    assert np.abs(structured_block(be) - extract_block(be)).max() <= 1e-15


def test_generic_and_hand_built_encodings_are_extracted_in_full():
    cyc = (np.arange(8) + 1) % 8
    prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
    model = GibbsModel(energies=np.array([0, 1, 2, 1, 0, 2, 1, 1]), levels=3, beta=0.6)
    generic = build_ancilla_efficient_Q(model, prop, metropolis())
    q = decompose_discriminant(model, prop, metropolis()).q
    flip = unitary_encoding(Permutation(np.array([1, 0])))
    for be, target in ((generic, q), (flip, np.array([[0.0, 1.0], [1.0, 0.0]]))):
        assert parwalk.blockenc._fused_parts(be) is None
        report = verify_encoding(be, target)
        assert report.passed
        assert report.probe_reflection_dev is None and report.probe_block_dev is None


def fused_n4():
    model, prop = build_hypercube(4, energy="random", levels=7, seed=2, beta=0.8)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, rule)
    return be, decompose_discriminant(model, prop, rule).q


def test_fused_encoding_is_probed():
    be, q = fused_n4()
    report = verify_encoding(be, q)
    assert report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.probe_reflection_dev <= 1e-14
    assert report.probe_block_dev <= 1e-14


def scale_dilation(sel, v, factors):
    """v with the dilation register of every select slot scaled by factors."""
    w = v.reshape(v.shape[:-1] + (sel.slots, 2, -1, sel.n_sys))
    return (w * np.asarray(factors)[:, None, None]).reshape(v.shape)


def test_probes_catch_a_select_with_rotated_slots(monkeypatch):
    # slot k applies slot k+1's permutation: still a unitary involution whose
    # node arrays are right, so only the probe of the block catches it
    def rotated(self, v, out=None):
        return self._run(v, self.a, self.b, np.roll(self.perms, -1, axis=0), out)

    def rotated_adjoint(self, v, out=None):
        return self._run(v, self.a.T, self.b.T, np.roll(self.inverses, -1, axis=0), out)

    be, q = fused_n4()
    monkeypatch.setattr(FactoredSelect, "apply", rotated)
    monkeypatch.setattr(FactoredSelect, "adjoint_apply", rotated_adjoint)
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev <= UNITARY_TOL
    assert report.probe_reflection_dev <= UNITARY_TOL
    assert report.probe_block_dev > 1e-3


def test_probes_catch_an_operator_that_is_no_involution(monkeypatch):
    # sel F with F a sign on the dilation register: unitary, and the same
    # as sel on every prep |0^c, v>, but V V |0^c, v> != |0^c, v>
    apply, adjoint = FactoredSelect.apply, FactoredSelect.adjoint_apply
    monkeypatch.setattr(
        FactoredSelect, "apply",
        lambda self, v, out=None: apply(self, scale_dilation(self, v, [1, -1]), out),
    )
    monkeypatch.setattr(
        FactoredSelect, "adjoint_apply",
        lambda self, v, out=None: scale_dilation(self, adjoint(self, v), [1, -1]),
    )
    be, q = fused_n4()
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev <= UNITARY_TOL
    assert report.probe_block_dev <= 1e-14
    assert report.probe_reflection_dev > 1e-3


def test_probes_catch_an_output_of_wrong_norm(monkeypatch):
    # S sel S^-1 with S = diag(1, 2) on the dilation register: still an
    # involution with the right block, but V |0^c, v> is longer than 1
    # (the unitarity spot check fails too)
    apply = FactoredSelect.apply

    def stretched(self, v, out=None):
        return scale_dilation(self, apply(self, scale_dilation(self, v, [1, 0.5])), [1, 2])

    monkeypatch.setattr(FactoredSelect, "apply", stretched)
    be, q = fused_n4()
    v = np.random.default_rng(0).standard_normal((2, be.op.dim))
    assert np.abs(be.op.apply(be.op.apply(v)) - v).max() <= 1e-13
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.probe_block_dev <= 1e-14
    assert report.probe_reflection_dev > 1e-3
