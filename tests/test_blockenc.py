"""Block-encoding layer: primitives, products, sums, and the
ancilla-efficient discriminant construction."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import parwalk.blockenc
from parwalk.blockenc import (
    PROBES,
    SPOT_VECTORS,
    UNITARY_TOL,
    BlockEncoding,
    build_ancilla_efficient_Q,
    compressed_hadamard_be,
    extract_block,
    extraction_chunk_width,
    fused_ancillas,
    hadamard_be,
    lcu,
    paper_ancillas,
    prepare_unitary,
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
    ScaleMismatch,
    WeightMismatch,
)
from parwalk.linops import (
    Compose,
    DenseUnitary,
    FactoredSelect,
    FusedReflection,
    Identity,
    Permutation,
    householder_to,
)
from parwalk.cnf import parse_dimacs
from parwalk.markov import GibbsModel
from parwalk.models import build_cnf, build_hypercube
from parwalk.parchain import (
    custom_rule,
    decompose_discriminant,
    glauber,
    hypercube_proposal,
    level_tables,
    metropolis,
    proposal_from_permutations,
)

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
    model, prop = two_state_chain()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    good = verify_encoding(be, q)
    assert good.passed and good.max_abs_dev <= 1e-15
    bad = verify_encoding(be, np.zeros((2, 2)))
    assert not bad.passed
    assert abs(bad.max_abs_dev - np.abs(q).max()) <= 1e-15
    assert bad.probe_block_dev > 0.1
    with pytest.raises(DimensionMismatch):
        verify_encoding(be, np.eye(3))


# --------------------------------------------------------------- svd encoding


def test_svd_encoding_of_small_table():
    lhat = np.array([[1.0, 1.0 / RT2], [1.0 / RT2, 1.0]])
    be = svd_block_encoding(lhat)
    assert be.gamma == 2.0 and be.anc_qubits == 1
    assert np.abs(extract_block(be) - lhat).max() < 1e-12
    dense = be.op.dense()
    assert np.abs(dense.T @ dense - np.eye(dense.shape[0])).max() < 1e-12


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


def test_svd_encoding_reflections_are_the_level_rotations():
    # the middle node reflects the ancilla of level x about (c, -(1 + s));
    # the operator it replaced rotated it by [[s, c], [c, -s]]
    rng = np.random.default_rng(15)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lhat = 4.0 * (u * [1.0, 0.3, 0.0, 0.0]) @ v.T
    be = svd_block_encoding(lhat)
    u_, sig, vh_ = np.linalg.svd(lhat / 4.0)
    sig = np.clip(sig, 0.0, 1.0)
    assert np.abs(sig - [1.0, 0.3, 0.0, 0.0]).max() < 1e-14
    rots = np.zeros((8, 8))
    for x, s in enumerate(sig):
        c = math.sqrt(1.0 - s**2)
        rots[x::4, x::4] = [[s, c], [c, -s]]
    want = np.kron(np.eye(2), u_) @ rots @ np.kron(np.eye(2), vh_)
    assert np.abs(be.op.ops[1].dense() - rots).max() < 1e-15
    assert np.abs(be.op.dense() - want).max() < 1e-15


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
    assert np.abs(extract_block(be) - prop.s).max() < 1e-12


def test_lcu_four_terms_ancillas():
    prop = hypercube_proposal(4)
    encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    be = lcu(prop.weights, encs)
    assert be.anc_qubits == 2 and be.paper_anc == 3
    assert np.abs(extract_block(be) - prop.s).max() < 1e-12


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
        # the builder takes the tables, which validate the rule
        pytest.param(lambda: level_tables(two_state_chain()[0], _nan_rule()),
                     FunctionalEquationViolated, id="build-nan-rule"),
        pytest.param(lambda: build_ancilla_efficient_Q(
                         *two_state_chain(),
                         level_tables(GibbsModel(np.array([0, 2]), 3, 1.0), metropolis())),
                     DimensionMismatch, id="build-tables-of-other-levels"),
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
    table = level_tables(model, rule).ga
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


# ------------------------------------------------- discriminant construction


def test_two_state_discriminant_encoding():
    model, prop = two_state_chain()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    assert be.gamma == 8.0  # 4B with B = 2
    assert be.anc_qubits == 3 and be.paper_anc == 3
    assert np.abs(extract_block(be) - dec.q).max() < 1e-12
    dense = be.op.dense()
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12


def test_padded_levels_enter_the_scale():
    model = GibbsModel(energies=np.array([0, 2, 1, 2]), levels=3, beta=0.7)
    prop = hypercube_proposal(2)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, glauber()))
    assert be.gamma == 16.0  # 4 * pow2pad(3)
    assert be.paper_anc == 2 * 1 + 2 + 2
    dec = decompose_discriminant(model, prop, glauber())
    assert np.abs(extract_block(be) - dec.q).max() < 1e-10


def cycle_chain(kind, n_states, levels, seed=0, beta=0.8):
    """A symmetric proposal that is no sum of involutions, with random
    energies on the given number of levels. "pair": the cycle C: x -> x + 1
    mod N, its inverse and the reversal x -> N - 1 - x at weights 0.3, 0.3
    and 0.4. "split": [C, C, C^-1] at [0.25, 0.25, 0.5], whose slots find
    no partner at their own weight, so each splits in two (6 slots).
    "mixed": (0 1)(2 3 4) and (2 4 3) at 0.5 each, neither an involution
    nor the other's inverse (4 slots)."""
    states = np.arange(n_states)
    cyc = (states + 1) % n_states
    if kind == "pair":
        weights, perms = [0.3, 0.3, 0.4], [cyc, np.argsort(cyc), states[::-1]]
    elif kind == "split":
        weights, perms = [0.25, 0.25, 0.5], [cyc, cyc, np.argsort(cyc)]
    else:
        swap_turn, turn_back = states.copy(), states.copy()
        swap_turn[:5] = [1, 0, 3, 4, 2]
        turn_back[2:5] = [4, 2, 3]
        weights, perms = [0.5, 0.5], [swap_turn, turn_back]
    prop = proposal_from_permutations(weights, perms)
    energies = np.random.default_rng(seed).integers(0, levels, size=n_states)
    return GibbsModel(energies=energies, levels=levels, beta=beta), prop


def dense_fused_op(model, prop, rule):
    """The fused route built densely: one eigh of the whole select matrix

        H = sum_k |k><k| (x) (L^T (x) J-hat^T + L (x) J-hat) (x) I
              + |k'><k| (x) I_2 (x) G-hat (x) Pi_k

    over the paired slots (k' = partner[k]) on (select, direction, level,
    system), divided by 4B and dilated, and an (N, d, d) stack of
    Householder matrices."""
    n = model.n
    bt = 1 << (model.levels - 1).bit_length()
    weights, perms, partner = prop.paired_slots()
    k_dim = 1 << (len(perms) - 1).bit_length()
    pad = k_dim - len(perms)
    weights = list(weights) + [0.0] * pad
    perms = list(perms) + [np.arange(n)] * pad
    partner = list(partner) + list(range(len(partner), k_dim))
    tables = level_tables(model, rule)
    ga_t = np.zeros((bt, bt))
    ga_t[: model.levels, : model.levels] = tables.ga
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = tables.rejection
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    hop = np.kron(lower.T, np.kron(ja_t.T, np.eye(n))) + np.kron(
        lower, np.kron(ja_t, np.eye(n))
    )
    r = 2 * bt * n
    h = np.zeros((k_dim, r, k_dim, r))
    for k, (p, k_bar) in enumerate(zip(perms, partner)):
        pim = np.zeros((n, n))
        pim[p, np.arange(n)] = 1.0
        h[k, :, k] += hop
        h[k_bar, :, k] += np.kron(np.eye(2), np.kron(ga_t, pim))
    h = h.reshape(k_dim * r, -1) / (4.0 * bt)
    lam, vec = np.linalg.eigh(h)
    c = (vec * np.sqrt(1.0 - np.clip(lam, -1.0, 1.0) ** 2)) @ vec.T
    # np.block puts the dilation register first; move it behind the select
    sel = np.block([[h, c], [c, -h]]).reshape(2, k_dim, r, 2, k_dim, r)
    sel = sel.transpose(1, 0, 2, 4, 3, 5).reshape(2 * k_dim * r, -1)
    e = model.energies
    # registers (select, dilation, direction, level, system); the
    # preparation is the identity on the dilation register
    dims = (k_dim, 2, 2, bt, n)
    prep = np.zeros(dims + dims)
    for x in range(n):
        t = np.zeros((k_dim, 2, bt))
        for k, (w, p) in enumerate(zip(weights, perms)):
            if w > 0.0:
                t[k, 0, e[x]] += math.sqrt(0.5 * w)
                t[k, 1, e[p[x]]] += math.sqrt(0.5 * w)
        h = householder_to(t.reshape(-1)).reshape(2 * t.shape)
        for dil in range(2):
            prep[:, dil, :, :, x, :, dil, :, :, x] = h
    prep = prep.reshape(math.prod(dims), -1)
    return prep @ sel @ prep


@pytest.mark.parametrize(
    "n, energy, levels, rule",
    [(2, "hamming", 3, metropolis()), (2, "random", 2, glauber()),
     (3, "random", 4, metropolis()), (3, "hamming", 4, glauber())],
)
def test_fused_route_matches_dense_dilations(n, energy, levels, rule):
    model, prop = build_hypercube(n, energy=energy, levels=levels, seed=5, beta=0.9)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    want = dense_fused_op(model, prop, rule)
    assert np.abs(be.op.dense() - want).max() < 1e-12


RULES = pytest.mark.parametrize(
    "rule", [metropolis(), glauber()], ids=["metropolis", "glauber"]
)
CYCLE_CHAINS = pytest.mark.parametrize(
    "kind, n_states, levels",
    [("pair", 5, 3), ("pair", 8, 2), ("pair", 18, 2), ("split", 6, 2),
     ("split", 12, 3), ("mixed", 5, 4), ("mixed", 7, 5)],
)


@RULES
@CYCLE_CHAINS
def test_fused_route_takes_every_symmetric_proposal(kind, n_states, levels, rule):
    model, prop = cycle_chain(kind, n_states, levels)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    perms = prop.paired_slots()[1]
    assert not prop.all_involutions
    assert len(perms) == {"pair": 3, "split": 6, "mixed": 4}[kind]
    assert isinstance(be.op, FusedReflection)
    assert be.gamma == 4 * (1 << (levels - 1).bit_length())
    assert be.anc_qubits == fused_ancillas(len(perms), levels) <= be.paper_anc
    assert be.paper_anc == paper_ancillas(prop.kappa, levels)
    block = extract_block(be)
    assert np.abs(block - q).max() < 1e-12
    assert np.abs(structured_block(be) - block).max() <= 1e-15
    dense = be.op.dense()
    assert np.abs(dense - dense.T).max() < 1e-12
    assert np.abs(dense @ dense - np.eye(be.op.dim)).max() < 1e-12
    assert verify_encoding(be, q).passed


@RULES
@pytest.mark.parametrize(
    "kind, n_states, levels", [("pair", 5, 3), ("split", 6, 2), ("mixed", 5, 4)]
)
def test_paired_slots_match_the_dense_dilation(kind, n_states, levels, rule):
    model, prop = cycle_chain(kind, n_states, levels)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    want = dense_fused_op(model, prop, rule)
    assert np.abs(be.op.dense() - want).max() < 1e-12


@pytest.mark.parametrize("kind", ["pair", "split", "mixed"])
def test_paired_select_gathers_with_the_inverse(monkeypatch, kind):
    # slot k's b-term moves x to p_k x, Pi_k |x> = |p_k x>: the gather takes
    # p_k^-1. Gathering with p_k instead gives a unitary whose block misses Q
    model, prop = cycle_chain(kind, 8, 3)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    assert np.abs(extract_block(be) - q).max() < 1e-12
    monkeypatch.setattr(
        FactoredSelect, "apply",
        lambda self, v, out=None: self._run(v, self.a, self.b, self.perms, out),
    )
    assert np.abs(extract_block(be) - q).max() > 1e-2


def test_fused_select_pair_splits_one_dilation_by_parity():
    # a and b are the entries of D_+ across which the parity of (dilation,
    # direction) flips and keeps; D_+- = a +- b are both involutions
    model, prop = build_hypercube(3, energy="random", levels=5, seed=4, beta=0.7)
    sel = build_ancilla_efficient_Q(model, prop, level_tables(model, glauber())).op.sel
    parity = np.repeat([0, 1, 1, 0], 8)
    flips = parity[:, None] != parity[None, :]
    assert np.all(sel.a[~flips] == 0.0) and np.all(sel.b[flips] == 0.0)
    for d in (sel.a + sel.b, sel.a - sel.b):
        assert np.abs(d @ d - np.eye(32)).max() < 1e-14


@pytest.mark.parametrize(
    "n, energy, levels", [(6, "hamming", 7), (7, "random", 16)]
)
def test_fused_route_above_the_old_block_cap(n, energy, levels):
    # 4 pad(B) N = 2048 and 8192: past the dense dilations' 1024 cap
    model, prop = build_hypercube(n, energy=energy, levels=levels, seed=2, beta=0.8)
    rule = glauber()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    m = (prop.kappa - 1).bit_length()
    b = (model.levels - 1).bit_length()
    assert isinstance(be.op, FusedReflection)
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
        be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
        m = (prop.kappa - 1).bit_length() if prop.kappa > 1 else 0
        b = (model.levels - 1).bit_length() if model.levels > 1 else 0
        assert be.anc_qubits <= 2 * m + b + 2
        assert be.anc_qubits == fused_ancillas(prop.kappa, model.levels)
        assert be.paper_anc == 2 * m + b + 2
        assert paper_ancillas(prop.kappa, model.levels) == be.paper_anc
        dec = decompose_discriminant(model, prop, rule)
        assert np.abs(extract_block(be) - dec.q).max() < 1e-10
    # cycles paired with their inverses on 4 and 8 states, B = 3, take the
    # fused route with one slot each and quote the same count
    for n_states in (4, 8):
        cyc = (np.arange(n_states) + 1) % n_states
        prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
        model = GibbsModel(energies=np.arange(n_states) % 3, levels=3, beta=0.6)
        be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
        assert not prop.all_involutions
        assert isinstance(be.op, FusedReflection)
        assert be.anc_qubits == fused_ancillas(2, 3) == 1 + 2 + 2
        assert paper_ancillas(prop.kappa, model.levels) == be.paper_anc == 2 * 1 + 2 + 2
        dec = decompose_discriminant(model, prop, rule)
        assert np.abs(extract_block(be) - dec.q).max() < 1e-12


# ------------------------------------------------------ chunked extraction


def one_batch_block(be):
    """gamma * the top rows of V applied to all N basis columns at once."""
    n = be.sys_dim
    vecs = np.zeros((n, be.op.dim))
    vecs[np.arange(n), np.arange(n)] = 1.0
    return be.gamma * be.op.apply(vecs)[:, :n].T


def test_chunked_extraction_matches_one_batch_on_generic_route(monkeypatch):
    # a generic proposal, a cycle and its inverse, on paired select slots
    cyc = (np.arange(8) + 1) % 8
    prop = proposal_from_permutations([0.5, 0.5], [cyc, np.argsort(cyc)])
    model = GibbsModel(energies=np.array([0, 1, 2, 1, 0, 2, 1, 1]), levels=3, beta=0.6)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    assert not prop.all_involutions
    assert isinstance(be.op, FusedReflection)
    # three columns per chunk: 8 = 3 + 3 + 2
    monkeypatch.setattr(parwalk.blockenc, "CHUNK_BYTES", 3 * 8 * be.op.dim)
    assert extraction_chunk_width(be.sys_dim, be.op.dim) == 3
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_matches_one_batch_at_n7():
    model, prop = build_hypercube(7, energy="hamming", beta=0.9)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, glauber()))
    assert prop.all_involutions
    assert extraction_chunk_width(be.sys_dim, be.op.dim) < be.sys_dim
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_matches_one_batch_at_n7_random_b16():
    # 4B = 64 wide dilation, one 512 KiB column per chunk
    model, prop = build_hypercube(7, energy="random", levels=16, seed=3, beta=0.8)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    assert extraction_chunk_width(be.sys_dim, be.op.dim) == 1
    assert np.array_equal(extract_block(be), one_batch_block(be))


def test_chunked_extraction_memory_at_n7():
    # one batch of all 128 columns would be 64 MiB per temporary; a chunk's
    # working set is about 2 MiB, and verify_encoding's unitarity spot
    # check and the probes run in chunks of the same width (measured peak:
    # 2.13 MiB; the structured block of this fused encoding is ~1 MiB)
    model, prop = build_hypercube(7, energy="random", levels=16, seed=3, beta=0.8)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
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


def test_chunked_spot_check_applies_each_vector_once(monkeypatch):
    # a fused encoding whose apply records every batch it is given and
    # scales its result by a diagonal, so that it is no longer unitary
    # although its node arrays are
    model, prop = build_hypercube(2, energy="hamming")
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    dim = be.op.dim
    diag = 1.0 + 0.1 * np.random.default_rng(1).random(dim)
    apply, seen = FusedReflection.apply, []

    def scaled(self, v, out=None, scratch=None):
        seen.append(v.copy())
        w = apply(self, v, out, scratch)
        w *= diag
        return w

    monkeypatch.setattr(FusedReflection, "apply", scaled)

    # the one-batch spot check, on all SPOT_VECTORS vectors at once, with
    # the row norms verify_encoding takes
    def norms(rows):
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))

    v = np.random.Generator(np.random.SFC64(7)).standard_normal((SPOT_VECTORS, dim))
    v /= norms(v)[:, None]
    w = be.op.apply(v)
    want = max(np.abs(norms(w) - 1.0).max(), np.abs(be.op.adjoint_apply(w) - v).max())
    assert be.op.unitarity_residual() < want
    for width in range(1, 9):
        monkeypatch.setattr(parwalk.blockenc, "CHUNK_BYTES", width * 8 * dim)
        seen.clear()
        report = verify_encoding(be, q)
        # two applies per probe vector, then the spot-check vectors
        batches = np.concatenate(seen)
        assert batches.shape[0] == 2 * PROBES + SPOT_VECTORS
        assert np.array_equal(batches[-SPOT_VECTORS:], v)
        assert report.max_abs_dev <= 1e-15
        assert report.unitary_dev == want and not report.passed


@pytest.mark.parametrize("n", [3, 6])
def test_spot_check_sees_a_select_entry_the_block_never_reads(n):
    # a[d-1, d-2] acts on the dilation-1 half of the select block, which the
    # structured block (dilation-0 corners) never reads; it breaks
    # unitarity by ~1e-7, and the node certificate must see that
    model, prop = build_hypercube(n, energy="hamming")
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    q = decompose_discriminant(model, prop, metropolis()).q
    sel = be.op.sel
    d = sel.block_dim
    sel.a[d - 1, d - 2] += 1e-7
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert not report.passed


# ------------------------------------------------------- node certificates


def random_b16(n):
    model, prop = build_hypercube(n, energy="random", levels=16, seed=3, beta=0.8)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    return be, decompose_discriminant(model, prop, rule).q


def test_certificate_sees_a_select_fault_where_spot_vectors_fade():
    # at n = 9, B = 16 (op.dim = 2^19) eight spot vectors see this 1e-8
    # fault as ~7e-11, under UNITARY_TOL; the certificate reads the
    # select's own defect, ~1e-8 at every n
    be, q = random_b16(9)
    assert be.op.unitarity_residual() <= 1e-14
    sel = be.op.sel
    d = sel.block_dim
    sel.a[d - 1, d - 2] += 1e-8
    assert 0.5e-8 <= be.op.unitarity_residual() <= 4e-8
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert not report.passed


def test_certificate_rejects_a_partner_map_that_pairs_no_inverses():
    # slots 0 and 1 are partners, but both hold the cycle: the slot swap
    # is then no involution, and no array check can bound the select
    model, prop = cycle_chain("pair", 8, 3)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    sel = be.op.sel
    assert sel.partner[0] == 1 and sel.unitarity_residual() <= 1e-14
    perms = sel.perms.copy()
    perms[1] = perms[0]
    unpaired = FactoredSelect(sel.a, sel.b, perms, sel.partner)
    assert unpaired.unitarity_residual() == math.inf
    broken = replace(be, op=FusedReflection(be.op.prep, unpaired))
    assert broken.op.unitarity_residual() == math.inf
    report = verify_encoding(broken, q)
    assert report.unitary_dev == math.inf and not report.passed


def test_certificate_sees_a_householder_coefficient_off_by_1e8():
    be, q = random_b16(5)
    prep = be.op.prep
    assert prep.unitarity_residual() <= 1e-14
    prep._coef[3] += 1e-8
    assert prep.unitarity_residual() > UNITARY_TOL
    report = verify_encoding(be, q)
    assert report.unitary_dev >= be.op.unitarity_residual() > UNITARY_TOL
    assert not report.passed


# ---------------------------------------------------- structured extraction


def structured_block(be):
    assert isinstance(be.op, FusedReflection)
    return be.gamma * be.op.block()


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
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    assert np.abs(structured_block(be) - extract_block(be)).max() <= 1e-15


def test_generic_and_hand_built_encodings_are_extracted_in_full():
    # extract_block, the tests' oracle, applies any encoding to every basis
    # column; verify_encoding reads the block of a FusedReflection only, and
    # refuses the same nodes composed by hand as well as any other operator
    model, prop = cycle_chain("pair", 8, 3)
    rule = metropolis()
    generic = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    assert np.abs(extract_block(generic) - q).max() < 1e-12
    assert verify_encoding(generic, q).passed
    prep, sel = generic.op.prep, generic.op.sel
    by_hand = replace(generic, op=Compose(prep, sel, prep))
    assert np.abs(extract_block(by_hand) - structured_block(generic)).max() <= 1e-15
    flip = unitary_encoding(Permutation(np.array([1, 0])))
    for be, target in ((by_hand, q), (flip, np.array([[0.0, 1.0], [1.0, 0.0]]))):
        with pytest.raises(DimensionMismatch, match="FusedReflection"):
            verify_encoding(be, target)


def fused_n4():
    model, prop = build_hypercube(4, energy="random", levels=7, seed=2, beta=0.8)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
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


def test_an_apply_that_outputs_nan_fails(monkeypatch):
    # the node arrays stay finite, so only the probes and the spot vector
    # can see it, and their deviations must carry the NaN to the report
    apply = FusedReflection.apply

    def with_nan(self, v, out=None, scratch=None):
        w = apply(self, v, out, scratch)
        w[..., -1] = np.nan
        return w

    monkeypatch.setattr(FusedReflection, "apply", with_nan)
    be, q = fused_n4()
    report = verify_encoding(be, q)
    assert math.isnan(report.unitary_dev) and math.isnan(report.probe_reflection_dev)
    assert not report.passed


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
