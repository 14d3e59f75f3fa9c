"""Block-encoding layer: the ancilla-efficient discriminant construction,
its checks, and the paper's products against dense references."""

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
    FusedReflection,
    build_ancilla_efficient_Q,
    extract_block,
    extraction_chunk_width,
    fused_ancillas,
    paper_ancillas,
    verify_encoding,
)
from parwalk.errors import (
    BoundViolated,
    DimensionMismatch,
    FunctionalEquationViolated,
    ScaleMismatch,
)
from parwalk.cnf import parse_dimacs
from parwalk.markov import GibbsModel
from parwalk.models import build_cnf, build_hypercube
from parwalk.parchain import (
    AcceptanceRule,
    ProposalDecomposition,
    decompose_discriminant,
    glauber,
    hypercube_proposal,
    level_tables,
    metropolis,
)
from test_linops import dense_matrix, dense_prep, dense_select, householder_to


def two_state_chain(beta=math.log(2.0)):
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=beta)
    prop = hypercube_proposal(1)
    return model, prop


# ---------------------------------------------------------------- primitives


def two_state_encoding():
    model, prop = two_state_chain()
    return build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))


def test_encoding_rejects_wrong_operator_dim():
    # both dimensions are read from the operator, so an encoding whose
    # system or ancilla count disagrees with its operator cannot be built
    be = two_state_encoding()
    assert be.sys_dim == be.op.n_sys == 2
    assert be.op.dim == be.sys_dim << be.anc_qubits
    for field in ("sys_dim", "anc_qubits"):
        with pytest.raises(TypeError):
            replace(be, **{field: 3})


def test_encoding_rejects_nonpositive_scale():
    with pytest.raises(ScaleMismatch):
        replace(two_state_encoding(), gamma=0.0)


def test_logical_count_must_meet_quoted_count():
    be = two_state_encoding()
    with pytest.raises(BoundViolated):
        replace(be, paper_anc=be.anc_qubits - 1)


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


def _nan_rule():
    return AcceptanceRule("custom", lambda d, b: float("nan"))


@pytest.mark.parametrize(
    "call, error",
    [
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


# ------------------------------------ the paper's products, densely built


def dilation(mat):
    """The real unitary [[L, (I - L L^T)^1/2], [(I - L^T L)^1/2, -L^T]]
    with one leading ancilla and block L, for ||L|| <= 1."""
    def root(h):
        lam, vec = np.linalg.eigh(h)
        return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T

    eye = np.eye(len(mat))
    return np.block([[mat, root(eye - mat @ mat.T)], [root(eye - mat.T @ mat), -mat.T]])


def lcu_unitary(prop):
    """prep^T (sum_k |k><k| (x) Pi_k) prep on (select, system), where prep
    prepares sqrt(w) on the ceil(log kappa)-qubit select register."""
    k_dim, n = 1 << (prop.kappa - 1).bit_length(), prop.n
    col = np.zeros(k_dim)
    col[: prop.kappa] = np.sqrt(prop.weights)
    prep = np.kron(householder_to(col), np.eye(n))
    # padding slots hold the identity; Pi_k |x> = |p_k x>
    perms = list(prop.perms) + [np.arange(n)] * (k_dim - prop.kappa)
    select = np.zeros((k_dim * n, k_dim * n))
    for k, p in enumerate(perms):
        select[k * n + p, k * n + np.arange(n)] = 1.0
    return prep.T @ select @ prep


def tagged_product(u_l, u_m, shift, levels, n):
    """T^dag (U_L (x) U_M) T on (anc_L, level, anc_M, system), with U_L on
    (anc_L, level), U_M on (anc_M, system) and T |a, e, b, x> =
    |a, shift(e, x), b, x>: its |0>-block and its ancilla count."""
    regs = (len(u_l) // levels, levels, len(u_m) // n, n)
    a, e, b, x = np.indices(regs)
    index = np.arange(math.prod(regs)).reshape(regs)
    tag = np.zeros((index.size, index.size))
    tag[index[a, shift(e, x), b, x].ravel(), index.ravel()] = 1.0
    v = tag.T @ np.kron(u_l, u_m) @ tag
    assert np.abs(v.T @ v - np.eye(len(v))).max() < 1e-12
    return v[:n, :n], (len(v) // n).bit_length() - 1


def test_lcu_recovers_proposal_matrix():
    # the LCU of a proposal's permutations has block S, with ceil(log
    # kappa) ancillas
    for n in (2, 3, 4):
        prop = hypercube_proposal(n)
        v = lcu_unitary(prop)
        assert len(v) == (1 << (prop.kappa - 1).bit_length()) * prop.n
        assert np.abs(v[: prop.n, : prop.n] - prop.s).max() < 1e-12


def test_compressed_hadamard_matches_dense_product():
    # tagged by T_E |e, x> = |e + E_x mod B, x>, the dilation of the table
    # L-hat = G-hat / B and the LCU of S give the block L-hat[E_y, E_x]
    # S[y, x], the accept part of Q over B, with c_L + c_M + ceil(log B)
    # ancillas
    model, prop = build_hypercube(3, energy="random", levels=4, seed=5, beta=0.9)
    rule = metropolis()
    u_l = dilation(level_tables(model, rule).ga / 4.0)
    u_m = lcu_unitary(prop)
    block, anc = tagged_product(
        u_l, u_m, lambda e, x: (e + model.energies[x]) % 4, 4, model.n
    )
    e = model.energies
    ga = level_tables(model, rule).ga[np.ix_(e, e)]
    np.fill_diagonal(ga, 1.0)
    assert np.abs(4.0 * block - ga * prop.s).max() < 1e-12
    assert anc == 1 + (prop.kappa - 1).bit_length() + 2


def test_compressed_product_with_identity_energies_is_the_copy_product():
    # with B = N levels and E_x = x, the level register is the copy
    # register of |x> -> |x>|x> (T |a, x> = |a XOR x, x>): the same block
    # with ceil(log N) qubits either way
    rng = np.random.default_rng(3)
    lhat = rng.uniform(0.0, 1.0, size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    u_l = dilation(lhat / 4.0)
    level, level_anc = tagged_product(u_l, q, lambda e, x: (e + x) % 4, 4, 4)
    copy, copy_anc = tagged_product(u_l, q, lambda e, x: e ^ x, 4, 4)
    assert level_anc == copy_anc == 1 + 0 + 2
    assert np.abs(level - copy).max() < 1e-14
    assert np.abs(4.0 * copy - lhat * q).max() < 1e-12


# ------------------------------------------------- discriminant construction


def test_two_state_discriminant_encoding():
    model, prop = two_state_chain()
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    assert be.gamma == 8.0  # 4B with B = 2
    assert be.anc_qubits == 3 and be.paper_anc == 3
    assert np.abs(extract_block(be) - dec.q).max() < 1e-12
    dense = dense_matrix(be.op)
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
    prop = ProposalDecomposition(weights, perms)
    energies = np.random.default_rng(seed).integers(0, levels, size=n_states)
    return GibbsModel(energies=energies, levels=levels, beta=beta), prop


def dense_fused_op(model, prop, rule):
    """The fused route built densely: one eigh of the whole select matrix

        H = sum_k (L^T (x) J-hat^T + L (x) J-hat) (x) |k><k| (x) I
              + I_2 (x) G-hat (x) |k'><k| (x) Pi_k

    over the paired slots (k' = partner[k]) on (direction, level, select,
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
    hop = np.kron(lower.T, ja_t.T) + np.kron(lower, ja_t)
    acc = np.kron(np.eye(2), ga_t)
    h = np.zeros((2 * bt, k_dim, n, 2 * bt, k_dim, n))
    for k, (p, k_bar) in enumerate(zip(perms, partner)):
        pim = np.zeros((n, n))
        pim[p, np.arange(n)] = 1.0
        h[:, k, :, :, k, :] += np.einsum("ij,xy->ixjy", hop, np.eye(n))
        h[:, k_bar, :, :, k, :] += np.einsum("ij,xy->ixjy", acc, pim)
    h = h.reshape(2 * bt * k_dim * n, -1) / (4.0 * bt)
    lam, vec = np.linalg.eigh(h)
    c = (vec * np.sqrt(1.0 - np.clip(lam, -1.0, 1.0) ** 2)) @ vec.T
    # np.block puts the dilation register first, where the layout has it
    sel = np.block([[h, c], [c, -h]])
    e = model.energies
    # registers (dilation, direction, level, select, system); the
    # preparation is the identity on the dilation register
    dims = (2, 2, bt, k_dim, n)
    prep = np.zeros(dims + dims)
    for x in range(n):
        t = np.zeros((2, bt, k_dim))
        for k, (w, p) in enumerate(zip(weights, perms)):
            if w > 0.0:
                t[0, e[x], k] += math.sqrt(0.5 * w)
                t[1, e[p[x]], k] += math.sqrt(0.5 * w)
        h = householder_to(t.reshape(-1)).reshape(2 * t.shape)
        for dil in range(2):
            prep[dil, :, :, :, x, dil, :, :, :, x] = h
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
    assert np.abs(dense_matrix(be.op) - want).max() < 1e-12


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
    assert be.gamma == 4 * (1 << (levels - 1).bit_length())
    assert be.anc_qubits == fused_ancillas(len(perms), levels) <= be.paper_anc
    assert be.paper_anc == paper_ancillas(prop.kappa, levels)
    block = extract_block(be)
    assert np.abs(block - q).max() < 1e-12
    assert np.abs(structured_block(be) - block).max() <= 1e-15
    dense = dense_matrix(be.op)
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
    assert np.abs(dense_matrix(be.op) - want).max() < 1e-12


@pytest.mark.parametrize("kind", ["pair", "split", "mixed"])
def test_paired_select_gathers_with_the_inverse(monkeypatch, kind):
    # slot k's b-term moves x to p_k x, Pi_k |x> = |p_k x>: the gather takes
    # p_k^-1. Gathering with p_k instead gives a unitary whose block misses Q
    model, prop = cycle_chain(kind, 8, 3)
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    assert np.abs(extract_block(be) - q).max() < 1e-12
    op = be.op
    with_p_k = op.partner[:, None] * op.n_sys + op.perms[op.partner]
    monkeypatch.setattr(op, "_gather", with_p_k.ravel())
    assert np.abs(extract_block(be) - q).max() > 1e-2


def test_fused_select_pair_splits_one_dilation_by_parity():
    # a and b are the entries of D_+ across which the parity K of (dilation,
    # direction) flips and keeps; D_- = a - b = -K D_+ K, and both are
    # involutions
    model, prop = build_hypercube(3, energy="random", levels=5, seed=4, beta=0.7)
    op = build_ancilla_efficient_Q(model, prop, level_tables(model, glauber())).op
    d_plus = op.d_plus
    sign = np.repeat([1.0, -1.0, -1.0, 1.0], 8)
    parity = np.repeat([0, 1, 1, 0], 8)
    flips = parity[:, None] != parity[None, :]
    a, b = np.where(flips, d_plus, 0.0), np.where(flips, 0.0, d_plus)
    assert np.array_equal(a - b, -sign[:, None] * d_plus * sign)
    for d in (a + b, a - b):
        assert np.abs(d @ d - np.eye(32)).max() < 1e-14
    # the select is a (x) I + b (x) P on (block, slot, system)
    p = np.zeros((op.slots * op.n_sys,) * 2)
    for k, (perm, j) in enumerate(zip(op.perms, op.partner)):
        p[j * op.n_sys + perm, k * op.n_sys + np.arange(op.n_sys)] = 1.0
    sel = np.kron(a, np.eye(len(p))) + np.kron(b, p)
    assert np.array_equal(sel, dense_select(d_plus, op.perms, op.partner))
    prep = dense_prep(op._ut.T)
    assert np.abs(dense_matrix(op) - prep @ sel @ prep).max() < 1e-13


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
        prop = ProposalDecomposition([0.5, 0.5], [cyc, np.argsort(cyc)])
        model = GibbsModel(energies=np.arange(n_states) % 3, levels=3, beta=0.6)
        be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
        assert not prop.all_involutions
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
    prop = ProposalDecomposition([0.5, 0.5], [cyc, np.argsort(cyc)])
    model = GibbsModel(energies=np.array([0, 1, 2, 1, 0, 2, 1, 1]), levels=3, beta=0.6)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    assert not prop.all_involutions
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
    # 1.60 MiB; the structured block of this fused encoding is ~1 MiB)
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
    # although its arrays are
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

    # the probes draw first from the same generator, then the spot vectors
    rng = np.random.Generator(np.random.SFC64(7))
    rng.standard_normal((PROBES, be.sys_dim))
    v = rng.random((SPOT_VECTORS, dim)) - 0.5
    v /= norms(v)[:, None]
    w = be.op.apply(v)
    want = max(np.abs(norms(w) - 1.0).max(), np.abs(be.op.apply(w) - v).max())
    assert be.op.unitarity_residual() < want
    for width in range(1, 9):
        monkeypatch.setattr(parwalk.blockenc, "CHUNK_BYTES", width * 8 * dim)
        seen.clear()
        report = verify_encoding(be, q)
        # two applies per probe vector, then two per spot-check vector
        batches = np.concatenate(seen)
        assert batches.shape[0] == 2 * PROBES + 2 * SPOT_VECTORS
        assert np.array_equal(batches[-2 * SPOT_VECTORS : -SPOT_VECTORS], v)
        assert report.max_abs_dev <= 1e-15
        assert report.unitary_dev == want and not report.passed


@pytest.mark.parametrize("n", [3, 6])
def test_spot_check_sees_a_select_entry_the_block_never_reads(n):
    # d_plus[d-1, d-2] acts on the dilation-1 half of the select block,
    # which the structured block (dilation-0 corners) never reads; it breaks
    # unitarity by ~1e-7, and the certificate must see that
    model, prop = build_hypercube(n, energy="hamming")
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    q = decompose_discriminant(model, prop, metropolis()).q
    op = be.op
    d = op.block_dim
    op.d_plus[d - 1, d - 2] += 1e-7
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert not report.passed


def test_spot_vector_sees_a_fault_on_a_padding_slot(monkeypatch):
    # n = 3 uses 3 of 4 select slots. The probe images V|0,v> and V V|0,v>
    # carry no amplitude on the padding slot, so an apply that scales that
    # slot by 1 + 1e-6 passes the probes and the certificate, and only
    # the spot vector, a quarter of whose weight lies there, sees it
    model, prop = build_hypercube(3, energy="hamming")
    rule = metropolis()
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    slots, n = be.op.slots, be.sys_dim
    assert (slots, len(prop.paired_slots()[1])) == (4, 3)

    def slot(w, k):
        # registers (dilation, direction, level, select, system)
        return w.reshape(w.shape[:-1] + (-1, slots, n))[..., k, :]

    v = np.zeros((1, be.op.dim))
    v[0, :n] = np.random.default_rng(3).standard_normal(n)
    once = be.op.apply(v)
    assert np.abs(slot(once, 3)).max() == 0.0
    assert np.abs(slot(be.op.apply(once), 3)).max() == 0.0
    clean = verify_encoding(be, q)
    assert clean.passed
    apply = FusedReflection.apply

    def padded_scaled(self, v, out=None, scratch=None):
        w = apply(self, v, out, scratch)
        slot(w, 3)[...] *= 1.0 + 1e-6
        return w

    monkeypatch.setattr(FusedReflection, "apply", padded_scaled)
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    # the probes read exactly what they read without the fault
    assert report.probe_reflection_dev == clean.probe_reflection_dev <= 1e-14
    assert report.probe_block_dev == clean.probe_block_dev <= 1e-15
    assert be.op.unitarity_residual() <= 1e-14
    assert 1e-7 <= report.unitary_dev <= 1e-6
    assert not report.passed


# ------------------------------------------------------------ the certificate


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
    op = be.op
    d = op.block_dim
    op.d_plus[d - 1, d - 2] += 1e-8
    assert 0.5e-8 <= be.op.unitarity_residual() <= 4e-8
    report = verify_encoding(be, q)
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert not report.passed


def test_certificate_sees_an_orthogonal_select_that_is_no_reflection():
    # D_+ turned by 1e-8 in the plane of its last two columns stays
    # orthogonal, so V stays unitary, but V is no longer symmetric, and the
    # spot vector's V V v = v no longer stands for V^T V v = v; the
    # certificate reads the asymmetry of D_+ at its size
    be, q = random_b16(5)
    op = be.op
    d = op.block_dim
    turn = np.eye(d)
    turn[d - 2 :, d - 2 :] = [[math.cos(1e-8), -math.sin(1e-8)],
                              [math.sin(1e-8), math.cos(1e-8)]]
    op.d_plus[...] = op.d_plus @ turn
    assert np.abs(op.d_plus.T @ op.d_plus - np.eye(d)).max() <= 1e-14
    assert 0.5e-8 <= op.unitarity_residual() <= 4e-8
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
    op = be.op
    assert op.partner[0] == 1 and op.unitarity_residual() <= 1e-14
    perms = op.perms.copy()
    perms[1] = perms[0]
    broken = replace(be, op=FusedReflection(op._ut.T, op.d_plus, perms, op.partner))
    assert broken.op.unitarity_residual() == math.inf
    report = verify_encoding(broken, q)
    assert report.unitary_dev == math.inf and not report.passed


def test_certificate_sees_a_householder_coefficient_off_by_1e8():
    be, q = random_b16(5)
    assert be.op.unitarity_residual() <= 1e-14
    be.op._coef[3] += 1e-8
    assert be.op.unitarity_residual() > UNITARY_TOL
    report = verify_encoding(be, q)
    assert report.unitary_dev >= be.op.unitarity_residual() > UNITARY_TOL
    assert not report.passed


# ---------------------------------------------------- structured extraction


def structured_block(be):
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
    # extract_block, the tests' oracle, applies any operator to every basis
    # column: the fused reflection, and its three factors applied one by one
    model, prop = cycle_chain("pair", 8, 3)
    rule = metropolis()
    generic = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    q = decompose_discriminant(model, prop, rule).q
    assert np.abs(extract_block(generic) - q).max() < 1e-12
    assert verify_encoding(generic, q).passed
    by_hand = replace(generic, op=HandBuilt(generic.op))
    assert np.abs(extract_block(by_hand) - structured_block(generic)).max() <= 1e-15


class HandBuilt:
    """prep . sel . prep of a FusedReflection as three separate calls."""

    def __init__(self, op):
        self.op, self.dim, self.n_sys = op, op.dim, op.n_sys

    def apply(self, v):
        first = self.op._reflect(v, None)
        return self.op._reflect(self.op._select(first, None, np.empty_like(first)), None)


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


def scale_dilation(v, factors):
    """v with the leading dilation register scaled by factors."""
    w = v.reshape(v.shape[:-1] + (2, -1))
    return (w * np.asarray(factors)[:, None]).reshape(v.shape)


def test_probes_catch_a_select_with_rotated_slots(monkeypatch):
    # the select's gather makes slot k apply slot k+1's permutation: still a
    # unitary involution whose arrays are right, so only the probe of the
    # block catches it
    be, q = fused_n4()
    op = be.op
    turned = FusedReflection(op._ut.T, op.d_plus, np.roll(op.perms, -1, axis=0), op.partner)
    monkeypatch.setattr(op, "_gather", turned._gather)
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev <= UNITARY_TOL
    assert report.probe_reflection_dev <= UNITARY_TOL
    assert report.probe_block_dev > 1e-3


def test_probes_catch_an_operator_that_is_no_involution(monkeypatch):
    # sel F with F a sign on the dilation register: unitary, and the same
    # as sel on every prep |0^c, v>, but V V |0^c, v> != |0^c, v>, which the
    # spot vector's round trip V V v = v sees as well
    select = FusedReflection._select
    monkeypatch.setattr(
        FusedReflection, "_select",
        lambda self, v, out, work: select(self, scale_dilation(v, [1, -1]), out, work),
    )
    be, q = fused_n4()
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.unitary_dev > UNITARY_TOL
    assert report.probe_block_dev <= 1e-14
    assert report.probe_reflection_dev > 1e-3


def test_an_apply_that_outputs_nan_fails(monkeypatch):
    # the operator's arrays stay finite, so only the probes and the spot vector
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
    select = FusedReflection._select

    def stretched(self, v, out, work):
        return scale_dilation(select(self, scale_dilation(v, [1, 0.5]), out, work), [1, 2])

    monkeypatch.setattr(FusedReflection, "_select", stretched)
    be, q = fused_n4()
    v = np.random.default_rng(0).standard_normal((2, be.op.dim))
    assert np.abs(be.op.apply(be.op.apply(v)) - v).max() <= 1e-13
    report = verify_encoding(be, q)
    assert not report.passed
    assert report.max_abs_dev <= 1e-15
    assert report.probe_block_dev <= 1e-14
    assert report.probe_reflection_dev > 1e-3
