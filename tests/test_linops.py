"""Matrix-free operator layer, checked against dense numpy oracles."""

import math

import numpy as np
import pytest

from parwalk.errors import DimensionMismatch
from parwalk.linops import (
    Adjoint,
    Compose,
    DenseUnitary,
    Embedded,
    FactoredSelect,
    FusedReflection,
    Identity,
    Permutation,
    Select,
    SystemControlledReflection,
    energy_shift,
    householder_to,
    xor_shift,
)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def test_identity():
    op = Identity(3)
    v = np.arange(3.0)
    assert np.array_equal(op.apply(v), v)
    assert np.array_equal(op.adjoint_apply(v), v)


def test_permutation_dense():
    p = np.array([2, 0, 1])
    op = Permutation(p)
    dense = np.zeros((3, 3))
    dense[p, np.arange(3)] = 1.0
    assert np.abs(op.dense() - dense).max() == 0.0
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.apply(v), dense @ v)
    assert np.array_equal(op.adjoint_apply(v), dense.T @ v)


def test_dense_unitary_adjoint():
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 4)
    op = DenseUnitary(u)
    v = rng.normal(size=4)
    assert np.abs(op.apply(v) - u @ v).max() < 1e-14
    assert np.abs(op.adjoint_apply(v) - u.conj().T @ v).max() < 1e-14


def test_compose_matrix_order():
    rng = np.random.default_rng(1)
    a, b = random_unitary(rng, 3), random_unitary(rng, 3)
    op = Compose(DenseUnitary(a), DenseUnitary(b))
    assert np.abs(op.dense() - a @ b).max() < 1e-14


def test_compose_dimension_guard():
    with pytest.raises(DimensionMismatch):
        Compose(Identity(2), Identity(3))


def test_embedded_matches_kron_forms():
    # an operator on the leading or the trailing one of two registers is
    # op (x) I or I (x) op
    rng = np.random.default_rng(2)
    a, b = random_unitary(rng, 2), random_unitary(rng, 3)
    lead = Embedded(DenseUnitary(a), [2, 3], [0])
    trail = Embedded(DenseUnitary(b), [2, 3], [1])
    assert np.abs(lead.dense() - np.kron(a, np.eye(3))).max() < 1e-14
    assert np.abs(trail.dense() - np.kron(np.eye(2), b)).max() < 1e-14
    assert np.abs(Compose(lead, trail).dense() - np.kron(a, b)).max() < 1e-14


def test_select_block_diagonal():
    rng = np.random.default_rng(3)
    blocks = [random_unitary(rng, 3) for _ in range(4)]
    op = Select([DenseUnitary(u) for u in blocks])
    want = np.zeros((12, 12))
    for k, u in enumerate(blocks):
        want[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = u
    assert np.abs(op.dense() - want).max() < 1e-14


def test_factored_select_matches_dense_blocks():
    # sum_k |k><k| (x) (a (x) I + b (x) Pi_k^T), system register trailing
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 3, 3))
    perms = np.array([[1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1]])
    op = FactoredSelect(a, b, perms)
    want = np.zeros((36, 36))
    for k, p in enumerate(perms):
        pk = np.zeros((4, 4))
        pk[np.arange(4), p] = 1.0  # (P_k v)[x] = v[p[x]]
        want[12 * k : 12 * k + 12, 12 * k : 12 * k + 12] = (
            np.kron(a, np.eye(4)) + np.kron(b, pk)
        )
    assert np.abs(op.dense() - want).max() < 1e-14
    batch = rng.normal(size=(5, 36))
    assert np.abs(op.adjoint_apply(batch) - batch @ want).max() < 1e-13
    # non-involutive slots take the inverse permutation in the adjoint
    cyc = FactoredSelect(a, b, np.array([[1, 2, 0]]))
    assert np.abs(Adjoint(cyc).dense() - cyc.dense().T).max() < 1e-14
    with pytest.raises(DimensionMismatch):
        FactoredSelect(a, b[:2, :2], perms)
    with pytest.raises(DimensionMismatch):
        FactoredSelect(a, b, perms[0])


def test_factored_select_sandwich_matches_dense():
    # states on the first d = 2 of 4 block values; slot 1 is a 3-cycle with a
    # fixed point, slot 2 the identity, so slots also add to the diagonal
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 4, 4))
    perms = np.array([[1, 0, 3, 2], [1, 2, 0, 3], [0, 1, 2, 3]])
    op = FactoredSelect(a, b, perms)
    left, right = rng.normal(size=(2, 4, 3, 2))

    def columns(states):
        # column x: states[x] padded to the block register, at system x
        padded = np.pad(states, ((0, 0), (0, 0), (0, 2)))
        return np.einsum("xkd,yx->kdyx", padded, np.eye(4)).reshape(-1, 4)

    want = columns(left).T @ op.dense() @ columns(right)
    assert np.abs(op.sandwich(left, right) - want).max() < 1e-14


def test_factored_select_sends_the_b_term_to_the_partner_slot():
    # slots 0 and 1 hold a 3-cycle and its inverse, slot 2 an involution:
    # sum_k |k><k| (x) a (x) I + |partner[k]><k| (x) b (x) Pi_k, with
    # Pi_k |x> = |p_k x>, so slot k's system is gathered with p_k^-1
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(2, 3, 3))
    cyc = np.array([1, 2, 0, 3])
    perms = np.array([cyc, np.argsort(cyc), [3, 2, 1, 0]])
    partner = np.array([1, 0, 2])
    op = FactoredSelect(a, b, perms, partner)
    want = np.zeros((3, 12, 3, 12))
    for k, (p, j) in enumerate(zip(perms, partner)):
        pim = np.zeros((4, 4))
        pim[p, np.arange(4)] = 1.0
        want[k, :, k] += np.kron(a, np.eye(4))
        want[j, :, k] += np.kron(b, pim)
    want = want.reshape(36, 36)
    assert np.abs(op.dense() - want).max() < 1e-14
    assert np.abs(Adjoint(op).dense() - want.T).max() < 1e-14
    # with symmetric a and b the slot swap makes the operator symmetric
    sym = FactoredSelect(a + a.T, b + b.T, perms, partner).dense()
    assert np.abs(sym - sym.T).max() < 1e-14
    # the sandwich reads left at the partner slot
    left, right = rng.normal(size=(2, 4, 3, 2))
    cols = [np.einsum("xkd,yx->kdyx", np.pad(t, ((0, 0), (0, 0), (0, 1))), np.eye(4))
            for t in (left, right)]
    dense = cols[0].reshape(-1, 4).T @ want @ cols[1].reshape(-1, 4)
    assert np.abs(op.sandwich(left, right) - dense).max() < 1e-14
    for bad in ([1, 2, 0], [1, 1, 2], [0, 1], [1, 0, 3], [-2, 0, 2]):
        with pytest.raises(DimensionMismatch, match="involution"):
            FactoredSelect(a, b, perms, np.array(bad))


def orthogonal_select(rng, perms, partner=None, block=4):
    """A factored select that is unitary when its slots are paired: a +- b
    are orthogonal."""
    plus, minus = random_unitary(rng, block), random_unitary(rng, block)
    return FactoredSelect((plus + minus) / 2, (plus - minus) / 2, perms, partner)


def unitarity_defect(op):
    d = op.dense()
    return np.linalg.norm(d.T @ d - np.eye(op.dim), 2)


def test_factored_select_residual_is_its_unitarity_defect():
    rng = np.random.default_rng(17)
    cyc = np.array([1, 2, 0, 3])
    perms = np.array([cyc, np.argsort(cyc), [3, 2, 1, 0]])
    op = orthogonal_select(rng, perms, np.array([1, 0, 2]))
    assert op.unitarity_residual() <= 1e-14
    assert unitarity_defect(op) <= 1e-14
    # a fault in either array, of either sign of the slot swap, is read at
    # its size: the residual is the norm, not only a bound on it
    for array, (i, j) in ((op.a, (3, 2)), (op.b, (0, 1))):
        array[i, j] += 1e-6
        assert abs(op.unitarity_residual() - unitarity_defect(op)) <= 1e-14
        assert op.unitarity_residual() > 1e-7
        array[i, j] -= 1e-6
    # partners that are not each other's inverses, or a non-involution
    # that is its own partner, leave the slot swap no involution
    unpaired = FactoredSelect(op.a, op.b, np.array([cyc, cyc, perms[2]]), op.partner)
    assert unpaired.unitarity_residual() == math.inf
    assert FactoredSelect(op.a, op.b, perms).unitarity_residual() == math.inf
    op.a[0, 0] = np.nan
    assert op.unitarity_residual() == math.inf


def test_system_controlled_reflection_residual_is_its_unitarity_defect():
    rng = np.random.default_rng(18)
    u = rng.normal(size=(3, 8))
    u[1] = 0.0  # identity fallback
    op = SystemControlledReflection(u, passive=(2, 2))
    assert op.unitarity_residual() <= 1e-14
    assert unitarity_defect(op) <= 1e-14
    op._coef[2] *= 1.0 + 1e-6
    assert abs(op.unitarity_residual() - unitarity_defect(op)) <= 1e-14
    assert op.unitarity_residual() > 1e-7
    op._coef[0] = np.nan
    assert op.unitarity_residual() == math.inf


def test_fused_reflection_residual_bounds_its_unitarity_defect():
    rng = np.random.default_rng(19)
    k_dim, bt, n = 2, 2, 4
    u = rng.normal(size=(n, k_dim * 2 * bt))
    prep = SystemControlledReflection(u, passive=(k_dim, 2))
    # involutions x -> x xor k, each its own partner
    sel = orthogonal_select(rng, np.arange(n) ^ np.arange(k_dim)[:, None], block=4 * bt)
    tree = FusedReflection(prep, sel)
    assert tree.unitarity_residual() <= 1e-14
    # a fault in prep, in sel, and in both
    faults = [[(prep._coef, 1)], [(sel.b, 5)], [(prep._coef, 0), (sel.a, 7)]]
    for eps in (1e-6, 1e-3):
        for fault in faults:
            for array, i in fault:
                array.flat[i] += eps
            bound, defect = tree.unitarity_residual(), unitarity_defect(tree)
            assert defect - 1e-14 <= bound <= 5 * defect
            for array, i in fault:
                array.flat[i] -= eps


def test_permutations_must_be_bijections():
    a = np.eye(2)
    for bad in ([0, 0, 1], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(DimensionMismatch):
            Permutation(np.array(bad))
        with pytest.raises(DimensionMismatch):
            FactoredSelect(a, a, np.array([[0, 1, 2], bad]))
    with pytest.raises(DimensionMismatch):
        Permutation(np.array([[0, 1]]))


def test_prepared_states_are_the_images_of_e0():
    rng = np.random.default_rng(13)
    u = rng.normal(size=(3, 8))
    u[1] = 0.0  # identity fallback
    op = SystemControlledReflection(u, passive=(2, 2))
    e0 = np.zeros((3, op.dim))
    e0[np.arange(3), np.arange(3)] = 1.0  # |0, x>: leading registers in 0
    images = op.apply(e0).reshape(3, 2, 2, 4, 3)
    # passive register in 0, system state x unchanged
    assert np.abs(images[:, :, 1]).max() == 0.0
    want = np.stack([images[x, :, 0, :, x].reshape(-1) for x in range(3)])
    assert np.array_equal(op.prepared_states(), want)
    assert np.array_equal(op.prepared_states()[1], np.eye(8)[0])


def test_system_controlled_reflection_matches_householder():
    rng = np.random.default_rng(10)
    t = rng.normal(size=(3, 4))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    t[1] = np.eye(4)[0]  # u = 0: identity fallback
    u = -t
    u[:, 0] += 1.0
    op = SystemControlledReflection(u)
    # sum_x H_x (x) |x><x| with the system register trailing
    want = np.zeros((12, 12))
    for x, tx in enumerate(t):
        want[x::3, x::3] = householder_to(tx)
    d = op.dense()
    assert np.abs(d - want).max() < 1e-14
    assert np.abs(d @ d - np.eye(12)).max() < 1e-13
    assert np.abs(Adjoint(op).dense() - d.T).max() < 1e-14
    with pytest.raises(DimensionMismatch):
        SystemControlledReflection(np.zeros(4))


def test_passive_register_reflection_matches_embedded():
    # the fused route's layout: select, dilation, direction, level, system,
    # with the dilation register passive
    rng = np.random.default_rng(11)
    for k_dim, bt, n, batch in ((8, 16, 16, (2, 3)), (1, 1, 2, (3,)), (2, 4, 8, (5,))):
        u = rng.normal(size=(n, k_dim * 2 * bt))
        u[0] = 0.0  # identity fallback
        dims = [k_dim, 2, 2, bt, n]
        moved = Embedded(SystemControlledReflection(u), dims, [0, 2, 3, 4])
        op = SystemControlledReflection(u, passive=(k_dim, 2))
        assert op.dim == moved.dim
        v = rng.normal(size=batch + (op.dim,))
        assert np.array_equal(op.apply(v), moved.apply(v))
        assert np.array_equal(op.adjoint_apply(v), moved.adjoint_apply(v))
    assert np.abs(op.dense() - moved.dense()).max() == 0.0
    with pytest.raises(DimensionMismatch):
        SystemControlledReflection(np.zeros((2, 6)), passive=(4, 2))


def fused_nodes(rng, k_dim, bt, n):
    """A reflection on (select, dilation, direction x level, system) with
    the dilation register passive, and a factored select that fits it."""
    u = rng.normal(size=(n, k_dim * 2 * bt))
    prep = SystemControlledReflection(u, passive=(k_dim, 2))
    perms = np.array([rng.permutation(n) for _ in range(k_dim)])
    a, b = rng.normal(size=(2, 4 * bt, 4 * bt))
    return prep, FactoredSelect(a, b, perms)


def test_destinations_give_the_allocating_results():
    # the fused reflection's nodes write into out, and it runs them through
    # out, scratch and out in turn; v may serve as scratch, since only the
    # first node reads it
    rng = np.random.default_rng(12)
    prep, sel = fused_nodes(rng, 4, 2, 8)
    tree = FusedReflection(prep, sel)
    plain = Compose(prep, sel, prep)
    v = rng.normal(size=(3, tree.dim))
    for op in (prep, sel):
        for method in ("apply", "adjoint_apply"):
            out = np.empty_like(v)
            got = getattr(op, method)(v, out=out)
            assert np.shares_memory(got, out)
            assert np.array_equal(out, getattr(op, method)(v))
    for method in ("apply", "adjoint_apply"):
        want = getattr(plain, method)(v)
        assert np.array_equal(getattr(tree, method)(v), want)
        out, scratch = np.empty_like(v), np.empty_like(v)
        got = getattr(tree, method)(v, out=out, scratch=scratch)
        assert np.shares_memory(got, out) and np.array_equal(got, want)
        own = v.copy()
        got = getattr(tree, method)(own, out=out, scratch=own)
        assert np.shares_memory(got, out) and np.array_equal(got, want)


def test_fused_reflection_block_is_its_zero_block():
    rng = np.random.default_rng(13)
    for k_dim, bt, n in ((4, 2, 8), (1, 1, 2), (2, 4, 4)):
        prep, sel = fused_nodes(rng, k_dim, bt, n)
        tree = FusedReflection(prep, sel)
        assert tree.n_sys == n
        assert np.abs(tree.block() - tree.dense()[:n, :n]).max() < 1e-13


def test_fused_reflection_rejects_a_select_off_its_layout():
    rng = np.random.default_rng(14)
    prep, sel = fused_nodes(rng, 4, 2, 8)
    a, b = sel.a, sel.b
    big = rng.normal(size=(2, 16, 16))
    misfits = [
        # slots, block size, system size, one at a time
        FactoredSelect(a, b, sel.perms[:2]),
        FactoredSelect(a[:4, :4], b[:4, :4], sel.perms),
        FactoredSelect(a, b, np.tile(np.arange(16), (4, 1))),
        # slots and block size traded at the reflection's dimension
        FactoredSelect(*big, sel.perms[:2]),
    ]
    for bad in misfits:
        with pytest.raises(DimensionMismatch, match="does not fit"):
            FusedReflection(prep, bad)


def test_embedded_acts_on_selected_registers():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 6)
    inner = DenseUnitary(u)
    op = Embedded(inner, [2, 2, 3], [0, 2])  # skip the middle register
    v = rng.normal(size=12)
    big = np.einsum(
        "acbd,jk->ajcbkd", u.reshape(2, 3, 2, 3), np.eye(2)
    ).reshape(12, 12)
    assert np.abs(op.dense() - big).max() < 1e-14
    assert np.abs(op.apply(v) - big @ v).max() < 1e-14


def test_adjoint_wrapper():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 4)
    op = Adjoint(DenseUnitary(u))
    assert np.abs(op.dense() - u.conj().T).max() < 1e-14
    v = rng.normal(size=4)
    assert np.abs(op.adjoint_apply(v) - u @ v).max() < 1e-14


def test_batched_apply():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 4)
    op = Embedded(DenseUnitary(u), [4, 2], [0])
    batch = rng.normal(size=(5, 8))
    out = op.apply(batch)
    for i in range(5):
        assert np.abs(out[i] - op.apply(batch[i])).max() < 1e-14


def test_energy_shift():
    energies = np.array([1, 0, 2])
    op = energy_shift(energies, levels=4)
    n = 3
    for x in range(n):
        v = np.zeros(4 * n)
        v[0 * n + x] = 1.0  # |e=0, x>
        out = op.apply(v)
        assert out[energies[x] * n + x] == 1.0
    # modular wraparound
    v = np.zeros(4 * n)
    v[3 * n + 2] = 1.0  # e=3, E_x=2 -> e'=1
    assert op.apply(v)[1 * n + 2] == 1.0


def test_xor_shift():
    op = xor_shift(4)
    for x in range(4):
        v = np.zeros(16)
        v[0 * 4 + x] = 1.0
        out = op.apply(v)
        assert out[x * 4 + x] == 1.0  # |0, x> -> |x, x>
    v = np.zeros(16)
    v[2 * 4 + 3] = 1.0
    assert op.apply(v)[(2 ^ 3) * 4 + 3] == 1.0


def test_householder_to_basic():
    rng = np.random.default_rng(8)
    t = rng.normal(size=5)
    t /= np.linalg.norm(t)
    h = householder_to(t)
    assert np.abs(h @ h - np.eye(5)).max() < 1e-12
    assert np.abs(h - h.T).max() < 1e-14
    assert np.abs(h[:, 0] - t).max() < 1e-12


def test_householder_to_identity_fallback():
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.abs(householder_to(e0) - np.eye(4)).max() < 1e-12
