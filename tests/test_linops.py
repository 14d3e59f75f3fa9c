"""Matrix-free operator layer, checked against dense numpy oracles."""

import math

import numpy as np
import pytest

from parwalk.errors import DimensionMismatch
from parwalk.linops import FactoredSelect, FusedReflection, SystemControlledReflection


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def householder_to(target):
    """The real symmetric involution that maps e_0 to the unit vector
    target: the reflection about e_0 - target, the identity when target is
    e_0."""
    u = -np.asarray(target, dtype=float)
    u[0] += 1.0
    nrm2 = u @ u
    if nrm2 < 1e-28:
        return np.eye(u.size)
    return np.eye(u.size) - (2.0 / nrm2) * np.outer(u, u)


def adjoint_dense(op):
    """The dense matrix of op's adjoint_apply, as LinOp.dense reads apply."""
    return np.ascontiguousarray(op.adjoint_apply(np.eye(op.dim)).T)


def parity_parts(d_plus):
    """a and b: the entries of d_plus across which the parity of (dilation,
    direction) flips and keeps, zero elsewhere."""
    parity = np.repeat([0, 1, 1, 0], d_plus.shape[0] // 4)
    flips = parity[:, None] != parity
    return np.where(flips, d_plus, 0.0), np.where(flips, 0.0, d_plus)


def dense_select(d_plus, perms, partner=None):
    """a (x) I + b (x) sum_k |partner[k]><k| (x) Pi_k on (block, slot,
    system), built entry by entry: Pi_k |x> = |p_k x>."""
    slots, n = perms.shape
    partner = range(slots) if partner is None else partner
    swap = np.zeros((slots, n, slots, n))
    for k, (p, j) in enumerate(zip(perms, partner)):
        for x in range(n):
            swap[j, p[x], k, x] = 1.0
    a, b = parity_parts(d_plus)
    return np.kron(a, np.eye(slots * n)) + np.kron(b, swap.reshape(slots * n, -1))


def test_factored_select_matches_dense_blocks():
    # a (x) I + b (x) sum_k |k><k| (x) Pi_k with the block register leading
    # and the system register trailing
    rng = np.random.default_rng(9)
    d_plus = rng.normal(size=(4, 4))
    perms = np.array([[1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1]])
    op = FactoredSelect(d_plus, perms)
    want = np.zeros((4, 3, 4, 4, 3, 4))
    a, b = parity_parts(d_plus)
    for k, p in enumerate(perms):
        pk = np.zeros((4, 4))
        pk[np.arange(4), p] = 1.0  # (P_k v)[x] = v[p[x]]
        want[:, k, :, :, k, :] = np.einsum("ij,xy->ixjy", a, np.eye(4)) + np.einsum(
            "ij,xy->ixjy", b, pk
        )
    want = want.reshape(48, 48)
    assert np.abs(op.dense() - want).max() < 1e-14
    assert np.abs(want - dense_select(d_plus, perms)).max() == 0.0
    batch = rng.normal(size=(5, 48))
    kept = batch.copy()
    assert np.abs(op.adjoint_apply(batch) - batch @ want).max() < 1e-13
    assert np.array_equal(batch, kept)
    # a complex d_plus on a real operand
    cplx = d_plus + 1j * d_plus.T
    op = FactoredSelect(cplx, perms)
    assert np.abs(op.dense() - dense_select(cplx, perms)).max() < 1e-14
    assert np.abs(adjoint_dense(op) - dense_select(cplx, perms).conj().T).max() < 1e-14
    # non-involutive slots take the inverse permutation in the adjoint
    cyc = FactoredSelect(d_plus, np.array([[1, 2, 0]]))
    assert np.abs(adjoint_dense(cyc) - cyc.dense().T).max() < 1e-14
    for bad in (d_plus[:2], d_plus[:3, :3], d_plus[0]):
        with pytest.raises(DimensionMismatch):
            FactoredSelect(bad, perms)
    with pytest.raises(DimensionMismatch):
        FactoredSelect(d_plus, perms[0])


def test_factored_select_sandwich_matches_dense():
    # states on the first d = 2 of 4 block values; slot 1 is a 3-cycle with a
    # fixed point, slot 2 the identity, so slots also add to the diagonal
    rng = np.random.default_rng(12)
    d_plus = rng.normal(size=(4, 4))
    perms = np.array([[1, 0, 3, 2], [1, 2, 0, 3], [0, 1, 2, 3]])
    op = FactoredSelect(d_plus, perms)
    left, right = rng.normal(size=(2, 4, 3, 2))

    def columns(states):
        # column x: states[x] padded to the block register, at system x
        padded = np.pad(states, ((0, 0), (0, 0), (0, 2)))
        return np.einsum("xkd,yx->dkyx", padded, np.eye(4)).reshape(-1, 4)

    want = columns(left).T @ op.dense() @ columns(right)
    assert np.abs(op.sandwich(left, right) - want).max() < 1e-14


def test_factored_select_sends_the_b_term_to_the_partner_slot():
    # slots 0 and 1 hold a 3-cycle and its inverse, slot 2 an involution:
    # sum_k |k><k| (x) a (x) I + |partner[k]><k| (x) b (x) Pi_k, with
    # Pi_k |x> = |p_k x>, so slot k's system is gathered with p_k^-1
    rng = np.random.default_rng(16)
    d_plus = rng.normal(size=(4, 4))
    cyc = np.array([1, 2, 0, 3])
    perms = np.array([cyc, np.argsort(cyc), [3, 2, 1, 0]])
    partner = np.array([1, 0, 2])
    op = FactoredSelect(d_plus, perms, partner)
    a, b = parity_parts(d_plus)
    want = np.zeros((4, 3, 4, 4, 3, 4))
    for k, (p, j) in enumerate(zip(perms, partner)):
        pim = np.zeros((4, 4))
        pim[p, np.arange(4)] = 1.0
        want[:, k, :, :, k, :] += np.einsum("ij,xy->ixjy", a, np.eye(4))
        want[:, j, :, :, k, :] += np.einsum("ij,xy->ixjy", b, pim)
    want = want.reshape(48, 48)
    assert np.abs(op.dense() - want).max() < 1e-14
    assert np.abs(want - dense_select(d_plus, perms, partner)).max() == 0.0
    assert np.abs(adjoint_dense(op) - want.T).max() < 1e-14
    # with a symmetric d_plus the slot swap makes the operator symmetric
    sym = FactoredSelect(d_plus + d_plus.T, perms, partner).dense()
    assert np.abs(sym - sym.T).max() < 1e-14
    # the sandwich reads left at the partner slot
    left, right = rng.normal(size=(2, 4, 3, 2))
    cols = [np.einsum("xkd,yx->dkyx", np.pad(t, ((0, 0), (0, 0), (0, 2))), np.eye(4))
            for t in (left, right)]
    dense = cols[0].reshape(-1, 4).T @ want @ cols[1].reshape(-1, 4)
    assert np.abs(op.sandwich(left, right) - dense).max() < 1e-14
    for bad in ([1, 2, 0], [1, 1, 2], [0, 1], [1, 0, 3], [-2, 0, 2]):
        with pytest.raises(DimensionMismatch, match="involution"):
            FactoredSelect(d_plus, perms, np.array(bad))


def orthogonal_select(rng, perms, partner=None, block=4):
    """A factored select that is unitary when its slots are paired: d_plus
    is orthogonal, and so then is -K d_plus K."""
    return FactoredSelect(random_unitary(rng, block), perms, partner)


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
    # a fault in a (parity flips) or in b (parity kept) is read at its
    # size: the residual is the norm, not only a bound on it
    for i, j in ((3, 2), (0, 3)):
        op.d_plus[i, j] += 1e-6
        assert abs(op.unitarity_residual() - unitarity_defect(op)) <= 1e-14
        assert op.unitarity_residual() > 1e-7
        op.d_plus[i, j] -= 1e-6
    # a - b = -K (a + b) K entry by entry, so one product serves both signs
    a, b = parity_parts(op.d_plus)
    sign = np.array([1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(a - b, -sign[:, None] * (a + b) * sign)
    # partners that are not each other's inverses, or a non-involution
    # that is its own partner, leave the slot swap no involution
    unpaired = FactoredSelect(op.d_plus, np.array([cyc, cyc, perms[2]]), op.partner)
    assert unpaired.unitarity_residual() == math.inf
    assert FactoredSelect(op.d_plus, perms).unitarity_residual() == math.inf
    op.d_plus[0, 0] = np.nan
    assert op.unitarity_residual() == math.inf


def test_system_controlled_reflection_residual_is_its_unitarity_defect():
    rng = np.random.default_rng(18)
    u = rng.normal(size=(3, 8))
    u[1] = 0.0  # identity fallback
    op = SystemControlledReflection(u, passive=2)
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
    u = rng.normal(size=(n, 2 * bt * k_dim))
    prep = SystemControlledReflection(u, passive=2)
    # involutions x -> x xor k, each its own partner
    sel = orthogonal_select(rng, np.arange(n) ^ np.arange(k_dim)[:, None], block=4 * bt)
    tree = FusedReflection(prep, sel)
    assert tree.unitarity_residual() <= 1e-14
    # a fault in prep, in sel, and in both
    faults = [[(prep._coef, 1)], [(sel.d_plus, 5)], [(prep._coef, 0), (sel.d_plus, 7)]]
    for eps in (1e-6, 1e-3):
        for fault in faults:
            for array, i in fault:
                array.flat[i] += eps
            bound, defect = tree.unitarity_residual(), unitarity_defect(tree)
            assert defect - 1e-14 <= bound <= 5 * defect
            for array, i in fault:
                array.flat[i] -= eps


def test_permutations_must_be_bijections():
    for bad in ([0, 0, 1], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(DimensionMismatch):
            FactoredSelect(np.eye(4), np.array([[0, 1, 2], bad]))


def test_prepared_states_are_the_images_of_e0():
    rng = np.random.default_rng(13)
    u = rng.normal(size=(3, 8))
    u[1] = 0.0  # identity fallback
    op = SystemControlledReflection(u, passive=2)
    e0 = np.zeros((3, op.dim))
    e0[np.arange(3), np.arange(3)] = 1.0  # |0, x>: leading registers in 0
    images = op.apply(e0).reshape(3, 2, 8, 3)
    # passive register in 0, system state x unchanged
    assert np.abs(images[:, 1]).max() == 0.0
    want = np.stack([images[x, 0, :, x] for x in range(3)])
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
    assert np.abs(adjoint_dense(op) - d.T).max() < 1e-14
    with pytest.raises(DimensionMismatch):
        SystemControlledReflection(np.zeros(4))


def test_passive_register_reflection_matches_embedded():
    # the fused route's layout: dilation, direction, level, select, system,
    # with the leading dilation register passive
    # with the leading dilation register passive: I_2 (x) the plain
    # reflection, applied to each half of the operand
    rng = np.random.default_rng(11)
    for k_dim, bt, n, batch in ((8, 16, 16, (2, 3)), (1, 1, 2, (3,)), (2, 4, 8, (5,))):
        u = rng.normal(size=(n, 2 * bt * k_dim))
        u[0] = 0.0  # identity fallback
        plain = SystemControlledReflection(u)
        op = SystemControlledReflection(u, passive=2)
        assert op.dim == 2 * plain.dim
        v = rng.normal(size=batch + (op.dim,))
        halves = v.reshape(batch + (2, plain.dim))
        for method in ("apply", "adjoint_apply"):
            moved = getattr(plain, method)(halves).reshape(v.shape)
            assert np.array_equal(getattr(op, method)(v), moved)
    assert np.abs(op.dense() - np.kron(np.eye(2), plain.dense())).max() == 0.0


def fused_nodes(rng, k_dim, bt, n):
    """A reflection on (dilation, direction x level x select, system) with
    the dilation register passive, and a factored select that fits it."""
    u = rng.normal(size=(n, 2 * bt * k_dim))
    prep = SystemControlledReflection(u, passive=2)
    perms = np.array([rng.permutation(n) for _ in range(k_dim)])
    return prep, FactoredSelect(rng.normal(size=(4 * bt, 4 * bt)), perms)


def test_destinations_give_the_allocating_results():
    # the fused reflection's nodes write into out, the select's result and
    # out in turn, and the select overwrites its operand and its gather
    # array; v may serve as either scratch array, since only the first node
    # reads it
    rng = np.random.default_rng(12)
    prep, sel = fused_nodes(rng, 4, 2, 8)
    tree = FusedReflection(prep, sel)

    def plain(method, v):
        first = getattr(prep, method)(v)
        return getattr(prep, method)(getattr(sel, method)(first))

    v = rng.normal(size=(3, tree.dim))
    kept = v.copy()
    for op in (prep, sel):
        for method in ("apply", "adjoint_apply"):
            out = np.empty_like(v)
            got = getattr(op, method)(v, out=out)
            assert np.shares_memory(got, out)
            assert np.array_equal(out, getattr(op, method)(v))
            assert np.array_equal(v, kept)
    for method in ("apply", "adjoint_apply"):
        own, out, work = v.copy(), np.empty_like(v), np.empty_like(v)
        got = getattr(sel, method)(own, out=out, work=work)
        assert np.shares_memory(got, out)
        assert np.array_equal(got, getattr(sel, method)(v))
    for method in ("apply", "adjoint_apply"):
        want = plain(method, v)
        assert np.array_equal(getattr(tree, method)(v), want)
        out, first, second = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        got = getattr(tree, method)(v, out=out, scratch=(first, second))
        assert np.shares_memory(got, out) and np.array_equal(got, want)
        assert np.array_equal(v, kept)
        for scratch in ((None, second), (first, None)):
            own = v.copy()
            pair = tuple(own if s is None else s for s in scratch)
            got = getattr(tree, method)(own, out=out, scratch=pair)
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
    d_plus = sel.d_plus
    misfits = [
        # slots, block size, system size, one at a time
        (prep, FactoredSelect(d_plus, sel.perms[:2])),
        (prep, FactoredSelect(d_plus[:4, :4], sel.perms)),
        (prep, FactoredSelect(d_plus, np.tile(np.arange(16), (4, 1)))),
        # a passive register that does not lead the block register
        (SystemControlledReflection(rng.normal(size=(8, 8)), passive=8),
         FactoredSelect(np.eye(4), np.tile(np.arange(8), (16, 1)))),
    ]
    for node, bad in misfits:
        with pytest.raises(DimensionMismatch, match="does not fit"):
            FusedReflection(node, bad)
    # the reflected register does not mark where the slot register starts:
    # slots and block size traded at its dimension fit, and the block reads
    # the same split
    traded = FusedReflection(prep, FactoredSelect(rng.normal(size=(16, 16)), sel.perms[:2]))
    assert np.abs(traded.block() - traded.dense()[:8, :8]).max() < 1e-13
