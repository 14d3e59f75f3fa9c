"""The fused encoding's matrix-free linear operator, blockenc.FusedReflection,
and its two factors, checked against dense numpy oracles: the factored
select (u = 0 makes the preparation the identity, so V is the select) and
the system-controlled reflection that prepares the paired-energy states."""

import math

import numpy as np
import pytest

from parwalk.blockenc import FusedReflection
from parwalk.errors import DimensionMismatch


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


def dense_matrix(op):
    """The matrix of op.apply, from the images of the basis vectors."""
    return np.ascontiguousarray(op.apply(np.eye(op.dim)).T)


def parity_parts(d_plus):
    """a and b: the entries of d_plus across which the parity of (dilation,
    direction) flips and keeps, zero elsewhere."""
    parity = np.repeat([0, 1, 1, 0], d_plus.shape[0] // 4)
    flips = parity[:, None] != parity
    return np.where(flips, d_plus, 0.0), np.where(flips, 0.0, d_plus)


def dense_select(d_plus, perms, partner):
    """a (x) I + b (x) sum_k |partner[k]><k| (x) Pi_k on (block, slot,
    system), built entry by entry: Pi_k |x> = |p_k x>."""
    slots, n = perms.shape
    swap = np.zeros((slots, n, slots, n))
    for k, (p, j) in enumerate(zip(perms, partner)):
        for x in range(n):
            swap[j, p[x], k, x] = 1.0
    a, b = parity_parts(d_plus)
    return np.kron(a, np.eye(slots * n)) + np.kron(b, swap.reshape(slots * n, -1))


def dense_prep(u):
    """I_2 (x) sum_x H_x (x) |x><x| on (dilation, reflected register,
    system), with H_x the reflection about u_x, the identity for u_x = 0."""
    n, d = u.shape
    prep = np.zeros((d, n, d, n))
    for x, ux in enumerate(u):
        nrm2 = ux @ ux
        prep[:, x, :, x] = np.eye(d) - (2.0 / nrm2) * np.outer(ux, ux) if nrm2 else np.eye(d)
    return np.kron(np.eye(2), prep.reshape(d * n, d * n))


# slots 0 and 1 hold a 3-cycle and its inverse, slot 2 an involution and
# slot 3 the identity, over 4 system states
CYCLE = np.array([1, 2, 0, 3])
PERMS = np.array([CYCLE, np.argsort(CYCLE), [3, 2, 1, 0], [0, 1, 2, 3]])
PARTNER = np.array([1, 0, 2, 3])


def reflection(rng, bt, perms, partner, d_plus=None, prep=True):
    """A fused reflection over bt levels with a random d_plus unless one is
    given, and random reflection vectors u with u_1 = 0 (the identity at
    x = 1), or u = 0 throughout when prep is False: V is then the select."""
    u = rng.normal(size=(perms.shape[1], 2 * bt * len(perms)))
    u[1] = 0.0
    if not prep:
        u[:] = 0.0
    if d_plus is None:
        d_plus = rng.normal(size=(4 * bt, 4 * bt))
    return FusedReflection(u, d_plus, perms, partner), u


def orthogonal_reflection(rng, n):
    """A real symmetric orthogonal n x n matrix: Q diag(+-1) Q^T."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * rng.choice([-1.0, 1.0], size=n)) @ q.T


def unitarity_defect(m):
    return np.linalg.norm(m.T @ m - np.eye(len(m)), 2)


def test_factored_select_matches_dense_blocks():
    # a (x) I + b (x) sum_k |k><k| (x) Pi_k with the block register leading
    # and the system register trailing, every slot its own partner
    rng = np.random.default_rng(9)
    perms = np.array([[1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1]])
    op, _ = reflection(rng, 1, perms, np.arange(3), prep=False)
    want = np.zeros((4, 3, 4, 4, 3, 4))
    a, b = parity_parts(op.d_plus)
    for k, p in enumerate(perms):
        pk = np.zeros((4, 4))
        pk[np.arange(4), p] = 1.0  # (P_k v)[x] = v[p[x]]
        want[:, k, :, :, k, :] = np.einsum("ij,xy->ixjy", a, np.eye(4)) + np.einsum(
            "ij,xy->ixjy", b, pk
        )
    want = want.reshape(48, 48)
    assert np.abs(dense_matrix(op) - want).max() < 1e-14
    assert np.abs(want - dense_select(op.d_plus, perms, np.arange(3))).max() == 0.0
    batch = rng.normal(size=(5, 48))
    kept = batch.copy()
    assert np.abs(op.apply(batch) - batch @ want.T).max() < 1e-13
    assert np.array_equal(batch, kept)
    u = np.zeros((4, 6))
    for bad in (op.d_plus[:2], op.d_plus[:3, :3], op.d_plus[0]):
        with pytest.raises(DimensionMismatch, match="square"):
            FusedReflection(u, bad, perms, np.arange(3))
    with pytest.raises(DimensionMismatch, match="shape"):
        FusedReflection(u, op.d_plus, perms[0], np.arange(3))


def test_factored_select_sends_the_b_term_to_the_partner_slot():
    # sum_k |k><k| (x) a (x) I + |partner[k]><k| (x) b (x) Pi_k, with
    # Pi_k |x> = |p_k x>, so slot k's system is gathered with p_k^-1
    rng = np.random.default_rng(16)
    op, u = reflection(rng, 1, PERMS, PARTNER, prep=False)
    a, b = parity_parts(op.d_plus)
    want = np.zeros((4, 4, 4, 4, 4, 4))
    for k, (p, j) in enumerate(zip(PERMS, PARTNER)):
        pim = np.zeros((4, 4))
        pim[p, np.arange(4)] = 1.0
        want[:, k, :, :, k, :] += np.einsum("ij,xy->ixjy", a, np.eye(4))
        want[:, j, :, :, k, :] += np.einsum("ij,xy->ixjy", b, pim)
    want = want.reshape(64, 64)
    assert np.abs(dense_matrix(op) - want).max() < 1e-14
    assert np.abs(want - dense_select(op.d_plus, PERMS, PARTNER)).max() == 0.0
    # with a symmetric d_plus the slot swap makes the operator symmetric
    sym = dense_matrix(FusedReflection(u, op.d_plus + op.d_plus.T, PERMS, PARTNER))
    assert np.abs(sym - sym.T).max() < 1e-14
    for bad in ([1, 2, 0, 3], [1, 1, 2, 3], [0, 1], [1, 0, 2, 4], [-2, 0, 2, 3]):
        with pytest.raises(DimensionMismatch, match="involution"):
            FusedReflection(u, op.d_plus, PERMS, np.array(bad))


def test_fused_reflection_matches_its_dense_factors():
    # prep . sel . prep on (dilation, direction, level, select, system):
    # prep leaves the dilation register alone and reflects the rest of the
    # block register with the select register, for each system state
    rng = np.random.default_rng(10)
    for bt in (1, 2):
        op, u = reflection(rng, bt, PERMS, PARTNER)
        prep = dense_prep(u)
        want = prep @ dense_select(op.d_plus, PERMS, PARTNER) @ prep
        assert np.abs(dense_matrix(op) - want).max() < 1e-13


def test_factored_select_residual_is_its_unitarity_defect():
    # with prep the identity, the residual is the select's: the larger of
    # its unitarity defect and the asymmetry of d_plus
    rng = np.random.default_rng(17)
    op, u = reflection(rng, 1, PERMS, PARTNER, orthogonal_reflection(rng, 4), prep=False)
    assert op.unitarity_residual() <= 1e-14
    assert unitarity_defect(dense_matrix(op)) <= 1e-14
    # a fault in a (parity flips) or in b (parity kept) is read at about its
    # size: at least the defect and the asymmetry of V, at most sqrt(2)
    # times the larger
    for i, j in ((3, 2), (0, 3)):
        op.d_plus[i, j] += 1e-6
        v = dense_matrix(op)
        defect, asymmetry = unitarity_defect(v), np.linalg.norm(v - v.T, 2)
        assert asymmetry > 0.5e-6
        worst = max(defect, asymmetry)
        assert worst - 1e-14 <= op.unitarity_residual() <= math.sqrt(2.0) * worst + 1e-14
        op.d_plus[i, j] -= 1e-6
    # a - b = -K (a + b) K entry by entry, so one product serves both signs
    a, b = parity_parts(op.d_plus)
    sign = np.array([1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(a - b, -sign[:, None] * (a + b) * sign)
    # partners that are not each other's inverses, or a non-involution
    # that is its own partner, leave the slot swap no involution
    unpaired = np.array([CYCLE, CYCLE, *PERMS[2:]])
    assert FusedReflection(u, op.d_plus, unpaired, PARTNER).unitarity_residual() == math.inf
    assert FusedReflection(u, op.d_plus, PERMS, np.arange(4)).unitarity_residual() == math.inf
    op.d_plus[0, 0] = np.nan
    assert op.unitarity_residual() == math.inf


def test_system_controlled_reflection_residual_is_its_unitarity_defect():
    # with d_plus = I and identity slots the select is exactly the
    # identity, so the residual is (1 + e_P)^2 - 1, e_P prep's defect
    rng = np.random.default_rng(18)
    op, _ = reflection(rng, 1, np.tile(np.arange(3), (2, 1)), np.arange(2), np.eye(4))
    op._coef[2] *= 1.0 + 1e-6

    def prep_defect():
        return unitarity_defect(op._reflect(np.eye(op.dim), None).T)

    assert abs(math.sqrt(1.0 + op.unitarity_residual()) - 1.0 - prep_defect()) <= 1e-14
    assert op.unitarity_residual() > 1e-7
    op._coef[0] = np.nan
    assert op.unitarity_residual() == math.inf


def test_fused_reflection_residual_bounds_its_unitarity_defect():
    rng = np.random.default_rng(19)
    # a symmetric orthogonal d_plus: every factor is a real reflection
    op, _ = reflection(rng, 2, PERMS, PARTNER, orthogonal_reflection(rng, 8))
    v = dense_matrix(op)
    assert op.unitarity_residual() <= 1e-14
    assert unitarity_defect(v) <= 1e-14 and np.abs(v - v.T).max() <= 1e-14
    # a fault in prep, in sel, and in both; the residual bounds both the
    # unitarity defect and the asymmetry of V
    faults = [[(op._coef, 0)], [(op.d_plus, 5)], [(op._coef, 2), (op.d_plus, 7)]]
    for eps in (1e-6, 1e-3):
        for fault in faults:
            for array, i in fault:
                array.flat[i] += eps
            v = dense_matrix(op)
            worst = max(unitarity_defect(v), np.linalg.norm(v - v.T, 2))
            assert worst - 1e-14 <= op.unitarity_residual() <= 5 * worst
            for array, i in fault:
                array.flat[i] -= eps


def test_permutations_must_be_bijections():
    for bad in ([0, 0, 1], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(DimensionMismatch, match="bijection"):
            FusedReflection(np.zeros((3, 4)), np.eye(4), np.array([[0, 1, 2], bad]), [0, 1])


def test_prepared_states_are_the_images_of_e0():
    # prep maps |0, x> to |t_x>|x> for u_x = e_0 - t_x, the dilation
    # register staying in 0; u_1 = 0 leaves |0, 1> as it is
    rng = np.random.default_rng(13)
    t = rng.normal(size=(3, 8))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    t[1] = np.eye(8)[0]
    u = -t
    u[:, 0] += 1.0
    op = FusedReflection(u, np.eye(8), np.tile(np.arange(3), (2, 1)), np.arange(2))
    e0 = np.zeros((3, op.dim))
    e0[np.arange(3), np.arange(3)] = 1.0
    images = op._reflect(e0, None).reshape(3, 2, 8, 3)
    assert np.abs(images[:, 1]).max() == 0.0
    got = np.stack([images[x, 0, :, x] for x in range(3)])
    assert np.abs(got - t).max() < 1e-15
    assert np.array_equal(got[1], np.eye(8)[0])


def test_system_controlled_reflection_matches_householder():
    # I_2 (x) sum_x H_x (x) |x><x| with the system register trailing, the
    # reflection broadcast over the leading dilation register
    rng = np.random.default_rng(11)
    t = rng.normal(size=(3, 4))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    t[1] = np.eye(4)[0]  # u = 0: identity fallback
    u = -t
    u[:, 0] += 1.0
    op = FusedReflection(u, np.eye(4), np.tile(np.arange(3), (2, 1)), np.arange(2))
    half = np.zeros((12, 12))
    for x, tx in enumerate(t):
        half[x::3, x::3] = householder_to(tx)
    want = np.kron(np.eye(2), half)
    assert np.abs(want - dense_prep(u)).max() < 1e-15
    d = op._reflect(np.eye(op.dim), None).T
    assert np.abs(d - want).max() < 1e-14
    assert np.abs(d @ d - np.eye(24)).max() < 1e-13


def test_passive_register_reflection_matches_embedded():
    # the leading dilation register is passive: the reflection acts on each
    # half of the operand alone, and its matrix is I_2 (x) its first quarter,
    # the Householder factors on (direction, level, select, system)
    rng = np.random.default_rng(11)
    for k_dim, bt, n, batch in ((8, 16, 16, (2, 3)), (1, 1, 2, (3,)), (2, 4, 8, (5,))):
        perms = np.tile(np.arange(n), (k_dim, 1))
        u = rng.normal(size=(n, 2 * bt * k_dim))
        u[0] = 0.0  # identity fallback
        op = FusedReflection(u, np.eye(4 * bt), perms, np.arange(k_dim))
        v = rng.normal(size=batch + (op.dim,))
        got = op._reflect(v, None).reshape(batch + (2, -1))
        for p in range(2):
            half = np.zeros_like(v).reshape(got.shape)
            half[..., p, :] = v.reshape(got.shape)[..., p, :]
            alone = op._reflect(half.reshape(v.shape), None).reshape(got.shape)
            assert np.array_equal(alone[..., p, :], got[..., p, :])
            assert not alone[..., 1 - p, :].any()
    d = op._reflect(np.eye(op.dim), None).T
    plain = d[: op.dim // 2, : op.dim // 2]
    assert np.abs(d - np.kron(np.eye(2), plain)).max() == 0.0
    assert np.abs(d - dense_prep(u)).max() < 1e-14


def test_destinations_give_the_allocating_results():
    # apply writes into out, the second scratch array and out in turn, and
    # overwrites the first scratch array; v may serve as either scratch
    # array, since only the first reflection reads it
    rng = np.random.default_rng(12)
    op, _ = reflection(rng, 2, PERMS, PARTNER)
    v = rng.normal(size=(3, op.dim))
    kept = v.copy()
    want = op.apply(v)
    assert np.array_equal(v, kept)
    out, first, second = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    got = op.apply(v, out=out, scratch=(first, second))
    assert np.shares_memory(got, out) and np.array_equal(got, want)
    assert np.array_equal(v, kept)
    for scratch in ((None, second), (first, None)):
        own = v.copy()
        pair = tuple(own if s is None else s for s in scratch)
        got = op.apply(own, out=out, scratch=pair)
        assert np.shares_memory(got, out) and np.array_equal(got, want)


def test_fused_reflection_block_is_its_zero_block():
    # paired slots, whose 3-cycle has a fixed point and whose identity slot
    # adds to the diagonal, and random permutations, each its own partner
    rng = np.random.default_rng(13)
    cases = [(2, PERMS, PARTNER)]
    for k_dim, bt, n in ((4, 2, 8), (1, 1, 2), (2, 4, 4)):
        perms = np.array([rng.permutation(n) for _ in range(k_dim)])
        cases.append((bt, perms, np.arange(k_dim)))
    for bt, perms, partner in cases:
        op, _ = reflection(rng, bt, perms, partner)
        n = perms.shape[1]
        assert op.n_sys == n
        assert np.abs(op.block() - dense_matrix(op)[:n, :n]).max() < 1e-13


def test_factored_select_sandwich_matches_dense():
    # the block is the select between the prepared states: slot 1 is a
    # 3-cycle with a fixed point, slot 2 the identity, so slots also add to
    # the diagonal, and every slot is its own partner
    rng = np.random.default_rng(12)
    perms = np.array([[1, 0, 3, 2], [1, 2, 0, 3], [0, 1, 2, 3]])
    op, u = reflection(rng, 1, perms, np.arange(3))
    prep = dense_prep(u)
    want = (prep @ dense_select(op.d_plus, perms, np.arange(3)) @ prep)[:4, :4]
    assert np.abs(op.block() - want).max() < 1e-14


def test_fused_reflection_rejects_a_select_off_its_layout():
    # u must hold one vector per system state over half the block register
    # times the slots: a slot count, a block size and a system size that it
    # does not fit, one at a time
    rng = np.random.default_rng(14)
    op, u = reflection(rng, 2, PERMS, PARTNER)
    misfits = [
        (u, op.d_plus, PERMS[:2], [1, 0]),
        (u, op.d_plus[:4, :4], PERMS, PARTNER),
        (u, op.d_plus, np.tile(np.arange(8), (4, 1)), PARTNER),
        (u.ravel(), op.d_plus, PERMS, PARTNER),
    ]
    for args in misfits:
        with pytest.raises(DimensionMismatch, match="do not fit"):
            FusedReflection(*args)
