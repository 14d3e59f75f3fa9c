"""Matrix-free operators of the fused reflection encoding.

The encoding V = prep . sel . prep is one FusedReflection node over two
others: a SystemControlledReflection prep, one Householder reflection per
system state, and a FactoredSelect sel, one square matrix shared by every
select slot plus the slot permutations. Each node exposes
apply/adjoint_apply acting on the last axis of an ndarray, so a single call
can process a batch of vectors, and bounds its own unitarity defect from
its arrays. Nothing here ever materializes a full unitary unless dense() is
called explicitly, and that is guarded by a size cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

# materialization guard for dense(); anything larger stays matrix-free
DENSE_CAP = 2**14


class LinOp:
    """Unitary operator on C^dim with batched apply on the last axis."""

    dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        if self.dim > cap:
            raise DimensionMismatch(
                f"refusing to materialize {self.dim}-dimensional operator (cap {cap})"
            )
        eye = np.eye(self.dim)
        # rows of apply(eye) are images of basis vectors, so transpose
        return np.ascontiguousarray(self.apply(eye).T)


def _hermitian_norm(m: np.ndarray) -> float:
    """Spectral norm of a hermitian matrix: its largest |eigenvalue|; inf
    when m has a non-finite entry."""
    if not np.all(np.isfinite(m)):
        return math.inf
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def _check_bijections(perms: np.ndarray) -> None:
    """Raise unless every row of perms is a bijection on {0..len-1}."""
    if np.any(np.sort(perms, axis=-1) != np.arange(perms.shape[-1])):
        raise DimensionMismatch("each permutation must be a bijection on {0..dim-1}")


class FactoredSelect(LinOp):
    """a (x) I + b (x) P on (block, slot, system), with the slot swap
    P = sum_k |partner[k]><k| (x) Pi_k, Pi_k |x> = |perms[k][x]> on the
    trailing system register, so that (Pi_k v)[perms[k][x]] = v[x].

    One square matrix d_plus, shared by every select slot, stands in for a
    dense per-slot block: a and b are its entries across which the parity
    K = (-1)^(dilation xor direction) of the block register (dilation,
    direction, level) flips and keeps, a = (d_plus - K d_plus K) / 2 and
    b = (d_plus + K d_plus K) / 2. partner, an involution on the slots (the
    identity by default), sends the b-term of slot k to slot partner[k];
    when slot partner[k] holds the inverse of perms[k], P is a symmetric
    involution, on whose +-1 eigenspaces the operator is a + b = d_plus and
    a - b = -K d_plus K.

    With m = P v gathered over (slot, system) in one np.take, rows of even
    parity read [m_E; v_O] and rows of odd parity [v_E; m_O] through their
    rows of d_plus: three products of (rows x block_dim) by (block_dim x
    slots n_sys), whatever the number of slots.
    """

    def __init__(self, d_plus: np.ndarray, perms, partner=None):
        d_plus = np.asarray(d_plus)
        if d_plus.ndim != 2 or d_plus.shape[0] != d_plus.shape[1] or d_plus.shape[0] % 4:
            raise DimensionMismatch(
                "d_plus must be square over a (dilation, direction, level) register"
            )
        perms = np.asarray(perms, dtype=np.intp)
        if perms.ndim != 2:
            raise DimensionMismatch("expected permutations of shape (slots, n_sys)")
        _check_bijections(perms)
        self.slots, self.n_sys = perms.shape
        slots = np.arange(self.slots)
        partner = slots if partner is None else np.asarray(partner, dtype=np.intp)
        if partner.shape != slots.shape or not (
            np.all((partner >= 0) & (partner < self.slots))
            and np.array_equal(partner[partner], slots)
        ):
            raise DimensionMismatch("partner must be an involution on the slots")
        self.d_plus = d_plus
        self.perms, self.partner = perms, partner
        # (P v)[j, x] = v[partner[j], perms[partner[j]]^-1 [x]], and
        # (P^T v)[j, x] = v[partner[j], perms[j][x]]: the gathers of apply
        # and adjoint_apply over the flattened (slot, system) axis
        base = partner[:, None] * self.n_sys
        self._gather = (base + np.argsort(perms, axis=1)[partner]).ravel()
        self._adjoint_gather = (base + perms).ravel()
        self.block_dim = d_plus.shape[0]
        self.dim = self.block_dim * self.slots * self.n_sys

    def _run(self, v, d, gather, out, work):
        shape, dtype = v.shape, np.result_type(v, d)
        if work is None:
            # a copy, in the dtype that the swap below writes back into it
            v, work = v.astype(dtype), np.empty(shape, dtype)
        w = v.reshape(shape[:-1] + (self.block_dim, self.slots * self.n_sys))
        # gather is a bijection built from checked ones, so clip never
        # clips; it spares take the buffered copy that mode="raise" makes
        m = np.take(w, gather, axis=-1, out=work.reshape(w.shape), mode="clip")
        if out is None:
            out = np.empty(shape, dtype)
        res = out.reshape(w.shape)
        q = self.block_dim // 4
        odd = slice(q, 3 * q)
        # the odd halves of m and w trade places through the rows that the
        # last product writes: m becomes [m_E; w_O] and w [w_E; m_O]
        np.copyto(res[..., odd, :], m[..., odd, :])
        np.copyto(m[..., odd, :], w[..., odd, :])
        np.copyto(w[..., odd, :], res[..., odd, :])
        np.matmul(d[:q], m, out=res[..., :q, :])
        np.matmul(d[3 * q :], m, out=res[..., 3 * q :, :])
        np.matmul(d[odd], w, out=res[..., odd, :])
        return out

    def apply(self, v, out=None, work=None):
        """out and work, when given, are C-contiguous arrays of v's shape
        and of the result's dtype that overlap neither v nor each other;
        the result is written to out and returned. work receives the
        gathered operand, and v is then overwritten as well; without work,
        v is left as it was."""
        return self._run(v, self.d_plus, self._gather, out, work)

    def adjoint_apply(self, v, out=None, work=None):
        return self._run(v, self.d_plus.conj().T, self._adjoint_gather, out, work)

    def unitarity_residual(self) -> float:
        """||S^dag S - I||_2 of this operator, from the arrays its apply
        reads: inf unless the gather of apply is an involution, that is P
        is symmetric, an exact check in O(slots n_sys). Then the operator
        is d_plus and -K d_plus K on P's +-1 eigenspaces, so the norm is
        ||d_plus^H d_plus - I||_2, one product of block_dim x block_dim
        matrices."""
        g = self._gather
        if not np.array_equal(g[g], np.arange(g.size)):
            return math.inf
        d = self.d_plus
        return _hermitian_norm(d.conj().T @ d - np.eye(self.block_dim))

    def sandwich(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The (n_sys, n_sys) matrix M[y, x] = left_y^T (this operator)
        right_x for states that lie in the first d values of the block
        register of every slot, given as arrays of shape (n_sys, slots, d):

            M[y, x] = sum_k left_y[k]^T a00 right_x[k] [y = x]
                      + left_y[partner[k]]^T b00 right_x[k] [y = perms[k][x]]

        with a00 and b00 the leading d x d corners of a and b. Costs
        O(n_sys slots d^2), against O(n_sys dim) for one apply."""
        d = right.shape[-1]
        corner = self.d_plus[:d, :d]
        # dilation xor direction of the leading d block values
        parity = np.repeat([0, 1, 1, 0], self.block_dim // 4)[:d]
        flips = parity[:, None] != parity
        a_right = right @ np.where(flips, corner, 0.0).T
        b_right = right @ np.where(flips, 0.0, corner).T
        out = np.zeros((self.n_sys, self.n_sys), np.result_type(left, right, corner))
        cols = np.arange(self.n_sys)
        out[cols, cols] = np.einsum("xkd,xkd->x", left, a_right)
        # slot k links x to y = perms[k][x]; fixed points and identity
        # slots land on the diagonal, so the terms are accumulated
        left_k = left[self.perms, self.partner[:, None]]
        np.add.at(out, (self.perms, cols), np.einsum("kxd,xkd->kx", left_k, b_right))
        return out


class SystemControlledReflection(LinOp):
    """sum_x (I - 2 u_x u_x^T / |u_x|^2) (x) |x><x|: a real Householder
    reflection on the leading register for every system basis state, given
    as the (n_sys, d) array of vectors u_x; the identity where |u_x|^2 <
    1e-28. Each factor is a symmetric involution, so the operator is its
    own adjoint.

    passive prepends a register of that many values on which every factor
    is the identity: the operand layout is (passive, d, n_sys). The
    reflection broadcasts over that register instead of moving it, so no
    copy of the operand is made; the default 1 is the plain (d, n_sys)
    layout."""

    def __init__(self, u: np.ndarray, passive: int = 1):
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise DimensionMismatch("expected reflection vectors of shape (n_sys, d)")
        self.n_sys, self.block_dim = u.shape
        nrm2 = np.einsum("xa,xa->x", u, u)
        # stored as a contiguous u^T, in the operand layout
        self._ut = np.ascontiguousarray(u.T)
        self.layout = (passive, self.block_dim, self.n_sys)
        self.dim = self.n_sys * self.block_dim * passive
        self._coef = np.divide(2.0, nrm2, out=np.zeros_like(nrm2), where=nrm2 >= 1e-28)

    def unitarity_residual(self) -> float:
        """||H^T H - I||_2, from the stored vectors and coefficients: for
        H_x = I - c_x u_x u_x^T, H_x^T H_x - I = c_x (c_x |u_x|^2 - 2) u_x
        u_x^T has rank 1 and norm |c_x |u_x|^2| |c_x |u_x|^2 - 2|, and the
        factors act on disjoint system states. O(n_sys d)."""
        ut = self._ut
        scaled = self._coef * np.einsum("ax,ax->x", ut, ut)
        res = np.abs(scaled * (scaled - 2.0))
        return float(res.max()) if np.isfinite(res).all() else math.inf

    def prepared_states(self) -> np.ndarray:
        """The states r_x = H_x e_0 that the factors prepare from |0>, as an
        (n_sys, d) array over the leading register (passive register left
        out): e_0 - (2 u_x[0] / |u_x|^2) u_x."""
        ut = self._ut
        states = -(self._coef * ut[0]) * ut
        states[0] += 1.0
        return states.T

    def apply(self, v, out=None):
        """out, when given, is a C-contiguous array of v's shape that must
        not overlap v; the result is written there and returned."""
        shape = v.shape
        w = v.reshape(shape[:-1] + self.layout)
        proj = np.einsum("ax,...pax->...px", self._ut, w)
        proj *= self._coef
        res = np.multiply(
            self._ut, proj[..., None, :],
            out=None if out is None else out.reshape(w.shape),
        )
        np.subtract(w, res, out=res)
        return res.reshape(shape)

    def adjoint_apply(self, v, out=None):
        return self.apply(v, out)


class FusedReflection(LinOp):
    """prep . sel . prep for a system-controlled reflection prep whose
    passive register leads the block register of the factored select sel,
    and whose reflected register holds the rest of the block register and
    then the select's slot register."""

    def __init__(self, prep: SystemControlledReflection, sel: FactoredSelect):
        passive, inner, n_sys = prep.layout
        if (
            sel.block_dim % passive
            or (sel.block_dim // passive * sel.slots, sel.n_sys) != (inner, n_sys)
        ):
            raise DimensionMismatch(
                f"select of shape {(sel.block_dim, sel.slots, sel.n_sys)} does "
                f"not fit the reflection layout {prep.layout}"
            )
        self.prep, self.sel = prep, sel
        self.n_sys = n_sys
        self.dim = prep.dim

    def _run(self, v, sel_method, out, scratch):
        # the nodes write to out, res and out in turn, and the select also
        # overwrites its operand and work; only the first node reads v, so
        # v itself may serve as work or res
        work, res = (None, None) if scratch is None else scratch
        first = self.prep.apply(v, out=out)
        if work is None:
            work = np.empty_like(first)
        return self.prep.apply(sel_method(first, out=res, work=work), out=first)

    def apply(self, v, out=None, scratch=None):
        """out and scratch, when given, are an array and a pair of arrays,
        all C-contiguous of v's shape and none overlapping another; v may
        be one of the pair. The result is written to out and returned."""
        return self._run(v, self.sel.apply, out, scratch)

    def adjoint_apply(self, v, out=None, scratch=None):
        return self._run(v, self.sel.adjoint_apply, out, scratch)

    def unitarity_residual(self) -> float:
        """An upper bound on ||V^dag V - I||_2 from the residuals e_P of
        prep and e_S of sel: with prep^dag prep = I + E_P and sel^dag sel =
        I + E_S, V^dag V - I = E_P + prep^dag (E_S + sel^dag E_P sel) prep,
        of norm at most (1 + e_P)^2 (1 + e_S) - 1. O(n_sys d + block_dim^3)
        against O(dim) for one apply."""
        e_p, e_s = self.prep.unitarity_residual(), self.sel.unitarity_residual()
        return (1.0 + e_p) ** 2 * (1.0 + e_s) - 1.0

    def block(self) -> np.ndarray:
        """The (n_sys, n_sys) |0>-block, read from the node arrays without
        running apply. prep maps |0, x> to |r_x>|x> with the passive register
        in |0>, and it is a real symmetric involution, so the block is
        sum_k r_y[k]^T a00 r_x[k] [y = x] + r_y[partner[k]]^T b00 r_x[k]
        [y = p_k(x)], with a00, b00 the corners of the select pair on the
        passive register's 0 value: O(n_sys slots d^2)."""
        _, inner, n = self.prep.layout
        slots = self.sel.slots
        r = self.prep.prepared_states().reshape(n, inner // slots, slots)
        r = np.ascontiguousarray(r.transpose(0, 2, 1))
        return self.sel.sandwich(r, r)
