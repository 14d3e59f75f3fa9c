"""Matrix-free linear operators used to assemble block-encoding unitaries.

Every operator exposes apply/adjoint_apply acting on the last axis of an
ndarray, so a single call can process a batch of vectors. Composite encodings
are trees of the primitives below; nothing here ever materializes a full
unitary unless dense() is called explicitly, and that is guarded by a size cap.
"""

from __future__ import annotations

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


class Identity(LinOp):
    def __init__(self, dim: int):
        self.dim = dim

    def apply(self, v):
        return v

    def adjoint_apply(self, v):
        return v


def _check_bijections(perms: np.ndarray) -> None:
    """Raise unless every row of perms is a bijection on {0..len-1}."""
    if np.any(np.sort(perms, axis=-1) != np.arange(perms.shape[-1])):
        raise DimensionMismatch("each permutation must be a bijection on {0..dim-1}")


class Permutation(LinOp):
    """Relabeling unitary |i> -> |targets[i]>."""

    def __init__(self, targets: np.ndarray):
        targets = np.asarray(targets, dtype=np.intp)
        if targets.ndim != 1:
            raise DimensionMismatch("expected a vector of targets")
        _check_bijections(targets)
        self.dim = targets.size
        self.targets = targets

    def apply(self, v):
        out = np.empty_like(v)
        out[..., self.targets] = v
        return out

    def adjoint_apply(self, v):
        return v[..., self.targets]


class DenseUnitary(LinOp):
    """Small explicit unitary block, applied by matmul."""

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("dense operator must be square")
        self.dim = mat.shape[0]
        self.mat = mat

    def apply(self, v):
        return v @ self.mat.T

    def adjoint_apply(self, v):
        return v @ self.mat.conj()


class Compose(LinOp):
    """Product of operators in matrix order: Compose(A, B) applies B first."""

    def __init__(self, *ops: LinOp):
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionMismatch(f"cannot compose operators of dims {sorted(dims)}")
        self.ops = ops
        self.dim = ops[0].dim

    def _run(self, ops, method, v, out, scratch):
        if out is None:
            for op in ops:
                v = getattr(op, method)(v)
            return v
        # the nodes write to out and scratch in turn, the first to out; only
        # the first reads v, so v itself may serve as scratch
        for i, op in enumerate(ops):
            v = getattr(op, method)(v, out=scratch if i % 2 else out)
        return v

    def apply(self, v, out=None, scratch=None):
        """With out (and scratch, for more than one node), every node must
        take out= as well; the result is the array returned, out or
        scratch."""
        return self._run(reversed(self.ops), "apply", v, out, scratch)

    def adjoint_apply(self, v, out=None, scratch=None):
        return self._run(self.ops, "adjoint_apply", v, out, scratch)


class Adjoint(LinOp):
    """Hermitian adjoint of a wrapped operator."""

    def __init__(self, op: LinOp):
        self.op = op
        self.dim = op.dim

    def apply(self, v):
        return self.op.adjoint_apply(v)

    def adjoint_apply(self, v):
        return self.op.apply(v)


class Kron(LinOp):
    """Tensor product A (x) B with A on the leading index block."""

    def __init__(self, a: LinOp, b: LinOp):
        self.a, self.b = a, b
        self.dim = a.dim * b.dim

    def _run(self, v, fa, fb):
        shape = v.shape
        w = v.reshape(shape[:-1] + (self.a.dim, self.b.dim))
        w = fb(w)
        w = np.moveaxis(fa(np.moveaxis(w, -2, -1)), -1, -2)
        return w.reshape(shape)

    def apply(self, v):
        return self._run(v, self.a.apply, self.b.apply)

    def adjoint_apply(self, v):
        return self._run(v, self.a.adjoint_apply, self.b.adjoint_apply)


class Select(LinOp):
    """Block-diagonal selector sum_k |k><k| (x) ops[k]."""

    def __init__(self, ops: list[LinOp]):
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionMismatch("selected blocks must share one dimension")
        self.ops = ops
        self.block_dim = ops[0].dim
        self.dim = len(ops) * self.block_dim

    def _run(self, v, method):
        shape = v.shape
        w = v.reshape(shape[:-1] + (len(self.ops), self.block_dim)).copy()
        for k, op in enumerate(self.ops):
            w[..., k, :] = getattr(op, method)(w[..., k, :])
        return w.reshape(shape)

    def apply(self, v):
        return self._run(v, "apply")

    def adjoint_apply(self, v):
        return self._run(v, "adjoint_apply")


class SystemControlled(LinOp):
    """sum_x A_x (x) |x><x|: a distinct small unitary on the leading register
    for every system basis state (system is the trailing index)."""

    def __init__(self, mats: np.ndarray):
        mats = np.asarray(mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch("expected array of shape (n_sys, d, d)")
        self.mats = mats
        self.n_sys = mats.shape[0]
        self.block_dim = mats.shape[1]
        self.dim = self.n_sys * self.block_dim

    def _run(self, v, mats):
        shape = v.shape
        w = v.reshape(shape[:-1] + (self.block_dim, self.n_sys))
        out = np.einsum("xab,...bx->...ax", mats, w)
        return out.reshape(shape)

    def apply(self, v):
        return self._run(v, self.mats)

    def adjoint_apply(self, v):
        return self._run(v, np.conj(np.swapaxes(self.mats, 1, 2)))


class FactoredSelect(LinOp):
    """sum_k |k><k| (x) (a (x) I + b (x) P_k), with (P_k v)[x] = v[perms[k][x]]
    on the trailing system register.

    One (a, b) pair shared by every select slot stands in for a dense
    per-slot block that commutes with the slot's system permutation.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, perms):
        a, b = np.asarray(a), np.asarray(b)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise DimensionMismatch("a and b must be square and of one shape")
        perms = np.asarray(perms, dtype=np.intp)
        if perms.ndim != 2:
            raise DimensionMismatch("expected permutations of shape (slots, n_sys)")
        _check_bijections(perms)
        self.a, self.b = a, b
        self.perms = perms
        self.inverses = np.argsort(perms, axis=1)
        self.slots, self.n_sys = perms.shape
        self.block_dim = a.shape[0]
        self.dim = self.slots * self.block_dim * self.n_sys

    def _run(self, v, a, b, perms, out=None):
        shape = v.shape
        w = v.reshape(shape[:-1] + (self.slots, self.block_dim, self.n_sys))
        if out is None:
            out = np.empty(shape, np.result_type(v, a, b))
        res = np.matmul(a, w, out=out.reshape(w.shape))
        # one slot of permuted input and one of its product, reused by every slot
        moved = np.empty(w.shape[:-3] + w.shape[-2:], w.dtype)
        prod = np.empty(moved.shape, res.dtype)
        for k, p in enumerate(perms):
            # p is a checked bijection, so clip never clips; it spares take
            # the buffered copy that mode="raise" makes for out
            np.take(w[..., k, :, :], p, axis=-1, out=moved, mode="clip")
            res[..., k, :, :] += np.matmul(b, moved, out=prod)
        return res.reshape(shape)

    def apply(self, v, out=None):
        """out, when given, is a C-contiguous array of v's shape that must
        not overlap v; the result is written there and returned."""
        return self._run(v, self.a, self.b, self.perms, out)

    def adjoint_apply(self, v, out=None):
        return self._run(v, self.a.conj().T, self.b.conj().T, self.inverses, out)

    def sandwich(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The (n_sys, n_sys) matrix M[y, x] = left_y^T (this operator)
        right_x for states that lie in the first d values of the block
        register of every slot, given as arrays of shape (n_sys, slots, d):

            M[y, x] = sum_k left_y[k]^T (a00 [y = x] + b00 [perms[k][y] = x]) right_x[k]

        with a00 and b00 the leading d x d corners of a and b. Costs
        O(n_sys slots d^2), against O(n_sys dim) for one apply."""
        d = right.shape[-1]
        a_right = right @ self.a[:d, :d].T
        b_right = right @ self.b[:d, :d].T
        out = np.zeros((self.n_sys, self.n_sys), np.result_type(left, right, self.a, self.b))
        cols = np.arange(self.n_sys)
        out[cols, cols] = np.einsum("xkd,xkd->x", left, a_right)
        # slot k links x to y = inverses[k][x]; fixed points and identity
        # slots land on the diagonal, so the terms are accumulated
        left_k = left[self.inverses, np.arange(self.slots)[:, None]]
        np.add.at(out, (self.inverses, cols), np.einsum("kxd,xkd->kx", left_k, b_right))
        return out


class SystemControlledReflection(LinOp):
    """sum_x (I - 2 u_x u_x^T / |u_x|^2) (x) |x><x|: a real Householder
    reflection on the leading register for every system basis state, given
    as the (n_sys, d) array of vectors u_x; the identity where |u_x|^2 <
    1e-28. Each factor is a symmetric involution, so the operator is its
    own adjoint.

    passive = (outer, size) inserts a register of size values, on which
    every factor is the identity, after the first outer values of the
    leading register: the operand layout is (outer, size, d // outer,
    n_sys). The reflection broadcasts over that register instead of moving
    it, so no copy of the operand is made; the default (1, 1) is the plain
    (d, n_sys) layout."""

    def __init__(self, u: np.ndarray, passive: tuple[int, int] = (1, 1)):
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise DimensionMismatch("expected reflection vectors of shape (n_sys, d)")
        outer, size = passive
        self.n_sys, self.block_dim = u.shape
        if self.block_dim % outer:
            raise DimensionMismatch(f"cannot split {self.block_dim} values after {outer}")
        inner = self.block_dim // outer
        nrm2 = np.einsum("xa,xa->x", u, u)
        # stored as a contiguous u^T, in the operand layout with the passive
        # register of size 1
        self._ut = np.ascontiguousarray(u.T).reshape(outer, 1, inner, self.n_sys)
        self.layout = (outer, size, inner, self.n_sys)
        self.dim = self.n_sys * self.block_dim * size
        self._coef = np.divide(2.0, nrm2, out=np.zeros_like(nrm2), where=nrm2 >= 1e-28)

    def prepared_states(self) -> np.ndarray:
        """The states r_x = H_x e_0 that the factors prepare from |0>, as an
        (n_sys, d) array over the leading register (passive register left
        out): e_0 - (2 u_x[0] / |u_x|^2) u_x."""
        ut = self._ut.reshape(self.block_dim, self.n_sys)
        states = -(self._coef * ut[0]) * ut
        states[0] += 1.0
        return states.T

    def apply(self, v, out=None):
        """out, when given, is a C-contiguous array of v's shape that must
        not overlap v; the result is written there and returned."""
        shape = v.shape
        w = v.reshape(shape[:-1] + self.layout)
        proj = np.einsum("kax,...kpax->...px", self._ut[:, 0], w)
        proj *= self._coef
        res = np.multiply(
            self._ut, proj[..., None, :, None, :],
            out=None if out is None else out.reshape(w.shape),
        )
        np.subtract(w, res, out=res)
        return res.reshape(shape)

    def adjoint_apply(self, v, out=None):
        return self.apply(v, out)


class Embedded(LinOp):
    """Lift an operator onto selected registers of a larger register layout.

    dims lists every register dimension in index order; axes names the
    registers the inner operator acts on, in the inner operator's own order.
    """

    def __init__(self, op: LinOp, dims: list[int], axes: list[int]):
        self.op = op
        self.dims = list(dims)
        self.axes = list(axes)
        self.dim = int(np.prod(self.dims))
        sub = int(np.prod([self.dims[a] for a in self.axes]))
        if sub != op.dim:
            raise DimensionMismatch(
                f"operator dim {op.dim} does not match selected registers ({sub})"
            )

    def _run(self, v, method):
        shape = v.shape
        w = v.reshape(shape[:-1] + tuple(self.dims))
        base = len(shape) - 1
        nreg = len(self.dims)
        src = [base + a for a in self.axes]
        dst = [base + nreg - len(self.axes) + i for i in range(len(self.axes))]
        w = np.moveaxis(w, src, dst)
        inter = w.shape
        w = w.reshape(inter[: nreg + base - len(self.axes)] + (self.op.dim,))
        w = getattr(self.op, method)(w)
        w = w.reshape(inter)
        w = np.moveaxis(w, dst, src)
        return w.reshape(shape)

    def apply(self, v):
        return self._run(v, "apply")

    def adjoint_apply(self, v):
        return self._run(v, "adjoint_apply")


def energy_shift(energies: np.ndarray, levels: int) -> Permutation:
    """Unitary completion of the energy tagging isometry |x> -> |E_x>|x>.

    Acts on (level register (x) system) as |e, x> -> |e + E_x mod levels, x>,
    hence maps |0, x> to |E_x, x>.
    """
    energies = np.asarray(energies, dtype=np.intp)
    n = energies.size
    e = np.arange(levels)[:, None]
    x = np.arange(n)[None, :]
    targets = ((e + energies[None, :]) % levels) * n + x
    return Permutation(targets.reshape(-1))


def xor_shift(n: int) -> Permutation:
    """Unitary completion of the copy isometry |x> -> |x>|x> for n a power of
    two: |a, x> -> |a XOR x, x>."""
    a = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    targets = (a ^ x) * n + x
    return Permutation(targets.reshape(-1))


def householder_to(target: np.ndarray) -> np.ndarray:
    """Real orthogonal involution mapping e_0 to the given unit vector.

    Reflection about (e_0 - target); reduces to the identity when target = e_0.
    Used to complete state-preparation columns deterministically.
    """
    target = np.asarray(target, dtype=float)
    e0 = np.zeros_like(target)
    e0[0] = 1.0
    u = e0 - target
    nrm2 = u @ u
    if nrm2 < 1e-28:
        return np.eye(target.size)
    return np.eye(target.size) - (2.0 / nrm2) * np.outer(u, u)
