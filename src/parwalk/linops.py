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


class Permutation(LinOp):
    """Relabeling unitary |i> -> |targets[i]>."""

    def __init__(self, targets: np.ndarray):
        targets = np.asarray(targets, dtype=np.intp)
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

    def apply(self, v):
        for op in reversed(self.ops):
            v = op.apply(v)
        return v

    def adjoint_apply(self, v):
        for op in self.ops:
            v = op.adjoint_apply(v)
        return v


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
        self.a, self.b = a, b
        self.perms = perms
        self.inverses = np.argsort(perms, axis=1)
        self.slots, self.n_sys = perms.shape
        self.block_dim = a.shape[0]
        self.dim = self.slots * self.block_dim * self.n_sys

    def _run(self, v, a, b, perms):
        shape = v.shape
        w = v.reshape(shape[:-1] + (self.slots, self.block_dim, self.n_sys))
        out = np.matmul(a, w)
        for k, p in enumerate(perms):
            out[..., k, :, :] += np.matmul(b, w[..., k, :, :][..., p])
        return out.reshape(shape)

    def apply(self, v):
        return self._run(v, self.a, self.b, self.perms)

    def adjoint_apply(self, v):
        return self._run(v, self.a.conj().T, self.b.conj().T, self.inverses)


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
        self._layout = (outer, size, inner, self.n_sys)
        self.dim = self.n_sys * self.block_dim * size
        self._coef = np.divide(2.0, nrm2, out=np.zeros_like(nrm2), where=nrm2 >= 1e-28)

    def apply(self, v):
        shape = v.shape
        w = v.reshape(shape[:-1] + self._layout)
        proj = np.einsum("kax,...kpax->...px", self._ut[:, 0], w) * self._coef
        out = self._ut * proj[..., None, :, None, :]
        np.subtract(w, out, out=out)
        return out.reshape(shape)

    def adjoint_apply(self, v):
        return self.apply(v)


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
