"""The block encoding of a chain's discriminant matrix, and its checks.

A block encoding presents a matrix L as the top-left block of a unitary V
on ancilla (x) system space: L = gamma (<0^c| (x) I) V (|0^c> (x) I), with
the ancilla register leading in the index layout. An encoding records two
ancilla counts: the logical count it builds and the count quoted by the
source analysis; the logical count never exceeds the quoted one.

build_ancilla_efficient_Q encodes the discriminant matrix of a
propose-accept/reject chain with gamma = 4B and at most
2 ceil(log kappa) + ceil(log B) + 2 ancilla qubits, where B counts energy
levels (padded to a power of two) and kappa proposal permutations. The
Hadamard product with an energy-dependent table reads a ceil(log B)-qubit
level register instead of a ceil(log N)-qubit copy of the system state.
One fused route serves every symmetric proposal: the accept and reject
terms share one select register over the proposal's inverse-paired slots
(at most 2 kappa of them), so it needs ceil(log slots) + ceil(log B) + 2
qubits. Its operator, a FusedReflection, is one real symmetric involution
V = prep . sel . prep held in factored form, one 4B x 4B matrix and one
Householder vector per system state, so its cost grows linearly with the
system size; this module fixes its register layout (dilation, direction,
level, select, system), applies it, and certifies it. verify_encoding
reads its block from that structure; extract_block, which applies an
encoding to every basis column, is the oracle the tests compare it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, DimensionMismatch, ScaleMismatch
from .markov import GibbsModel
from .parchain import LevelTables, ProposalDecomposition

UNITARY_TOL = 1e-10
EXTRACT_TOL = 1e-9
# Bytes of a chunk's input array, the w x op.dim floats that full
# extraction (the oracle of the tests), the probes and the unitarity spot
# check pass through the encoding at once. A chunk holds up to four arrays
# of that size (the input, the output, and the gathered operand and the
# result of the factored select), half of a 2 MiB per-core L2 cache, so
# that the operator's own tables stay cached beside them. In a
# sweep of this bound over 128 KiB to 2 MiB at n = 5, 6, 7, 256 KiB was
# fastest or within noise of it, and 1-2 MiB were slowest (see the README).
CHUNK_BYTES = 2**18


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


def _pow2_pad(b: int) -> int:
    return 1 << _ceil_log2(b)


def fused_ancillas(slots: int, levels: int) -> int:
    """Ancillas the fused route builds over its select slots (kappa for an
    involutive proposal): select ceil(log slots), dilation 1, direction 1
    and level ceil(log B)."""
    return _ceil_log2(slots) + _ceil_log2(levels) + 2


def paper_ancillas(kappa: int, levels: int) -> int:
    """The quoted count 2 ceil(log kappa) + ceil(log B) + 2: the fused
    count plus a second select register."""
    return fused_ancillas(kappa, levels) + _ceil_log2(kappa)


class FusedReflection:
    """V = prep . sel . prep, matrix-free, on the registers (dilation,
    direction, level, select, system), the system trailing; apply acts on
    the last axis of an array, so one call serves a batch of vectors.

    prep = I_2 (x) sum_x (I - 2 u_x u_x^T / |u_x|^2) (x) |x><x| reflects
    (direction, level, select) for every system state x, the identity
    where |u_x|^2 < 1e-28, and leaves the dilation register alone; u is
    the (n_sys, d) array of the vectors u_x.

    sel = a (x) I + b (x) P on (block, select, system), with the block
    register (dilation, direction, level) and the slot swap P = sum_k
    |partner[k]><k| (x) Pi_k, Pi_k |x> = |perms[k][x]>, for partner an
    involution on the slots. a and b are the entries of the square d_plus
    across which the parity K = (-1)^(dilation xor direction) flips and
    keeps, a = (d_plus - K d_plus K) / 2 and b = (d_plus + K d_plus K) / 2.
    When slot partner[k] holds the inverse of perms[k], P is a symmetric
    involution, on whose +-1 eigenspaces sel is a + b = d_plus and
    a - b = -K d_plus K.

    Each Householder factor is a real symmetric involution by construction
    and P, with the slots paired, a symmetric permutation, so V is a real
    symmetric involution when d_plus is one: apply then serves as its own
    adjoint, and unitarity_residual bounds both how far V is from
    orthogonal and how far from symmetric.
    """

    def __init__(self, u, d_plus, perms, partner):
        d_plus = np.asarray(d_plus, dtype=float)
        if d_plus.ndim != 2 or d_plus.shape[0] != d_plus.shape[1] or d_plus.shape[0] % 4:
            raise DimensionMismatch(
                "d_plus must be square over a (dilation, direction, level) register"
            )
        perms = np.asarray(perms, dtype=np.intp)
        if perms.ndim != 2:
            raise DimensionMismatch("expected permutations of shape (slots, n_sys)")
        if np.any(np.sort(perms, axis=-1) != np.arange(perms.shape[-1])):
            raise DimensionMismatch("each permutation must be a bijection on {0..n_sys-1}")
        self.slots, self.n_sys = perms.shape
        slots = np.arange(self.slots)
        partner = np.asarray(partner, dtype=np.intp)
        if partner.shape != slots.shape or not (
            np.all((partner >= 0) & (partner < self.slots))
            and np.array_equal(partner[partner], slots)
        ):
            raise DimensionMismatch("partner must be an involution on the slots")
        self.block_dim = d_plus.shape[0]
        # prep reflects (direction, level, select): half the block register
        # times the select register
        u = np.asarray(u, dtype=float)
        fit = (self.n_sys, self.block_dim // 2 * self.slots)
        if u.shape != fit:
            raise DimensionMismatch(
                f"reflection vectors of shape {u.shape} do not fit the select: "
                f"expected {fit}"
            )
        self.d_plus, self.perms, self.partner = d_plus, perms, partner
        self.dim = 2 * u.size
        # (P v)[j, x] = v[partner[j], perms[partner[j]]^-1 [x]]: the gather of
        # the select over the flattened (select, system) axis
        self._gather = (
            partner[:, None] * self.n_sys + np.argsort(perms, axis=1)[partner]
        ).ravel()
        nrm2 = np.einsum("xa,xa->x", u, u)
        # stored as a contiguous u^T, in the operand layout
        self._ut = np.ascontiguousarray(u.T)
        self._coef = np.divide(2.0, nrm2, out=np.zeros_like(nrm2), where=nrm2 >= 1e-28)

    def _reflect(self, v, out):
        """prep v, written to out (a new array when None), a C-contiguous
        array of v's shape that does not overlap v. The reflection
        broadcasts over the dilation register instead of moving it."""
        shape = v.shape
        w = v.reshape(shape[:-1] + (2,) + self._ut.shape)
        proj = np.einsum("ax,...pax->...px", self._ut, w)
        proj *= self._coef
        res = np.multiply(
            self._ut, proj[..., None, :],
            out=None if out is None else out.reshape(w.shape),
        )
        np.subtract(w, res, out=res)
        return res.reshape(shape)

    def _select(self, v, out, work):
        """sel v, written to out (a new array when None). work receives the
        gathered operand, and v is overwritten as well; out, work and v are
        C-contiguous of one shape, and none overlaps another.

        With m = P v gathered over (select, system) in one np.take, rows of
        even parity read [m_E; v_O] and rows of odd parity [v_E; m_O]
        through their rows of d_plus: three products of (rows x block_dim)
        by (block_dim x slots n_sys), whatever the number of slots."""
        shape = v.shape
        w = v.reshape(shape[:-1] + (self.block_dim, self.slots * self.n_sys))
        # the gather is a bijection built from checked ones, so clip never
        # clips; it spares take the buffered copy that mode="raise" makes
        m = np.take(w, self._gather, axis=-1, out=work.reshape(w.shape), mode="clip")
        if out is None:
            out = np.empty(shape)
        res = out.reshape(w.shape)
        d, q = self.d_plus, self.block_dim // 4
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

    def apply(self, v, out=None, scratch=None):
        """V v. out and scratch, when given, are an array and a pair of
        arrays, all C-contiguous of v's shape and none overlapping another;
        v may be one of the pair. The result is written to out and
        returned; without them, v is left as it was."""
        # prep writes to out, sel to the second scratch array and prep again
        # to out; sel also overwrites its operand and the first scratch
        # array. Only the first prep reads v, so v may serve as either
        first = self._reflect(v, out)
        work, res = (np.empty_like(first), None) if scratch is None else scratch
        return self._reflect(self._select(first, res, work), first)

    def unitarity_residual(self) -> float:
        """An upper bound on ||V^T V - I||_2 and on ||V - V^T||_2, from the
        arrays apply reads: O(n_sys d + block_dim^3) against O(dim) for one
        apply.

        prep: H_x^T H_x - I = c_x (c_x |u_x|^2 - 2) u_x u_x^T has rank 1,
        and the factors act on disjoint system states, so e_P = max_x
        |s_x (s_x - 2)| with s_x = c_x |u_x|^2 is ||prep^T prep - I||_2.
        sel: inf unless the gather is an involution, that is P is
        symmetric, an exact check in O(slots n_sys). Then sel is d_plus
        and -K d_plus K on P's +-1 eigenspaces, so e_S = max(||d_plus^T
        d_plus - I||_2, ||d_plus - d_plus^T||_F) bounds ||sel^T sel - I||_2
        and ||sel - sel^T||_2. With prep^T prep = I + E_P and sel^T sel =
        I + E_S, V^T V - I = E_P + prep^T (E_S + sel^T E_P sel) prep, of
        norm at most (1 + e_P)^2 (1 + e_S) - 1, which also bounds V - V^T =
        prep (sel - sel^T) prep."""
        ut = self._ut
        scaled = self._coef * np.einsum("ax,ax->x", ut, ut)
        res = np.abs(scaled * (scaled - 2.0))
        e_p = float(res.max()) if np.isfinite(res).all() else math.inf
        g, d = self._gather, self.d_plus
        if not (np.array_equal(g[g], np.arange(g.size)) and np.isfinite(d).all()):
            return math.inf
        defect = np.abs(np.linalg.eigvalsh(d.T @ d - np.eye(self.block_dim))).max()
        e_s = max(float(defect), float(np.linalg.norm(d - d.T)))
        return (1.0 + e_p) ** 2 * (1.0 + e_s) - 1.0

    def block(self) -> np.ndarray:
        """The (n_sys, n_sys) |0>-block, read from the arrays without running
        apply. prep maps |0, x> to |r_x>|x>, r_x = e_0 - c_x u_x[0] u_x, with
        the dilation register in |0>, and it is a real symmetric involution,
        so the block is

            sum_k r_y[k]^T a00 r_x[k] [y = x]
                  + r_y[partner[k]]^T b00 r_x[k] [y = perms[k][x]]

        with r_x[k] the (direction, level) values of r_x at slot k and a00,
        b00 the corners of a and b on dilation 0: O(n_sys slots d^2)."""
        ut, n, d = self._ut, self.n_sys, self.block_dim // 2
        r = -(self._coef * ut[0]) * ut
        r[0] += 1.0
        # (n_sys, slots, d): the slot register follows (direction, level)
        r = np.ascontiguousarray(r.T.reshape(n, d, self.slots).transpose(0, 2, 1))
        corner = self.d_plus[:d, :d]
        # on dilation 0 the parity is the direction
        direction = np.repeat([0, 1], self.block_dim // 4)
        flips = direction[:, None] != direction
        a_r = r @ np.where(flips, corner, 0.0).T
        b_r = r @ np.where(flips, 0.0, corner).T
        out = np.zeros((n, n))
        cols = np.arange(n)
        out[cols, cols] = np.einsum("xkd,xkd->x", r, a_r)
        # slot k links x to y = perms[k][x]; fixed points and identity
        # slots land on the diagonal, so the terms are accumulated
        r_k = r[self.perms, self.partner[:, None]]
        np.add.at(out, (self.perms, cols), np.einsum("kxd,xkd->kx", r_k, b_r))
        return out


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary op on 2^anc_qubits * sys_dim whose |0...0> ancilla block is
    the encoded matrix divided by gamma."""

    sys_dim: int
    anc_qubits: int
    paper_anc: int
    gamma: float
    op: FusedReflection

    def __post_init__(self):
        if (self.op.n_sys, self.op.dim) != (self.sys_dim, self.sys_dim << self.anc_qubits):
            raise DimensionMismatch(
                f"operator on {self.op.n_sys} system states of dim {self.op.dim} "
                f"!= 2^{self.anc_qubits} * {self.sys_dim}"
            )
        if not self.gamma > 0:
            raise ScaleMismatch(f"scale must be positive, got {self.gamma!r}")
        if self.anc_qubits > self.paper_anc:
            raise BoundViolated(
                f"logical ancilla count {self.anc_qubits} exceeds the quoted "
                f"count {self.paper_anc}"
            )


def extraction_chunk_width(sys_dim: int, op_dim: int) -> int:
    """Columns per extraction chunk: as many float64 vectors of length
    op_dim as fit CHUNK_BYTES, at least one and at most sys_dim."""
    return max(1, min(sys_dim, CHUNK_BYTES // (8 * op_dim)))


def _basis_columns(lo: int, hi: int, dim: int) -> np.ndarray:
    """Rows |0^c, x> for x in [lo, hi); ancillas lead, so that is index x."""
    vecs = np.zeros((hi - lo, dim))
    vecs[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
    return vecs


def extract_block(be: BlockEncoding) -> np.ndarray:
    """gamma * (<0^c| (x) I) V (|0^c> (x) I), without materializing V.

    V is applied to the basis columns |0^c, x> in consecutive chunks of at
    most CHUNK_BYTES, so every pass over a chunk stays in cache and the
    working set does not grow with the number of columns.
    """
    n = be.sys_dim
    dim = be.op.dim
    width = extraction_chunk_width(n, dim)
    block = np.empty((n, n))
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        # no reference to the input is kept here, so it is freed as soon as
        # the first reflection has consumed it
        block[:, lo:hi] = be.op.apply(_basis_columns(lo, hi, dim))[:, :n].T
    block *= be.gamma
    return block


# random system vectors v on which the real operator of a fused encoding is
# probed, since its block is read from the operator's arrays and not from
# apply
PROBES = 2
# random unit vectors of the unitarity spot check; the operator's arrays
# certify unitarity, and the spot vector ties apply to them
SPOT_VECTORS = 1


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, with no temporary."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _max_abs(x: np.ndarray) -> float:
    """max |x|, taken in place; x is overwritten."""
    return float(np.abs(x, out=x).max())


def _worst(*devs: float) -> float:
    """The largest deviation, NaN if any is NaN: the builtin max keeps its
    first argument when a later one is NaN, so a NaN output would pass."""
    return float(np.max(devs))


def _probe(be: BlockEncoding, target: np.ndarray, rng, work: np.ndarray):
    """Apply the operator to |0^c, v> for PROBES random unit vectors v, in
    chunks that run through the workspace arrays work[0..2], and return two
    deviations: the reflection deviation, the larger of | ||V|0,v>|| - 1 |
    and |V V|0,v> - |0,v>|, and the block deviation |gamma <0^c|V|0^c, v> -
    target v|."""
    n = be.sys_dim
    width = work.shape[1]
    reflection_dev = block_dev = 0.0
    for lo in range(0, PROBES, width):
        m = min(width, PROBES - lo)
        basis, image, spare = work[:3, :m]
        v = rng.standard_normal((m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        basis.fill(0.0)
        basis[:, :n] = v
        w = be.op.apply(basis, out=image, scratch=(basis, spare))
        top_dev = np.abs(be.gamma * w[:, :n] - v @ target.T).max()
        norm_dev = np.abs(_norms(w) - 1.0).max()
        w = be.op.apply(w, out=spare, scratch=(w, basis))
        w[:, :n] -= v
        reflection_dev = _worst(reflection_dev, norm_dev, _max_abs(w))
        block_dev = _worst(block_dev, top_dev)
    return reflection_dev, block_dev


def _spot_check(be: BlockEncoding, rng, work: np.ndarray) -> float:
    """The larger of | ||V v|| - 1 | and |V V v - v| over SPOT_VECTORS
    random unit vectors v, drawn into work[0] and applied in chunks through
    work[1..3]. V is certified symmetric to within its unitarity residual,
    so V V v stands for V^T V v."""
    width = work.shape[1]
    unitary_dev = 0.0
    for lo in range(0, SPOT_VECTORS, width):
        v, image, spare, gathered = work[:, : min(width, SPOT_VECTORS - lo)]
        # uniform on [-1/2, 1/2): once normalised, the same vectors as a
        # draw on [-1, 1), at a quarter of the cost of a Gaussian draw
        rng.random(out=v)
        v -= 0.5
        v /= _norms(v)[:, None]
        w = be.op.apply(v, out=image, scratch=(spare, gathered))
        norm_dev = np.abs(_norms(w) - 1.0).max()
        back = be.op.apply(w, out=spare, scratch=(w, gathered))
        back -= v
        unitary_dev = _worst(unitary_dev, norm_dev, _max_abs(back))
    return unitary_dev


def verify_workspace(sys_dim: int, op_dim: int) -> tuple[int, int, int]:
    """Shape of the one workspace block verify_encoding allocates: four
    arrays of a chunk of vectors of op_dim floats, which hold the vectors,
    their image, and the gathered operand and the result of the select.
    The probes use three, since only the first reflection of V reads its
    input; the spot vectors are read again after their round trip. A chunk
    is extraction_chunk_width vectors, but never more than the probes or
    the spot check apply at once, so no row of the block goes unused."""
    width = min(extraction_chunk_width(sys_dim, op_dim), max(PROBES, SPOT_VECTORS))
    return (4, width, op_dim)


@dataclass(frozen=True)
class EncodingReport:
    """Deviations found by verify_encoding."""

    max_abs_dev: float
    tol: float
    unitary_dev: float
    passed: bool
    probe_reflection_dev: float
    probe_block_dev: float


def verify_encoding(
    be: BlockEncoding, target: np.ndarray, tol: float = EXTRACT_TOL, seed: int = 7
) -> EncodingReport:
    """Compare the block of a fused encoding to target and check the
    unitarity of its operator.

    The block is read from the operator's arrays by FusedReflection.block
    in O(N slots (4B)^2); the real operator is then probed on PROBES random
    Gaussian vectors |0^c, v>, which must give a reflection (norm 1, V
    V|0,v> = |0,v>, within UNITARY_TOL) whose ancilla-0 part is target v /
    gamma (within tol). unitary_dev is the larger of the certificate
    FusedReflection.unitarity_residual, a bound on ||V^T V - I||_2 and
    ||V - V^T||_2 in O(N d + (4B)^3), and a spot check of apply on
    SPOT_VECTORS random vectors, uniform in each entry; it must be within
    UNITARY_TOL. The bound is at least the spot statistic of every unit
    vector, so the spot check only sees what apply does beyond the arrays.
    The probes and then the spot vectors are drawn from one SFC64(seed)
    generator. They share the workspace block verify_workspace, allocated
    once per call, so that their vectors allocate no arrays of op.dim
    floats."""
    target = np.asarray(target)
    if target.shape != (be.sys_dim, be.sys_dim):
        raise DimensionMismatch(
            f"target shape {target.shape} vs system dim {be.sys_dim}"
        )
    dev = float(np.abs(be.gamma * be.op.block() - target).max())
    # one chunk's arrays in one block: glibc keeps a block of that size for
    # the next call, where separate arrays were trimmed and faulted in
    # again (~970 minor faults per n = 7, B = 16 chain), and encode-n7 ran
    # ~15% slower in the benchmark. With four arrays no page of the encode-n7
    # chains faults in again; with three, the spot vector drawn a second
    # time after its round trip, ~350 did per chain, and encode-n7 ran
    # ~20% slower
    work = np.empty(verify_workspace(be.sys_dim, be.op.dim))
    # the probes and then the spot vectors, from one generator
    rng = np.random.Generator(np.random.SFC64(seed))
    reflection_dev, block_dev = _probe(be, target, rng, work)
    unitary_dev = _worst(be.op.unitarity_residual(), _spot_check(be, rng, work))
    return EncodingReport(
        max_abs_dev=dev,
        tol=tol,
        unitary_dev=unitary_dev,
        passed=bool(
            dev <= tol and block_dev <= tol
            and unitary_dev <= UNITARY_TOL and reflection_dev <= UNITARY_TOL
        ),
        probe_reflection_dev=reflection_dev,
        probe_block_dev=block_dev,
    )


def build_ancilla_efficient_Q(
    model: GibbsModel, prop: ProposalDecomposition, tables: LevelTables
) -> BlockEncoding:
    """Reflection encoding of the discriminant matrix with gamma = 4B (B
    padded to a power of two), from the chain's level tables.

    Accept and reject terms share one select register over the proposal's
    inverse-paired slots (prop.paired_slots()), where slot k' = partner[k]
    holds Pi_k^-1 at the weight of slot k. The select is

        A (x) I (x) I + B (x) sum_k |k'><k| (x) Pi_k

    on (dilation, direction, level, select, system). The slot swap
    sum_k |k'><k| (x) Pi_k is a symmetric involution, and on its +-1
    eigenspaces the select is D_+- = A +- B, the dilation of

        (+-I_2 (x) G-hat + L^T (x) J-hat^T + L (x) J-hat) / 4B

    on (direction, level): the accept table, and the reject table on a
    direction qubit marking whether the level register holds E_x or
    E_{p_k x}. So one 4B x 4B pair serves every slot and every system size.
    The direction sign negates the accept term and keeps the hopping terms,
    so D_- = -K D_+ K with K = (-1)^(dilation xor direction); A and B are
    then the entries of D_+ across which that parity flips and keeps, with
    exact zeros elsewhere, and the FusedReflection stores D_+ alone. A
    paired-energy state preparation, one Householder vector per system
    state, contracts the direction, level and select registers against it,
    and leaves the leading dilation register alone; for y = p_k x,
    slot k' of t_y holds the energies (E_y, E_x) that slot k of t_x holds
    in the other order, and G-hat is symmetric.

    The encoding uses ceil(log slots) + ceil(log B) + 2 ancilla qubits, at
    most the quoted 2 ceil(log kappa) + ceil(log B) + 2: an involutive
    proposal keeps its kappa slots, any other has at most 2 kappa slots
    with kappa >= 2 (a symmetric single permutation is an involution), and
    ceil(log 2 kappa) <= 2 ceil(log kappa) for kappa >= 2.
    """
    if model.n != prop.n:
        raise DimensionMismatch(f"model dim {model.n} vs proposal dim {prop.n}")
    if tables.ga.shape != (model.levels, model.levels):
        raise DimensionMismatch(f"tables {tables.ga.shape} vs {model.levels} levels")
    n = model.n
    bt = _pow2_pad(model.levels)
    weights, perms, partner = prop.paired_slots()
    slots = len(perms)
    k_dim = _pow2_pad(slots)

    ga_t = np.zeros((bt, bt))
    ga_t[: model.levels, : model.levels] = tables.ga
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = tables.rejection
    scale = 4.0 * bt

    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    hop = np.kron(lower.T, ja_t.T) + np.kron(lower, ja_t)
    acc = np.kron(np.eye(2), ga_t)
    # D_+ = [[top, c], [c, -top]] with c = sqrt(I - top^2), a real symmetric
    # involution, since top is real symmetric of spectral norm at most 1
    top = (acc + hop) / scale
    lam, vec = np.linalg.eigh(top)
    c = (vec * np.sqrt(1.0 - np.clip(lam, -1.0, 1.0) ** 2)) @ vec.T
    d_plus = np.block([[top, c], [c, -top]])

    # paired-energy state t_x on (direction, level, select), prepared by the
    # reflection about e_0 - t_x
    e = model.energies
    rows = np.arange(n)
    u = np.zeros((n, 2 * bt * k_dim))
    u[:, 0] = 1.0
    for k, (w, p) in enumerate(zip(weights, perms)):
        amp = math.sqrt(0.5 * w)
        u[rows, e * k_dim + k] -= amp
        u[rows, (bt + e[p]) * k_dim + k] -= amp

    return BlockEncoding(
        sys_dim=n,
        anc_qubits=fused_ancillas(slots, model.levels),
        paper_anc=paper_ancillas(prop.kappa, model.levels),
        gamma=scale,
        # padding slots hold the identity, each its own partner
        op=FusedReflection(
            u, d_plus,
            list(perms) + [np.arange(n)] * (k_dim - slots),
            np.concatenate([partner, np.arange(slots, k_dim)]),
        ),
    )
