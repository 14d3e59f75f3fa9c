"""Composable exact block encodings.

A block encoding presents a matrix L as the top-left block of a unitary V
on ancilla (x) system space: L = gamma (<0^c| (x) I) V (|0^c> (x) I), with
the ancilla register leading in the index layout. Constructions below track
two ancilla counts per encoding: the logical count actually used and the
count quoted by the source analysis for that construction; the logical
count never exceeds the quoted one.

The headline constructor build_ancilla_efficient_Q encodes the discriminant
matrix of a propose-accept/reject chain with gamma = 4B and at most
2 ceil(log kappa) + ceil(log B) + 2 ancilla qubits, where B counts energy
levels (padded to a power of two) and kappa proposal permutations. The route
follows from the proposal. When every permutation is an involution, the
fused route shares one select register between the accept and reject terms
(ceil(log kappa) + ceil(log B) + 2 qubits); it is built in factored form,
from one pair of 4B x 4B matrices and one Householder vector per system
state, so its cost grows linearly with the system size. Any other proposal
takes the generic route, which encodes the accept and reject parts
separately, combines them and reflectionizes the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    BoundViolated,
    DimensionMismatch,
    EnergyOutOfRange,
    NonPowerOfTwoDim,
    NormTooLarge,
    NotHermitian,
    ScaleMismatch,
    WeightMismatch,
)
from .linops import (
    DENSE_CAP,
    Adjoint,
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
    SystemControlledReflection,
    energy_shift,
    householder_to,
    xor_shift,
)
from .markov import GibbsModel
from .parchain import (
    AcceptanceRule,
    ProposalDecomposition,
    compress,
    ga_matrix,
    rejection_matrix,
)

UNITARY_TOL = 1e-10
EXTRACT_TOL = 1e-9
# Bytes one extraction chunk keeps alive while it passes through the
# encoding: half of a 2 MiB per-core L2 cache, so that the operator's own
# tables (reflection vectors, dilation pairs, permutations) stay cached
# beside it. A chunk of w columns holds up to CHUNK_ARRAYS arrays of
# w x op.dim floats at once: the operand of a node, its output and the
# partial products of the factored select. In a sweep of the chunk's input
# array over 128 KiB to 2 MiB at n = 5, 6, 7, 256 KiB (this budget) was
# fastest or within noise of it, and 1-2 MiB were slowest (see the README).
EXTRACT_BUDGET = 2**20
CHUNK_ARRAYS = 4


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


def _pow2_pad(b: int) -> int:
    return 1 << _ceil_log2(b)


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary op on 2^anc_qubits * sys_dim whose |0...0> ancilla block is
    the encoded matrix divided by gamma."""

    sys_dim: int
    anc_qubits: int
    paper_anc: int
    gamma: float
    op: LinOp

    def __post_init__(self):
        if self.op.dim != (1 << self.anc_qubits) * self.sys_dim:
            raise DimensionMismatch(
                f"operator dim {self.op.dim} != 2^{self.anc_qubits} * {self.sys_dim}"
            )
        if not self.gamma > 0:
            raise ScaleMismatch(f"scale must be positive, got {self.gamma!r}")
        if self.anc_qubits > self.paper_anc:
            raise BoundViolated(
                f"logical ancilla count {self.anc_qubits} exceeds the quoted "
                f"count {self.paper_anc}"
            )

    def dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        return self.op.dense(cap)


def identity_encoding(n: int) -> BlockEncoding:
    return BlockEncoding(sys_dim=n, anc_qubits=0, paper_anc=0, gamma=1.0, op=Identity(n))


def unitary_encoding(op: LinOp) -> BlockEncoding:
    """A unitary is its own 0-ancilla encoding with gamma = 1."""
    return BlockEncoding(sys_dim=op.dim, anc_qubits=0, paper_anc=0, gamma=1.0, op=op)


def extraction_chunk_width(sys_dim: int, op_dim: int) -> int:
    """Columns per extraction chunk: as many float64 vectors of length
    op_dim as keep CHUNK_ARRAYS arrays of them within EXTRACT_BUDGET, at
    least one and at most sys_dim."""
    return max(1, min(sys_dim, EXTRACT_BUDGET // (CHUNK_ARRAYS * 8 * op_dim)))


def _basis_columns(lo: int, hi: int, dim: int) -> np.ndarray:
    """Rows |0^c, x> for x in [lo, hi); ancillas lead, so that is index x."""
    vecs = np.zeros((hi - lo, dim))
    vecs[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
    return vecs


def extract_block(be: BlockEncoding) -> np.ndarray:
    """gamma * (<0^c| (x) I) V (|0^c> (x) I), without materializing V.

    V is applied to the basis columns |0^c, x> in consecutive chunks whose
    working set fits EXTRACT_BUDGET, so every pass over a chunk stays in
    cache and the working set does not grow with the number of columns.
    """
    n = be.sys_dim
    dim = be.op.dim
    width = extraction_chunk_width(n, dim)
    block = None
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        # no reference to the input is kept here, so it is freed as soon as
        # the first node has consumed it
        top = be.op.apply(_basis_columns(lo, hi, dim))[:, :n]
        if block is None:
            block = np.empty((n, n), dtype=top.dtype)
        block[:, lo:hi] = top.T
    block *= be.gamma
    return block


@dataclass(frozen=True)
class EncodingReport:
    max_abs_dev: float
    tol: float
    unitary_dev: float
    passed: bool


def verify_encoding(
    be: BlockEncoding, target: np.ndarray, tol: float = EXTRACT_TOL, seed: int = 7
) -> EncodingReport:
    """Compare the extracted block to target and spot-check unitarity of op
    on 8 random vectors, drawn and applied in extraction-sized chunks."""
    target = np.asarray(target)
    if target.shape != (be.sys_dim, be.sys_dim):
        raise DimensionMismatch(
            f"target shape {target.shape} vs system dim {be.sys_dim}"
        )
    dev = float(np.abs(extract_block(be) - target).max())
    rng = np.random.Generator(np.random.Philox(seed))
    width = extraction_chunk_width(be.sys_dim, be.op.dim)
    unitary_dev = 0.0
    for lo in range(0, 8, width):
        # consecutive draws from one generator give the same vectors as a
        # single draw of all 8
        v = rng.standard_normal((min(width, 8 - lo), be.op.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = be.op.apply(v)
        norm_dev = np.abs(np.linalg.norm(w, axis=1) - 1.0).max()
        round_dev = np.abs(be.op.adjoint_apply(w) - v).max()
        unitary_dev = max(unitary_dev, float(norm_dev), float(round_dev))
    return EncodingReport(
        max_abs_dev=dev,
        tol=tol,
        unitary_dev=unitary_dev,
        passed=bool(dev <= tol and unitary_dev <= UNITARY_TOL),
    )


class Isometry:
    """T: C^domain -> C^codomain with T^dag T = I, batched on the last axis."""

    kind: str
    domain_dim: int
    codomain_dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        if self.codomain_dim > cap:
            raise DimensionMismatch("isometry codomain exceeds the dense cap")
        return np.ascontiguousarray(self.apply(np.eye(self.domain_dim)).T)


class ZeroIsometry(Isometry):
    """|x> -> |0^c>|x>: pins the ancillas of a block encoding to zero."""

    kind = "zero"

    def __init__(self, sys_dim: int, anc_qubits: int):
        self.domain_dim = sys_dim
        self.codomain_dim = (1 << anc_qubits) * sys_dim

    def apply(self, v):
        out = np.zeros(v.shape[:-1] + (self.codomain_dim,), dtype=v.dtype)
        out[..., : self.domain_dim] = v
        return out

    def adjoint_apply(self, v):
        return v[..., : self.domain_dim]


class PlusIsometry(Isometry):
    """|x> -> rotated |+> on the reflection ancilla, |0^c> on the inherited
    ancillas: the fixed-point isometry returned by reflectionize."""

    kind = "plus"

    def __init__(self, sys_dim: int, inner_block: int, alpha: float, beta: float):
        self.domain_dim = sys_dim
        self.codomain_dim = 2 * inner_block
        self._block = inner_block
        self._alpha = alpha
        self._beta = beta

    def apply(self, v):
        out = np.zeros(v.shape[:-1] + (self.codomain_dim,), dtype=v.dtype)
        out[..., : self.domain_dim] = self._alpha * v
        out[..., self._block : self._block + self.domain_dim] = self._beta * v
        return out

    def adjoint_apply(self, v):
        top = v[..., : self.domain_dim]
        bot = v[..., self._block : self._block + self.domain_dim]
        return self._alpha * top + self._beta * bot


def prepare_unitary(weights: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix of dimension 2^ceil(log k) whose first column
    is sqrt(weights), zero-padded."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise BadWeights("weights must be a nonempty vector")
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights("weights must be nonnegative and sum to 1")
    dim = _pow2_pad(w.size)
    col = np.zeros(dim)
    col[: w.size] = np.sqrt(w)
    return householder_to(col)


def _pad_op(be: BlockEncoding, target_c: int) -> LinOp:
    # extra ancillas prepend in |0>; the block-encoding contract is unchanged
    if target_c == be.anc_qubits:
        return be.op
    return Kron(Identity(1 << (target_c - be.anc_qubits)), be.op)


def lcu(weights, encodings: list) -> BlockEncoding:
    """Linear combination sum_k w_k L_k of equal-scale encodings.

    Adds ceil(log kappa) logical ancillas (prepare/select/unprepare); the
    quoted circuit-level count for a permutation select is 2 ceil(log k) - 1.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != len(encodings):
        raise WeightMismatch(f"{w.size} weights for {len(encodings)} encodings")
    if not encodings:
        raise WeightMismatch("need at least one encoding")
    sys_dims = {be.sys_dim for be in encodings}
    if len(sys_dims) != 1:
        raise DimensionMismatch("operands must share the system dimension")
    gammas = {be.gamma for be in encodings}
    if max(gammas) - min(gammas) > 1e-12 * max(gammas):
        raise ScaleMismatch("lcu operands must share one scale")
    n = encodings[0].sys_dim
    gamma = encodings[0].gamma

    m = _ceil_log2(w.size)
    cmax = max(be.anc_qubits for be in encodings)
    block = (1 << cmax) * n
    ops = [_pad_op(be, cmax) for be in encodings]
    ops.extend(Identity(block) for _ in range((1 << m) - len(ops)))

    if m == 0:
        op = ops[0]
    else:
        padded_w = np.zeros(1 << m)
        padded_w[: w.size] = w
        prep = prepare_unitary(padded_w)
        op = Compose(
            Kron(DenseUnitary(prep.T), Identity(block)),
            Select(ops),
            Kron(DenseUnitary(prep), Identity(block)),
        )
    paper = max(2 * m - 1, 0) + max(be.paper_anc for be in encodings)
    return BlockEncoding(
        sys_dim=n, anc_qubits=m + cmax, paper_anc=paper, gamma=gamma, op=op
    )


def hadamard_be(be_l: BlockEncoding, be_m: BlockEncoding) -> BlockEncoding:
    """Entrywise product L (.) M through the copy isometry |x> -> |x>|x>;
    costs a full log N register, which the compressed variant avoids."""
    if be_l.sys_dim != be_m.sys_dim:
        raise DimensionMismatch("operands must share the system dimension")
    n = be_l.sys_dim
    if n & (n - 1):
        raise NonPowerOfTwoDim(f"copy register needs a power of two, got {n}")
    nbits = n.bit_length() - 1
    copy = xor_shift(n)
    dims = [1 << be_l.anc_qubits, 1 << be_m.anc_qubits, n, n]
    op = Compose(
        Embedded(Adjoint(copy), dims, [2, 3]),
        Embedded(be_l.op, dims, [0, 2]),
        Embedded(be_m.op, dims, [1, 3]),
        Embedded(copy, dims, [2, 3]),
    )
    return BlockEncoding(
        sys_dim=n,
        anc_qubits=be_l.anc_qubits + be_m.anc_qubits + nbits,
        paper_anc=be_l.paper_anc + be_m.paper_anc + nbits,
        gamma=be_l.gamma * be_m.gamma,
        op=op,
    )


def compressed_hadamard_be(
    be_lhat: BlockEncoding, be_m: BlockEncoding, energies: np.ndarray
) -> BlockEncoding:
    """L (.) M where L is energy-dependent with encoded table L-hat.

    The copy register shrinks to a level register: T_E |x> = |E_x>|x>,
    realized as the modular shift |e, x> -> |e + E_x, x>.
    """
    bt = be_lhat.sys_dim
    if bt & (bt - 1):
        raise NonPowerOfTwoDim(f"level register needs a power of two, got {bt}")
    e = np.asarray(energies, dtype=np.intp)
    if e.min() < 0 or e.max() >= bt:
        raise EnergyOutOfRange(
            f"energies must lie in [0, {bt - 1}], got [{e.min()}, {e.max()}]"
        )
    n = be_m.sys_dim
    if e.size != n:
        raise DimensionMismatch(f"{e.size} energies for system dimension {n}")
    bbits = bt.bit_length() - 1
    tag = energy_shift(e, bt)
    dims = [1 << be_lhat.anc_qubits, 1 << be_m.anc_qubits, bt, n]
    op = Compose(
        Embedded(Adjoint(tag), dims, [2, 3]),
        Embedded(be_lhat.op, dims, [0, 2]),
        Embedded(be_m.op, dims, [1, 3]),
        Embedded(tag, dims, [2, 3]),
    )
    return BlockEncoding(
        sys_dim=n,
        anc_qubits=be_lhat.anc_qubits + be_m.anc_qubits + bbits,
        paper_anc=be_lhat.paper_anc + be_m.paper_anc + bbits,
        gamma=be_lhat.gamma * be_m.gamma,
        op=op,
    )


def svd_block_encoding(lhat: np.ndarray) -> BlockEncoding:
    """One-ancilla encoding of a small real matrix at scale equal to its
    (power-of-two padded) dimension.

    Valid whenever ||lhat|| <= dim, which the 1-norm/inf-norm bound
    guarantees for tables with entries in [0, 1].
    """
    lhat = np.asarray(lhat, dtype=float)
    if lhat.ndim != 2 or lhat.shape[0] != lhat.shape[1]:
        raise DimensionMismatch("table must be square")
    b = lhat.shape[0]
    bt = _pow2_pad(b)
    padded = np.zeros((bt, bt))
    padded[:b, :b] = lhat
    u_, sig, vh_ = np.linalg.svd(padded / bt)
    if sig.max() > 1 + 1e-12:
        raise NormTooLarge(f"singular value {sig.max():.6f} exceeds 1 after scaling")
    sig = np.clip(sig, 0.0, 1.0)
    comp = np.sqrt(1.0 - sig**2)
    rots = np.stack(
        [np.array([[s, c], [c, -s]]) for s, c in zip(sig, comp)], axis=0
    )
    op = Compose(
        Kron(Identity(2), DenseUnitary(u_)),
        SystemControlled(rots),
        Kron(Identity(2), DenseUnitary(vh_)),
    )
    return BlockEncoding(sys_dim=bt, anc_qubits=1, paper_anc=1, gamma=float(bt), op=op)


def left_multiply_unitary(be: BlockEncoding, u: LinOp) -> BlockEncoding:
    """Encoding of u L with unchanged parameters."""
    if u.dim != be.sys_dim:
        raise DimensionMismatch(f"unitary dim {u.dim} vs system dim {be.sys_dim}")
    op = Compose(Kron(Identity(1 << be.anc_qubits), u), be.op)
    return BlockEncoding(
        sys_dim=be.sys_dim,
        anc_qubits=be.anc_qubits,
        paper_anc=be.paper_anc,
        gamma=be.gamma,
        op=op,
    )


def rescale_encoding(be: BlockEncoding, gamma: float) -> BlockEncoding:
    """Re-express the encoding at a larger scale by damping the block with
    a one-qubit rotation; the scale can only grow."""
    if gamma < be.gamma * (1 - 1e-12):
        raise ScaleMismatch(f"cannot shrink scale {be.gamma} to {gamma}")
    if abs(gamma - be.gamma) <= 1e-12 * gamma:
        return be
    sig = be.gamma / gamma
    rot = np.array(
        [[sig, math.sqrt(1 - sig**2)], [math.sqrt(1 - sig**2), -sig]]
    )
    block = be.op.dim
    op = Compose(
        Kron(DenseUnitary(rot), Identity(block)), Kron(Identity(2), be.op)
    )
    return BlockEncoding(
        sys_dim=be.sys_dim,
        anc_qubits=be.anc_qubits + 1,
        paper_anc=be.paper_anc + 1,
        gamma=gamma,
        op=op,
    )


def combine_two(be_a: BlockEncoding, be_b: BlockEncoding) -> BlockEncoding:
    """Sum L_A + L_B: one extra ancilla qubit, doubled scale."""
    if be_a.sys_dim != be_b.sys_dim:
        raise DimensionMismatch("operands must share the system dimension")
    gamma = max(be_a.gamma, be_b.gamma)
    be_a = rescale_encoding(be_a, gamma)
    be_b = rescale_encoding(be_b, gamma)
    if abs(be_a.gamma - be_b.gamma) > 1e-9 * gamma:
        raise ScaleMismatch(f"scales {be_a.gamma} and {be_b.gamma} differ after padding")
    c = max(be_a.anc_qubits, be_b.anc_qubits)
    block = (1 << c) * be_a.sys_dim
    h = DenseUnitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    op = Compose(
        Kron(h, Identity(block)),
        Select([_pad_op(be_a, c), _pad_op(be_b, c)]),
        Kron(h, Identity(block)),
    )
    return BlockEncoding(
        sys_dim=be_a.sys_dim,
        anc_qubits=c + 1,
        paper_anc=max(be_a.paper_anc, be_b.paper_anc) + 1,
        gamma=2.0 * gamma,
        op=op,
    )


def reflectionize(be: BlockEncoding, tol: float = EXTRACT_TOL):
    """Turn an encoding of a hermitian matrix into a reflection encoding.

    Returns (w, plus_isometry) with w.op an involution, w.gamma = 2 gamma,
    one extra ancilla qubit, and plus_isometry^dag w plus_isometry equal to
    the encoded matrix divided by the old gamma.

    The off-diagonal pairing |0><1| (x) U + |1><0| (x) U^dag has a zero
    |0>-ancilla block, so the new qubit is conjugated by a rotation of angle
    pi/12: the |0> block becomes cos(pi/12) sin(pi/12) (U + U^dag), and
    2 cos sin = 1/2 supplies exactly the doubled scale.
    """
    l = extract_block(be)
    herm_dev = np.abs(l - l.conj().T).max()
    if herm_dev > tol * max(1.0, np.abs(l).max()):
        raise NotHermitian(f"encoded block deviates from hermitian by {herm_dev:.3e}")
    block = be.op.dim
    theta = math.pi / 12.0
    g = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    flip = DenseUnitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w_raw = Compose(
        Select([be.op, Adjoint(be.op)]),
        Kron(flip, Identity(block)),
    )
    op = Compose(
        Kron(DenseUnitary(g.T), Identity(block)),
        w_raw,
        Kron(DenseUnitary(g), Identity(block)),
    )
    w = BlockEncoding(
        sys_dim=be.sys_dim,
        anc_qubits=be.anc_qubits + 1,
        paper_anc=be.paper_anc + 1,
        gamma=2.0 * be.gamma,
        op=op,
    )
    # G^dag |+> = ((cos + sin)/sqrt2, (cos - sin)/sqrt2)
    alpha = (g[0, 0] + g[1, 0]) / math.sqrt(2.0)
    beta = (g[0, 0] - g[1, 0]) / math.sqrt(2.0)
    iso = PlusIsometry(be.sys_dim, block, alpha, beta)
    return w, iso


def norm_bound(x: np.ndarray):
    """Geometric-mean bound sqrt(||X||_1 ||X||_inf) on the spectral norm;
    returns (bound, holds)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    bound = math.sqrt(ax.sum(axis=0).max() * ax.sum(axis=1).max())
    spectral = np.linalg.norm(x, 2)
    return float(bound), bool(spectral <= bound + 1e-9)


def _generic_reflection(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> BlockEncoding:
    """Matrix-free route: separate accept and reject encodings, combined and
    reflectionized. Meets the ancilla bound whenever kappa >= 2."""
    e = model.energies
    ga_t = compress(ga_matrix(model, rule))
    ja_t = compress(rejection_matrix(model, rule))
    be_ga = svd_block_encoding(ga_t)
    be_ja = svd_block_encoding(ja_t)

    perm_encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    s_enc = lcu(prop.weights, perm_encs)
    accept_part = compressed_hadamard_be(be_ga, s_enc, e)

    reject_terms = []
    for p, pinv in zip(prop.perms, prop.inverses):
        term = compressed_hadamard_be(be_ja, unitary_encoding(Permutation(p)), e)
        reject_terms.append(left_multiply_unitary(term, Permutation(pinv)))
    reject_part = lcu(prop.weights, reject_terms)

    combined = combine_two(accept_part, reject_part)
    w, _ = reflectionize(combined)
    # Quote the headline bound 2 ceil(log k) + ceil(log B) + 2; a larger
    # logical count is flagged by the anc_qubits <= paper_anc invariant
    # rather than silently normalized.
    m = _ceil_log2(prop.kappa)
    bbits = _pow2_pad(model.levels).bit_length() - 1
    return BlockEncoding(
        sys_dim=w.sys_dim,
        anc_qubits=w.anc_qubits,
        paper_anc=2 * m + bbits + 2,
        gamma=w.gamma,
        op=w.op,
    )


def _dilation(p: np.ndarray) -> np.ndarray:
    """Real symmetric involution [[p, c], [c, -p]] with c = sqrt(I - p^2),
    for a real symmetric p of spectral norm at most 1."""
    lam, vec = np.linalg.eigh(p)
    lam = np.clip(lam, -1.0, 1.0)
    c = (vec * np.sqrt(1.0 - lam**2)) @ vec.T
    return np.block([[p, c], [c, -p]])


def _fused_reflection(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> BlockEncoding:
    """Involution route: accept and reject terms share one select register.

    For each permutation slot k the hermitian matrix

        M_k = I_2 (x) G-hat (x) Pi_k + L^T (x) J-hat^T (x) I + L (x) J-hat (x) I

    on (direction, level, system) combines the accept table (with the
    permutation on the system) and the reject table (on a direction qubit
    marking whether the level register holds E_x or E_{pi_k x}); M_k / 4B
    is dilated into an involution. Every term commutes with I (x) Pi_k and
    Pi_k^2 = I, so on the +-1 eigenspaces of Pi_k the dilation is D_+ or
    D_-, the dilation of (+-I_2 (x) G-hat + L^T (x) J-hat^T + L (x) J-hat) / 4B,
    and the slot-k block is A (x) I + B (x) Pi_k with A, B = (D_+ +- D_-) / 2:
    one 4B x 4B pair for every k and every system size. A paired-energy
    state preparation, one Householder vector per system state, contracts
    the select, direction, and level registers against it.

    Saves the ceil(log kappa) qubits the generic route spends on a second
    select register, and is the only route meeting the ancilla bound at
    kappa = 1.
    """
    if not prop.all_involutions:
        raise DimensionMismatch("fused route needs involution permutations")
    n = model.n
    bt = _pow2_pad(model.levels)
    bbits = bt.bit_length() - 1
    kappa = prop.kappa
    m = _ceil_log2(kappa)
    k_dim = 1 << m

    ga_t = np.zeros((bt, bt))
    ga_t[: model.levels, : model.levels] = compress(ga_matrix(model, rule))
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = compress(rejection_matrix(model, rule))
    scale = 4.0 * bt

    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    hop = np.kron(lower.T, ja_t.T) + np.kron(lower, ja_t)
    acc = np.kron(np.eye(2), ga_t)
    d_plus = _dilation((acc + hop) / scale)
    d_minus = _dilation((hop - acc) / scale)
    perms = list(prop.perms) + [np.arange(n)] * (k_dim - kappa)
    sel = FactoredSelect((d_plus + d_minus) / 2, (d_plus - d_minus) / 2, perms)

    # paired-energy state t_x on (select, direction, level), prepared by the
    # reflection about e_0 - t_x
    e = model.energies
    rows = np.arange(n)
    u = np.zeros((n, k_dim * 2 * bt))
    u[:, 0] = 1.0
    for k, (w, p) in enumerate(zip(prop.weights, prop.perms)):
        amp = math.sqrt(0.5 * w)
        u[rows, (2 * k) * bt + e] -= amp
        u[rows, (2 * k + 1) * bt + e[p]] -= amp
    # registers: select, dilation, direction, level, system; the
    # preparation leaves the dilation register alone
    prep = SystemControlledReflection(u, passive=(k_dim, 2))

    # the preparation is a real symmetric involution, so it is its own adjoint
    op = Compose(prep, sel, prep)
    return BlockEncoding(
        sys_dim=n,
        anc_qubits=m + bbits + 2,
        paper_anc=2 * m + bbits + 2,
        gamma=scale,
        op=op,
    )


def build_ancilla_efficient_Q(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> BlockEncoding:
    """Reflection encoding of the discriminant matrix with gamma = 4B and
    at most 2 ceil(log kappa) + ceil(log B) + 2 ancilla qubits (B padded to
    a power of two).

    Proposals made of involutions take the fused route (ceil(log kappa) +
    ceil(log B) + 2 qubits); any other proposal takes the generic route.
    """
    if model.n != prop.n:
        raise DimensionMismatch(f"model dim {model.n} vs proposal dim {prop.n}")
    if prop.all_involutions:
        return _fused_reflection(model, prop, rule)
    return _generic_reflection(model, prop, rule)
