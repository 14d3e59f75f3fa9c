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
from dataclasses import dataclass, replace

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
    ga_matrix,
    rejection_matrix,
)

UNITARY_TOL = 1e-10
EXTRACT_TOL = 1e-9
# Bytes one chunk of vectors keeps alive while it passes through the
# encoding, in full extraction (generic route, and the oracle of the tests),
# the probes and the unitarity spot check: half of a 2 MiB per-core L2
# cache, so that the operator's own tables (reflection vectors, dilation
# pairs, permutations) stay cached beside it. A chunk of w columns holds up
# to CHUNK_ARRAYS arrays of w x op.dim floats at once: the operand of a
# node, its output and the partial products of the factored select. In a
# sweep of the chunk's input array over 128 KiB to 2 MiB at n = 5, 6, 7,
# 256 KiB (this budget) was fastest or within noise of it, and 1-2 MiB were
# slowest (see the README).
EXTRACT_BUDGET = 2**20
CHUNK_ARRAYS = 4


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


def _pow2_pad(b: int) -> int:
    return 1 << _ceil_log2(b)


def fused_ancillas(kappa: int, levels: int) -> int:
    """Ancillas the fused route builds: select ceil(log kappa), dilation 1,
    direction 1 and level ceil(log B)."""
    return _ceil_log2(kappa) + _ceil_log2(levels) + 2


def paper_ancillas(kappa: int, levels: int) -> int:
    """The quoted count 2 ceil(log kappa) + ceil(log B) + 2: the fused
    count plus a second select register."""
    return fused_ancillas(kappa, levels) + _ceil_log2(kappa)


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


def _fused_parts(be: BlockEncoding):
    """(prep, sel) when be.op is the fused tree prep . sel . prep: one
    system-controlled reflection object on both sides of a factored select
    whose slots and block register match its layout; else None."""
    op = be.op
    if not (isinstance(op, Compose) and len(op.ops) == 3):
        return None
    prep, sel, last = op.ops
    if not (
        prep is last
        and isinstance(prep, SystemControlledReflection)
        and isinstance(sel, FactoredSelect)
    ):
        return None
    outer, size, inner, n_sys = prep.layout
    fits = (sel.slots, sel.block_dim, sel.n_sys, be.sys_dim) == (
        outer, size * inner, n_sys, n_sys
    )
    return (prep, sel) if fits else None


def _structured_block(be: BlockEncoding, prep, sel) -> np.ndarray:
    """gamma * (<0^c| (x) I) V (|0^c> (x) I) of the fused tree V = prep .
    sel . prep, read from the arrays the nodes apply.

    prep maps |0^c, x> to |r_x>|x> with the passive (dilation) register in
    |0>, and it is a real symmetric involution, so <0^c, y| prep is r_y^T;
    sel couples x only to x and to p_k(x). The block is therefore gamma
    sum_k r_y[k]^T (a00 [y = x] + b00 [p_k(y) = x]) r_x[k], with a00, b00
    the dilation-0 corners of the select pair: O(N kappa (4B)^2)."""
    outer, _, inner, n = prep.layout
    r = prep.prepared_states().reshape(n, outer, inner)
    return be.gamma * sel.sandwich(r, r)


# random system vectors v on which the real operator of a fused encoding is
# probed, since its block is read from the node arrays and not from apply
PROBES = 2
# random unit vectors of the unitarity spot check
SPOT_VECTORS = 8


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, with no temporary for a real array."""
    return np.sqrt(np.einsum("ij,ij->i", rows.conj(), rows).real)


def _max_abs(x: np.ndarray) -> float:
    """max |x|, taken in place where x is real; x is overwritten."""
    return float(np.abs(x, out=x if x.dtype.kind == "f" else None).max())


def _probe_fused(be: BlockEncoding, target: np.ndarray, seed: int, work: np.ndarray):
    """Apply the operator to |0^c, v> for PROBES random unit vectors v, in
    chunks that run through the workspace arrays work[0..2], and return two
    deviations: the reflection deviation, the larger of | ||V|0,v>|| - 1 |
    and |V V|0,v> - |0,v>|, and the block deviation |gamma <0^c|V|0^c, v> -
    target v|."""
    n = be.sys_dim
    # a stream of its own, apart from the spot check's
    rng = np.random.Generator(np.random.Philox(seed).jumped())
    width = work.shape[1]
    reflection_dev = block_dev = 0.0
    for lo in range(0, PROBES, width):
        m = min(width, PROBES - lo)
        basis, image, spare = work[:, :m]
        v = rng.standard_normal((m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        basis.fill(0.0)
        basis[:, :n] = v
        w = be.op.apply(basis, out=image, scratch=spare)
        top_dev = np.abs(be.gamma * w[:, :n] - v @ target.T).max()
        norm_dev = np.abs(_norms(w) - 1.0).max()
        w = be.op.apply(w, out=spare, scratch=basis)
        w[:, :n] -= v
        reflection_dev = max(reflection_dev, float(norm_dev), _max_abs(w))
        block_dev = max(block_dev, float(top_dev))
    return reflection_dev, block_dev


def _spot_check(be: BlockEncoding, seed: int, work: np.ndarray, fused: bool) -> float:
    """The larger of | ||V v|| - 1 | and |V^dag V v - v| over SPOT_VECTORS
    random unit vectors v, drawn into work[0] and applied in chunks through
    work[1] and work[2]. Only the nodes of the fused tree write into the
    workspace; any other operator returns new arrays."""
    # consecutive draws from one generator give the same vectors as a single
    # draw of all of them
    rng = np.random.Generator(np.random.SFC64(seed))
    width = work.shape[1]

    def run(method, x, out, scratch):
        return method(x, out=out, scratch=scratch) if fused else method(x)

    unitary_dev = 0.0
    for lo in range(0, SPOT_VECTORS, width):
        v, image, spare = work[:, : min(width, SPOT_VECTORS - lo)]
        rng.standard_normal(out=v)
        v /= _norms(v)[:, None]
        w = run(be.op.apply, v, image, spare)
        norm_dev = np.abs(_norms(w) - 1.0).max()
        back = run(be.op.adjoint_apply, w, spare, w)
        back -= v
        unitary_dev = max(unitary_dev, float(norm_dev), _max_abs(back))
    return unitary_dev


@dataclass(frozen=True)
class EncodingReport:
    """Deviations found by verify_encoding. The probe deviations are None
    where the block was extracted in full, which applies the operator to
    every basis column."""

    max_abs_dev: float
    tol: float
    unitary_dev: float
    passed: bool
    probe_reflection_dev: float | None = None
    probe_block_dev: float | None = None


def verify_encoding(
    be: BlockEncoding, target: np.ndarray, tol: float = EXTRACT_TOL, seed: int = 7
) -> EncodingReport:
    """Compare the encoded block to target and spot-check unitarity of op
    on SPOT_VECTORS random vectors, drawn and applied in extraction-sized
    chunks.

    The block of a fused encoding (prep . sel . prep, recognised from the
    operator tree) is read from the node arrays in O(N kappa (4B)^2); the
    real operator is then probed on PROBES random vectors |0^c, v>, which
    must give a reflection (norm 1, V V|0,v> = |0,v>, within UNITARY_TOL)
    whose ancilla-0 part is target v / gamma (within tol). Any other
    encoding is extracted in full by extract_block. The probes and the spot
    check share three chunk-sized workspace arrays, allocated once per call,
    so that their vectors allocate no arrays of op.dim floats."""
    target = np.asarray(target)
    if target.shape != (be.sys_dim, be.sys_dim):
        raise DimensionMismatch(
            f"target shape {target.shape} vs system dim {be.sys_dim}"
        )
    parts = _fused_parts(be)
    if parts is None:
        dev = float(np.abs(extract_block(be) - target).max())
    else:
        dev = float(np.abs(_structured_block(be, *parts) - target).max())
    # one chunk's operand, result and scratch array, in one block: glibc
    # keeps a block of that size for the next call, where three separate
    # arrays were trimmed and faulted in again (~970 minor faults per n = 7,
    # B = 16 chain), and encode-n7 ran ~15% slower in the benchmark
    work = np.empty((3, extraction_chunk_width(be.sys_dim, be.op.dim), be.op.dim))
    probes = (None, None) if parts is None else _probe_fused(be, target, seed, work)
    probes_ok = parts is None or (probes[0] <= UNITARY_TOL and probes[1] <= tol)
    unitary_dev = _spot_check(be, seed, work, fused=parts is not None)
    return EncodingReport(
        max_abs_dev=dev,
        tol=tol,
        unitary_dev=unitary_dev,
        passed=bool(dev <= tol and unitary_dev <= UNITARY_TOL and probes_ok),
        probe_reflection_dev=probes[0],
        probe_block_dev=probes[1],
    )


def _checked_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise BadWeights("weights must be a nonempty vector")
    # written so that a NaN weight fails
    if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-12):
        raise BadWeights("weights must be nonnegative and sum to 1")
    return w


def prepare_unitary(weights: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix of dimension 2^ceil(log k) whose first column
    is sqrt(weights), zero-padded."""
    w = _checked_weights(weights)
    dim = _pow2_pad(w.size)
    col = np.zeros(dim)
    col[: w.size] = np.sqrt(w)
    return householder_to(col)


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
    w = _checked_weights(w)
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
    # extra ancillas prepend in |0>; the block-encoding contract is unchanged
    ops = [
        be.op if be.anc_qubits == cmax
        else Kron(Identity(1 << (cmax - be.anc_qubits)), be.op)
        for be in encodings
    ]
    ops.extend(Identity(block) for _ in range((1 << m) - len(ops)))

    if m == 0:
        op = ops[0]
    else:
        prep = prepare_unitary(w)
        op = Compose(
            Kron(DenseUnitary(prep.T), Identity(block)),
            Select(ops),
            Kron(DenseUnitary(prep), Identity(block)),
        )
    paper = max(2 * m - 1, 0) + max(be.paper_anc for be in encodings)
    return BlockEncoding(
        sys_dim=n, anc_qubits=m + cmax, paper_anc=paper, gamma=gamma, op=op
    )


def _tagged_product(
    be_l: BlockEncoding, be_m: BlockEncoding, tag: Permutation
) -> BlockEncoding:
    """Entrywise product through a tag register: tag acts on (register (x)
    system) and maps |0, x> to |t_x, x>, so with be_l encoding a table L-hat
    on the register the result encodes L-hat[t_y, t_x] M[y, x]."""
    n = be_m.sys_dim
    reg = be_l.sys_dim
    bits = reg.bit_length() - 1
    dims = [1 << be_l.anc_qubits, 1 << be_m.anc_qubits, reg, n]
    op = Compose(
        Embedded(Adjoint(tag), dims, [2, 3]),
        Embedded(be_l.op, dims, [0, 2]),
        Embedded(be_m.op, dims, [1, 3]),
        Embedded(tag, dims, [2, 3]),
    )
    return BlockEncoding(
        sys_dim=n,
        anc_qubits=be_l.anc_qubits + be_m.anc_qubits + bits,
        paper_anc=be_l.paper_anc + be_m.paper_anc + bits,
        gamma=be_l.gamma * be_m.gamma,
        op=op,
    )


def hadamard_be(be_l: BlockEncoding, be_m: BlockEncoding) -> BlockEncoding:
    """Entrywise product L (.) M through the copy isometry |x> -> |x>|x>;
    costs a full log N register, which the compressed variant avoids."""
    if be_l.sys_dim != be_m.sys_dim:
        raise DimensionMismatch("operands must share the system dimension")
    n = be_l.sys_dim
    if n & (n - 1):
        raise NonPowerOfTwoDim(f"copy register needs a power of two, got {n}")
    return _tagged_product(be_l, be_m, xor_shift(n))


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
    return _tagged_product(be_lhat, be_m, energy_shift(e, bt))


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
    # |entry| <= spectral norm <= bt; written so that NaN and inf fail
    if not np.abs(lhat).max() <= bt:
        raise NormTooLarge(
            f"table entries must be finite and at most {bt} in absolute value"
        )
    padded = np.zeros((bt, bt))
    padded[:b, :b] = lhat
    u_, sig, vh_ = np.linalg.svd(padded / bt)
    if not sig.max() <= 1 + 1e-12:
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
    return replace(be, op=Compose(Kron(Identity(1 << be.anc_qubits), u), be.op))


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
    """Sum L_A + L_B: both operands rescaled to the larger scale gamma, then
    the equal-weight LCU read at scale 2 gamma (one extra ancilla qubit)."""
    if be_a.sys_dim != be_b.sys_dim:
        raise DimensionMismatch("operands must share the system dimension")
    gamma = max(be_a.gamma, be_b.gamma)
    pair = [rescale_encoding(be_a, gamma), rescale_encoding(be_b, gamma)]
    return replace(lcu([0.5, 0.5], pair), gamma=2.0 * gamma)


def reflectionize(be: BlockEncoding, tol: float = EXTRACT_TOL) -> BlockEncoding:
    """Turn an encoding of a hermitian matrix into a reflection encoding.

    Returns w with w.op an involution, w.gamma = 2 gamma and one extra
    ancilla qubit. On the new qubit the rotated state G^dag |+> =
    ((cos + sin)/sqrt2, (cos - sin)/sqrt2), with the old ancillas in |0^c>,
    is a fixed-point isometry: it contracts w.op to the encoded matrix
    divided by the old gamma.

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
    return BlockEncoding(
        sys_dim=be.sys_dim,
        anc_qubits=be.anc_qubits + 1,
        paper_anc=be.paper_anc + 1,
        gamma=2.0 * be.gamma,
        op=op,
    )


def _generic_reflection(
    model: GibbsModel, prop: ProposalDecomposition, rule: AcceptanceRule
) -> BlockEncoding:
    """Matrix-free route: separate accept and reject encodings, combined and
    reflectionized. Meets the ancilla bound whenever kappa >= 2."""
    e = model.energies
    be_ga = svd_block_encoding(ga_matrix(model, rule))
    be_ja = svd_block_encoding(rejection_matrix(model, rule))

    perm_encs = [unitary_encoding(Permutation(p)) for p in prop.perms]
    s_enc = lcu(prop.weights, perm_encs)
    accept_part = compressed_hadamard_be(be_ga, s_enc, e)

    reject_terms = []
    for p, pinv in zip(prop.perms, prop.inverses):
        term = compressed_hadamard_be(be_ja, unitary_encoding(Permutation(p)), e)
        reject_terms.append(left_multiply_unitary(term, Permutation(pinv)))
    reject_part = lcu(prop.weights, reject_terms)

    w = reflectionize(combine_two(accept_part, reject_part))
    # Quote the headline bound; a larger logical count is flagged by the
    # anc_qubits <= paper_anc invariant rather than silently normalized.
    return replace(w, paper_anc=paper_ancillas(prop.kappa, model.levels))


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
    kappa = prop.kappa
    k_dim = _pow2_pad(kappa)

    ga_t = np.zeros((bt, bt))
    ga_t[: model.levels, : model.levels] = ga_matrix(model, rule)
    ja_t = np.zeros((bt, bt))
    ja_t[: model.levels, : model.levels] = rejection_matrix(model, rule)
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
        anc_qubits=fused_ancillas(kappa, model.levels),
        paper_anc=paper_ancillas(kappa, model.levels),
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
