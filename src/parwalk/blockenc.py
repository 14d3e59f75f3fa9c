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
    FusedReflection,
    Identity,
    LinOp,
    Permutation,
    Select,
    SystemControlledReflection,
    energy_shift,
    householder_to,
    xor_shift,
)
from .markov import GibbsModel
from .parchain import LevelTables, ProposalDecomposition

UNITARY_TOL = 1e-10
EXTRACT_TOL = 1e-9
# Bytes of a chunk's input array, the w x op.dim floats that full
# extraction (generic route, and the oracle of the tests), the probes and
# the unitarity spot check pass through the encoding at once. A chunk holds
# up to four arrays of that size (the operand of a node, its output and the
# partial products of the factored select), half of a 2 MiB per-core L2
# cache, so that the operator's own tables stay cached beside them. In a
# sweep of this bound over 128 KiB to 2 MiB at n = 5, 6, 7, 256 KiB was
# fastest or within noise of it, and 1-2 MiB were slowest (see the README).
CHUNK_BYTES = 2**18


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


def _spot_check(be: BlockEncoding, seed: int, work: np.ndarray) -> float:
    """The larger of | ||V v|| - 1 | and |V^dag V v - v| over SPOT_VECTORS
    random unit vectors v, drawn into work[0] and applied in chunks through
    work[1] and work[2]. Only a FusedReflection writes into the workspace;
    any other operator returns new arrays."""
    # consecutive draws from one generator give the same vectors as a single
    # draw of all of them
    rng = np.random.Generator(np.random.SFC64(seed))
    width = work.shape[1]
    fused = isinstance(be.op, FusedReflection)

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

    The block of a fused encoding (a FusedReflection on the system) is read
    from the node arrays by FusedReflection.block in O(N kappa (4B)^2); the
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
    fused = isinstance(be.op, FusedReflection) and be.op.n_sys == be.sys_dim
    block = be.gamma * be.op.block() if fused else extract_block(be)
    dev = float(np.abs(block - target).max())
    # one chunk's operand, result and scratch array, in one block: glibc
    # keeps a block of that size for the next call, where three separate
    # arrays were trimmed and faulted in again (~970 minor faults per n = 7,
    # B = 16 chain), and encode-n7 ran ~15% slower in the benchmark
    work = np.empty((3, extraction_chunk_width(be.sys_dim, be.op.dim), be.op.dim))
    probes = _probe_fused(be, target, seed, work) if fused else (None, None)
    probes_ok = not fused or (probes[0] <= UNITARY_TOL and probes[1] <= tol)
    unitary_dev = _spot_check(be, seed, work)
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
        else Embedded(be.op, [1 << (cmax - be.anc_qubits), be.op.dim], [1])
        for be in encodings
    ]
    ops.extend(Identity(block) for _ in range((1 << m) - len(ops)))

    if m == 0:
        op = ops[0]
    else:
        prep = prepare_unitary(w)
        op = Compose(
            Embedded(DenseUnitary(prep.T), [1 << m, block], [0]),
            Select(ops),
            Embedded(DenseUnitary(prep), [1 << m, block], [0]),
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
    # the rotation [[s, c], [c, -s]], c = sqrt(1 - s^2), of level x's
    # ancilla is the reflection about (c, -(1 + s)), of squared norm >= 2
    u = np.stack([np.sqrt(1.0 - sig**2), -(1.0 + sig)], axis=1)
    op = Compose(
        Embedded(DenseUnitary(u_), [2, bt], [1]),
        SystemControlledReflection(u),
        Embedded(DenseUnitary(vh_), [2, bt], [1]),
    )
    return BlockEncoding(sys_dim=bt, anc_qubits=1, paper_anc=1, gamma=float(bt), op=op)


def left_multiply_unitary(be: BlockEncoding, u: LinOp) -> BlockEncoding:
    """Encoding of u L with unchanged parameters."""
    if u.dim != be.sys_dim:
        raise DimensionMismatch(f"unitary dim {u.dim} vs system dim {be.sys_dim}")
    return replace(be, op=Compose(Embedded(u, [1 << be.anc_qubits, u.dim], [1]), be.op))


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
    dims = [2, be.op.dim]
    op = Compose(
        Embedded(DenseUnitary(rot), dims, [0]), Embedded(be.op, dims, [1])
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
    dims = [2, be.op.dim]
    theta = math.pi / 12.0
    g = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    flip = DenseUnitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w_raw = Compose(
        Select([be.op, Adjoint(be.op)]),
        Embedded(flip, dims, [0]),
    )
    op = Compose(
        Embedded(DenseUnitary(g.T), dims, [0]),
        w_raw,
        Embedded(DenseUnitary(g), dims, [0]),
    )
    return BlockEncoding(
        sys_dim=be.sys_dim,
        anc_qubits=be.anc_qubits + 1,
        paper_anc=be.paper_anc + 1,
        gamma=2.0 * be.gamma,
        op=op,
    )


def _generic_reflection(
    model: GibbsModel, prop: ProposalDecomposition, tables: LevelTables
) -> BlockEncoding:
    """Matrix-free route: separate accept and reject encodings, combined and
    reflectionized. Meets the ancilla bound whenever kappa >= 2."""
    e = model.energies
    be_ga = svd_block_encoding(tables.ga)
    be_ja = svd_block_encoding(tables.rejection)

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


def _fused_reflection(
    model: GibbsModel, prop: ProposalDecomposition, tables: LevelTables
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
    one 4B x 4B pair for every k and every system size. The direction sign
    negates the accept term and keeps the hopping terms, so D_- = -K D_+ K
    with K = (-1)^(dilation xor direction); A and B are then the entries of
    D_+ across which that parity flips and keeps, with exact zeros
    elsewhere, and one dilation serves both. A paired-energy
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
    # K D_+ K = -D_-, K = (-1)^(dilation xor direction) on the block register
    sign = np.repeat([1.0, -1.0, -1.0, 1.0], bt)
    mirrored = sign[:, None] * d_plus * sign
    perms = list(prop.perms) + [np.arange(n)] * (k_dim - kappa)
    sel = FactoredSelect((d_plus - mirrored) / 2, (d_plus + mirrored) / 2, perms)

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

    return BlockEncoding(
        sys_dim=n,
        anc_qubits=fused_ancillas(kappa, model.levels),
        paper_anc=paper_ancillas(kappa, model.levels),
        gamma=scale,
        op=FusedReflection(prep, sel),
    )


def build_ancilla_efficient_Q(
    model: GibbsModel, prop: ProposalDecomposition, tables: LevelTables
) -> BlockEncoding:
    """Reflection encoding of the discriminant matrix with gamma = 4B and
    at most 2 ceil(log kappa) + ceil(log B) + 2 ancilla qubits (B padded to
    a power of two), from the chain's level tables.

    Proposals made of involutions take the fused route (ceil(log kappa) +
    ceil(log B) + 2 qubits); any other proposal takes the generic route.
    """
    if model.n != prop.n:
        raise DimensionMismatch(f"model dim {model.n} vs proposal dim {prop.n}")
    if tables.ga.shape != (model.levels, model.levels):
        raise DimensionMismatch(f"tables {tables.ga.shape} vs {model.levels} levels")
    if prop.all_involutions:
        return _fused_reflection(model, prop, tables)
    return _generic_reflection(model, prop, tables)
