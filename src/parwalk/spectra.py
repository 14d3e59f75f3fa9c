"""Walk spectra and gap amplification.

A symmetric contraction Q with eigenvalues lambda_j embeds into a product
of two reflections whose eigenphases are +-arccos(lambda_j); the smallest
nonzero phase, arccos(1 - Delta+), grows like the square root of the
classical one-sided gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, Isometry
from .errors import BoundViolated, SpectrumMismatch, SpectrumOutOfRange
from .linops import DENSE_CAP
from .szegedy import SzegedyWalk

PHASE_TOL = 1e-8
SNAP = 1e-10
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class WalkSpectrum:
    """All walk eigenphases, the matched per-eigenvalue phases, and the gap.

    lambdas, predicted, measured are aligned arrays: for each eigenvalue of
    Q (descending) the phase arccos(lambda) it predicts and the matched
    nonnegative walk phase.
    """

    eigenphases: np.ndarray
    phase_gap: float
    b_perp_dim: int
    lambdas: np.ndarray
    predicted: np.ndarray
    measured: np.ndarray


@dataclass(frozen=True)
class GapReport:
    phase_gap: float
    predicted: float
    lower_bound: float
    holds: bool


@dataclass(frozen=True)
class EigenbasisEmbedding:
    """Isometry t into C^N (x) C^2, the signs s of the reflection I (x) Z,
    and the 2N eigenphases of the walk u = s (2 t t^T - I), read from its
    invariant 2x2 blocks; u itself is never formed."""

    t: np.ndarray
    s: np.ndarray
    thetas: np.ndarray
    phases: np.ndarray


def _circular_gap(a, b):
    """Distance between angles on the circle, elementwise on arrays."""
    return np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _unitary_eigenphases(w: np.ndarray) -> np.ndarray:
    """Eigenphases of a numerically unitary matrix.

    Nonsymmetric QR splits degenerate real eigenvalues into spurious
    complex pairs with O(sqrt(eps)) phase error, which swamps the 1e-8
    matching tolerance. Instead diagonalize the commuting hermitian parts:
    eigh gives the cosines exactly, and the sine operator restricted to
    each cosine cluster separates the +- pairs. The sine operator is
    rotated into the cosine eigenbasis once; each cluster is a diagonal
    block of it, and clusters of one size are diagonalized as one stack.
    A real w stays real up to the sine operator, which is i times a real
    antisymmetric matrix.
    """
    w = np.asarray(w)
    if not np.isrealobj(w):
        w = w.astype(complex)
    n = w.shape[0]
    unit_dev = np.abs(w @ w.conj().T - np.eye(n)).max()
    if unit_dev > 1e-9:
        raise SpectrumOutOfRange(f"walk operator is not unitary (dev {unit_dev:.3e})")
    cos_vals, vecs = np.linalg.eigh(0.5 * (w + w.conj().T))
    # V^dag hs V with hs = (w - w^dag) / 2i
    sin_op = (vecs.conj().T @ ((w - w.conj().T) / 2.0) @ vecs) / 1j
    # a cluster ends where the next cosine is 1e-8 or more above the last
    starts = np.flatnonzero(np.r_[True, ~(np.diff(cos_vals) < 1e-8)])
    sizes = np.diff(np.r_[starts, n])
    phases = np.empty(n)
    for size in np.unique(sizes):
        idx = starts[sizes == size][:, None] + np.arange(size)
        sin_vals = np.linalg.eigvalsh(sin_op[idx[:, :, None], idx[:, None, :]])
        phases[idx] = np.arctan2(sin_vals, cos_vals[idx].mean(axis=1, keepdims=True))
    return phases


def _walk_unitary(walk) -> np.ndarray:
    if isinstance(walk, SzegedyWalk):
        return walk.w
    if isinstance(walk, tuple) and len(walk) == 2:
        be, iso = walk
        if isinstance(be, BlockEncoding) and isinstance(iso, Isometry):
            w = be.dense(DENSE_CAP)
            t = iso.dense(DENSE_CAP)
            proj = t @ t.conj().T
            return w @ (2.0 * proj - np.eye(w.shape[0]))
    if isinstance(walk, np.ndarray):
        return walk
    raise TypeError(f"cannot interpret {type(walk).__name__} as a walk operator")


def walk_spectrum(walk, q: np.ndarray) -> WalkSpectrum:
    """Diagonalize the walk and match its phases to +-arccos(lambda_j).

    An EigenbasisEmbedding brings its phases, read from its checked 2x2
    blocks; every other walk is diagonalized densely.

    Phases for eigenvalues in (-1, 1) come in +- pairs; lambda = +-1
    contributes a single phase 0 or pi. Everything left after matching must
    sit on the trivial phases {0, pi} of the complementary subspace.
    """
    q = np.asarray(q)
    lams = np.linalg.eigvalsh(q)[::-1]
    if np.abs(lams).max() > 1 + 1e-9:
        raise SpectrumOutOfRange(f"eigenvalue {lams[np.abs(lams).argmax()]} outside [-1, 1]")
    lams = np.clip(lams, -1.0, 1.0)
    # +-1 eigenvalues are structural; arccos would turn eps noise into
    # sqrt(eps) phases
    lams[lams >= 1.0 - 1e-12] = 1.0
    lams[lams <= -1.0 + 1e-12] = -1.0

    if isinstance(walk, EigenbasisEmbedding):
        phases = walk.phases
    else:
        phases = _unitary_eigenphases(_walk_unitary(walk))
    phases = np.where(np.abs(phases) < SNAP, 0.0, phases)

    expected = []  # (lambda index, expected phase)
    for j, lam in enumerate(lams):
        theta = math.acos(lam)
        if lam >= 1.0 - 1e-12:
            expected.append((j, 0.0))
        elif lam <= -1.0 + 1e-12:
            expected.append((j, math.pi))
        else:
            expected.append((j, theta))
            expected.append((j, -theta))

    used = np.zeros(phases.size, dtype=bool)
    measured = np.full(lams.size, np.nan)
    unmatched = []
    for j, target in expected:
        free = np.flatnonzero(~used)
        dists = _circular_gap(phases[free], target)
        pick = free[dists.argmin()]
        if dists.min() > PHASE_TOL:
            unmatched.append((target, float(dists.min())))
            continue
        used[pick] = True
        if target >= 0.0:
            measured[j] = abs(phases[pick])
    if unmatched:
        raise SpectrumMismatch(
            "expected phases with no walk counterpart: "
            + ", ".join(f"{t:.6f} (off by {d:.2e})" for t, d in unmatched)
        )

    leftovers = phases[~used]
    bad = leftovers[
        np.minimum(np.abs(leftovers), _circular_gap(leftovers, math.pi)) > PHASE_TOL
    ]
    if bad.size:
        raise SpectrumMismatch(
            f"{bad.size} complementary-subspace phases off the trivial set: "
            + ", ".join(f"{p:.6f}" for p in bad[:8])
        )

    matched_abs = np.abs(phases[used])
    nonzero = matched_abs[matched_abs > SNAP]
    gap = float(nonzero.min()) if nonzero.size else 0.0
    predicted = np.arccos(lams)
    return WalkSpectrum(
        eigenphases=np.sort(phases),
        phase_gap=gap,
        b_perp_dim=int(leftovers.size),
        lambdas=lams,
        predicted=predicted,
        measured=measured,
    )


def phase_gap_check(spec: WalkSpectrum, delta_plus: float) -> GapReport:
    """phase_gap = arccos(1 - Delta+) within 1e-8, and at least
    sqrt(2 Delta+)."""
    if delta_plus < 0:
        raise BoundViolated(f"one-sided gap must be nonnegative, got {delta_plus}")
    predicted = math.acos(max(-1.0, min(1.0, 1.0 - delta_plus)))
    if abs(spec.phase_gap - predicted) > PHASE_TOL:
        raise BoundViolated(
            f"phase gap {spec.phase_gap:.10f} != arccos(1 - Delta+) = {predicted:.10f}"
        )
    lower = math.sqrt(2.0 * delta_plus)
    if spec.phase_gap < lower - 1e-12:
        raise BoundViolated(
            f"phase gap {spec.phase_gap:.10f} below sqrt(2 Delta+) = {lower:.10f}"
        )
    return GapReport(
        phase_gap=spec.phase_gap, predicted=predicted, lower_bound=lower, holds=True
    )


def eigenbasis_embedding(q: np.ndarray) -> EigenbasisEmbedding:
    """Embed Q into C^N (x) C^2 via |chi_j> = |v_j> (x) (cos(theta_j/2),
    sin(theta_j/2)) with theta_j = arccos(lambda_j).

    Verifies t^dag t = I, t^dag s t = q, and that the walk
    u = s (2 t t^T - I) is block diagonal in the basis W = V (x) I, turning
    each plane |v_j> (x) C^2 by theta_j (_block_phases).
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    lam, vecs = np.linalg.eigh(q)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    if lam.max() > 1 + 1e-9:
        raise SpectrumOutOfRange(f"eigenvalue {lam.max()} above 1")
    if lam.min() <= -1 + 1e-12:
        raise SpectrumOutOfRange(
            f"eigenvalue {lam.min()} at the periodic edge -1; embed the lazy chain"
        )
    lam = np.clip(lam, -1.0, 1.0)
    # arccos amplifies eps-level noise near 1 to sqrt(eps) phases; unit
    # eigenvalues are structural (fixed points), so land them exactly
    lam[lam >= 1.0 - 1e-12] = 1.0
    thetas = np.arccos(lam)

    chi = np.empty((2 * n, n))
    chi[0::2] = np.cos(thetas / 2.0) * vecs
    chi[1::2] = np.sin(thetas / 2.0) * vecs
    # t sends the original basis through the eigenbasis: t = sum_j chi_j v_j^T
    t = chi @ vecs.T
    signs = np.tile([1.0, -1.0], n)

    if np.abs(t.T @ t - np.eye(n)).max() > RESIDUAL_TOL:
        raise SpectrumOutOfRange("embedding isometry lost orthonormality")
    if np.abs(t.T @ (signs[:, None] * t) - q).max() > RESIDUAL_TOL:
        raise SpectrumOutOfRange("t^dag s t deviates from q")
    phases = _block_phases(t, vecs, thetas)
    return EigenbasisEmbedding(t=t, s=signs, thetas=thetas, phases=phases)


def _block_phases(t, vecs, thetas) -> np.ndarray:
    """Eigenphases of u = s (2 t t^T - I) from its 2x2 blocks in W = V (x) I.

    The (a, b) block of W^T t t^T W is g_ab = h_a h_b^T with h_a = V^T t[a::2].
    g_ab = diag(c_a c_b), c = (cos(theta/2), sin(theta/2)), makes W^T u W
    block diagonal, turning the plane |v_j> (x) C^2 by theta_j.
    """
    h0, h1 = (vecs.T @ t[a::2] for a in (0, 1))
    c0, c1 = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    g00, g01, g11 = h0 @ h0.T, h0 @ h1.T, h1 @ h1.T
    pairs = ((g00, c0 * c0), (g01, c0 * c1), (g11, c1 * c1))
    dev = max(np.abs(g - np.diag(c)).max() for g, c in pairs)
    if dev > RESIDUAL_TOL:
        raise SpectrumOutOfRange(f"walk leaves its 2x2 blocks (residual {dev:.3e})")
    half = np.arctan2(2.0 * np.diag(g01), 2.0 * np.diag(g00) - 1.0)
    return np.concatenate([half, -half])
