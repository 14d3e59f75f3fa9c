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

from .errors import (
    BoundViolated,
    DimensionMismatch,
    SpectrumMismatch,
    SpectrumOutOfRange,
)

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


def walk_phases(w: np.ndarray) -> np.ndarray:
    """Eigenphases of a numerically unitary walk matrix.

    A unitary matrix is normal, so by Bauer-Fike every eigenvalue that a
    backward-stable eigensolver returns, degenerate ones included, is off
    by at most its backward error.
    """
    unit_dev = np.abs(w @ w.conj().T - np.eye(w.shape[0])).max()
    if unit_dev > 1e-9:
        raise SpectrumOutOfRange(f"walk operator is not unitary (dev {unit_dev:.3e})")
    return np.angle(np.linalg.eigvals(w))


def _land_unit(lams: np.ndarray) -> np.ndarray:
    """Eigenvalues clipped to [-1, 1], with those within 1e-12 of +-1 landed
    on it exactly: they are structural, and arccos would turn eps noise
    near them into sqrt(eps) phases."""
    lams = np.clip(lams, -1.0, 1.0)
    return np.where(np.abs(lams) >= 1.0 - 1e-12, np.sign(lams), lams)


def walk_spectrum(
    phases: np.ndarray, q: np.ndarray, eigenvalues: np.ndarray | None = None
) -> WalkSpectrum:
    """Match a walk's eigenphases to +-arccos(lambda_j) of q.

    The phases come from EigenbasisEmbedding.phases, read from its checked
    2x2 blocks, or from walk_phases of a dense walk matrix. eigenvalues,
    when given, are those of q in descending order, as spectral_gaps
    reports them, and q is not solved again.

    Phases for eigenvalues in (-1, 1) come in +- pairs; lambda = +-1
    contributes a single phase 0 or pi. The walk phases in (0, pi), and the
    magnitudes of those in (-pi, 0), pair in sorted order with the
    ascending arccos(lambda_j). Everything left after matching must sit on
    the trivial phases {0, pi} of the complementary subspace.
    """
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(np.asarray(q))[::-1]
    lams = np.asarray(eigenvalues)
    if np.abs(lams).max() > 1 + 1e-9:
        raise SpectrumOutOfRange(f"eigenvalue {lams[np.abs(lams).argmax()]} outside [-1, 1]")
    lams = _land_unit(lams)
    one, minus = lams == 1.0, lams == -1.0
    inner = ~one & ~minus
    thetas = np.arccos(lams[inner])  # ascending in (0, pi)

    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1:
        raise DimensionMismatch(f"walk phases must be a vector, got shape {phases.shape}")
    phases = np.where(np.abs(phases) < SNAP, 0.0, phases)

    # each group sorted, the phases near 0 or pi nearest first: sorted order
    # is the closest pairing on a line
    mag = np.abs(phases)
    near0, near_pi = mag <= PHASE_TOL, mag >= math.pi - PHASE_TOL
    mid = ~near0 & ~near_pi
    groups = (
        (np.zeros(one.sum()), np.sort(mag[near0]), 1.0),
        (np.full(minus.sum(), math.pi), -np.sort(-mag[near_pi]), 1.0),
        (thetas, np.sort(mag[mid & (phases > 0)]), 1.0),
        (thetas, np.sort(mag[mid & (phases < 0)]), -1.0),
    )
    unmatched = []
    for targets, got, sign in groups:
        off = np.full(targets.size, math.inf)  # past the end of got: no phase
        off[: got.size] = np.abs(got[: targets.size] - targets[: got.size])
        unmatched += zip(sign * targets[off > PHASE_TOL], off[off > PHASE_TOL])
    if unmatched:
        raise SpectrumMismatch(
            "expected phases with no walk counterpart: "
            + ", ".join(f"{t:.6f} (off by {d:.2e})" for t, d in unmatched)
        )

    pos, neg = groups[2][1], groups[3][1]
    bad = np.r_[pos[thetas.size :], -neg[thetas.size :]]
    if bad.size:
        raise SpectrumMismatch(
            f"{bad.size} complementary-subspace phases off the trivial set: "
            + ", ".join(f"{p:.6f}" for p in bad[:8])
        )

    measured = np.empty(lams.size)
    for mask, (targets, got, _) in zip((one, minus, inner), groups):
        measured[mask] = got[: targets.size]
    matched = np.r_[measured, neg]
    nonzero = matched[matched > SNAP]
    return WalkSpectrum(
        eigenphases=np.sort(phases),
        phase_gap=float(nonzero.min()) if nonzero.size else 0.0,
        b_perp_dim=int(phases.size - lams.size - thetas.size),
        lambdas=lams,
        predicted=np.arccos(lams),
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
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise DimensionMismatch(f"q must be square and nonempty, got shape {q.shape}")
    if not np.isfinite(q).all():  # NaN would pass every check below
        raise SpectrumOutOfRange("q has non-finite entries")
    n = q.shape[0]
    lam, vecs = np.linalg.eigh(q)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    if lam.max() > 1 + 1e-9:
        raise SpectrumOutOfRange(f"eigenvalue {lam.max()} above 1")
    if lam.min() <= -1 + 1e-12:
        raise SpectrumOutOfRange(
            f"eigenvalue {lam.min()} at the periodic edge -1; embed the lazy chain"
        )
    thetas = np.arccos(_land_unit(lam))

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
