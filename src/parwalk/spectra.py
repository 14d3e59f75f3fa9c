"""Walk spectra and gap amplification.

A symmetric contraction Q with eigenvalues lambda_j embeds into a product
of two reflections whose eigenphases are +-arccos(lambda_j); the smallest
nonzero phase, arccos(1 - Delta+), grows like the square root of the
classical one-sided gap. The embedding is certified from the eigenpairs of
Q with two N x N products; its walk is never formed.
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
from .markov import SpectralReport

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
    """The 2N eigenphases +-theta_j, theta_j = arccos(lambda_j), of the
    embedding walk u = s (2 t t^T - I), s the signs of the reflection
    I (x) Z, with the N angles theta_j first, and the checked
    max |t^dag s t - q|."""

    phases: np.ndarray
    tst_dev: float


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


def walk_spectrum(phases: np.ndarray, eigenvalues: np.ndarray) -> WalkSpectrum:
    """Match a walk's eigenphases to +-arccos(lambda_j), lambda_j those of Q.

    The phases come from EigenbasisEmbedding.phases, fixed by its checked
    eigenpairs, or from walk_phases of a dense walk matrix. The eigenvalues
    are in descending order, as spectral_gaps reports them.

    Phases for eigenvalues in (-1, 1) come in +- pairs; lambda = +-1
    contributes a single phase 0 or pi. The walk phases in (0, pi), and the
    magnitudes of those in (-pi, 0), pair in sorted order with the
    ascending arccos(lambda_j). Everything left after matching must sit on
    the trivial phases {0, pi} of the complementary subspace.
    """
    lams, phases = np.asarray(eigenvalues, dtype=float), np.asarray(phases, dtype=float)
    if phases.ndim != 1 or lams.ndim != 1 or lams.size == 0:
        raise DimensionMismatch(f"phases {phases.shape}, eigenvalues {lams.shape}: not vectors")
    if not np.abs(lams).max() <= 1 + 1e-9:  # written so that NaN fails
        raise SpectrumOutOfRange(f"eigenvalue {lams[np.abs(lams).argmax()]} outside [-1, 1]")
    lams = _land_unit(lams)
    one, minus = lams == 1.0, lams == -1.0
    inner = ~one & ~minus
    thetas = np.arccos(lams[inner])  # ascending in (0, pi)

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
    # every comparison is written so that NaN fails
    if not delta_plus >= 0:
        raise BoundViolated(f"one-sided gap must be nonnegative, got {delta_plus}")
    predicted = math.acos(max(-1.0, min(1.0, 1.0 - delta_plus)))
    if not abs(spec.phase_gap - predicted) <= PHASE_TOL:
        raise BoundViolated(
            f"phase gap {spec.phase_gap:.10f} != arccos(1 - Delta+) = {predicted:.10f}"
        )
    lower = math.sqrt(2.0 * delta_plus)
    if not spec.phase_gap >= lower - 1e-12:
        raise BoundViolated(
            f"phase gap {spec.phase_gap:.10f} below sqrt(2 Delta+) = {lower:.10f}"
        )
    return GapReport(
        phase_gap=spec.phase_gap, predicted=predicted, lower_bound=lower, holds=True
    )


def eigenbasis_embedding(q: np.ndarray, gaps: SpectralReport) -> EigenbasisEmbedding:
    """Certify the embedding of Q into C^N (x) C^2 via |chi_j> = |v_j> (x)
    (cos(theta_j/2), sin(theta_j/2)) with theta_j = arccos(lambda_j), taking
    the eigenpairs (lambda_j, v_j) from gaps instead of solving q again.

    Neither the isometry t = chi V^T nor the walk is formed. With C, S the
    diagonals cos(theta/2), sin(theta/2): t^T t = V (C^2 + S^2) V^T and
    t^T s t = V diag(cos theta) V^T, and the 2x2 blocks of the walk in the
    basis V (x) I are C^2, CS, S^2, each up to V^T V - I. So the checks are
    V^T V = I and V diag(lambda) V^T = q, and Szegedy's theorem then fixes
    the phases of u = s (2 t t^T - I) at +-theta_j.
    """
    q = np.asarray(q, dtype=float)
    lam, vecs = gaps.eigenvalues, gaps.eigenvectors
    if q.shape != vecs.shape:
        raise DimensionMismatch(f"q has shape {q.shape}, its eigenvectors {vecs.shape}")
    if lam.min() <= -1 + 1e-12:
        raise SpectrumOutOfRange(
            f"eigenvalue {lam.min()} at the periodic edge -1; embed the lazy chain"
        )
    lam = _land_unit(lam)

    # written so that NaN fails: nothing else here reads q's entries
    if not np.abs(vecs.T @ vecs - np.eye(q.shape[0])).max() <= RESIDUAL_TOL:
        raise SpectrumOutOfRange("embedding isometry lost orthonormality")
    tst_dev = float(np.abs((vecs * lam) @ vecs.T - q).max())
    if not tst_dev <= RESIDUAL_TOL:
        raise SpectrumOutOfRange("t^dag s t deviates from q")
    thetas = np.arccos(lam)
    return EigenbasisEmbedding(phases=np.r_[thetas, -thetas], tst_dev=tst_dev)
