"""The Kitagawa-Ueda squeezing parameter xi^2.

Two routes are provided: the general definition (minimal variance in the
plane perpendicular to the mean spin, scaled by 4/N) and the closed form
for even/odd states, xi^2 = 1 + N/2 - (2/N)(<Sz^2> + |<S+^2>|). A value
below 1 means the state is spin squeezed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveMoments, dot, modulus, square
from .errors import MeanSpinDegenerateError, NotEvenOddError

MEAN_SPIN_TOL = 1e-8
EVEN_ODD_TOL = 1e-8

GENERAL = "general"
EVEN_ODD = "even_odd_closed_form"


@dataclass(frozen=True)
class SqueezingResult:
    """xi^2 and its minimizing axis; fields have a leading (T,) axis for a stack."""

    xi2: float
    optimal_angle: float  # angle of the minimizing axis in the perpendicular plane
    n_perp: np.ndarray
    mean_spin: np.ndarray
    method: str


def _min_eig_2x2(g11, g22, g12):
    """Smallest eigenvalue and its direction angle for [[g11,g12],[g12,g22]]."""
    half_gap = np.sqrt(square(g11 - g22) + 4.0 * square(g12)) / 2.0
    lam = (g11 + g22) / 2.0 - half_gap
    # fully degenerate (g12 = 0, g11 = g22): any axis minimizes, take 0
    theta = np.where(
        (g12 == 0.0) & (g11 == g22), 0.0, 0.5 * (math.pi + np.arctan2(2.0 * g12, g11 - g22))
    )
    return lam, (theta % (2.0 * math.pi))[()]


def _unit(v):
    return v / np.sqrt(dot(v, v))[..., None]


@np.errstate(invalid="ignore", divide="ignore")  # a vanishing mean spin has no frame
def _perpendicular_min(mean_spin: np.ndarray, cov: np.ndarray):
    """Deterministic orthonormal frame (n1, n2) of the plane normal to
    mean_spin, the smallest covariance eigenvalue in that plane and its angle."""
    tilted = np.hypot(mean_spin[..., 0], mean_spin[..., 1]) >= MEAN_SPIN_TOL
    n1 = _unit(np.where(tilted[..., None], np.cross([0.0, 0.0, 1.0], mean_spin), [1.0, 0.0, 0.0]))
    n2 = _unit(np.cross(mean_spin, n1))

    def form(a, b):  # a . cov . b, as (a @ cov) @ b
        return dot(np.matmul(a[..., None, :], cov)[..., 0, :], b)

    return (n1, n2, *_min_eig_2x2(form(n1, n1), form(n2, n2), form(n1, n2)))


def squeezing_general(m: CollectiveMoments) -> SqueezingResult:
    """4/N times the minimal variance perpendicular to the mean spin.

    A single state with a vanishing mean spin raises; in a stack such rows
    read NaN.
    """
    mean_spin = m.mean_spin
    norm = m.mean_spin_norm
    degenerate = norm < MEAN_SPIN_TOL
    if np.ndim(norm) == 0 and degenerate:
        raise MeanSpinDegenerateError(
            f"mean spin norm {norm:.3e} below {MEAN_SPIN_TOL}; "
            "no perpendicular plane is defined"
        )
    n1, n2, lam, theta = _perpendicular_min(mean_spin, m.covariance)
    n_perp = np.cos(theta)[..., None] * n1 + np.sin(theta)[..., None] * n2
    return SqueezingResult(
        xi2=np.where(degenerate, np.nan, np.maximum(4.0 * lam / m.n_qubits, 0.0))[()],
        optimal_angle=np.where(degenerate, np.nan, theta)[()],
        n_perp=np.where(degenerate[..., None], np.nan, n_perp),
        mean_spin=mean_spin,
        method=GENERAL,
    )


def squeezing_even_odd(m: CollectiveMoments) -> SqueezingResult:
    """Closed form for states with vanishing transverse moments."""
    transverse = modulus(m.sp_mean)  # |<Sx> + i<Sy>|
    if not np.all(transverse <= EVEN_ODD_TOL):
        raise NotEvenOddError(
            "transverse moments do not vanish; not an even/odd state "
            f"(|<S+>| = {np.max(transverse):.3e})"
        )
    n = m.n_qubits
    xi2 = 1.0 + n / 2.0 - (2.0 / n) * (m.sz2 + modulus(m.sp2))
    # minimizing axis: 2*theta = pi + arg<S+^2>
    theta = ((math.pi + np.angle(m.sp2)) % (2.0 * math.pi)) / 2.0
    zero = np.zeros_like(theta)
    return SqueezingResult(
        xi2=np.maximum(xi2, 0.0),
        optimal_angle=theta,
        n_perp=np.stack([np.cos(theta), np.sin(theta), zero], axis=-1),
        mean_spin=np.stack([zero, zero, m.mean_sz], axis=-1),
        method=EVEN_ODD,
    )


def squeezing_lower_bound(m: CollectiveMoments) -> float:
    """1 - (2/N)|<S+^2>|, from <Sz^2> <= N^2/4; never exceeds the closed form."""
    return 1.0 - (2.0 / m.n_qubits) * modulus(m.sp2)


def squeezing_from_correlation(corr: float, n_qubits: int) -> float:
    """xi^2 = 1 + (N-1) * <sigma_perp sigma_perp>; squeezing iff corr < 0."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    if not -1.0 <= corr <= 1.0:
        raise ValueError(f"correlation {corr} outside [-1, 1]")
    return 1.0 + (n_qubits - 1) * corr


def perpendicular_correlation_min(m: CollectiveMoments):
    """Smallest pairwise correlation <sigma_n sigma_n> over probe axes n.

    With a well-defined mean spin the probe axes are restricted to the
    perpendicular plane; otherwise all of the unit sphere is searched
    (the separability bound corr >= 0 holds direction by direction).
    Shape () for one set of moments, (T,) for a stack.
    """
    n = m.n_qubits
    cov = m.covariance
    _, _, lam, _ = _perpendicular_min(m.mean_spin, cov)
    lam = np.where(m.mean_spin_norm >= MEAN_SPIN_TOL, lam, np.linalg.eigvalsh(cov)[..., 0])
    # <S_n^2> = (N + N(N-1) corr) / 4
    return ((4.0 * lam - n) / (n * (n - 1)))[()]
