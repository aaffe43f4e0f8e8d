"""The Kitagawa-Ueda squeezing parameter xi^2.

Two routes are provided: the general definition (minimal variance in the
plane perpendicular to the mean spin, scaled by 4/N) and the closed form
for even/odd states, xi^2 = 1 + N/2 - (2/N)(<Sz^2> + |<S+^2>|). A value
below 1 means the state is spin squeezed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveMoments
from .errors import MeanSpinDegenerateError, NotEvenOddError

MEAN_SPIN_TOL = 1e-8
EVEN_ODD_TOL = 1e-8

GENERAL = "general"
EVEN_ODD = "even_odd_closed_form"


@dataclass(frozen=True)
class SqueezingResult:
    xi2: float
    optimal_angle: float  # angle of the minimizing axis in the perpendicular plane
    n_perp: np.ndarray
    mean_spin: np.ndarray
    method: str


def _min_eig_2x2(g11: float, g22: float, g12: float):
    """Smallest eigenvalue and its direction angle for [[g11,g12],[g12,g22]]."""
    half_gap = math.sqrt((g11 - g22) ** 2 + 4.0 * g12**2) / 2.0
    lam = (g11 + g22) / 2.0 - half_gap
    if g12 == 0.0 and g11 == g22:
        theta = 0.0  # fully degenerate: any axis minimizes
    else:
        theta = 0.5 * (math.pi + math.atan2(2.0 * g12, g11 - g22))
    return lam, theta % (2.0 * math.pi)


def _perpendicular_min(mean_spin: np.ndarray, cov: np.ndarray):
    """Deterministic orthonormal frame (n1, n2) of the plane normal to
    mean_spin, the smallest covariance eigenvalue in that plane and its angle."""
    transverse = math.hypot(mean_spin[0], mean_spin[1])
    if transverse < MEAN_SPIN_TOL:
        n1 = np.array([1.0, 0.0, 0.0])
    else:
        n1 = np.cross([0.0, 0.0, 1.0], mean_spin)
        n1 /= np.linalg.norm(n1)
    n2 = np.cross(mean_spin, n1)
    n2 /= np.linalg.norm(n2)
    g11 = float(n1 @ cov @ n1)
    g22 = float(n2 @ cov @ n2)
    g12 = float(n1 @ cov @ n2)
    return (n1, n2, *_min_eig_2x2(g11, g22, g12))


def squeezing_general(m: CollectiveMoments) -> SqueezingResult:
    """4/N times the minimal variance perpendicular to the mean spin."""
    mean_spin = m.mean_spin
    if m.mean_spin_norm < MEAN_SPIN_TOL:
        raise MeanSpinDegenerateError(
            f"mean spin norm {m.mean_spin_norm:.3e} below {MEAN_SPIN_TOL}; "
            "no perpendicular plane is defined"
        )
    n1, n2, lam, theta = _perpendicular_min(mean_spin, m.covariance)
    n_perp = math.cos(theta) * n1 + math.sin(theta) * n2
    return SqueezingResult(
        xi2=max(4.0 * lam / m.n_qubits, 0.0),
        optimal_angle=theta,
        n_perp=n_perp,
        mean_spin=mean_spin,
        method=GENERAL,
    )


def squeezing_even_odd(m: CollectiveMoments) -> SqueezingResult:
    """Closed form for states with vanishing transverse moments."""
    if (
        abs(m.mean_sx) > EVEN_ODD_TOL
        or abs(m.mean_sy) > EVEN_ODD_TOL
        or abs(m.sp_mean) > EVEN_ODD_TOL
    ):
        raise NotEvenOddError(
            "transverse moments do not vanish; not an even/odd state "
            f"(<Sx>={m.mean_sx:.3e}, <Sy>={m.mean_sy:.3e})"
        )
    n = m.n_qubits
    xi2 = 1.0 + n / 2.0 - (2.0 / n) * (m.sz2 + abs(m.sp2))
    # minimizing axis: 2*theta = pi + arg<S+^2>
    theta = ((math.pi + cmath.phase(m.sp2)) % (2.0 * math.pi)) / 2.0
    n_perp = np.array([math.cos(theta), math.sin(theta), 0.0])
    return SqueezingResult(
        xi2=max(xi2, 0.0),
        optimal_angle=theta,
        n_perp=n_perp,
        mean_spin=np.array([0.0, 0.0, m.mean_sz]),
        method=EVEN_ODD,
    )


def squeezing_lower_bound(m: CollectiveMoments) -> float:
    """1 - (2/N)|<S+^2>|, from <Sz^2> <= N^2/4; never exceeds the closed form."""
    return 1.0 - (2.0 / m.n_qubits) * abs(m.sp2)


def squeezing_from_correlation(corr: float, n_qubits: int) -> float:
    """xi^2 = 1 + (N-1) * <sigma_perp sigma_perp>; squeezing iff corr < 0."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    if not -1.0 <= corr <= 1.0:
        raise ValueError(f"correlation {corr} outside [-1, 1]")
    return 1.0 + (n_qubits - 1) * corr


def perpendicular_correlation_min(m: CollectiveMoments) -> float:
    """Smallest pairwise correlation <sigma_n sigma_n> over probe axes n.

    With a well-defined mean spin the probe axes are restricted to the
    perpendicular plane; otherwise all of the unit sphere is searched
    (the separability bound corr >= 0 holds direction by direction).
    """
    n = m.n_qubits
    if m.mean_spin_norm >= MEAN_SPIN_TOL:
        _, _, lam, _ = _perpendicular_min(m.mean_spin, m.covariance)
    else:
        lam = float(np.linalg.eigvalsh(m.covariance)[0])
    # <S_n^2> = (N + N(N-1) corr) / 4
    return (4.0 * lam - n) / (n * (n - 1))
