"""The Kitagawa-Ueda squeezing parameter xi^2.

Two routes are provided: the general definition (minimal variance in the
plane perpendicular to the mean spin, scaled by 4/N; Kitagawa and Ueda,
Phys. Rev. A 47, 5138, 1993) and the closed form for even/odd states,
xi^2 = 1 + N/2 - (2/N)(<Sz^2> + |<S+^2>|). A value below 1 means the state
is spin squeezed. For a state of one parity sector the mean spin lies on
z, and the general route takes the fixed frame x, y of its plane.
"""

from __future__ import annotations

import numpy as np

from .dicke import CollectiveMoments

MEAN_SPIN_TOL = 1e-8
EVEN_ODD_TOL = 1e-8


def _unit(v):
    return v / np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]


@np.errstate(invalid="ignore", divide="ignore")  # a vanishing mean spin has no frame
def _perpendicular_min(mean_spin: np.ndarray, cov: np.ndarray):
    """The smallest covariance eigenvalue in the plane normal to mean_spin,
    taken in a deterministic orthonormal frame (n1, n2) of that plane."""
    tilted = np.hypot(mean_spin[..., 0], mean_spin[..., 1]) >= MEAN_SPIN_TOL
    n1 = _unit(np.where(tilted[..., None], np.cross([0.0, 0.0, 1.0], mean_spin), [1.0, 0.0, 0.0]))
    n2 = _unit(np.cross(mean_spin, n1))

    def form(a, b):  # a . cov . b
        return np.einsum("...i,...ij,...j->...", a, cov, b)

    # smallest eigenvalue of [[g11, g12], [g12, g22]]
    g11, g22, g12 = form(n1, n1), form(n2, n2), form(n1, n2)
    return (g11 + g22) / 2.0 - np.hypot(g11 - g22, 2.0 * g12) / 2.0


def _z_frame_min(m: CollectiveMoments):
    """`_perpendicular_min` of moments whose mean spin lies on z, <S+> = 0 in
    every row: its frame is then x, +-y, so g11 = <Sx^2>, g22 = <Sy^2> and
    g12 = +-<[Sx, Sy]_+>/2, and this is its arithmetic with the zero terms
    dropped, bit for bit."""
    return (m.sx2 + m.sy2) / 2.0 - np.hypot(m.sx2 - m.sy2, 2.0 * (0.5 * m.sp2.imag)) / 2.0


def squeezing_general(m: CollectiveMoments):
    """xi^2 as 4/N times the minimal variance perpendicular to the mean spin.
    When no row has a transverse mean (every state of one parity sector) the
    frame is fixed (`_z_frame_min`); otherwise it is built row by row.

    A state with a vanishing mean spin, alone or as a row of a stack, reads
    NaN: no perpendicular plane is defined.
    """
    degenerate = m.mean_spin_norm < MEAN_SPIN_TOL
    if np.all(m.sp_mean == 0):
        lam = _z_frame_min(m)
    else:
        lam = _perpendicular_min(m.mean_spin, m.covariance)
    return np.where(degenerate, np.nan, np.maximum(4.0 * lam / m.n_qubits, 0.0))[()]


def squeezing_even_odd(m: CollectiveMoments):
    """xi^2 by the closed form for states with vanishing transverse moments."""
    transverse = np.abs(m.sp_mean)  # |<Sx> + i<Sy>|
    if not np.all(transverse <= EVEN_ODD_TOL):
        raise ValueError(
            "transverse moments do not vanish; not an even/odd state "
            f"(|<S+>| = {np.max(transverse):.3e})"
        )
    n = m.n_qubits
    xi2 = 1.0 + n / 2.0 - (2.0 / n) * (m.sz2 + np.abs(m.sp2))
    return np.maximum(xi2, 0.0)


def perpendicular_correlation_min(m: CollectiveMoments):
    """Smallest pairwise correlation <sigma_n sigma_n> over probe axes n.

    With a well-defined mean spin the probe axes are restricted to the
    perpendicular plane; otherwise all of the unit sphere is searched
    (the separability bound corr >= 0 holds direction by direction).
    Shape () for one set of moments, (T,) for a stack.
    """
    n = m.n_qubits
    cov = m.covariance
    lam = np.array(_perpendicular_min(m.mean_spin, cov))
    sphere = ~(m.mean_spin_norm >= MEAN_SPIN_TOL)  # the rows that search the sphere, NaN too
    lam[sphere] = np.linalg.eigvalsh(cov[sphere])[..., 0]
    # <S_n^2> = (N + N(N-1) corr) / 4
    return ((4.0 * lam - n) / (n * (n - 1)))[()]
