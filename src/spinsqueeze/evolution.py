"""Exact unitary evolution in the symmetric subspace.

H is diagonalized once per parity sector: each sector is a real symmetric
tridiagonal band T of size about N/2 under a diagonal phase gauge D
(`hamiltonians.SectorBand`), and only the sectors the initial state
occupies are solved. Every trajectory point is computed directly as
D V exp(-i Lambda t) V^T D^dag c(0), so there is no step-to-step error
accumulation and arbitrary times are equally accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import SymmetricState, make_all_down
from .errors import NumericalError
from .hamiltonians import HamiltonianSpec, HermitianMatrix, SectorBand, sector_bands

RECONSTRUCTION_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11


@dataclass(frozen=True)
class SectorEigen:
    """Eigenpairs of one sector's band T, energies ascending; the
    eigenvectors are real columns over the gauged sector basis."""

    band: SectorBand
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Propagator:
    """The solved parity sectors of H for one initial state."""

    n_qubits: int
    sectors: tuple  # SectorEigen, one per occupied sector

    @property
    def dim(self) -> int:
        """Total size of the solved sectors."""
        return sum(s.band.dim for s in self.sectors)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: SymmetricState  # stack, amplitudes of shape (T, N+1)

    def __len__(self):
        return len(self.times)


def solve_band(band: SectorBand) -> SectorEigen:
    """Diagonalize one sector's band, then verify the reconstruction and
    orthonormality contracts on it."""
    energies, vectors = np.linalg.eigh(band.tridiagonal())
    d, e = band.diagonal, band.off_diagonal
    scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(e), initial=0.0)))
    tv = d[:, None] * vectors  # T V from the band, in O(m^2)
    tv[:-1] += e[:, None] * vectors[1:]
    tv[1:] += e[:, None] * vectors[:-1]
    residual = np.max(np.abs(tv - vectors * energies))
    if not residual <= RECONSTRUCTION_TOL * scale:  # NaN fails too
        raise NumericalError(f"eigendecomposition residual {residual:.3e}")
    ortho = np.max(np.abs(vectors.T @ vectors - np.eye(band.dim)))
    if not ortho <= ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvector orthonormality residual {ortho:.3e}")
    return SectorEigen(band=band, eigenvalues=energies, eigenvectors=vectors)


def hermitian_eigen(spec: HamiltonianSpec, initial: SymmetricState) -> Propagator:
    """Build the sector bands of H and solve each sector that `initial` occupies."""
    c0 = initial.amplitudes
    return Propagator(initial.n_qubits, tuple(
        solve_band(band)
        for band in sector_bands(spec, initial.n_qubits)
        if np.any(c0[band.indices])
    ))


def evolve_grid(prop: Propagator, initial: SymmetricState, times) -> SymmetricState:
    """The stack of states at many times, one row per time."""
    c0 = initial.amplitudes
    if c0.ndim != 1 or prop.n_qubits != initial.n_qubits:
        raise ValueError(f"dimension mismatch: state {c0.shape}, propagator for "
                         f"N={prop.n_qubits}")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("non-finite time in the grid")
    amps = np.zeros((times.size, c0.size), dtype=complex)
    uncovered = c0.copy()
    for sector_eigen in prop.sectors:
        band, v = sector_eigen.band, sector_eigen.eigenvectors
        sector, gauge = band.indices, band.gauge()
        x = gauge.conj() * c0[sector]
        wr, wi = x.real @ v, x.imag @ v  # modes of the gauged initial state
        phase = np.outer(times, sector_eigen.eigenvalues)
        cos, sin = np.cos(phase), np.sin(phase)
        # exp(-i lambda t) (wr + i wi), split into two real GEMMs
        block = amps[:, sector]
        block.real = (cos * wr + sin * wi) @ v.T
        block.imag = (cos * wi - sin * wr) @ v.T
        block *= gauge
        uncovered[sector] = 0.0
    if np.any(uncovered):
        raise ValueError("the initial state occupies a parity sector with no propagator")
    try:
        return SymmetricState(initial.n_qubits, amps)
    except ValueError as exc:  # exact propagation is unitary: a lost norm is numerical
        raise NumericalError(f"propagated state lost its norm: {exc}") from exc


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """0, dt, 2dt, ... extended so the last point covers t_max."""
    if not (t_max > 0 and 0 < dt <= t_max and math.isfinite(t_max / dt)):
        raise ValueError(f"invalid time grid: t_max={t_max}, dt={dt}")
    n_steps = math.ceil(t_max / dt - 1e-9)
    return dt * np.arange(n_steps + 1)


def trajectory(spec: HamiltonianSpec, n_qubits: int, t_max: float, dt: float) -> Trajectory:
    """Evolve the all-down initial state on a uniform grid; all-down is
    even, so only the even sector is diagonalized."""
    times = time_grid(t_max, dt)
    initial = make_all_down(n_qubits)
    states = evolve_grid(hermitian_eigen(spec, initial), initial, times)
    return Trajectory(times=times, states=states)


def rk4_evolve(h: HermitianMatrix, initial: SymmetricState, t: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order integrator on the dense H of `build_hamiltonian`;
    cross-check only, returns raw amplitudes."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    dt = t / n_steps
    deriv = lambda c: -1j * (h.entries @ c)
    c = initial.amplitudes.astype(complex)
    for _ in range(n_steps):
        k1 = deriv(c)
        k2 = deriv(c + 0.5 * dt * k1)
        k3 = deriv(c + 0.5 * dt * k2)
        k4 = deriv(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c
