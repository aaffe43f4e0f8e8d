"""Exact unitary evolution in the symmetric subspace.

One eigendecomposition per Hamiltonian; every trajectory point is computed
directly as V exp(-iEt) V^dag c(0), so there is no step-to-step error
accumulation and arbitrary times are equally accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import SymmetricState, make_all_down
from .errors import NumericalError
from .hamiltonians import HamiltonianSpec, HermitianMatrix, build_hamiltonian

RECONSTRUCTION_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11


@dataclass(frozen=True)
class Propagator:
    """Eigenpairs of a Hermitian matrix, energies ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: SymmetricState  # stack, amplitudes of shape (T, N+1)

    def __len__(self):
        return len(self.times)


def hermitian_eigen(h: HermitianMatrix) -> Propagator:
    """Diagonalize, then verify the reconstruction and orthonormality contracts."""
    energies, vectors = np.linalg.eigh(h.entries)
    scale = max(1.0, float(np.max(np.abs(h.entries))))
    residual = np.max(np.abs((vectors * energies) @ vectors.conj().T - h.entries))
    if residual > RECONSTRUCTION_TOL * scale:
        raise NumericalError(f"eigendecomposition residual {residual:.3e}")
    ortho = np.max(np.abs(vectors.conj().T @ vectors - np.eye(h.dim)))
    if ortho > ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvector orthonormality residual {ortho:.3e}")
    return Propagator(eigenvalues=energies, eigenvectors=vectors, dim=h.dim)


def evolve_to(prop: Propagator, initial: SymmetricState, t: float) -> SymmetricState:
    """Apply exp(-iHt) to a state."""
    return SymmetricState(initial.n_qubits, evolve_grid(prop, initial, [t]).amplitudes[0])


def evolve_grid(prop: Propagator, initial: SymmetricState, times) -> SymmetricState:
    """The stack of states at many times from one decomposition, one row per time."""
    c0 = initial.amplitudes
    if c0.shape != (prop.dim,):
        raise ValueError(f"dimension mismatch: state {c0.shape}, propagator {prop.dim}")
    times = np.asarray(times, dtype=float)
    v = prop.eigenvectors
    modes = v.conj().T @ c0
    amps = v @ (np.exp(-1j * np.outer(prop.eigenvalues, times)) * modes[:, None])
    try:
        return SymmetricState(initial.n_qubits, amps.T)
    except ValueError as exc:  # exact propagation is unitary: a lost norm is numerical
        raise NumericalError(f"propagated state lost its norm: {exc}") from exc


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """0, dt, 2dt, ... extended so the last point covers t_max."""
    if not (t_max > 0 and 0 < dt <= t_max and math.isfinite(t_max / dt)):
        raise ValueError(f"invalid time grid: t_max={t_max}, dt={dt}")
    n_steps = math.ceil(t_max / dt - 1e-9)
    return dt * np.arange(n_steps + 1)


def trajectory(spec: HamiltonianSpec, n_qubits: int, t_max: float, dt: float) -> Trajectory:
    """Evolve the all-down initial state on a uniform grid."""
    times = time_grid(t_max, dt)
    prop = hermitian_eigen(build_hamiltonian(spec, n_qubits))
    states = evolve_grid(prop, make_all_down(n_qubits), times)
    return Trajectory(times=times, states=states)


def rk4_evolve(h: HermitianMatrix, initial: SymmetricState, t: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order integrator; cross-check only, returns raw amplitudes."""
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
