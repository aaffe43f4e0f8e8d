"""Reference integrators and helpers that the tests share."""

import math

import numpy as np

from spinsqueeze import cli
from spinsqueeze.dicke import NORM_TOL, SymmetricState, squared_norm


def make_state(n_qubits, amplitudes):
    """Normalize an amplitude vector into a SymmetricState.

    Returns (state, norm) where norm is the factor the input was divided by.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (n_qubits + 1,):
        raise ValueError(
            f"expected {n_qubits + 1} amplitudes, got shape {amps.shape}"
        )
    norm = float(np.sqrt(squared_norm(amps)))
    if not NORM_TOL < norm < math.inf:
        raise ValueError(f"amplitude vector has near-zero or non-finite norm {norm!r}")
    return SymmetricState(n_qubits, amps / norm), norm


def evolve_columns(cfg: cli.RunConfig) -> dict:
    """Every CSV column of `evolve` over the whole trajectory: column name ->
    array, one value per time, from the blocks of `cli.row_blocks`."""
    blocks = list(cli.row_blocks(cfg))
    return {c: np.concatenate([block[c] for block in blocks]) for c in cli.EVOLVE_COLUMNS}


def rk4_evolve(h: np.ndarray, initial: SymmetricState, t: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order integrator on the dense H of `build_hamiltonian`;
    cross-check only, returns raw amplitudes."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    dt = t / n_steps
    deriv = lambda c: -1j * (h @ c)
    c = initial.amplitudes.astype(complex)
    for _ in range(n_steps):
        k1 = deriv(c)
        k2 = deriv(c + 0.5 * dt * k1)
        k3 = deriv(c + 0.5 * dt * k2)
        k4 = deriv(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c
