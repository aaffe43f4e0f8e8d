"""Collective quadratic Hamiltonians in the Dicke basis.

The general form is

    H = mu Sx^2 + chi Sy^2 + gamma (S+^2 - S-^2)/(2i) + f(Sz)

with f a polynomial; (S+^2 - S-^2)/(2i) = Sx Sy + Sy Sx. The named models are:
  one_axis(mu)            - twisting about a single axis, mu Sx^2
  one_axis_field(mu, om)  - same plus a transverse field om Sz
  two_axis(gamma)         - counter-twisting, (gamma/2i)(S+^2 - S-^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import collective_operators

HERMITICITY_TOL = 1e-14


@dataclass(frozen=True)
class HamiltonianSpec:
    mu: float = 0.0
    chi: float = 0.0
    gamma: float = 0.0
    f_coeffs: tuple = ()  # polynomial in Sz, ascending powers

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.f_coeffs)
        object.__setattr__(self, "f_coeffs", coeffs)
        values = (self.mu, self.chi, self.gamma) + coeffs
        if not all(math.isfinite(v) for v in values):
            raise ValueError("non-finite Hamiltonian coefficient")

    @classmethod
    def one_axis(cls, mu: float) -> "HamiltonianSpec":
        return cls(mu=mu)

    @classmethod
    def one_axis_field(cls, mu: float, omega: float) -> "HamiltonianSpec":
        return cls(mu=mu, f_coeffs=(0.0, omega))

    @classmethod
    def two_axis(cls, gamma: float) -> "HamiltonianSpec":
        return cls(gamma=gamma)


@dataclass(frozen=True)
class HermitianMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim}, got {entries.shape}")
        residual = np.max(np.abs(entries - entries.conj().T))
        if residual > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian, residual {residual:.3e}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def build_hamiltonian(spec: HamiltonianSpec, n_qubits: int) -> HermitianMatrix:
    """Assemble the (N+1)x(N+1) matrix of the general Hamiltonian."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    sx, sy, sz, sp, sm = collective_operators(n_qubits)
    dim = n_qubits + 1
    h = np.zeros((dim, dim), dtype=complex)
    if spec.mu:
        h += spec.mu * (sx @ sx)
    if spec.chi:
        h += spec.chi * (sy @ sy)
    if spec.gamma:
        h += spec.gamma * ((sp @ sp - sm @ sm) / 2j)
    if spec.f_coeffs:
        m = np.arange(dim) - n_qubits / 2.0
        h += np.diag(np.polynomial.polynomial.polyval(m, spec.f_coeffs))
    return HermitianMatrix(dim, h)


def parity_check(spec: HamiltonianSpec, n_qubits: int) -> float:
    """Max-norm of [P, H] with P = diag((-1)^n); zero for every spec here."""
    h = build_hamiltonian(spec, n_qubits).entries
    signs = np.where(np.arange(n_qubits + 1) % 2 == 0, 1.0, -1.0)
    commutator = signs[:, None] * h - h * signs[None, :]
    return float(np.max(np.abs(commutator)))
