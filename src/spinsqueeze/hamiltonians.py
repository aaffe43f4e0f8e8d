"""Collective quadratic Hamiltonians in the Dicke basis.

The general form is

    H = mu Sx^2 + chi Sy^2 + gamma (S+^2 - S-^2)/(2i) + f(Sz)

with f a polynomial; (S+^2 - S-^2)/(2i) = Sx Sy + Sy Sx. The named models are:
  one_axis(mu)            - twisting about a single axis, mu Sx^2
  one_axis_field(mu, om)  - same plus a transverse field om Sz
  two_axis(gamma)         - counter-twisting, (gamma/2i)(S+^2 - S-^2)

Every such H conserves the parity of the excitation number n, and within a
parity sector it couples n only to n +- 2:

    H[n+2, n] = c a_n a_(n+1),   c = (mu - chi)/4 - i gamma/2
    H[n, n]   = (mu + chi)/4 (a_(n-1)^2 + a_n^2) + f(m_n)

with a_n the ladder coefficients (dicke.ladder_coefficients). The phase
gauge D = diag(exp(i j arg c)) on the sector index j takes the factor
c/|c| out of every coupling, so each sector is D T D^dag with T a
real symmetric tridiagonal matrix (`SectorBand`). That band is what
evolution diagonalizes; the dense complex `build_hamiltonian` is kept as
the reference the checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import collective_operators, ladder_coefficients

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
        if not residual <= HERMITICITY_TOL:  # NaN entries fail too
            raise ValueError(f"matrix not Hermitian, residual {residual:.3e}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def build_hamiltonian(spec: HamiltonianSpec, n_qubits: int) -> HermitianMatrix:
    """Assemble the dense (N+1)x(N+1) matrix of the general Hamiltonian from
    the collective operators; the reference the sector bands are checked against."""
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


@dataclass(frozen=True)
class SectorBand:
    """One parity sector of H, on the Dicke indices parity, parity + 2, ...:
    D T D^dag with T real symmetric tridiagonal and D_jj = phase^j."""

    n_qubits: int
    parity: int  # 0 even, 1 odd: the first Dicke index of the sector
    diagonal: np.ndarray  # (m,)
    off_diagonal: np.ndarray  # (m-1,), T[j+1, j] = T[j, j+1] = |c| a_n a_(n+1)
    phase: complex  # c / |c|, or 1 when c = 0

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    @property
    def indices(self) -> slice:
        """The sector's Dicke indices, as a slice of the amplitude axis."""
        return slice(self.parity, None, 2)

    def gauge(self) -> np.ndarray:
        """The diagonal of D; a running product, so it is exact when the
        phase is 1, -1, i or -i (every named model)."""
        steps = np.full(self.dim, self.phase)
        steps[0] = 1.0
        return np.cumprod(steps)

    def tridiagonal(self) -> np.ndarray:
        """T as a dense real (m, m) matrix."""
        t = np.diag(self.diagonal)
        j = np.arange(self.dim - 1)
        t[j + 1, j] = t[j, j + 1] = self.off_diagonal
        return t


def sector_bands(spec: HamiltonianSpec, n_qubits: int) -> tuple:
    """The even and the odd `SectorBand` of the general Hamiltonian, in O(N)."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    a = ladder_coefficients(n_qubits)
    a2 = np.zeros(n_qubits + 2)  # a_(n-1)^2 at index n, zero at both ends
    a2[1:-1] = a * a
    diagonal = 0.25 * (spec.mu + spec.chi) * (a2[:-1] + a2[1:])
    if spec.f_coeffs:
        m = np.arange(n_qubits + 1) - n_qubits / 2.0
        diagonal = diagonal + np.polynomial.polynomial.polyval(m, spec.f_coeffs)
    c = complex(0.25 * (spec.mu - spec.chi), -0.5 * spec.gamma)
    coupling = abs(c) * (a[:-1] * a[1:])  # n <-> n+2, for n = 0..N-2
    if not (np.all(np.isfinite(diagonal)) and np.all(np.isfinite(coupling))):
        raise ValueError("Hamiltonian entries overflow")
    phase = c / abs(c) if c else 1.0 + 0.0j
    return tuple(
        SectorBand(n_qubits, p, diagonal[p::2], coupling[p::2], phase) for p in (0, 1)
    )


def assemble_sectors(bands) -> np.ndarray:
    """The dense complex (N+1)x(N+1) matrix that the sector bands represent."""
    dim = bands[0].n_qubits + 1
    h = np.zeros((dim, dim), dtype=complex)
    for band in bands:
        d = band.gauge()
        h[band.indices, band.indices] = d[:, None] * band.tridiagonal() * d.conj()
    return h


def parity_check(spec: HamiltonianSpec, n_qubits: int) -> float:
    """Max-norm of [P, H] with P = diag((-1)^n); zero for every spec here."""
    h = build_hamiltonian(spec, n_qubits).entries
    signs = np.where(np.arange(n_qubits + 1) % 2 == 0, 1.0, -1.0)
    commutator = signs[:, None] * h - h * signs[None, :]
    return float(np.max(np.abs(commutator)))
