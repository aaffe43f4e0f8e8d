"""Independent ground truth on the full 2^N tensor-product space.

Everything here deliberately avoids the Dicke-basis shortcuts: Hamiltonians
are explicit Pauli sums, reductions are literal partial traces, and the
separable-state sampler works from single-qubit Bloch vectors: it returns
the moments of a list of random ensembles as one stack, built by one
`product_moments` call on every component's Bloch vector and one
`mix_moments` call over the components. Convention:
|1> is the single-qubit ground state, so the all-down state is the all-ones
bitstring and has <Sz> = -N/2; a Dicke state with n excitations is the
equal-weight sum of the bitstrings with n zeros.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .dicke import CollectiveMoments, SymmetricState, mix_moments, square
from .errors import CapacityError
from .hamiltonians import HamiltonianSpec

MAX_QUBITS_STATIC = 12
MAX_QUBITS_EVOLVE = 10

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class FullState:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS_STATIC:
            raise CapacityError(f"N={self.n_qubits} exceeds oracle cap {MAX_QUBITS_STATIC}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(f"expected 2^{self.n_qubits} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"full state norm {norm!r} != 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _excitation_counts(n_qubits: int) -> np.ndarray:
    """Excitations (zero bits) of every basis index, qubit 0 = leading bit."""
    idx = np.arange(2**n_qubits)
    ones = np.zeros_like(idx)
    for bit in range(n_qubits):
        ones += (idx >> bit) & 1
    return n_qubits - ones


def embed_symmetric(state: SymmetricState) -> FullState:
    """Isometry |n> -> equal superposition of the C(N,n) matching bitstrings."""
    n_qubits = state.n_qubits
    if n_qubits > MAX_QUBITS_STATIC:
        raise CapacityError(f"N={n_qubits} exceeds oracle cap {MAX_QUBITS_STATIC}")
    counts = _excitation_counts(n_qubits)
    weights = np.array([1.0 / np.sqrt(comb(n_qubits, n)) for n in range(n_qubits + 1)])
    full = state.amplitudes[counts] * weights[counts]
    return FullState(n_qubits, full)


def collective_pauli_sums(n_qubits: int):
    """Full-space S_x, S_y, S_z as explicit sums of single-qubit Paulis / 2,
    read-only and shared between calls for the same size."""
    return _pauli_sums(n_qubits)


@functools.lru_cache(maxsize=1)  # the suites ask for one size many times in a row
def _pauli_sums(n_qubits: int):
    dim = 2**n_qubits
    ops = []
    for single in (_SX, _SY, _SZ):
        total = np.zeros((dim, dim), dtype=complex)
        for site in range(n_qubits):
            term = np.eye(1, dtype=complex)
            for q in range(n_qubits):
                term = np.kron(term, single if q == site else np.eye(2, dtype=complex))
            total += 0.5 * term
        total.flags.writeable = False
        ops.append(total)
    return tuple(ops)


def full_hamiltonian(spec: HamiltonianSpec, n_qubits: int) -> np.ndarray:
    sx, sy, sz = collective_pauli_sums(n_qubits)
    h = spec.mu * (sx @ sx) + spec.chi * (sy @ sy)
    if spec.gamma:
        sp = sx + 1j * sy
        sm = sx - 1j * sy
        h = h + spec.gamma * (sp @ sp - sm @ sm) / 2j
    for power, coeff in enumerate(spec.f_coeffs):
        if coeff:
            h = h + coeff * np.linalg.matrix_power(sz, power)
    return h


def full_evolve(spec: HamiltonianSpec, n_qubits: int, t: float) -> FullState:
    """Evolve the all-down product state on the full space."""
    if n_qubits > MAX_QUBITS_EVOLVE:
        raise CapacityError(f"N={n_qubits} exceeds evolution cap {MAX_QUBITS_EVOLVE}")
    h = full_hamiltonian(spec, n_qubits)
    energies, vectors = np.linalg.eigh(h)
    initial = np.zeros(2**n_qubits, dtype=complex)
    initial[-1] = 1.0  # all-ones bitstring = every qubit in the ground state
    amps = vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ initial))
    return FullState(n_qubits, amps)


def full_collective_moments(state: FullState) -> CollectiveMoments:
    """Moments evaluated with explicit full-space operators."""
    sx, sy, sz = collective_pauli_sums(state.n_qubits)
    c = state.amplitudes

    def ev(op):
        return complex(c.conj() @ (op @ c))

    sp = sx + 1j * sy
    sp_mean = ev(sp)
    sp2 = ev(sp @ sp)
    sz2 = ev(sz @ sz).real
    return CollectiveMoments(
        n_qubits=state.n_qubits,
        mean_sx=ev(sx).real,
        mean_sy=ev(sy).real,
        mean_sz=ev(sz).real,
        sz2=sz2,
        sx2=ev(sx @ sx).real,
        sy2=ev(sy @ sy).real,
        sp_mean=sp_mean,
        sp2=sp2,
        anti_sp_sz=ev(sp @ sz + sz @ sp),
        anti_sx_sy=ev(sx @ sy + sy @ sx).real,
    )


def partial_trace_pair(state: FullState, i: int, j: int) -> np.ndarray:
    """Trace out every qubit except (i, j); returns the 4x4 reduction."""
    n = state.n_qubits
    if not 0 <= i < j < n:
        raise ValueError(f"invalid qubit pair ({i}, {j}) for N={n}")
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, (i, j), (0, 1))
    block = tensor.reshape(4, -1)
    return block @ block.conj().T


def _c_mul(a, b):
    """Python's complex product of (real, imag) pairs, computed part by part."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _complex(parts):
    z = np.empty(np.shape(parts[0]), dtype=complex)
    z.real, z.imag = parts
    return z[()]


def product_moments(bloch, n_qubits: int) -> CollectiveMoments:
    """Exact collective moments of rho^(x)N for a single-qubit Bloch vector (3,),
    or for each vector of a stack (..., K, 3), with fields of shape (..., K).

    Cross-site correlators factorize; same-site terms use sigma_a^2 = 1 and
    {sigma_+, sigma_z} = 0. The complex fields are formed from their parts
    as Python's complex arithmetic forms them, so each entry of a stack
    equals the scalar expression for its vector bit for bit.
    """
    bloch = np.asarray(bloch, dtype=float)
    rx, ry, rz = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    n = n_qubits
    pairs = n * (n - 1)
    i_ry = _c_mul((0.0, 1.0), (ry, 0.0))
    sigma_p = _c_mul((0.5, 0.0), (rx + i_ry[0], 0.0 + i_ry[1]))  # 0.5 * (rx + 1j * ry)
    sigma_p2 = _c_mul((1.0, 0.0), _c_mul(sigma_p, sigma_p))  # sigma_p**2, as Python powers
    return CollectiveMoments(
        n_qubits=n,
        mean_sx=0.5 * n * rx,
        mean_sy=0.5 * n * ry,
        mean_sz=0.5 * n * rz,
        sz2=0.25 * (n + pairs * square(rz)),
        sx2=0.25 * (n + pairs * square(rx)),
        sy2=0.25 * (n + pairs * square(ry)),
        sp_mean=_complex(_c_mul((n, 0.0), sigma_p)),
        sp2=_complex(_c_mul((pairs, 0.0), sigma_p2)),
        anti_sp_sz=_complex(_c_mul(_c_mul((pairs, 0.0), sigma_p), (rz, 0.0))),
        anti_sx_sy=pairs * 0.5 * rx * ry,
    )


def sample_separable(n_qubits: int, draws) -> CollectiveMoments:
    """Moments of random symmetric separable ensembles, one row per draw.

    Each draw (n_components, seed) is one ensemble: Bloch vectors uniform in
    the unit ball (mixed single-qubit states included) and weights from a
    flat Dirichlet, drawn from its own numpy PCG64 generator, so a row does
    not depend on the other draws. Ensembles narrower than the widest are
    padded with zero-weight components.
    """
    counts = [k for k, _ in draws]
    if n_qubits < 2 or not counts or min(counts) < 1:
        raise ValueError("need n_qubits >= 2 and at least one draw, each with n_components >= 1")
    bloch = np.zeros((len(draws), max(counts), 3))
    weights = np.zeros((len(draws), max(counts)))
    for row, (k, seed) in enumerate(draws):
        rng = np.random.default_rng(seed)
        directions = rng.normal(size=(k, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        bloch[row, :k] = directions * (rng.random(k) ** (1.0 / 3.0))[:, None]
        weights[row, :k] = rng.dirichlet(np.ones(k))
    return mix_moments(weights, product_moments(bloch, n_qubits))


@dataclass(frozen=True)
class OneAxisMoments:
    """Closed-form one-axis-twisting second moments at scaled phase 2*mu*t.

    The literature gives only Re<S+^2> (= <Sx^2 - Sy^2>); the imaginary part
    must be obtained numerically.
    """

    sx2: float
    sy2: float
    sz2: float
    sp2_re: float


def one_axis_analytic_moments(n_qubits: int, mu: float, t: float) -> OneAxisMoments:
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    n = n_qubits
    phase = 2.0 * mu * t
    cos_pow = np.cos(phase) ** (n - 2)
    sx2 = n / 4.0
    sy2 = (n * n + n - n * (n - 1) * cos_pow) / 8.0
    sz2 = (n * n + n + n * (n - 1) * cos_pow) / 8.0
    return OneAxisMoments(sx2=sx2, sy2=sy2, sz2=sz2, sp2_re=sx2 - sy2)
