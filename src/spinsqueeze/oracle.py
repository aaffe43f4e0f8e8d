"""Independent ground truth on the full 2^N tensor-product space.

Everything here deliberately avoids the Dicke-basis shortcuts: Hamiltonians
are explicit Pauli sums, reductions are literal partial traces, and the
separable-state sampler works from single-qubit Bloch vectors. With
S_x = X, S_y = iY, S_z = Z and X, Y, Z real, the 2^N work is real where it can
be; two-axis H is purely imaginary and keeps a complex `eigh` (a gauge making
it real would repeat the sector bands' trick in their reference). The sampler
returns the moments of a stack of random ensembles, built by one
`product_moments` call on every component's Bloch vector and one
`mix_moments` call over the components. Convention:
|1> is the single-qubit ground state, so the all-down state is the all-ones
bitstring and has <Sz> = -N/2; a Dicke state with n excitations is the
equal-weight sum of the bitstrings with n zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .dicke import CollectiveMoments, SymmetricState, mix_moments, squared_norm
from .errors import CapacityError
from .hamiltonians import HamiltonianSpec

MAX_QUBITS_STATIC = 12
MAX_QUBITS_EVOLVE = 10


@dataclass(frozen=True)
class FullState:
    """Amplitudes over the 2^N bitstrings: one state of shape (2^N,), or a
    stack of shape (K, 2^N) with one state per row."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS_STATIC:
            raise CapacityError(f"N={self.n_qubits} exceeds oracle cap {MAX_QUBITS_STATIC}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps is self.amplitudes and amps.flags.writeable:
            amps = amps.copy()  # freezing it below must not freeze the caller's array
        if amps.ndim not in (1, 2) or amps.shape[-1] != 2**self.n_qubits:
            raise ValueError(f"expected 2^{self.n_qubits} amplitudes, got {amps.shape}")
        norm = np.ravel(np.sqrt(squared_norm(amps)))
        bad = ~(np.abs(norm - 1.0) <= 1e-10)  # a NaN row fails too
        if np.any(bad):
            raise ValueError(f"full state norm {float(norm[bad][0])!r} != 1")
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
    """Isometry |n> -> equal superposition of the C(N,n) matching bitstrings,
    applied to one state or to every row of a stack."""
    n_qubits = state.n_qubits
    if n_qubits > MAX_QUBITS_STATIC:
        raise CapacityError(f"N={n_qubits} exceeds oracle cap {MAX_QUBITS_STATIC}")
    counts = _excitation_counts(n_qubits)
    weights = np.array([1.0 / np.sqrt(comb(n_qubits, n)) for n in range(n_qubits + 1)])
    full = state.amplitudes[..., counts] * weights[counts]
    return FullState(n_qubits, full)


def collective_pauli_sums(n_qubits: int):
    """The real X, Y and Z of S_x = X, S_y = iY and S_z = Z on the full space,
    as explicit sums of single-qubit Paulis / 2, read off the bits of the
    basis index: sigma_x and sigma_y of a site flip its bit (Y gives -1/2
    where the row's bit is 0, +1/2 where it is 1), and sigma_z is +1 on a
    zero bit, -1 on a one bit. Equal, bit for bit, to the real (X, Z) and
    imaginary (Y) parts of the sums of Kronecker chains; each call builds
    new arrays."""
    dim = 2**n_qubits
    idx = np.arange(dim)
    x, y = np.zeros((dim, dim)), np.zeros((dim, dim))
    for bit in range(n_qubits):
        flipped = idx ^ (1 << bit)
        x[flipped, idx] = 0.5
        y[flipped, idx] = np.where((flipped >> bit) & 1, 0.5, -0.5)
    return x, y, np.diag(_excitation_counts(n_qubits) - n_qubits / 2.0)


def full_hamiltonian(spec: HamiltonianSpec, n_qubits: int) -> np.ndarray:
    """The dense complex 2^N x 2^N Hamiltonian as a sum of Pauli products,
    from real ones (S_y^2 = -Y^2, S+- = X -+ Y): sums of quarters, exact."""
    if n_qubits > MAX_QUBITS_EVOLVE:  # before any 2^N allocation
        raise CapacityError(f"N={n_qubits} exceeds evolution cap {MAX_QUBITS_EVOLVE}")
    x, y, z = collective_pauli_sums(n_qubits)
    h = np.zeros(x.shape, dtype=complex)
    if spec.mu:
        h.real += spec.mu * (x @ x)
    if spec.chi:
        h.real -= spec.chi * (y @ y)
    if spec.gamma:
        sp, sm = x - y, x + y
        h.imag -= spec.gamma * (sp @ sp - sm @ sm) / 2
    for power, coeff in enumerate(spec.f_coeffs):
        if coeff:
            h.real += coeff * np.linalg.matrix_power(z, power)
    return h


def full_evolve(hamiltonian: np.ndarray, times) -> FullState:
    """Evolve the all-down product state under a `full_hamiltonian` matrix to
    each of `times`, from one eigendecomposition (real when H is): a stack,
    one row per time, each from its own matrix-vector product."""
    dim = len(hamiltonian)
    real = not np.any(hamiltonian.imag)
    energies, vectors = np.linalg.eigh(hamiltonian.real if real else hamiltonian)
    coeffs = vectors[-1].conj()  # overlaps with the all-ones bitstring, every qubit down
    apply = _real_times_complex if real else np.matmul
    rows = [apply(vectors, np.exp(-1j * energies * t) * coeffs) for t in times]
    return FullState(dim.bit_length() - 1, np.array(rows))  # dim = 2^N


def _real_times_complex(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """op @ psi for a real op, as one real product on psi's (Re, Im) columns."""
    return (op @ psi.view(float).reshape(-1, 2)).view(complex)[:, 0]


def full_collective_moments(state: FullState) -> CollectiveMoments:
    """Moments evaluated with explicit full-space operators, for one state or
    every row of a stack: per row, inner products of x = X psi, y = Y psi and
    z = Z psi, with S_y psi = i y and S+- psi = x -+ y."""
    ops = collective_pauli_sums(state.n_qubits)
    c = state.amplitudes
    rows = []
    for psi in c.reshape(-1, c.shape[-1]):
        x, y, z = (_real_times_complex(op, psi) for op in ops)
        sp, sm = x - y, x + y
        rows.append(dict(
            mean_sz=np.vdot(psi, z).real,
            sz2=np.vdot(z, z).real,
            sx2=np.vdot(x, x).real,
            sy2=np.vdot(y, y).real,
            sp_mean=np.vdot(psi, sp),
            sp2=np.vdot(sm, sp),
            anti_sp_sz=np.vdot(sm, z) + np.vdot(z, sp),
        ))
    return CollectiveMoments(state.n_qubits, **{
        name: np.array([row[name] for row in rows]).reshape(c.shape[:-1])[()] for name in rows[0]
    })


def partial_trace_pair(state: FullState, i: int, j: int) -> np.ndarray:
    """Trace out every qubit except (i, j); returns the 4x4 reduction, or a
    (K, 4, 4) stack for a stack of states."""
    n = state.n_qubits
    if not 0 <= i < j < n:
        raise ValueError(f"invalid qubit pair ({i}, {j}) for N={n}")
    lead = state.amplitudes.shape[:-1]
    tensor = state.amplitudes.reshape(lead + (2,) * n)
    tensor = np.moveaxis(tensor, (len(lead) + i, len(lead) + j), (len(lead), len(lead) + 1))
    block = tensor.reshape(lead + (4, -1))
    return block @ block.conj().swapaxes(-1, -2)


def product_moments(bloch, n_qubits: int) -> CollectiveMoments:
    """Exact collective moments of rho^(x)N for a single-qubit Bloch vector (3,),
    or for each vector of a stack (..., K, 3), with fields of shape (..., K).

    Cross-site correlators factorize; same-site terms use sigma_a^2 = 1 and
    {sigma_+, sigma_z} = 0. The complex fields are assembled from real
    products, so an entry does not depend on the shape of the input.
    """
    bloch = np.asarray(bloch, dtype=float)
    rx, ry, rz = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    n = n_qubits
    pairs = n * (n - 1)
    return CollectiveMoments(
        n_qubits=n,
        mean_sz=0.5 * n * rz,
        sz2=0.25 * (n + pairs * (rz * rz)),
        sx2=0.25 * (n + pairs * (rx * rx)),
        sy2=0.25 * (n + pairs * (ry * ry)),
        sp_mean=0.5 * n * rx + 1j * (0.5 * n * ry),  # <sigma_+> = (rx + i ry) / 2 per site
        sp2=0.25 * pairs * (rx * rx - ry * ry) + 1j * (0.5 * pairs * rx * ry),
        anti_sp_sz=0.5 * pairs * rx * rz + 1j * (0.5 * pairs * ry * rz),
    )


def sample_separable(n_qubits: int, rng, samples: int) -> CollectiveMoments:
    """Moments of `samples` random symmetric separable ensembles, one row each.

    An ensemble has 1 to 8 components: Bloch vectors uniform in the unit ball
    (mixed single-qubit states included) and weights from a flat Dirichlet.
    The raw variates of all rows come from `rng` in four stacked calls: the
    component counts, then (samples, 8, 3) normals, (samples, 8) uniforms and
    (samples, 8) standard exponentials. The slots at or beyond a row's count
    become zero-weight padding, and the variates are transformed once, on
    the stack.
    """
    if n_qubits < 2 or samples < 1:
        raise ValueError("need n_qubits >= 2 and samples >= 1")
    counts = rng.integers(1, 9, size=samples)
    normals = rng.normal(size=(samples, 8, 3))
    uniforms = rng.random((samples, 8))
    exps = rng.standard_exponential((samples, 8))
    padding = np.arange(8) >= counts[:, None]
    normals[padding] = 1.0  # a nonzero norm, so no 0/0
    uniforms[padding] = 0.0
    exps[padding] = 0.0
    # norm, power and product are elementwise or per length-3 row, so on the
    # stack they give each component's bits; a padding row is +0.0 (radius 0)
    directions = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
    bloch = directions * (uniforms ** (1.0 / 3.0))[..., None]
    return mix_moments(flat_dirichlet(exps), product_moments(bloch, n_qubits))


def flat_dirichlet(exps):
    """Flat-Dirichlet weights from rows of standard exponentials, as numpy's
    `Generator.dirichlet(np.ones(k))` forms them from the same variates: its
    unit-shape gammas are standard exponentials, each scaled by the reciprocal
    of their left-to-right sum (cumsum's order; trailing zeros leave it as is)."""
    return exps * (1.0 / np.cumsum(exps, axis=-1)[..., -1:])


def one_axis_analytic_moments(n_qubits: int, mu: float, t) -> CollectiveMoments:
    """Closed-form one-axis-twisting moments of all-down under mu Sx^2 at time
    `t` (a scalar or an array): the second moments at scaled phase 2 mu t,
    <Sz> = -(N/2) cos^(N-1)(mu t) and Im<S+^2> = <[Sx, Sy]_+> =
    (N(N-1)/2) sin(mu t) cos^(N-2)(mu t); <S+> = <Sx> + i<Sy> and <[S+, Sz]_+>
    vanish by parity. So every moment the analysis reads has a closed form
    (Kitagawa and Ueda, PRA 47, 5138 (1993))."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    n = n_qubits
    cos, sin = np.cos(mu * t), np.sin(mu * t)
    cos_pow = np.cos(2.0 * mu * t) ** (n - 2)
    zero = np.zeros_like(cos)
    sx2 = zero + n / 4.0
    sy2 = (n * n + n - n * (n - 1) * cos_pow) / 8.0
    sz2 = (n * n + n + n * (n - 1) * cos_pow) / 8.0
    sp2_im = 0.5 * n * (n - 1) * sin * cos ** (n - 2)
    return CollectiveMoments(
        n, mean_sz=-0.5 * n * cos ** (n - 1), sz2=sz2, sx2=sx2, sy2=sy2,
        sp_mean=zero, sp2=(sx2 - sy2) + 1j * sp2_im, anti_sp_sz=zero,
    )
