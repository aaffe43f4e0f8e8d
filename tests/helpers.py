"""Reference integrators and helpers that the tests share."""

import math
import sys

import numpy as np

from spinsqueeze import cli
from spinsqueeze.dicke import (
    NORM_TOL,
    CollectiveMoments,
    SymmetricState,
    mix_moments,
    squared_norm,
)
from spinsqueeze.evolution import hermitian_eigen, propagate
from spinsqueeze.hamiltonians import HamiltonianSpec, build_hamiltonian
from spinsqueeze.oracle import FullState, collective_pauli_sums, product_moments


# one spec per model, for the sector-path tests against a dense reference
SECTOR_SPECS = {
    "one-axis": HamiltonianSpec.one_axis(1.0),
    "one-axis-field": HamiltonianSpec.one_axis_field(1.0, 0.7),
    "two-axis": HamiltonianSpec.two_axis(1.0),
    "general": HamiltonianSpec(mu=0.4, chi=-0.9, gamma=1.3, f_coeffs=(0.3, 0.7, 0.2)),
}


def h_norm_bound(spec, n):
    """Upper bound on ||H||: perfbench's bound for mu, gamma and a linear
    field, plus chi Sy^2 and every power of f(Sz)."""
    j = n / 2.0
    return ((abs(spec.mu) + abs(spec.chi)) * j * j + abs(spec.gamma) * j * (j + 1.0)
            + sum(abs(coeff) * j**k for k, coeff in enumerate(spec.f_coeffs)))


def error_model(spec, n, t):
    """The tests' error model eps * N^2 * max(1, ||H|| t) of an evolution to
    time t (a scalar or an array), with ||H|| from `h_norm_bound`."""
    return sys.float_info.epsilon * n * n * np.maximum(1.0, h_norm_bound(spec, n) * t)


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


def evolve_states(spec, initial: SymmetricState, times) -> SymmetricState:
    """The stack of states at `times`, one row per time: one sector solve,
    then `evolution.propagate`."""
    return propagate(hermitian_eigen(spec, initial), times)


def dense_evolve(spec, initial: SymmetricState, times) -> np.ndarray:
    """The (T, N+1) amplitudes of `initial` at `times` through the complex
    `eigh` of the dense H of `build_hamiltonian`, which does not assume the
    parity sectors: a reference, and the one way here to evolve a state of
    both parities."""
    energies, vectors = np.linalg.eigh(build_hamiltonian(spec, initial.n_qubits))
    c0 = vectors.conj().T @ initial.amplitudes
    return (vectors @ (np.exp(-1j * np.outer(energies, times)) * c0[:, None])).T


def evolve_columns(cfg: cli.RunConfig) -> dict:
    """Every CSV column of `evolve` over the whole trajectory: column name ->
    array, one value per time, from the blocks of `cli.row_blocks`."""
    blocks = list(cli.row_blocks(cfg))
    return {c: np.concatenate([block[c] for block in blocks]) for c in cli.EVOLVE_COLUMNS}


def dirichlet_row(exps):
    """Flat-Dirichlet weights as numpy's `Generator.dirichlet(np.ones(k))`
    forms them from its k unit-shape gammas (standard exponentials): each
    times the reciprocal of their left-to-right sum."""
    total = 0.0
    for e in exps:
        total += e
    return exps * (1.0 / total)


def separable_variates(rng, samples):
    """The raw variates of `oracle.sample_separable`, drawn as it draws them:
    counts, then (samples, 8, 3) normals, (samples, 8) uniforms and
    (samples, 8) standard exponentials."""
    counts = rng.integers(1, 9, size=samples)
    normals = rng.normal(size=(samples, 8, 3))
    return counts, normals, rng.random((samples, 8)), rng.standard_exponential((samples, 8))


def separable_rows(n_qubits, variates):
    """Per-ensemble reference of `oracle.sample_separable`: one moment record
    per row, from the row's live components alone (no padding), with a
    per-row norm, cube-root radii and `dirichlet_row` weights."""
    rows = []
    for k, normal, uniform, exps in zip(*variates):
        directions = normal[:k] / np.linalg.norm(normal[:k], axis=1, keepdims=True)
        bloch = directions * (uniform[:k] ** (1.0 / 3.0))[:, None]
        rows.append(mix_moments(dirichlet_row(exps[:k]), product_moments(bloch, n_qubits)))
    return rows


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


def taylor_evolve(spec, initial: SymmetricState, times) -> np.ndarray:
    """The (T, m) sector entries of `initial`, an even or an odd state, at
    ascending `times` from 0, by truncated-Taylor steps on the complex band of
    its sector, built here from the ladder formula with a_n =
    sqrt((N-n)(n+1)): H[n, n] = (mu + chi)/4 (a_(n-1)^2 + a_n^2) + f(n - N/2)
    and H[n+2, n] = ((mu - chi)/4 - i gamma/2) a_n a_(n+1). Each step has
    ||H|| dt <= 1, with ||H|| from `h_norm_bound`, and adds terms of its
    series until one has a norm below 1e-18 (Al-Mohy and Higham, SIAM J.
    Sci. Comput. 33, 488, 2011, without their norm estimates). It uses no
    eigensolver: a reference for `propagate` at any N."""
    n, c = initial.n_qubits, initial.amplitudes
    [parity] = [p for p in (0, 1) if np.any(c[p::2])]
    k = np.arange(parity, n + 1, 2.0)  # the sector's Dicke indices
    diagonal = ((spec.mu + spec.chi) / 4.0 * ((n - k + 1.0) * k + (n - k) * (k + 1.0))
                + np.polynomial.polynomial.polyval(k - n / 2.0, (*spec.f_coeffs, 0.0)))
    lower = complex((spec.mu - spec.chi) / 4.0, -spec.gamma / 2.0) * np.sqrt(
        (n - k[:-1]) * (k[:-1] + 1.0) * (n - k[:-1] - 1.0) * (k[:-1] + 2.0))
    upper = lower.conj()

    def apply(x):
        y = diagonal * x
        y[1:] += lower * x[:-1]
        y[:-1] += upper * x[1:]
        return y

    x, now, rows = c[parity::2].astype(complex), 0.0, []
    for t in times:
        steps = math.ceil((t - now) * h_norm_bound(spec, n))
        for _ in range(steps):
            term, order = x, 0
            while np.linalg.norm(term) >= 1e-18:
                order += 1
                term = (-1j * (t - now) / steps / order) * apply(term)
                x = x + term
        rows.append(x)
        now = t
    return np.array(rows)


# The complex 2^N oracle routines that the real-arithmetic ones of
# `spinsqueeze.oracle` replaced: references for the tests only.

def complex_pauli_sums(n_qubits: int):
    """S_x, S_y and S_z as complex matrices, from the real X, Y and Z of
    `oracle.collective_pauli_sums`: S_x = X, S_y = iY, S_z = Z, with every
    other part +0.0."""
    x, y, z = collective_pauli_sums(n_qubits)
    sx, sy, sz = (np.zeros(x.shape, dtype=complex) for _ in range(3))
    sx.real, sy.imag, sz.real = x, y, z
    return sx, sy, sz


def complex_full_hamiltonian(spec, n_qubits: int) -> np.ndarray:
    """The full Hamiltonian from complex Pauli-product GEMMs."""
    sx, sy, sz = complex_pauli_sums(n_qubits)
    h = np.zeros_like(sx)
    if spec.mu:
        h += spec.mu * (sx @ sx)
    if spec.chi:
        h += spec.chi * (sy @ sy)
    if spec.gamma:
        sp = sx + 1j * sy
        sm = sx - 1j * sy
        h += spec.gamma * (sp @ sp - sm @ sm) / 2j
    for power, coeff in enumerate(spec.f_coeffs):
        if coeff:
            h += coeff * np.linalg.matrix_power(sz, power)
    return h


def complex_full_evolve(hamiltonian: np.ndarray, times) -> FullState:
    """The all-down state evolved to each time through a complex `eigh`."""
    dim = len(hamiltonian)
    energies, vectors = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    initial = np.zeros(dim, dtype=complex)
    initial[-1] = 1.0
    coeffs = vectors.conj().T @ initial
    rows = [vectors @ (np.exp(-1j * energies * t) * coeffs) for t in times]
    return FullState(dim.bit_length() - 1, np.array(rows))


def complex_expectation(state: FullState, op: np.ndarray):
    """<psi| op |psi> of one state, or of each row of a stack, as complex."""
    c = state.amplitudes
    rows = c.reshape(-1, c.shape[-1])
    values = np.array([complex(row.conj() @ (op @ row)) for row in rows])
    return values.reshape(c.shape[:-1])[()]


def complex_full_collective_moments(state: FullState) -> CollectiveMoments:
    """Moments as <psi| O |psi> of the complex operator products."""
    sx, sy, sz = complex_pauli_sums(state.n_qubits)

    def ev(op):
        return complex_expectation(state, op)

    sp = sx + 1j * sy
    return CollectiveMoments(
        n_qubits=state.n_qubits,
        mean_sz=ev(sz).real,
        sz2=ev(sz @ sz).real,
        sx2=ev(sx @ sx).real,
        sy2=ev(sy @ sy).real,
        sp_mean=ev(sp),
        sp2=ev(sp @ sp),
        anti_sp_sz=ev(sp @ sz + sz @ sp),
    )


# The per-row 2^N oracle routines that the stacked ones of `spinsqueeze.oracle`
# replaced, kept as they were: each stacked row must keep their bits.

def looped_full_evolve(hamiltonian: np.ndarray, times) -> FullState:
    """Evolve the all-down product state under a `full_hamiltonian` matrix to
    each of `times`, from one eigendecomposition of all-down's parity block
    (real when H is): a stack, one row per time, each from its own
    matrix-vector product, with +0.0 on every bitstring of the other parity."""
    dim = len(hamiltonian)
    n_qubits = dim.bit_length() - 1  # dim = 2^N
    block = [format(i, f"0{n_qubits}b").count("0") % 2 == 0 for i in range(dim)]
    h = hamiltonian[np.ix_(block, block)]
    real = not np.any(h.imag)
    energies, vectors = np.linalg.eigh(h.real if real else h)
    coeffs = vectors[-1].conj()  # overlaps with the all-ones bitstring, every qubit down
    apply = real_times_complex if real else np.matmul
    rows = np.zeros((len(times), dim), dtype=complex)
    for row, t in zip(rows, times):
        row[block] = apply(vectors, np.exp(-1j * energies * t) * coeffs)
    return FullState(n_qubits, rows)


def real_times_complex(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """op @ psi for a real op, as one real product on psi's (Re, Im) columns."""
    return (op @ psi.view(float).reshape(-1, 2)).view(complex)[:, 0]


def looped_full_collective_moments(state: FullState) -> CollectiveMoments:
    """Moments evaluated with explicit full-space operators, for one state or
    every row of a stack: per row, inner products of x = X psi, y = Y psi and
    z = Z psi, with S_y psi = i y and S+- psi = x -+ y."""
    ops = collective_pauli_sums(state.n_qubits)
    c = state.amplitudes
    rows = []
    for psi in c.reshape(-1, c.shape[-1]):
        x, y, z = (real_times_complex(op, psi) for op in ops)
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
