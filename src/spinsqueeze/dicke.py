"""Symmetric (Dicke-basis) states of N qubits and their collective-spin moments.

A symmetric state lives in the (N+1)-dimensional span of the Dicke states
|n>, n = 0..N, where n counts excitations and the Sz eigenvalue is n - N/2.
All ladder coefficients follow S+|n> = sqrt((N-n)(n+1)) |n+1>.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

NORM_TOL = 1e-12
PARITY_TOL = 1e-12
BLOCK_ELEMENTS = 2**16  # amplitudes per pass when a stack's moments are taken


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitudes c_0..c_N over the Dicke basis: one state of
    shape (N+1,), or a stack of shape (T, N+1) with one state per row."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1] != self.n_qubits + 1:
            raise ValueError(
                f"expected {self.n_qubits + 1} amplitudes, got shape {amps.shape}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        self.validate()

    def validate(self):
        """Re-check normalization on demand, every state of a stack at once."""
        c = self.amplitudes
        norm2 = dot(c.real, c.real) + dot(c.imag, c.imag)
        worst = np.ravel(norm2)[np.argmax(np.abs(norm2 - 1.0))]
        if not abs(worst - 1.0) <= 10 * NORM_TOL:  # a NaN row fails too
            raise ValueError(f"state not normalized: sum |c_n|^2 = {float(worst)!r}")


@dataclass(frozen=True)
class CollectiveMoments:
    """First and second moments of the collective spin operators.

    sp_mean, sp2 and anti_sp_sz are the complex expectations <S+>, <S+^2>
    and <[S+, Sz]_+>; everything else is real. Each field has shape () for
    one state and (T,) for a stack.
    """

    n_qubits: int
    mean_sx: float
    mean_sy: float
    mean_sz: float
    sz2: float
    sx2: float
    sy2: float
    sp_mean: complex
    sp2: complex
    anti_sp_sz: complex
    anti_sx_sy: float

    @property
    def mean_spin(self) -> np.ndarray:
        """<S>, shape (3,) or (T, 3)."""
        return np.stack([self.mean_sx, self.mean_sy, self.mean_sz], axis=-1)

    @property
    def mean_spin_norm(self):
        return np.sqrt(dot(self.mean_spin, self.mean_spin))

    @property
    def covariance(self) -> np.ndarray:
        """Symmetrized second-moment matrix <[S_a, S_b]_+>/2, (3, 3) or (T, 3, 3)."""
        cxy = 0.5 * self.anti_sx_sy
        cxz = 0.5 * self.anti_sp_sz.real
        cyz = 0.5 * self.anti_sp_sz.imag
        rows = [[self.sx2, cxy, cxz], [cxy, self.sy2, cyz], [cxz, cyz, self.sz2]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


MOMENT_FIELDS = tuple(f.name for f in fields(CollectiveMoments) if f.name != "n_qubits")


def dot(a, b):
    """a . b over the last axis, row by row, through the BLAS dot that a
    1-D `a @ b` calls, so a stack's rows equal the single-state values."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0][()]


def modulus(z):
    """|z| elementwise, by libm hypot as Python's abs(complex) computes it."""
    return np.hypot(np.real(z), np.imag(z))


# Python's float ** 2 goes through libm pow, which is not always x * x;
# squaring through it keeps stacks identical to scalar code, bit for bit.
_pow = np.frompyfunc(math.pow, 2, 1)


def square(x):
    """x ** 2 elementwise, by libm pow as Python's float ** 2 computes it."""
    return np.asarray(_pow(x, 2.0), dtype=float)[()]


def ladder_coefficients(n_qubits: int) -> np.ndarray:
    """a_n = sqrt((N-n)(n+1)) for n = 0..N-1, so S+|n> = a_n |n+1>."""
    n = np.arange(n_qubits)
    return np.sqrt((n_qubits - n) * (n + 1.0))


def collective_operators(n_qubits: int):
    """Dense (N+1)x(N+1) matrices (sx, sy, sz, sp, sm) in the Dicke basis."""
    a = ladder_coefficients(n_qubits)
    dim = n_qubits + 1
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(1, dim), np.arange(dim - 1)] = a
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag(np.arange(dim) - n_qubits / 2.0).astype(complex)
    return sx, sy, sz, sp, sm


def make_dicke_state(n_qubits: int, n_excited: int) -> SymmetricState:
    """Basis state |n> with exactly n_excited excitations."""
    if not 0 <= n_excited <= n_qubits:
        raise ValueError(
            f"excitation number {n_excited} out of range for N={n_qubits}"
        )
    amps = np.zeros(n_qubits + 1, dtype=complex)
    amps[n_excited] = 1.0
    return SymmetricState(n_qubits, amps)


def make_all_down(n_qubits: int) -> SymmetricState:
    """The all-qubits-down product state |0>, the standard initial state."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return make_dicke_state(n_qubits, 0)


def make_state(n_qubits, amplitudes):
    """Normalize an amplitude vector into a SymmetricState.

    Returns (state, norm) where norm is the factor the input was divided by.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (n_qubits + 1,):
        raise ValueError(
            f"expected {n_qubits + 1} amplitudes, got shape {amps.shape}"
        )
    norm = float(np.linalg.norm(amps))
    if not NORM_TOL < norm < math.inf:
        raise ValueError(f"amplitude vector has near-zero or non-finite norm {norm!r}")
    return SymmetricState(n_qubits, amps / norm), norm


def parity_class(state: SymmetricState) -> Parity:
    """Classify by which excitation-number parity sectors are populated."""
    probs = np.abs(state.amplitudes) ** 2
    even_weight = float(probs[0::2].sum())
    odd_weight = float(probs[1::2].sum())
    if odd_weight <= PARITY_TOL:
        return Parity.EVEN
    if even_weight <= PARITY_TOL:
        return Parity.ODD
    return Parity.MIXED


def _moment_sums(c, n_qubits: int):
    """<S+>, <S+^2>, <[S+, Sz]_+>, <Sz> and <Sz^2> of the states c."""
    m = np.arange(n_qubits + 1) - n_qubits / 2.0
    a = ladder_coefficients(n_qubits)
    # <S+> couples n -> n+1, <S+^2> couples n -> n+2
    sp_mean = np.sum(np.conj(c[..., 1:]) * a * c[..., :-1], axis=-1)
    sp2 = np.sum(np.conj(c[..., 2:]) * a[1:] * a[:-1] * c[..., :-2], axis=-1)
    anti_sp_sz = np.sum(np.conj(c[..., 1:]) * a * (m[:-1] + m[1:]) * c[..., :-1], axis=-1)
    probs = np.abs(c) ** 2
    return sp_mean, sp2, anti_sp_sz, dot(probs, m), dot(probs, m**2)


def collective_moments(state: SymmetricState) -> CollectiveMoments:
    """All collective first/second moments, exact to floating precision."""
    n_qubits = state.n_qubits
    c = state.amplitudes
    if c.ndim == 1:
        sums = _moment_sums(c, n_qubits)
    else:  # a block of rows at a time: temporaries stay the size of one block
        step = max(1, BLOCK_ELEMENTS // c.shape[1])
        blocks = [_moment_sums(c[i:i + step], n_qubits) for i in range(0, len(c), step)]
        sums = [np.concatenate(parts) for parts in zip(*blocks)]
    sp_mean, sp2, anti_sp_sz, mean_sz, sz2 = sums

    # Sx^2 + Sy^2 = J(J+1) - Sz^2 and Sx^2 - Sy^2 + i[Sx,Sy]_+ = S+^2
    j = n_qubits / 2.0
    perp_total = j * (j + 1.0) - sz2
    sx2 = 0.5 * (perp_total + sp2.real)
    sy2 = 0.5 * (perp_total - sp2.real)

    return CollectiveMoments(
        n_qubits=n_qubits,
        mean_sx=sp_mean.real,
        mean_sy=sp_mean.imag,
        mean_sz=mean_sz,
        sz2=sz2,
        sx2=sx2,
        sy2=sy2,
        sp_mean=sp_mean,
        sp2=sp2,
        anti_sp_sz=anti_sp_sz,
        anti_sx_sy=sp2.imag,
    )


def mix_moments(weights, moments: CollectiveMoments) -> CollectiveMoments:
    """Convex combination over the last axis; valid because moments are affine in rho.

    weights: shape (K,) for one ensemble or (S, K) for S of them; the fields
    of moments hold one entry per component and broadcast against them.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(weights >= 0):
        raise ValueError("negative or NaN weight in ensemble")
    total = np.sum(weights, axis=-1)
    if not np.all(np.abs(total - 1.0) <= 1e-12):
        raise ValueError(f"weights sum to {total!r}, expected 1")
    # cumsum adds the weighted terms left to right as builtin sum does, unlike
    # np.sum's pairwise order; + 0.0 is builtin sum's start, for an all -0.0 sum
    return CollectiveMoments(moments.n_qubits, **{
        f: np.cumsum(weights * getattr(moments, f), axis=-1)[..., -1] + 0.0
        for f in MOMENT_FIELDS
    })
