"""Symmetric (Dicke-basis) states of N qubits and their collective-spin moments.

A symmetric state lives in the (N+1)-dimensional span of the Dicke states
|n>, n = 0..N, where n counts excitations and the Sz eigenvalue is n - N/2.
All ladder coefficients follow S+|n> = sqrt((N-n)(n+1)) |n+1>.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

NORM_TOL = 1e-12


def squared_norm(amps: np.ndarray):
    """sum |c_i|^2 over the last axis: one value per state of a stack."""
    re, im = amps.real, amps.imag
    return np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im)


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitudes c_0..c_N over the Dicke basis: one state of
    shape (N+1,), or a stack of shape (T, N+1) with one state per row. A
    state of one parity sector (`parity` 0 or 1, as `evolution.propagate`
    gives it) holds only that sector's entries c_parity, c_parity+2, ...,
    shape (m,) or (T, m); its other amplitudes are exact zeros, and
    `amplitudes` builds the full array only when a caller reads it.
    `probabilities` holds |c|^2 of the entries, from the norm check."""

    n_qubits: int
    entries: np.ndarray
    parity: int | None = None
    probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        if self.parity not in (None, 0, 1):
            raise ValueError(f"parity must be None, 0 or 1, got {self.parity!r}")
        amps = np.ascontiguousarray(self.entries, dtype=complex)
        if amps is self.entries and amps.flags.writeable:
            amps = amps.copy()  # freezing it below must not freeze the caller's array
        width = self.n_qubits + 1 if self.parity is None else (self.n_qubits + 2 - self.parity) // 2
        if amps.ndim not in (1, 2) or amps.shape[-1] != width:
            raise ValueError(f"expected {width} amplitudes, got shape {amps.shape}")
        if amps.size == 0:
            raise ValueError("empty stack: no states to hold")
        probs = np.abs(amps)
        probs *= probs
        norm2 = np.einsum("...i->...", probs)
        worst = np.ravel(norm2)[np.argmax(np.abs(norm2 - 1.0))]
        if not abs(worst - 1.0) <= 10 * NORM_TOL:  # a NaN row fails too
            raise ValueError(f"state not normalized: sum |c_n|^2 = {float(worst)!r}")
        amps.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "entries", amps)
        object.__setattr__(self, "probabilities", probs)

    @property
    def amplitudes(self) -> np.ndarray:
        """The read-only full amplitudes, shape (N+1,) or (T, N+1); for a
        sector state a new array, zero off the sector."""
        if self.parity is None:
            return self.entries
        amps = np.zeros(self.entries.shape[:-1] + (self.n_qubits + 1,), dtype=complex)
        amps[..., self.parity::2] = self.entries
        amps.flags.writeable = False
        return amps


@dataclass(frozen=True)
class CollectiveMoments:
    """First and second moments of the collective spin operators.

    sp_mean, sp2 and anti_sp_sz are the complex <S+>, <S+^2> and <[S+, Sz]_+>,
    so also <Sx> + i<Sy> and <Sx^2> - <Sy^2> + i<[Sx, Sy]_+>; the rest are real.
    Each field has shape () for one state and (T,) for a stack.
    """

    n_qubits: int
    mean_sz: float
    sz2: float
    sx2: float
    sy2: float
    sp_mean: complex
    sp2: complex
    anti_sp_sz: complex

    @property
    def mean_spin(self) -> np.ndarray:
        """<S>, shape (3,) or (T, 3)."""
        return np.stack([self.sp_mean.real, self.sp_mean.imag, self.mean_sz], axis=-1)

    @property
    def mean_spin_norm(self):
        mean_spin = self.mean_spin
        return np.sqrt(np.einsum("...i,...i->...", mean_spin, mean_spin))

    @property
    def covariance(self) -> np.ndarray:
        """Symmetrized second-moment matrix <[S_a, S_b]_+>/2, (3, 3) or (T, 3, 3)."""
        cxy = 0.5 * self.sp2.imag
        cxz = 0.5 * self.anti_sp_sz.real
        cyz = 0.5 * self.anti_sp_sz.imag
        rows = [[self.sx2, cxy, cxz], [cxy, self.sy2, cyz], [cxz, cyz, self.sz2]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


MOMENT_FIELDS = tuple(f.name for f in fields(CollectiveMoments) if f.name != "n_qubits")


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


def _moment_sums(state: SymmetricState):
    """<S+>, <S+^2>, <[S+, Sz]_+>, <Sz> and <Sz^2> of `state`'s entries, from
    its |c_n|^2 array and one buffer of conj(c_(n+1)), reused for conj(c_(n+2)).
    A sector state has no n -> n+1 coupling: its <S+> and <[S+, Sz]_+> are
    exact zeros, set by parity, and <S+^2> couples neighbouring entries.
    Every product and sum is an einsum, row by row, so a row of a stack gives
    the bits it gives alone (a BLAS product rounds a row by the shape of the
    stack, and numpy's in-place complex multiply rounds one element apart)."""
    n_qubits, c, parity = state.n_qubits, state.entries, state.parity
    first, step = (0, 1) if parity is None else (parity, 2)
    m = (np.arange(n_qubits + 1) - n_qubits / 2.0)[first::step]
    a = ladder_coefficients(n_qubits)
    mean_sz = np.einsum("...i,...i->...", state.probabilities, m)
    sz2 = np.einsum("...i,...i->...", state.probabilities, m * m)
    conj = np.conjugate(c[..., 1:])  # the next entry: n -> n+1, or n -> n+2 in a sector
    if parity is None:
        sp_mean = np.einsum("...i,...i,...i->...", conj, c[..., :-1], a)
        anti_sp_sz = np.einsum("...i,...i,...i->...", conj, c[..., :-1], a * (m[:-1] + m[1:]))
        conj = np.conjugate(c[..., 2:], out=conj[..., :-1])  # <S+^2> couples n -> n+2
    else:
        sp_mean = anti_sp_sz = np.zeros(c.shape[:-1], dtype=complex)[()]
    sp2 = np.einsum("...i,...i,...i->...", conj, c[..., :conj.shape[-1]],
                    (a[1:] * a[:-1])[first::step])
    return sp_mean, sp2, anti_sp_sz, mean_sz, sz2


def collective_moments(state: SymmetricState) -> CollectiveMoments:
    """All collective first/second moments, exact to floating precision, of a
    full state or stack or of a sector one, through the one kernel
    `_moment_sums`: <Sz> and <Sz^2> from |c|^2 over the stored entries, <S+^2>
    from entries two Dicke indices apart. For a sector state (every state
    `evolution.propagate` gives from all-down) <S+> and <[S+, Sz]_+> are
    exact zeros, set by parity and not summed.

    A stack is taken whole, in one pass per sum: besides the result, the
    kernel holds one array the size of the entries at a time. A long time
    grid should still come in blocks, as `evolution.evolve_blocks` yields
    them, since that buffer grows with the stack."""
    n_qubits = state.n_qubits
    sp_mean, sp2, anti_sp_sz, mean_sz, sz2 = _moment_sums(state)

    # Sx^2 + Sy^2 = J(J+1) - Sz^2 and Sx^2 - Sy^2 + i[Sx,Sy]_+ = S+^2
    j = n_qubits / 2.0
    perp_total = j * (j + 1.0) - sz2
    sx2 = 0.5 * (perp_total + sp2.real)
    sy2 = 0.5 * (perp_total - sp2.real)

    return CollectiveMoments(
        n_qubits=n_qubits,
        mean_sz=mean_sz,
        sz2=sz2,
        sx2=sx2,
        sy2=sy2,
        sp_mean=sp_mean,
        sp2=sp2,
        anti_sp_sz=anti_sp_sz,
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
    # a row that sample_separable padded with zero-weight components must
    # equal its live components mixed alone: cumsum adds left to right, so the
    # padding terms come last (np.sum's pairwise order would regroup the row),
    # and + 0.0 gives a -0.0 total the +0.0 that a padding term would give it
    return CollectiveMoments(moments.n_qubits, **{
        f: np.cumsum(weights * getattr(moments, f), axis=-1)[..., -1] + 0.0
        for f in MOMENT_FIELDS
    })
