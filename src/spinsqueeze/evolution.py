"""Exact unitary evolution in the symmetric subspace.

H keeps the parity of n, so it is diagonalized on the one parity sector the
initial state occupies (all-down is even), and a state of both parities is
refused. The sector is a real symmetric tridiagonal band T of size m about
N/2 under a diagonal phase gauge D (`hamiltonians.SectorBand`). At even N
the bands of the one-axis, two-axis and even-f `general` Hamiltonians are
unchanged by the spin flip n <-> N-n: each is palindromic (J T J = T, J the
row reversal) and splits exactly into a J-even and a J-odd band of half the
size (Cantoni and Butler, 1976), each solved on its own; a zero-diagonal
band of even size is the exception and is not folded. A band with a zero
diagonal (two-axis, and `general` with mu + chi = 0 and no f) is bipartite,
and its eigenpairs come from the SVD of its bidiagonal half; every other
band, or half of one, goes to `eigh`. Of the solved sector only the modes
the initial state occupies are kept: the smallest-weight modes are dropped
while their summed weight stays within m eps^2, which moves every
propagated state by at most sqrt(m) eps. The eigen contracts, reconstruction
and orthonormality, are checked on the kept modes V_k alone, together with
the capture residual ||x - V_k w_k|| <= 4 sqrt(m) eps, x = D^dag c(0) and
w_k = V_k^T x: the kept modes are exact eigenpairs, orthonormal, and hold
the initial state up to the drop bound and rounding, which covers every
propagated state. A defect confined to a dropped column is not reported;
it cannot reach the output. A state at time t is D V exp(-i Lambda t) w,
with w = V^T D^dag c(0) the initial state's mode amplitudes, computed once.
`propagate` evaluates each phase of an array of times directly, unless it
is handed a phase table: `evolve_blocks` propagates the `TimeGrid` of
`time_grid` one block of at most BLOCK_ROWS times at a time, forms each
block's times only when it is drawn, and hands every block the first
block's cos and sin when there are more than one, so memory does not grow
with the number of times, no point is more than one product from two direct
evaluations, and no error builds up along the grid. The states are handed
on as the sector's (T, m) entries alone, never as a (T, N+1) stack. Both
contracts on V_k are checked in one walk over windows of whole columns; a fold
forms V only if every mode is kept: no other (m, m) array but the solver's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import SymmetricState, make_all_down
from .errors import NumericalError
from .hamiltonians import HamiltonianSpec, SectorBand, sector_bands, tridiagonal

RECONSTRUCTION_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11
BLOCK_AMPLITUDES = 2**18  # complex amplitudes per block that evolve_blocks propagates
# at most this many times per block: each row also carries about 1 KB of
# analysis columns and CSV objects, whatever N is
BLOCK_ROWS = 1024
CONTRACT_ELEMENTS = 2**15  # entries of V per column window of the contracts (256 KiB)
ROOT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Propagator:
    """The solved parity sector of H for one initial state: the kept modes,
    energies ascending, and the initial state's amplitudes on them. The
    eigenvectors are real columns over the gauged sector basis. For a folded
    (palindromic) band the columns alternate between J-even and J-odd
    vectors, which the interlacing of the two halves' spectra puts in
    ascending order; two energies that agree to rounding may come in either
    order. A zero-diagonal band of even size is not folded."""

    band: SectorBand
    eigenvalues: np.ndarray  # (k,), the kept modes
    eigenvectors: np.ndarray  # (m, k)
    mode_re: np.ndarray  # (k,), real part of V^T D^dag c(0)
    mode_im: np.ndarray  # (k,), imaginary part

    @property
    def dim(self) -> int:
        """Size m of the solved sector."""
        return self.band.dim

    @property
    def modes(self) -> int:
        """Number of modes kept for propagation (at most `dim`)."""
        return self.eigenvalues.size


def _is_chiral(d: np.ndarray) -> bool:
    """A band of size m > 1 with a zero diagonal, which `_chiral_eigh` solves."""
    return d.size > 1 and not np.any(d)


def _chiral_eigh(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Eigenpairs of the zero-diagonal tridiagonal T with off-diagonal `e`,
    energies ascending, from the SVD of its bidiagonal half; the vectors are
    written into `out`, an (m, m) array or view, and the energies returned.
    In even/odd sub-index order T = [[0, B], [B^T, 0]] with B[i, i] = e[2i]
    and B[i, i-1] = e[2i-1], so each singular triple (s, u, v) of B gives
    the pair -s, +s with vectors (u, -v)/sqrt(2), (u, v)/sqrt(2) (Golub and
    Kahan, 1965); an odd size adds the null mode (u0, 0) at energy 0."""
    m = e.size + 1
    q = m // 2
    b = np.zeros((m - q, q))
    np.fill_diagonal(b, e[0::2])
    np.fill_diagonal(b[1:], e[1::2])
    u, s, vt = np.linalg.svd(b)  # s descending
    np.divide(u[:, :q], ROOT2, out=out[0::2, :q])  # -s, ascending
    np.divide(vt.T, -ROOT2, out=out[1::2, :q])
    out[0::2, q:m - q] = u[:, q:]  # the null mode, when m is odd
    out[1::2, q:m - q] = 0.0
    np.divide(u[:, q - 1::-1], ROOT2, out=out[0::2, m - q:])  # +s, ascending
    np.divide(vt[::-1].T, ROOT2, out=out[1::2, m - q:])
    return np.concatenate([-s, np.zeros(m - 2 * q), s[::-1]])


def _folds(d: np.ndarray, e: np.ndarray) -> bool:
    """Whether `solve_band` folds the band: it is exactly palindromic
    (J T J = T, J the row reversal) and not a zero-diagonal band of even
    size, where J anticommutes with the chiral sign diag((-1)^j), so the
    halves would carry +-e on their diagonals and lose the exact +-
    spectrum that the SVD of the unfolded band keeps."""
    return (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
            and not (d.size % 2 == 0 and _is_chiral(d)))


def _folded_eigh(d: np.ndarray, e: np.ndarray):
    """(energies, top, signs) of a palindromic band from its J-even and J-odd
    halves (Cantoni and Butler, 1976). With m = 2p + 1 the J-even half is
    d[:p+1], e[:p] with its last coupling times sqrt(2), the J-odd half
    d[:p], e[:p-1]; with m = 2p both are d[:p], e[:p-1] with e[p-1] added to
    (J-even) or subtracted from (J-odd) the last diagonal entry. Each half
    goes to `_chiral_eigh` or `eigh` like an unfolded band, and its vector u
    becomes (u, sign Ju)/sqrt(2), with the centre entry u_p of a J-even vector
    when m is odd: only V's top m - p rows are written, into `top`, and
    `signs` holds each J-sign. The halves' spectra interlace (Cauchy for odd
    m, where the J-odd half is the J-even one's leading block; the rank-one
    update 2 e[p-1] for even m), so one half fills the even columns and the
    other the odd ones in ascending order, up to rounding between a J-even
    and a J-odd energy that agree to rounding."""
    m = d.size
    p = m // 2
    top, signs, energies = np.empty((m - p, m)), np.empty(m), np.empty(m)
    if m % 2:
        even_d, even_e = d[:p + 1], e[:p].copy()
        even_e[-1:] *= ROOT2  # no coupling when m = 1
        halves = ((even_d, even_e, 1.0, slice(0, None, 2)),
                  (d[:p], e[:p - 1], -1.0, slice(1, None, 2)))
        top[p, 1::2] = 0.0  # J-odd vectors vanish at the centre
    else:
        even_d, odd_d = d[:p].copy(), d[:p].copy()
        even_d[-1] += e[p - 1]
        odd_d[-1] -= e[p - 1]
        lower, upper = slice(0, None, 2), slice(1, None, 2)
        if e[p - 1] < 0:
            lower, upper = upper, lower
        halves = ((even_d, e[:p - 1], 1.0, upper), (odd_d, e[:p - 1], -1.0, lower))
    for half_d, half_e, sign, columns in halves:  # the J-odd half is empty when m = 1
        block = top[:half_d.size, columns]
        if _is_chiral(half_d):
            energies[columns] = _chiral_eigh(half_e, block)
        else:
            energies[columns], block[...] = np.linalg.eigh(tridiagonal(half_d, half_e))
        signs[columns] = sign
    top[:p] /= ROOT2
    return energies, top, signs


def _unfold(top: np.ndarray, signs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out`, (m, j), filled with j columns of a fold's V from their top rows, which may be
    out's own, and J-signs: row m-1-i is sign times row i, u/(sign sqrt(2)) bit for bit."""
    out[:top.shape[0]] = top
    np.multiply(out[:out.shape[0] // 2], signs, out=out[::-1][:out.shape[0] // 2])
    return out


def _fold_amplitudes(top: np.ndarray, signs: np.ndarray, x: np.ndarray):
    """(x.real @ V, x.imag @ V) of a fold, CONTRACT_ELEMENTS // m columns at a time."""
    m = x.size
    columns = max(1, CONTRACT_ELEMENTS // m)
    window, w = np.empty((m, min(columns, m))), np.empty((2, m))
    for i in range(0, m, columns):
        v = _unfold(top[:, i:i + columns], signs[i:i + columns], window[:, :min(columns, m - i)])
        np.matmul(x.real, v, out=w[0, i:i + columns])
        np.matmul(x.imag, v, out=w[1, i:i + columns])
    return w


def _contract_residuals(d, e, energies, vectors):
    """(max |T V - V Lambda|, max |V^T V - I|) for the tridiagonal T with
    diagonal d and off-diagonal e and the (m, k) V, in one walk over windows
    of CONTRACT_ELEMENTS // m whole columns, small enough that each window's
    temporaries stay in cache. T v - v lambda of a column reads that column
    alone, from the band in O(m). A window's rows of V^T V are multiplied
    against the columns at or after it, which covers the upper triangle of
    the symmetric V^T V without forming it. A NaN anywhere gives NaN."""
    columns = max(1, CONTRACT_ELEMENTS // d.size)
    worst = []
    for i in range(0, energies.size, columns):
        v = vectors[:, i:i + columns]
        tv = d[:, None] * v
        tv[:-1] += e[:, None] * v[1:]
        tv[1:] += e[:, None] * v[:-1]
        tv -= v * energies[i:i + columns]
        gram = v.T @ vectors[:, i:]  # a band of V^T V's rows, from column i on
        gram.ravel()[::gram.shape[1] + 1] -= 1.0  # its leading diagonal, in place
        worst.append((np.max(np.abs(tv)), np.max(np.abs(gram, out=gram))))
    return np.max(worst, axis=0)


def solve_band(band: SectorBand):
    """(energies, vectors, signs): the m eigenpairs of one sector's band,
    energies ascending; `_kept_modes` checks the ones that are propagated. An
    exactly palindromic band (one-axis, two-axis and `general` with an even
    f, all at even N) is folded into two half-size bands by `_folded_eigh`,
    unless it has a zero diagonal and even m: `vectors` are then V's top
    ceil(m/2) rows, `signs` the J-signs. Otherwise `vectors` is V and `signs`
    None: a band with a zero diagonal and m > 1 (two-axis, and `general`
    with mu + chi = 0 and no f) is solved by `_chiral_eigh`, every other
    band by `eigh`; the halves of a fold are dispatched the same way."""
    d, e = band.diagonal, band.off_diagonal
    if _folds(d, e):
        return _folded_eigh(d, e)
    if _is_chiral(d):
        vectors = np.empty((band.dim, band.dim))
        return _chiral_eigh(e, vectors), vectors, None
    return *np.linalg.eigh(tridiagonal(d, e)), None


def _kept_modes(band: SectorBand, x: np.ndarray):
    """(energies, vectors, mode_re, mode_im) of the modes of `band` that the
    sector state x = D^dag c(0) occupies, in ascending-energy order: the
    smallest-weight modes are dropped while their summed weight stays within
    m eps^2. The kept (m, k) V_k must pass the reconstruction and
    orthonormality contracts and hold x: ||x - V_k w_k|| <= 4 sqrt(m) eps,
    with w_k = V_k^T x, formed as a residual vector. A fold forms w in column
    windows and then V_k alone, or V in place when every mode is kept."""
    energies, v, signs = solve_band(band)
    m = band.dim
    wr, wi = (x.real @ v, x.imag @ v) if signs is None else _fold_amplitudes(v, signs, x)
    weights = wr * wr + wi * wi
    order = np.argsort(weights)
    eps = np.finfo(float).eps
    dropped = int(np.searchsorted(np.cumsum(weights[order]), m * eps**2, side="right"))
    if dropped:  # else V itself: v[:, keep] is not C-contiguous and rounds the GEMM otherwise
        keep = np.sort(order[dropped:])
        energies, v, wr, wi = energies[keep], v[:, keep], wr[keep], wi[keep]
        if signs is not None:  # F-ordered, as v[:, keep] of V itself
            v = _unfold(v, signs[keep], np.empty((m, keep.size), order="F"))
    elif signs is not None:  # every mode: the top rows grow into V in place
        try:
            v.resize((m, m))
        except ValueError:  # referenced elsewhere, as under sys.setprofile: grow by a copy
            v = np.concatenate((v, np.empty((m // 2, m))))
        _unfold(v[:m - m // 2], signs, v)
        wr, wi = x.real @ v, x.imag @ v  # the windows' bits can follow BLAS's thread split
    d, e = band.diagonal, band.off_diagonal
    scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(e), initial=0.0)))
    residual, ortho = _contract_residuals(d, e, energies, v)
    if not residual <= RECONSTRUCTION_TOL * scale:  # NaN fails too
        raise NumericalError(f"eigendecomposition residual {residual:.3e}")
    if not ortho <= ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvector orthonormality residual {ortho:.3e}")
    capture = math.hypot(np.linalg.norm(x.real - v @ wr), np.linalg.norm(x.imag - v @ wi))
    if not capture <= 4.0 * math.sqrt(m) * eps:
        raise NumericalError(f"capture residual {capture:.3e} of the kept modes")
    return energies, v, wr, wi


def hermitian_eigen(spec: HamiltonianSpec, initial: SymmetricState) -> Propagator:
    """Solve the one sector of H that `initial` occupies and keep the modes
    it occupies (`_kept_modes`), each propagated state moving by at most
    sqrt(m) eps in 2-norm at every time, the propagation being unitary. A
    stack of states, or a state of both parities, is refused before any
    solve."""
    c0 = initial.amplitudes
    if c0.ndim != 1:
        raise ValueError(f"expected one initial state, got amplitudes of shape {c0.shape}")
    occupied = [band for band in sector_bands(spec, initial.n_qubits) if np.any(c0[band.indices])]
    if len(occupied) != 1:
        raise ValueError("initial state has weight in both parity sectors; "
                         "expected an even or an odd state")
    [band] = occupied
    return Propagator(band, *_kept_modes(band, band.gauge().conj() * c0[band.indices]))


def _phases(times: np.ndarray, energies: np.ndarray):
    """cos and sin of the (T, k) phases t lambda, each evaluated directly."""
    phase = np.outer(times, energies)
    return np.cos(phase), np.sin(phase, out=phase)


def propagate(propagator: Propagator, times, table=None) -> SymmetricState:
    """The stack of states at `times`, one row per time, as a sector state:
    each row holds only the sector's m entries, written as contiguous (T, m)
    rows. Empty or non-finite `times` are refused. Without a `table` each
    exp(-i lambda t) is evaluated directly. A `table` is the (cos, sin) that
    `_phases` gives for the first block dt r of a uniform grid, and `times`
    are any block dt (s + r) of that grid, of no more rows: row s + r is then
    exp(-i lambda dt r) exp(-i lambda dt s) w, one product from two direct
    evaluations, so no error builds up along the grid. The first block, and
    the first row of every block, are the direct route bit for bit."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("non-finite time in the grid")
    band, v = propagator.band, propagator.eigenvectors
    wr, wi = propagator.mode_re, propagator.mode_im
    if table is None:
        cos, sin = _phases(times, propagator.eigenvalues)
    else:
        cos, sin = (part[:times.size] for part in table)
        if times[0]:  # carry w to a later block's first time; t = 0 needs nothing
            [c], [s] = _phases(times[:1], propagator.eigenvalues)
            wr, wi = c * wr + s * wi, c * wi - s * wr
    entries = np.empty((times.size, band.dim), dtype=complex)
    # exp(-i lambda t) (wr + i wi), split into two real GEMMs whose left
    # operands, cos wr + sin wi and cos wi - sin wr, share one buffer
    operand = cos * wr
    operand += sin * wi
    entries.real = operand @ v.T
    np.multiply(cos, wi, out=operand)
    operand -= sin * wr
    entries.imag = operand @ v.T
    entries *= band.gauge()
    entries.flags.writeable = False  # so SymmetricState need not copy it
    try:
        return SymmetricState(band.n_qubits, entries, band.parity)
    except ValueError as exc:  # exact propagation is unitary: a lost norm is numerical
        raise NumericalError(f"propagated state lost its norm: {exc}") from exc


def evolve_blocks(spec: HamiltonianSpec, initial: SymmetricState, grid: TimeGrid):
    """Solve the occupied sector once, then return a generator of (times,
    states) for consecutive blocks of the `TimeGrid` `grid` of at most
    min(BLOCK_AMPLITUDES // (N+1), BLOCK_ROWS) rows, so that memory stays
    bounded whatever its length. A grid of more than one block is propagated
    from its first block's phase table; one block holds only its own phases.
    A state of both parities is refused by the call, not at the first block."""
    propagator = hermitian_eigen(spec, initial)
    step = max(1, min(BLOCK_AMPLITUDES // (initial.n_qubits + 1), BLOCK_ROWS))
    table = _phases(grid[0:step], propagator.eigenvalues) if grid.size > step else None
    blocks = (grid[i:i + step] for i in range(0, grid.size, step))
    return ((times, propagate(propagator, times, table)) for times in blocks)


@dataclass(frozen=True)
class TimeGrid:
    """The `size` times dt * k, k = 0, 1, ..., from `time_grid`. A slice is
    formed when it is taken, with the values of the same slice of
    dt * np.arange(size), so a grid holds no memory per time; `grid[:]` is
    the whole array."""

    dt: float
    size: int

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.dt * np.arange(*rows.indices(self.size))


def time_grid(t_max: float, dt: float) -> TimeGrid:
    """0, dt, 2dt, ... extended so the last point covers t_max."""
    if not (t_max > 0 and 0 < dt <= t_max and math.isfinite(t_max / dt)):
        raise ValueError(f"invalid time grid: t_max={t_max}, dt={dt}")
    return TimeGrid(dt, math.ceil(t_max / dt - 1e-9) + 1)


def trajectory(spec: HamiltonianSpec, n_qubits: int, t_max: float, dt: float):
    """The all-down state evolved over `time_grid(t_max, dt)`, as the (times,
    states) blocks of `evolve_blocks`: the call solves the even sector, the
    one all-down occupies, and each block is propagated when drawn."""
    return evolve_blocks(spec, make_all_down(n_qubits), time_grid(t_max, dt))
