"""Two-qubit reduced density matrices of symmetric states and their concurrence.

The exchange-symmetric reduction is parameterized by (v+, v-, x+, x-, y, u)
and is recovered from collective moments alone. For even/odd states the
coherences x+- vanish and the matrix takes the X form, with a closed-form
concurrence; a spectral route through the spin-flipped matrix product is
kept as an independent path. The concurrence is reported without the usual
max(0, .) clamp, so negative values mean "no pairwise entanglement".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveMoments, SymmetricState, collective_moments
from .errors import NumericalError
from .squeezing import squeezing_even_odd, squeezing_general

X_FORM_TOL = 1e-8

COHERENCE_DOMINATED = "coherence_dominated"
POPULATION_DOMINATED = "population_dominated"
SPECTRAL = "spectral"

_SIGMA_YY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


@dataclass(frozen=True)
class TwoQubitReduced:
    """Parameters of the symmetric reduction in the basis {|00>,|01>,|10>,|11>};
    each has shape () for one state and (T,) for a stack."""

    v_plus: float
    v_minus: float
    y: float
    x_plus: complex
    x_minus: complex
    u: complex

    def __post_init__(self):
        trace = self.v_plus + self.v_minus + 2.0 * self.y
        if not np.all(np.abs(trace - 1.0) <= 1e-10):
            raise ValueError(f"reduced matrix trace {trace!r} != 1")
        if not np.all(np.minimum(np.minimum(self.v_plus, self.v_minus), self.y) >= -1e-12):
            raise ValueError("negative population in reduced matrix")
        if not np.all(self.v_plus * self.v_minus >= np.abs(self.u) ** 2 - 1e-10):
            raise ValueError("X-block positivity violated: v+ v- < |u|^2")

    def as_matrix(self) -> np.ndarray:
        """The 4x4 matrix of one reduction, or a (T, 4, 4) stack."""
        vp, vm, y, xp, xm, u = np.broadcast_arrays(
            self.v_plus, self.v_minus, self.y, self.x_plus, self.x_minus, self.u
        )
        rows = [
            [vp, xp.conj(), xp.conj(), u.conj()],
            [xp, y, y, xm.conj()],
            [xp, y, y, xm.conj()],
            [u, xm, xm, vm],
        ]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


@dataclass(frozen=True)
class ConcurrenceResult:
    concurrence: float
    lambdas: np.ndarray  # square-root spectrum, descending, (4,) or (T, 4)
    branch: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)


def reduced_two_qubit(m: CollectiveMoments) -> TwoQubitReduced:
    """Reconstruct the pair reduction from collective moments (any pair; they
    are all equal by exchange symmetry)."""
    n = m.n_qubits
    if n < 2:
        raise ValueError(f"need at least two qubits, got {n}")
    denom = 4.0 * n * (n - 1)
    base = n * n - 2.0 * n + 4.0 * m.sz2
    shift = 4.0 * m.mean_sz * (n - 1)
    v_plus = (base + shift) / denom
    v_minus = (base - shift) / denom
    y = (n * n - 4.0 * m.sz2) / denom
    u = m.sp2 / (n * (n - 1))
    x_plus = ((n - 1) * m.sp_mean + m.anti_sp_sz) / (2.0 * n * (n - 1))
    x_minus = ((n - 1) * m.sp_mean - m.anti_sp_sz) / (2.0 * n * (n - 1))
    return TwoQubitReduced(v_plus=v_plus, v_minus=v_minus, y=y, x_plus=x_plus, x_minus=x_minus, u=u)


def concurrence_x_form(r: TwoQubitReduced) -> ConcurrenceResult:
    """Closed-form concurrence for the X-shaped reduction (x+- = 0)."""
    coherence = np.maximum(np.abs(r.x_plus), np.abs(r.x_minus))
    if not np.all(coherence <= X_FORM_TOL):
        raise ValueError(
            f"coherences max(|x+|, |x-|) = {np.max(coherence):.3e} too large for the X form"
        )
    root = np.sqrt(np.maximum(r.v_plus * r.v_minus, 0.0))
    mod_u = np.abs(r.u)
    two_y = 2.0 * r.y
    zero = np.zeros_like(two_y)
    lambdas = np.sort(np.stack([root + mod_u, abs(root - mod_u), two_y, zero], axis=-1))
    lambdas = lambdas[..., ::-1]
    concurrence = lambdas[..., 0] - lambdas[..., 1] - lambdas[..., 2] - lambdas[..., 3]
    # at exact equality both branches give the same value
    branch = np.where(two_y <= root + mod_u, COHERENCE_DOMINATED, POPULATION_DOMINATED)[()]
    return ConcurrenceResult(concurrence=concurrence[()], lambdas=lambdas, branch=branch)


def concurrence_spectral(rho4: np.ndarray) -> ConcurrenceResult:
    """Concurrence from the spectrum of rho (sy x sy) rho* (sy x sy), for one
    4x4 matrix or each matrix of a (T, 4, 4) stack; every check covers every
    matrix, and one bad matrix rejects the stack."""
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.ndim not in (2, 3) or rho4.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got {rho4.shape}")
    if not np.max(np.abs(rho4 - rho4.conj().swapaxes(-1, -2))) <= 1e-10:  # NaN fails
        raise ValueError("density matrix not Hermitian")
    trace = np.ravel(np.trace(rho4, axis1=-2, axis2=-1))
    bad = (np.abs(trace.real - 1.0) > 1e-10) | (np.abs(trace.imag) > 1e-10)
    if np.any(bad):
        raise ValueError(f"density matrix trace {trace[bad][0]!r} != 1")
    evals, evecs = np.linalg.eigh(rho4)
    if np.any(evals[..., 0] < -1e-10):
        raise ValueError("density matrix not positive semidefinite")

    # The lambda_i are the square roots of the eigenvalues of
    # rho (sy x sy) rho* (sy x sy). Computed here through the similar
    # Hermitian form: they equal the singular values of
    # sqrt(rho) (sy x sy) sqrt(rho)*, which is stable where the non-normal
    # product's eigensolve loses half the digits on defective eigenvalues.
    scaled = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    root = scaled @ evecs.conj().swapaxes(-1, -2)
    lambdas = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
    if np.min(lambdas) < -1e-10:
        raise NumericalError(f"spin-flip spectrum has eigenvalue {np.min(lambdas):.3e}")
    lambdas = np.sort(np.clip(lambdas, 0.0, None), axis=-1)[..., ::-1]
    concurrence = lambdas[..., 0] - lambdas[..., 1] - lambdas[..., 2] - lambdas[..., 3]
    return ConcurrenceResult(concurrence=concurrence, lambdas=lambdas, branch=SPECTRAL)


def prop3_residual(xi2: float, concurrence: float, n_qubits: int) -> float:
    """Residual of the identity xi^2 = 1 - (N-1) C; zero where it applies."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    return xi2 - 1.0 + (n_qubits - 1) * concurrence


def analyse(states: SymmetricState) -> dict:
    """The one analysis path of the commands: moments, both xi^2 routes, the
    pair reduction and its X-form concurrence of one even or odd state, or
    a stack of them, as column name -> array, one value per state; a row
    gives the bits it gives as a one-row stack. The columns are those of the `evolve`
    CSV but `t`, then `margin` (the squeezing criterion |u| - y > 0 of
    even/odd states) and the coherences `x_plus` and `x_minus`. A row with a
    vanishing mean spin has `xi2_general` NaN and `degenerate_flag` 1."""
    m = collective_moments(states)
    xi2_general = squeezing_general(m)
    r = reduced_two_qubit(m)
    conc = concurrence_x_form(r)
    return {
        "xi2_closed": squeezing_even_odd(m),
        "xi2_general": xi2_general,
        "mean_spin_norm": m.mean_spin_norm,
        "degenerate_flag": np.isnan(xi2_general).astype(int),
        "concurrence": conc.concurrence,
        "branch": conc.branch,
        "u_re": r.u.real,
        "u_im": r.u.imag,
        "y": r.y,
        "v_plus": r.v_plus,
        "v_minus": r.v_minus,
        "sz_mean": m.mean_sz,
        "sz2": m.sz2,
        "sp2_re": m.sp2.real,
        "sp2_im": m.sp2.imag,
        "margin": np.abs(r.u) - r.y,  # of the complex u: np.hypot may differ in the last bit
        "x_plus": r.x_plus,
        "x_minus": r.x_minus,
    }
