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
from typing import NamedTuple

import numpy as np

from .dicke import CollectiveMoments, modulus
from .errors import NotXFormError, NumericalError

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
    n_qubits: int

    def __post_init__(self):
        trace = self.v_plus + self.v_minus + 2.0 * self.y
        if not np.all(np.abs(trace - 1.0) <= 1e-10):
            raise ValueError(f"reduced matrix trace {trace!r} != 1")
        if not np.all(np.minimum(np.minimum(self.v_plus, self.v_minus), self.y) >= -1e-12):
            raise ValueError("negative population in reduced matrix")
        if not np.all(self.v_plus * self.v_minus >= modulus(self.u) ** 2 - 1e-10):
            raise ValueError("X-block positivity violated: v+ v- < |u|^2")

    def as_matrix(self) -> np.ndarray:
        """The 4x4 matrix of one reduction."""
        xp, xm, u = self.x_plus, self.x_minus, self.u
        return np.array(
            [
                [self.v_plus, xp.conjugate(), xp.conjugate(), u.conjugate()],
                [xp, self.y, self.y, xm.conjugate()],
                [xp, self.y, self.y, xm.conjugate()],
                [u, xm, xm, self.v_minus],
            ]
        )


@dataclass(frozen=True)
class ConcurrenceResult:
    concurrence: float
    lambdas: np.ndarray  # square-root spectrum, descending, (4,) or (T, 4)
    branch: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)

    @property
    def entangled(self) -> bool:
        return self.concurrence > 0.0


class SqueezingCondition(NamedTuple):
    satisfied: bool
    margin: float
    xi2: float


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
    u = _divide(m.sp2, n * (n - 1))
    x_plus = _divide((n - 1) * m.sp_mean + m.anti_sp_sz, 2.0 * n * (n - 1))
    x_minus = _divide((n - 1) * m.sp_mean - m.anti_sp_sz, 2.0 * n * (n - 1))
    return TwoQubitReduced(
        v_plus=v_plus,
        v_minus=v_minus,
        y=y,
        x_plus=x_plus,
        x_minus=x_minus,
        u=u,
        n_qubits=n,
    )


def _divide(z, k):
    """z / k for a real k > 0, part by part, as Python divides a complex by a real."""
    out = np.empty(np.shape(z), dtype=complex)
    out.real = np.real(z) / k
    out.imag = np.imag(z) / k
    return out[()]


def concurrence_x_form(r: TwoQubitReduced) -> ConcurrenceResult:
    """Closed-form concurrence for the X-shaped reduction (x+- = 0)."""
    coherence = np.maximum(modulus(r.x_plus), modulus(r.x_minus))
    if not np.all(coherence <= X_FORM_TOL):
        raise NotXFormError(
            f"coherences max(|x+|, |x-|) = {np.max(coherence):.3e} too large for the X form"
        )
    root = np.sqrt(np.maximum(r.v_plus * r.v_minus, 0.0))
    mod_u = modulus(r.u)
    two_y = 2.0 * r.y
    zero = np.zeros_like(two_y)
    lambdas = np.sort(np.stack([root + mod_u, abs(root - mod_u), two_y, zero], axis=-1))
    lambdas = lambdas[..., ::-1]
    concurrence = lambdas[..., 0] - lambdas[..., 1] - lambdas[..., 2] - lambdas[..., 3]
    # at exact equality both branches give the same value
    branch = np.where(two_y <= root + mod_u, COHERENCE_DOMINATED, POPULATION_DOMINATED)[()]
    return ConcurrenceResult(concurrence=concurrence[()], lambdas=lambdas, branch=branch)


def concurrence_spectral(rho4: np.ndarray) -> ConcurrenceResult:
    """Concurrence from the spectrum of rho (sy x sy) rho* (sy x sy)."""
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho4.shape}")
    if not np.max(np.abs(rho4 - rho4.conj().T)) <= 1e-10:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho4).real - 1.0) > 1e-10 or abs(np.trace(rho4).imag) > 1e-10:
        raise ValueError(f"density matrix trace {np.trace(rho4)!r} != 1")
    if np.linalg.eigvalsh(rho4)[0] < -1e-10:
        raise ValueError("density matrix not positive semidefinite")

    # The lambda_i are the square roots of the eigenvalues of
    # rho (sy x sy) rho* (sy x sy). Computed here through the similar
    # Hermitian form: they equal the singular values of
    # sqrt(rho) (sy x sy) sqrt(rho)*, which is stable where the non-normal
    # product's eigensolve loses half the digits on defective eigenvalues.
    evals, evecs = np.linalg.eigh(rho4)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lambdas = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
    if np.min(lambdas) < -1e-10:
        raise NumericalError(f"spin-flip spectrum has eigenvalue {np.min(lambdas):.3e}")
    lambdas = np.sort(np.clip(lambdas, 0.0, None))[::-1]
    concurrence = lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]
    return ConcurrenceResult(concurrence=concurrence, lambdas=lambdas, branch=SPECTRAL)


def squeezing_condition(r: TwoQubitReduced) -> SqueezingCondition:
    """The even/odd squeezing criterion |u| - y > 0 and its xi^2 value."""
    margin = modulus(r.u) - r.y
    xi2 = 1.0 - 2.0 * (r.n_qubits - 1) * margin
    return SqueezingCondition(satisfied=margin > 0.0, margin=margin, xi2=xi2)


def prop3_residual(xi2: float, concurrence: float, n_qubits: int) -> float:
    """Residual of the identity xi^2 = 1 - (N-1) C; zero where it applies."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    return xi2 - 1.0 + (n_qubits - 1) * concurrence
