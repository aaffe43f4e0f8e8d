"""Named machine-check suites behind the `verify` CLI subcommand.

Each suite returns a list of Check records; a check passes when its observed
residual does not exceed its tolerance. Randomized suites take a seed and use
numpy's PCG64 generator, which is recorded in the report for reproducibility.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pairwise
from .dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    dot,
    make_all_down,
    make_dicke_state,
    make_state,
)
from .evolution import evolve_grid, hermitian_eigen, trajectory
from .hamiltonians import (
    HamiltonianSpec,
    assemble_sectors,
    build_hamiltonian,
    parity_check,
    sector_bands,
)
from .oracle import (
    embed_symmetric,
    full_collective_moments,
    full_evolve,
    full_hamiltonian,
    partial_trace_pair,
    sample_separable,
)
from .squeezing import perpendicular_correlation_min, squeezing_even_odd, squeezing_general

RNG_ALGORITHM = "numpy PCG64 (default_rng)"


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _random_symmetric_state(rng, n_qubits: int) -> SymmetricState:
    amps = rng.normal(size=n_qubits + 1) + 1j * rng.normal(size=n_qubits + 1)
    state, _ = make_state(n_qubits, amps)
    return state


def _model_specs():
    return {
        "one-axis": HamiltonianSpec.one_axis(1.0),
        "one-axis-field": HamiltonianSpec.one_axis_field(1.0, 2.0),
        "two-axis": HamiltonianSpec.two_axis(1.0),
    }


def suite_lemma1(seed: int, samples: int = 1000, n_values=range(2, 7)):
    """Separable symmetric states never show negative perpendicular correlation."""
    rng = np.random.default_rng(seed)
    checks = []
    for n in n_values:
        # per sample: component count first, then sub-seed, as the RNG stream fixes
        draws = [(int(rng.integers(1, 9)), int(rng.integers(0, 2**63 - 1)))
                 for _ in range(samples)]
        m = sample_separable(n, draws)
        worst_corr = np.min(perpendicular_correlation_min(m))
        xi2 = squeezing_general(m).xi2  # NaN where the mean spin vanishes
        worst_xi2 = np.min(xi2[~np.isnan(xi2)], initial=np.inf)
        checks.append(Check(f"lemma1_correlation_N{n}", max(0.0, -worst_corr), 1e-12))
        checks.append(Check(f"lemma1_xi2_N{n}", max(0.0, 1.0 - worst_xi2), 1e-10))
    return checks


def suite_lemma2(seed: int, per_n: int = 100, n_values=range(2, 9)):
    """Moment-based pair reduction equals the literal partial trace."""
    rng = np.random.default_rng(seed)
    checks = []
    for n in n_values:
        worst = 0.0
        for _ in range(per_n):
            state = _random_symmetric_state(rng, n)
            predicted = pairwise.reduced_two_qubit(collective_moments(state)).as_matrix()
            traced = partial_trace_pair(embed_symmetric(state), 0, 1)
            worst = max(worst, float(np.max(np.abs(predicted - traced))))
        checks.append(Check(f"lemma2_reduction_N{n}", worst, 1e-10))
    return checks


def suite_lemma3(n_values=(2, 3, 4, 6, 10, 20), points: int = 200):
    """Numeric one-axis moments match the closed cosine formulas."""
    from .oracle import one_axis_analytic_moments

    mu = 1.0
    checks = []
    for n in n_values:
        initial = make_all_down(n)
        prop = hermitian_eigen(HamiltonianSpec.one_axis(mu), initial)
        times = np.linspace(0.0, 2.0 * np.pi, points) / (2.0 * mu)
        m = collective_moments(evolve_grid(prop, initial, times))
        ref = one_axis_analytic_moments(n, mu, times)
        worst = max(
            0.0,
            np.max(np.abs(m.sx2 - ref.sx2)),
            np.max(np.abs(m.sy2 - ref.sy2)),
            np.max(np.abs(m.sz2 - ref.sz2)),
            np.max(np.abs((m.sx2 - m.sy2) - (m.sz2 - n * n / 4.0))),
        )
        checks.append(Check(f"lemma3_moments_N{n}", worst, 1e-9))
    return checks


class TrajectoryWorst(NamedTuple):
    """Worst values along one all-down trajectory; each is 0 when it holds."""

    xi2_excess: float  # xi^2 - 1
    margin_deficit: float  # y - |u|
    prop3_squeezed: float  # |xi^2 - 1 + (N-1) C| where xi^2 <= 1
    prop3_all: float  # |xi^2 - 1 + (N-1) C| at every point


@functools.lru_cache(maxsize=None)  # prop3 and prop4 share trajectories; run_suite clears it
def _trajectory_worst(spec, n, t_max=10.0, dt=0.01) -> TrajectoryWorst:
    m = collective_moments(trajectory(spec, n, t_max, dt).states)
    xi2 = squeezing_even_odd(m).xi2
    r = pairwise.reduced_two_qubit(m)
    residual = np.abs(
        pairwise.prop3_residual(xi2, pairwise.concurrence_x_form(r).concurrence, n)
    )
    return TrajectoryWorst(
        max(0.0, np.max(xi2 - 1.0)),
        max(0.0, np.max(-pairwise.squeezing_condition(r).margin)),
        max(0.0, np.max(residual[xi2 <= 1.0], initial=0.0)),
        max(0.0, np.max(residual)),
    )


def suite_prop3(n_values=(2, 3, 4, 6, 10, 20), t_max: float = 10.0, dt: float = 0.01):
    """xi^2 = 1 - (N-1)C along one-axis trajectories, with and without field."""
    checks = []
    for n in n_values:
        worst = max(
            _trajectory_worst(spec, n, t_max, dt).prop3_squeezed
            for spec in (HamiltonianSpec.one_axis(1.0), HamiltonianSpec.one_axis_field(1.0, 1.0))
        )
        checks.append(Check(f"prop3_identity_N{n}", worst, 1e-9))
    return checks


def suite_prop4(n_values=(2, 5, 10, 25, 50, 100), t_max: float = 10.0, dt: float = 0.01):
    """One-axis twisting: |u| >= y and xi^2 <= 1 at every time."""
    checks = []
    for n in n_values:
        worst = _trajectory_worst(HamiltonianSpec.one_axis(1.0), n, t_max, dt)
        checks.append(Check(f"prop4_margin_N{n}", worst.margin_deficit, 1e-12))
        checks.append(Check(f"prop4_xi2_bound_N{n}", worst.xi2_excess, 1e-12))
        checks.append(Check(f"prop4_identity_N{n}", worst.prop3_all, 1e-9))
    return checks


def suite_parity(n_values=(2, 3, 6, 10), t_max: float = 5.0, dt: float = 0.05):
    """Structural conservation laws along all model trajectories.

    The propagator works inside the parity sectors, so its states keep no
    odd weight by construction; leakage and the transverse means are also
    taken on the same evolution through a dense complex eigh, which does
    not assume the sectors."""
    checks = []
    for name, spec in _model_specs().items():
        for n in n_values:
            commutator = parity_check(spec, n)
            h = build_hamiltonian(spec, n)
            traj = trajectory(spec, n, t_max, dt)
            c = traj.states.amplitudes
            energies, vectors = np.linalg.eigh(h.entries)
            modes = vectors.conj().T @ make_all_down(n).amplitudes
            dense = (np.exp(-1j * np.outer(traj.times, energies)) * modes) @ vectors.T
            both = np.concatenate([c, dense])
            m = collective_moments(SymmetricState(n, both))
            worst_transverse = max(np.max(np.abs(m.mean_sx)), np.max(np.abs(m.mean_sy)))
            worst_leak = np.max(np.sum(np.abs(both[:, 1::2]) ** 2, axis=-1))
            norm = np.sqrt(dot(c.real, c.real) + dot(c.imag, c.imag))
            worst_norm = np.max(np.abs(norm - 1.0))
            energy = dot(c.conj(), np.matmul(h.entries, c[..., None])[..., 0]).real
            worst_energy = np.max(np.abs(energy - energy[0]))
            checks.append(Check(f"parity_commutator_{name}_N{n}", commutator, 1e-13))
            checks.append(Check(f"parity_transverse_{name}_N{n}", worst_transverse, 1e-10))
            checks.append(Check(f"parity_leakage_{name}_N{n}", worst_leak, 1e-12))
            checks.append(Check(f"parity_norm_{name}_N{n}", worst_norm, 1e-12))
            checks.append(Check(f"parity_energy_{name}_N{n}", worst_energy, 1e-10))
    return checks


def suite_oracle(seed: int, n_values=range(2, 9), times=(0.1, 0.3, 1.0)):
    """Dicke-basis machinery against the full 2^N tensor-product simulation."""
    checks = []
    for n in n_values:
        # Hamiltonian projection: the full Pauli-sum Hamiltonian compressed by
        # the Dicke embedding isometry equals both the dense builder and the
        # matrix the sector bands and their gauge represent.
        worst_h = 0.0
        embed_cols = [
            embed_symmetric(make_dicke_state(n, k)).amplitudes for k in range(n + 1)
        ]
        isometry = np.column_stack(embed_cols)
        for spec in _model_specs().values():
            projected = isometry.conj().T @ full_hamiltonian(spec, n) @ isometry
            for h in (build_hamiltonian(spec, n).entries, assemble_sectors(sector_bands(spec, n))):
                worst_h = max(worst_h, float(np.max(np.abs(projected - h))))
        checks.append(Check(f"oracle_hamiltonian_projection_N{n}", worst_h, 1e-10))

        worst_fidelity = 0.0
        worst_moments = 0.0
        initial = make_all_down(n)
        for spec in _model_specs().values():
            states = evolve_grid(hermitian_eigen(spec, initial), initial, times)
            m_sub = collective_moments(states)
            for k, t in enumerate(times):
                full_state = full_evolve(spec, n, t)
                sub_state = SymmetricState(n, states.amplitudes[k])
                overlap = abs(
                    np.vdot(embed_symmetric(sub_state).amplitudes, full_state.amplitudes)
                )
                worst_fidelity = max(worst_fidelity, 1.0 - overlap**2)
                m_full = full_collective_moments(full_state)
                worst_moments = max(
                    worst_moments,
                    *(abs(getattr(m_sub, f)[k] - getattr(m_full, f)) for f in MOMENT_FIELDS),
                )
        checks.append(Check(f"oracle_evolution_fidelity_N{n}", worst_fidelity, 1e-10))
        checks.append(Check(f"oracle_moments_N{n}", worst_moments, 1e-10))
    return checks


def random_x_form(rng, n_qubits: int = 4) -> pairwise.TwoQubitReduced:
    """Random valid (v+, v-, y, u) tuple with unit trace and X-block positivity."""
    v_plus, v_minus, two_y = rng.dirichlet(np.ones(3))
    mod_u = rng.random() * np.sqrt(v_plus * v_minus)
    u = mod_u * np.exp(2j * np.pi * rng.random())
    return pairwise.TwoQubitReduced(
        v_plus=float(v_plus),
        v_minus=float(v_minus),
        y=float(two_y / 2.0),
        x_plus=0.0,
        x_minus=0.0,
        u=complex(u),
        n_qubits=n_qubits,
    )


def suite_x_form(seed: int, samples: int = 1000):
    """Closed-form X-state concurrence against the spectral definition."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = random_x_form(rng)
        closed = pairwise.concurrence_x_form(r).concurrence
        spectral = pairwise.concurrence_spectral(r.as_matrix()).concurrence
        worst = max(worst, abs(closed - spectral))
    return [Check("x_form_vs_spectral", worst, 1e-10)]


# Each runner looks its suite up by name when called, so a wrapper put on a
# suite_* function after import is the one that runs.
_RUNNERS = {
    "lemma1": lambda seed: suite_lemma1(seed),
    "lemma2": lambda seed: suite_lemma2(seed),
    "lemma3": lambda seed: suite_lemma3(),
    "prop3": lambda seed: suite_prop3(),
    "prop4": lambda seed: suite_prop4(),
    "parity": lambda seed: suite_parity(),
    "oracle": lambda seed: suite_oracle(seed),
    "x-form": lambda seed: suite_x_form(seed),
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0):
    if name != "all" and name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES + ('all',))}")
    names = SUITES if name == "all" else (name,)
    _trajectory_worst.cache_clear()  # one evaluation per (spec, N, t_max, dt) per run
    return [check for suite in names for check in _RUNNERS[suite](seed)]
