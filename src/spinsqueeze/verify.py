"""Named machine-check suites behind the `verify` CLI subcommand.

Each suite returns a list of Check records; a check passes when its observed
residual does not exceed its tolerance. Randomized suites take a seed and use
numpy's PCG64 generator, which is recorded in the report for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pairwise
from .dicke import (
    MOMENT_FIELDS,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    squared_norm,
)
from .evolution import hermitian_eigen, propagate, trajectory
from .hamiltonians import (
    HamiltonianSpec,
    assemble_sectors,
    build_hamiltonian,
    parity_check,
    sector_bands,
)
from .oracle import (
    FullState,
    embed_symmetric,
    flat_dirichlet,
    full_collective_moments,
    full_evolve,
    full_hamiltonian,
    one_axis_analytic_moments,
    partial_trace_pair,
    sample_separable,
)
from .squeezing import perpendicular_correlation_min, squeezing_general

RNG_ALGORITHM = "numpy PCG64 (default_rng)"


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _worst(*values) -> float:
    """The largest entry of `values` (arrays or scalars), or +0.0 when none is
    positive; a NaN entry makes the result NaN, so its check fails."""
    # + 0.0 turns a -0.0 maximum (say of -margin) into 0.0, which prints unsigned
    return float(np.max([np.max(v, initial=0.0) for v in values])) + 0.0


def _random_symmetric_states(rng, n_qubits: int, count: int) -> SymmetricState:
    """A stack of `count` random states, drawn one after another (real parts,
    then imaginary parts), each divided by its norm."""
    # one C-order normal call draws the stream of count * 2 calls of size N+1
    z = rng.normal(size=(count, 2, n_qubits + 1))
    amps = z[:, 0] + 1j * z[:, 1]
    norm = np.sqrt(squared_norm(amps))
    return SymmetricState(n_qubits, amps / norm[:, None])


def _model_specs():
    return {
        "one-axis": HamiltonianSpec.one_axis(1.0),
        "one-axis-field": HamiltonianSpec.one_axis_field(1.0, 2.0),
        "two-axis": HamiltonianSpec.two_axis(1.0),
    }


def suite_lemma1(seed: int, samples: int = 1000, n_values=range(2, 7)):
    """Separable symmetric states never show negative perpendicular correlation:
    per N, `samples` random ensembles drawn stacked from one generator."""
    rng = np.random.default_rng(seed)
    checks = []
    for n in n_values:
        m = sample_separable(n, rng, samples)
        worst_corr = np.min(perpendicular_correlation_min(m))
        xi2 = squeezing_general(m)  # NaN where the mean spin vanishes
        worst_xi2 = np.min(xi2[~np.isnan(xi2)], initial=np.inf)
        checks.append(Check(f"lemma1_correlation_N{n}", _worst(-worst_corr), 1e-12))
        checks.append(Check(f"lemma1_xi2_N{n}", max(0.0, 1.0 - worst_xi2), 1e-10))
    return checks


def suite_lemma2(seed: int, per_n: int = 100, n_values=range(2, 9)):
    """Moment-based pair reduction equals the literal partial trace."""
    rng = np.random.default_rng(seed)
    checks = []
    for n in n_values:
        states = _random_symmetric_states(rng, n, per_n)
        predicted = pairwise.reduced_two_qubit(collective_moments(states)).as_matrix()
        traced = partial_trace_pair(embed_symmetric(states), 0, 1)
        checks.append(Check(f"lemma2_reduction_N{n}", _worst(np.abs(predicted - traced)), 1e-10))
    return checks


def suite_lemma3(n_values=(2, 3, 4, 6, 10, 20), points: int = 200):
    """Numeric one-axis moments match the closed cosine formulas."""
    mu = 1.0
    checks = []
    for n in n_values:
        times = np.linspace(0.0, 2.0 * np.pi, points) / (2.0 * mu)
        states = propagate(hermitian_eigen(HamiltonianSpec.one_axis(mu), make_all_down(n)), times)
        m = collective_moments(states)
        ref = one_axis_analytic_moments(n, mu, times)
        worst = _worst(
            np.abs(m.mean_sz - ref.mean_sz),
            np.abs(m.sx2 - ref.sx2),
            np.abs(m.sy2 - ref.sy2),
            np.abs(m.sz2 - ref.sz2),
            np.abs(m.sp2.imag - ref.sp2.imag),
            np.abs((m.sx2 - m.sy2) - (m.sz2 - n * n / 4.0)),
        )
        checks.append(Check(f"lemma3_moments_N{n}", worst, 1e-9))
    return checks


class TrajectoryWorst(NamedTuple):
    """Worst values along one all-down trajectory; each is 0 when it holds."""

    xi2_excess: float  # xi^2 - 1
    margin_deficit: float  # y - |u|
    prop3_squeezed: float  # |xi^2 - 1 + (N-1) C| where xi^2 <= 1
    prop3_all: float  # |xi^2 - 1 + (N-1) C| at every point


def _trajectory_worst(spec, n, t_max=10.0, dt=0.01) -> TrajectoryWorst:
    """Each worst value, taken per block of the trajectory and then over the
    blocks, so a NaN in any block makes it NaN."""
    blocks = []
    for _, states in trajectory(spec, n, t_max, dt):
        table = pairwise.analyse(states)
        xi2 = table["xi2_closed"]
        residual = np.abs(pairwise.prop3_residual(xi2, table["concurrence"], n))
        blocks.append((
            _worst(xi2 - 1.0),
            _worst(-table["margin"]),
            _worst(residual[xi2 <= 1.0]),
            _worst(residual),
        ))
    return TrajectoryWorst(*(_worst(per_block) for per_block in zip(*blocks)))


def suite_prop3(n_values=(2, 3, 4, 6, 10, 20), t_max: float = 10.0, dt: float = 0.01):
    """xi^2 = 1 - (N-1)C along one-axis trajectories, with and without field."""
    checks = []
    for n in n_values:
        worst = _worst(*(
            _trajectory_worst(spec, n, t_max, dt).prop3_squeezed
            for spec in (HamiltonianSpec.one_axis(1.0), HamiltonianSpec.one_axis_field(1.0, 1.0))
        ))
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
            h = build_hamiltonian(spec, n)
            # one block: the dense reference below holds all of H anyway
            [(times, states)] = trajectory(spec, n, t_max, dt)
            c = states.amplitudes
            energies, vectors = np.linalg.eigh(h)
            modes = vectors.conj().T @ make_all_down(n).amplitudes
            dense = (np.exp(-1j * np.outer(times, energies)) * modes) @ vectors.T
            both = np.concatenate([c, dense])
            m = collective_moments(SymmetricState(n, both))
            worst_transverse = _worst(np.abs(m.sp_mean.real), np.abs(m.sp_mean.imag))
            worst_leak = np.max(np.sum(np.abs(both[:, 1::2]) ** 2, axis=-1))
            worst_norm = np.max(np.abs(np.sqrt(squared_norm(c)) - 1.0))
            energy = np.einsum("ti,ij,tj->t", c.conj(), h, c).real
            worst_energy = np.max(np.abs(energy - energy[0]))
            checks.append(Check(f"parity_commutator_{name}_N{n}", parity_check(h), 1e-13))
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
        # matrix the sector bands and their gauge represent. The same full
        # Hamiltonian then evolves the all-down state for every time.
        isometry = np.column_stack(
            [embed_symmetric(make_dicke_state(n, k)).amplitudes for k in range(n + 1)]
        )
        initial = make_all_down(n)
        h_errors, sub_rows, full_rows = [], [], []
        for spec in _model_specs().values():
            h_full = full_hamiltonian(spec, n)
            projected = isometry.conj().T @ h_full @ isometry
            for h in (build_hamiltonian(spec, n), assemble_sectors(sector_bands(spec, n))):
                h_errors.append(np.abs(projected - h))
            sub_rows.append(propagate(hermitian_eigen(spec, initial), times).amplitudes)
            full_rows.append(full_evolve(h_full, times).amplitudes)
        checks.append(Check(f"oracle_hamiltonian_projection_N{n}", _worst(*h_errors), 1e-10))

        # one row per (model, time), both spaces
        sub = SymmetricState(n, np.concatenate(sub_rows))
        full = FullState(n, np.concatenate(full_rows))
        pairs = zip(embed_symmetric(sub).amplitudes, full.amplitudes)
        fidelity_loss = [1.0 - abs(np.vdot(a, b)) ** 2 for a, b in pairs]
        m_sub, m_full = collective_moments(sub), full_collective_moments(full)
        moment_errors = (np.abs(getattr(m_sub, f) - getattr(m_full, f)) for f in MOMENT_FIELDS)
        checks.append(Check(f"oracle_evolution_fidelity_N{n}", _worst(fidelity_loss), 1e-10))
        checks.append(Check(f"oracle_moments_N{n}", _worst(*moment_errors), 1e-10))
    return checks


def random_x_form(rng, samples=None) -> pairwise.TwoQubitReduced:
    """Random valid (v+, v-, y, u) with unit trace and X-block positivity: one
    reduction, or a stack of `samples` from two stacked draws of `rng`, the
    (samples, 3) standard exponentials of the flat-Dirichlet populations, then
    (samples, 2) uniforms. One reduction draws the stream of
    `rng.dirichlet(np.ones(3))` then two `rng.random()`."""
    count = 1 if samples is None else samples
    exps = rng.standard_exponential((count, 3))
    uniforms = rng.random((count, 2))
    draws = np.column_stack([flat_dirichlet(exps), uniforms])
    v_plus, v_minus, two_y, scale, turn = (draws[0] if samples is None else draws).T
    mod_u = scale * np.sqrt(v_plus * v_minus)
    return pairwise.TwoQubitReduced(
        v_plus=v_plus,
        v_minus=v_minus,
        y=two_y / 2.0,
        x_plus=0.0,
        x_minus=0.0,
        u=mod_u * np.exp(2j * np.pi * turn),
    )


def suite_x_form(seed: int, samples: int = 1000):
    """Closed-form X-state concurrence against the spectral definition."""
    r = random_x_form(np.random.default_rng(seed), samples=samples)
    closed = pairwise.concurrence_x_form(r).concurrence
    spectral = pairwise.concurrence_spectral(r.as_matrix()).concurrence
    return [Check("x_form_vs_spectral", _worst(np.abs(closed - spectral)), 1e-10)]


# Each runner looks its suite up by name when called, so a wrapper put on a
# suite_* function after import is the one that runs. `verify NAME` runs any
# suite of the registry; `verify all` runs only those of SUITES.
RUNNERS = {
    "lemma1": lambda seed: suite_lemma1(seed),
    "lemma2": lambda seed: suite_lemma2(seed),
    "lemma3": lambda seed: suite_lemma3(),
    "prop3": lambda seed: suite_prop3(),
    "prop4": lambda seed: suite_prop4(),
    "parity": lambda seed: suite_parity(),
    "oracle": lambda seed: suite_oracle(seed),
    "x-form": lambda seed: suite_x_form(seed),
}
# the suites `verify all` runs, in this order; a suite added to RUNNERS alone
# runs by name only
SUITES = ("lemma1", "lemma2", "lemma3", "prop3", "prop4", "parity", "oracle", "x-form")


def run_suite(name: str, seed: int = 0):
    if name != "all" and name not in RUNNERS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join([*RUNNERS, 'all'])}")
    names = SUITES if name == "all" else (name,)
    return [check for suite in names for check in RUNNERS[suite](seed)]
