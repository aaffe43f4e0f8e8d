"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are fixed here and are not meant to be tuned.
"""

import numpy as np
import pytest

from spinsqueeze import cli
from spinsqueeze.dicke import (
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    make_state,
)
from spinsqueeze.evolution import evolve_grid, hermitian_eigen, trajectory
from spinsqueeze.hamiltonians import HamiltonianSpec
from spinsqueeze.oracle import embed_symmetric, partial_trace_pair
from spinsqueeze.pairwise import concurrence_spectral, concurrence_x_form, reduced_two_qubit
from spinsqueeze.squeezing import squeezing_even_odd, squeezing_lower_bound
from spinsqueeze.verify import (
    _trajectory_worst,
    suite_lemma1,
    suite_lemma2,
    suite_lemma3,
    suite_oracle,
    suite_parity,
    suite_prop4,
)

SEED = 42


def report(number, description, ok):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_analytic_n2_benchmark():
    grid = dict(t_max=np.pi, dt=np.pi / 200)
    cols = cli.evolve_rows(cli.RunConfig(model="one-axis", n_qubits=2, mu=1.0, **grid))
    t, xi2, conc = (cols[c] for c in ("t", "xi2_closed", "concurrence"))
    worst = max(
        np.max(np.abs(xi2 - (1 - np.abs(np.sin(t))))),
        np.max(np.abs(conc - np.abs(np.sin(t)))),
        _trajectory_worst(HamiltonianSpec.one_axis(1.0), 2, **grid).prop3_all,
    )
    report(1, f"N=2 one-axis analytic profile, residual {worst:.2e}", worst <= 1e-10)


def test_criterion_2_lemma3_moments():
    checks = suite_lemma3(n_values=(2, 3, 4, 6, 10, 20), points=200)
    worst = max(c.residual for c in checks)
    report(2, f"one-axis closed-form moments, residual {worst:.2e}",
           all(c.passed for c in checks))


def test_criterion_3_prop4_corollary():
    checks = suite_prop4(n_values=(2, 3, 5, 10, 25, 50, 100))
    worst = max(c.residual for c in checks)
    report(3, f"one-axis trajectories: |u| >= y, xi2 <= 1, identity holds (worst {worst:.2e})",
           all(c.passed for c in checks))


def test_criterion_4_transverse_field_inequality():
    worst = [
        _trajectory_worst(HamiltonianSpec.one_axis_field(1.0, omega), n)
        for omega in (0.1, 0.5, 1.0, 2.0, 5.0)
        for n in tuple(range(2, 21)) + (50, 100)
    ]
    worst_xi2 = max(w.xi2_excess for w in worst)
    worst_residual = max(w.prop3_squeezed for w in worst)
    ok = worst_xi2 <= 1e-9 and worst_residual <= 1e-9
    report(4, "transverse-field model: xi2 <= 1 and identity where applicable "
              f"(excess {worst_xi2:.2e}, residual {worst_residual:.2e})", ok)


def test_criterion_5_two_axis_even_n_relation():
    worst_residual = max(
        _trajectory_worst(HamiltonianSpec.two_axis(1.0), n, 3.0, 0.01).prop3_all
        for n in (2, 4, 6, 8, 10, 20)
    )
    cols = cli.evolve_rows(
        cli.RunConfig(model="two-axis", n_qubits=6, gamma=1.0, t_max=3.0, dt=0.01)
    )
    xi2, conc = cols["xi2_closed"], cols["concurrence"]
    # boundary points with xi2 = 1 up to float noise are the C = 0 branch
    squeezed = xi2 < 1.0 - 1e-9
    ok = (
        worst_residual <= 1e-9
        and squeezed.any()
        and np.all(conc[squeezed] > 0)
        and np.any((xi2 > 1.0 + 1e-9) & (conc < 0))
    )
    report(5, "two-axis even-N three-branch relation, residual "
              f"{worst_residual:.2e}, {squeezed.sum()} squeezed points", ok)


def test_criterion_6_oracle_equivalence():
    lemma2 = suite_lemma2(seed=SEED, per_n=100, n_values=range(2, 9))
    oracle = suite_oracle(seed=SEED, n_values=range(2, 9))
    worst_conc = 0.0
    worst_spectral = 0.0
    rng = np.random.default_rng(SEED)
    specs = (
        HamiltonianSpec.one_axis(1.0),
        HamiltonianSpec.one_axis_field(1.0, 2.0),
        HamiltonianSpec.two_axis(1.0),
    )
    for n in range(2, 9):
        # evolved (even) states: closed-form vs spectral concurrence on the
        # literally traced matrix
        for spec in specs:
            initial = make_all_down(n)
            states = evolve_grid(hermitian_eigen(spec, initial), initial, (0.1, 0.5, 1.5))
            closed = concurrence_x_form(
                reduced_two_qubit(collective_moments(states))
            ).concurrence
            for amps, conc in zip(states.amplitudes, closed):
                traced = partial_trace_pair(embed_symmetric(SymmetricState(n, amps)), 0, 1)
                worst_conc = max(
                    worst_conc, abs(conc - concurrence_spectral(traced).concurrence)
                )
        # generic states: the two reductions must give the same spectrum
        for _ in range(20):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state, _ = make_state(n, amps)
            traced = partial_trace_pair(embed_symmetric(state), 0, 1)
            predicted = reduced_two_qubit(collective_moments(state)).as_matrix()
            worst_spectral = max(
                worst_spectral,
                abs(
                    concurrence_spectral(predicted).concurrence
                    - concurrence_spectral(traced).concurrence
                ),
            )
    ok = (
        all(c.passed for c in lemma2)
        and all(c.passed for c in oracle)
        and worst_conc <= 1e-10
        and worst_spectral <= 1e-10
    )
    report(6, "oracle equivalence: reduction, concurrence routes, evolution fidelity "
              f"(concurrence residual {max(worst_conc, worst_spectral):.2e})", ok)


def test_criterion_7_separable_positivity():
    checks = suite_lemma1(seed=SEED, samples=1000, n_values=range(2, 7))
    worst = max(c.residual for c in checks)
    report(7, f"separable ensembles never squeezed, residual {worst:.2e}",
           all(c.passed for c in checks))


def test_criterion_8_dicke_states():
    worst = 0.0
    for n in range(2, 101):
        for k in range(n + 1):
            m = collective_moments(make_dicke_state(n, k))
            assert m.sp2 == 0
            worst = max(
                worst,
                abs(squeezing_even_odd(m).xi2 - (1 + 2 * k * (n - k) / n)),
            )
    traced = partial_trace_pair(embed_symmetric(make_dicke_state(4, 2)), 0, 1)
    conc_oracle = concurrence_spectral(traced).concurrence
    conc_closed = concurrence_x_form(
        reduced_two_qubit(collective_moments(make_dicke_state(4, 2)))
    ).concurrence
    ok = (
        worst <= 1e-12
        and conc_closed == pytest.approx(1 / 3, abs=1e-10)
        and conc_oracle == pytest.approx(1 / 3, abs=1e-10)
    )
    report(8, f"Dicke formula exact (residual {worst:.2e}), C(4,2) = 1/3", ok)


def test_criterion_9_structural_invariants():
    checks = suite_parity()
    states = trajectory(HamiltonianSpec.two_axis(1.0), 6, 3.0, 0.05).states
    m = collective_moments(states)
    xi2 = squeezing_even_odd(m).xi2
    worst_bound = max(0.0, np.max(squeezing_lower_bound(m) - xi2))
    worst_rotation = max(
        np.max(np.abs(squeezing_even_odd(collective_moments(rotated)).xi2 - xi2))
        for rotated in (
            SymmetricState(6, states.amplitudes * np.exp(-1j * theta * np.arange(7)))
            for theta in (0.7, 2.1)
        )
    )
    ok = all(c.passed for c in checks) and worst_rotation <= 1e-12 and worst_bound <= 1e-12
    report(9, "parity/unitarity/rotation-invariance/lower-bound invariants "
              f"(rotation {worst_rotation:.2e}, bound excess {worst_bound:.2e})", ok)
