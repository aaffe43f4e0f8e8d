"""The random samplers of the verify suites draw the same stream and bits as
their per-draw form.

Each reference below is the per-draw code the sampler replaced: one numpy
call per draw for every transformation. The samplers keep the generators and
the call order and transform the raw variates once, stacked; every output
must equal the reference's in its `uint64` view, so the sign of a zero
counts too. The (n_components, seed) list of `verify lemma1`, drawn by one
integer call with array bounds, must equal its per-sample scalar calls.
"""

import numpy as np
import pytest

from spinsqueeze import verify
from spinsqueeze.dicke import MOMENT_FIELDS, SymmetricState, mix_moments
from spinsqueeze.oracle import product_moments, sample_separable
from spinsqueeze.pairwise import TwoQubitReduced

SEEDS = (0, 7, 42, 123)


def assert_same_bits(a, b, label):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.dtype == b.dtype and a.shape == b.shape, label
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), label


def reference_sample_separable(n_qubits, draws):
    counts = [k for k, _ in draws]
    bloch = np.zeros((len(draws), max(counts), 3))
    weights = np.zeros((len(draws), max(counts)))
    for row, (k, seed) in enumerate(draws):
        rng = np.random.default_rng(seed)
        directions = rng.normal(size=(k, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        bloch[row, :k] = directions * (rng.random(k) ** (1.0 / 3.0))[:, None]
        weights[row, :k] = rng.dirichlet(np.ones(k))
    return mix_moments(weights, product_moments(bloch, n_qubits))


def reference_random_x_form(rng, n_qubits=4, samples=None):
    draws = np.array([(*rng.dirichlet(np.ones(3)), rng.random(), rng.random())
                      for _ in range(1 if samples is None else samples)])
    v_plus, v_minus, two_y, scale, turn = (draws[0] if samples is None else draws).T
    mod_u = scale * np.sqrt(v_plus * v_minus)
    return TwoQubitReduced(
        v_plus=v_plus,
        v_minus=v_minus,
        y=two_y / 2.0,
        x_plus=0.0,
        x_minus=0.0,
        u=mod_u * np.exp(2j * np.pi * turn),
        n_qubits=n_qubits,
    )


def reference_random_symmetric_states(rng, n_qubits, count):
    amps = np.array([rng.normal(size=n_qubits + 1) + 1j * rng.normal(size=n_qubits + 1)
                     for _ in range(count)])
    re, im = amps.real, amps.imag  # each row's norm as make_state forms it
    norm = np.sqrt(np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im))
    return SymmetricState(n_qubits, amps / norm[:, None])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (2, 6))
def test_sample_separable_matches_per_draw_code(seed, n):
    # widths 1 and 8 side by side, so most rows carry zero-weight padding
    rng = np.random.default_rng(seed)
    widths = [1, 8] * 10 + [int(rng.integers(1, 9)) for _ in range(20)]
    draws = [(k, int(rng.integers(0, 2**63 - 1))) for k in widths]
    got, ref = sample_separable(n, draws), reference_sample_separable(n, draws)
    for field in MOMENT_FIELDS:
        assert_same_bits(getattr(got, field), getattr(ref, field), field)
    # a draw alone, unpadded, gives its row of the padded call
    for field in MOMENT_FIELDS:
        alone = getattr(sample_separable(n, draws[:1]), field)
        assert_same_bits(alone, getattr(ref, field)[:1], field)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", (1, 7, 1000))
def test_lemma1_draws_match_per_sample_calls(seed, samples):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify._separable_draws(rng, samples)
    ref = [(int(ref_rng.integers(1, 9)), int(ref_rng.integers(0, 2**63 - 1)))
           for _ in range(samples)]
    assert got == ref
    assert all(type(k) is int and type(s) is int for k, s in got)
    # a 32-bit draw may leave half a word buffered in the generator
    assert rng.integers(1, 9, size=3).tolist() == ref_rng.integers(1, 9, size=3).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", (None, 1, 50))
def test_random_x_form_matches_per_draw_code(seed, samples):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for call in range(3):  # successive calls continue the same stream
        got = verify.random_x_form(rng, samples=samples)
        ref = reference_random_x_form(ref_rng, samples=samples)
        for field in ("v_plus", "v_minus", "y", "x_plus", "x_minus", "u"):
            assert_same_bits(getattr(got, field), getattr(ref, field), (field, call))
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")


@pytest.mark.parametrize("seed", SEEDS)
def test_random_symmetric_states_match_per_state_code(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(2, 9):
        got = verify._random_symmetric_states(rng, n, 30)
        ref = reference_random_symmetric_states(ref_rng, n, 30)
        assert_same_bits(got.amplitudes, ref.amplitudes, n)
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")
