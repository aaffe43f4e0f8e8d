"""The random samplers of the verify suites draw the stream and bits their
references give.

`oracle.sample_separable` and `verify.random_x_form` draw their raw
variates in a few stacked calls on the caller's generator and transform
them once, on the stack. Each reference draws the same variates and
transforms them row by row, unpadded, with numpy's per-draw formulas; every
output must equal the reference's in its `uint64` view, so the sign of a
zero counts too. The samplers take any object with those draw methods; the
suites pass a `verify.Variates`, one per call, whatever the number of draws.
Its own draws are checked at the end.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import dirichlet_row, separable_rows, separable_variates

from spinsqueeze import oracle, verify
from spinsqueeze.dicke import MOMENT_FIELDS, SymmetricState
from spinsqueeze.oracle import flat_dirichlet, sample_separable
from spinsqueeze.pairwise import TwoQubitReduced

SEEDS = (0, 7, 42, 123)


def assert_same_bits(a, b, label):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.dtype == b.dtype and a.shape == b.shape, label
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), label


def assert_rows_same_bits(stacked, rows):
    for field in MOMENT_FIELDS:
        column = getattr(stacked, field)
        assert column.shape == (len(rows),), field
        for k, row in enumerate(rows):
            assert_same_bits(column[k], getattr(row, field), (field, k))


def reference_random_x_form(rng, samples):
    exps, uniforms = rng.standard_exponential((samples, 3)), rng.random((samples, 2))
    draws = np.array([(*dirichlet_row(e), *u) for e, u in zip(exps, uniforms)])
    v_plus, v_minus, two_y, scale, turn = draws.T
    mod_u = scale * np.sqrt(v_plus * v_minus)
    return TwoQubitReduced(
        v_plus=v_plus,
        v_minus=v_minus,
        y=two_y / 2.0,
        x_plus=0.0,
        x_minus=0.0,
        u=mod_u * np.exp(2j * np.pi * turn),
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
    # 200 rows hold every width from 1 to 8, so most rows carry padding
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_separable(n, rng, 200)
    variates = separable_variates(ref_rng, 200)
    assert set(variates[0].tolist()) == set(range(1, 9))
    assert_rows_same_bits(got, separable_rows(n, variates))
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", (1, 7, 1000))
def test_lemma1_draws_match_per_sample_calls(seed, samples):
    # each stacked draw is the stream of one call per sample, in the same order
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_separable(3, rng, samples)
    counts = [int(ref_rng.integers(1, 9)) for _ in range(samples)]
    normals = [ref_rng.normal(size=(8, 3)) for _ in range(samples)]
    uniforms = [ref_rng.random(8) for _ in range(samples)]
    exps = [ref_rng.standard_exponential(8) for _ in range(samples)]
    assert_rows_same_bits(got, separable_rows(3, (counts, normals, uniforms, exps)))
    # a 32-bit draw may leave half a word buffered in the generator
    assert rng.integers(1, 9, size=3).tolist() == ref_rng.integers(1, 9, size=3).tolist()


def test_separable_ensemble_structure(monkeypatch):
    # the stacked weights and Bloch vectors that sample_separable mixes
    seen = {}
    mix, product = oracle.mix_moments, oracle.product_moments

    def spy_mix(weights, moments):
        seen["weights"] = weights
        return mix(weights, moments)

    def spy_product(bloch, n_qubits):
        seen["bloch"] = bloch
        return product(bloch, n_qubits)

    monkeypatch.setattr(oracle, "mix_moments", spy_mix)
    monkeypatch.setattr(oracle, "product_moments", spy_product)
    sample_separable(4, np.random.default_rng(5), 1000)
    counts = np.random.default_rng(5).integers(1, 9, size=1000)
    weights, bloch = seen["weights"], seen["bloch"]
    assert weights.shape == (1000, 8) and bloch.shape == (1000, 8, 3)
    assert counts.min() == 1 and counts.max() == 8 and len(set(counts.tolist())) == 8
    live = np.arange(8) < counts[:, None]
    assert np.all(weights[~live] == 0.0) and np.all(bloch[~live] == 0.0)
    assert np.all(weights[live] > 0.0)
    assert np.all(np.abs(np.sum(weights, axis=1) - 1.0) <= 1e-12)
    assert np.all(np.linalg.norm(bloch, axis=-1) <= 1.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_flat_dirichlet_is_generators_dirichlet(k):
    # the reference rows and the padded stack both give numpy's own weights
    for seed in SEEDS:
        ref = np.random.default_rng(seed).dirichlet(np.ones(k))
        exps = np.random.default_rng(seed).standard_exponential(k)
        assert_same_bits(dirichlet_row(exps), ref, (k, seed))
        padded = np.zeros(8)
        padded[:k] = exps
        assert_same_bits(flat_dirichlet(padded)[:k], ref, (k, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", (1, 50))
def test_random_x_form_matches_per_draw_code(seed, samples):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for call in range(3):  # successive calls continue the same stream
        got = verify.random_x_form(rng, samples=samples)
        ref = reference_random_x_form(ref_rng, samples=samples)
        for field in ("v_plus", "v_minus", "y", "x_plus", "x_minus", "u"):
            assert_same_bits(getattr(got, field), getattr(ref, field), (field, call))
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")


@pytest.mark.parametrize("samples", (1,))
def test_one_x_form_draws_the_stream_of_generator_calls(samples):
    # one reduction: the stream of rng.dirichlet(np.ones(3)), then two rng.random()
    rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
    got = verify.random_x_form(rng, samples=samples)
    v_plus, v_minus, two_y = ref_rng.dirichlet(np.ones(3))
    scale, turn = ref_rng.random(), ref_rng.random()
    assert_same_bits(np.ravel(got.v_plus), np.array([v_plus]), "v_plus")
    assert_same_bits(np.ravel(got.y), np.array([two_y / 2.0]), "y")
    u = scale * np.sqrt(v_plus * v_minus) * np.exp(2j * np.pi * turn)
    assert_same_bits(np.ravel(got.u), np.array([u]), "u")
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")


def test_one_generator_per_suite_call(monkeypatch):
    # lemma1 built one generator per ensemble, 5001 per call, before its
    # draws were stacked
    made = []
    variates = verify.Variates

    def counting(*args, **kwargs):
        made.append(args)
        return variates(*args, **kwargs)

    monkeypatch.setattr(verify, "Variates", counting)
    assert all(check.passed for check in verify.suite_lemma1(42))
    assert made == [(42,)]
    made.clear()
    assert all(check.passed for check in verify.suite_x_form(42))
    assert made == [(42,)]
    made.clear()
    sample_separable(4, variates(0), 1000)
    assert made == []


@pytest.mark.parametrize("seed", range(20))
def test_lemma1_passes_at_seed(seed):
    checks = verify.suite_lemma1(seed)
    assert len(checks) == 10
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("suite, count", [("lemma2", 7), ("x-form", 1)])
def test_randomized_suite_passes_at_seed(suite, count, seed):
    checks = verify.RUNNERS[suite](seed)
    assert len(checks) == count
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("seed", SEEDS)
def test_random_symmetric_states_match_per_state_code(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(2, 9):
        got = verify._random_symmetric_states(rng, n, 30)
        ref = reference_random_symmetric_states(ref_rng, n, 30)
        assert_same_bits(got.amplitudes, ref.amplitudes, n)
    assert_same_bits(rng.random(), ref_rng.random(), "stream after the draws")


# verify.Variates: the draws of the suites' generator

DRAWS = {
    "random": lambda v, size: v.random(size),
    "standard_exponential": lambda v, size: v.standard_exponential(size),
    "normal": lambda v, size: v.normal(size=size),
    "integers": lambda v, size: v.integers(1, 9, size=size),
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_variates_repeat_per_seed_and_differ_across_seeds(draw):
    first, again, other = (DRAWS[draw](verify.Variates(seed), (40, 3)) for seed in (42, 42, 43))
    assert first.shape == (40, 3)
    assert_same_bits(first, again, draw)
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_two_draws_give_the_bits_of_one_draw_of_their_summed_size(draw):
    # an even first size: a normal draw of odd size ends inside a pair of words
    split, whole = verify.Variates(7), verify.Variates(7)
    parts = [DRAWS[draw](split, 6), DRAWS[draw](split, (3, 3))]
    assert_same_bits(np.concatenate([p.ravel() for p in parts]), DRAWS[draw](whole, 15), draw)
    assert_same_bits(DRAWS[draw](split, 2), DRAWS[draw](whole, 2), "stream after the draws")


def test_an_odd_normal_draw_is_an_even_one_less_its_last_sine():
    odd, even = verify.Variates(7).normal(size=(5,)), verify.Variates(7).normal(size=(6,))
    assert_same_bits(odd, even[:5], "normals")


def test_uniforms_lie_in_the_unit_interval_on_the_53_bit_lattice():
    u = verify.Variates(0).random(10**5)
    assert u.dtype == np.float64
    assert np.all((u >= 0.0) & (u < 1.0))
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
    assert u.max() > 1.0 - 1e-3 and u.min() < 1e-3


def test_integers_cover_the_half_open_range():
    k = verify.Variates(0).integers(1, 9, size=10**4)
    assert k.dtype == np.int64
    assert set(k.tolist()) == set(range(1, 9))


@pytest.mark.parametrize("draw, mean, variance, fourth", [
    ("normal", 0.0, 1.0, 3.0),  # fourth central moment of N(0, 1)
    ("standard_exponential", 1.0, 1.0, 9.0),  # and of Exp(1)
])
def test_normals_and_exponentials_have_their_mean_and_variance(draw, mean, variance, fourth):
    # each sample statistic within 6 of its standard deviations
    n = 10**5
    x = DRAWS[draw](verify.Variates(42), n)
    assert abs(x.mean() - mean) <= 6.0 * np.sqrt(variance / n)
    assert abs(x.var() - variance) <= 6.0 * np.sqrt((fourth - variance**2) / n)


def test_a_negative_seed_is_refused():
    # random.Random(-s) would draw the stream of s
    with pytest.raises(ValueError, match="non-negative"):
        verify.Variates(-1)


def test_verify_all_loads_neither_numpy_random_nor_hashlib():
    # numpy.random's bit_generator imports secrets, hmac and _hashlib (OpenSSL's
    # libcrypto); numpy 1.x imports numpy.random with numpy, so only the
    # modules `import numpy` leaves out are required to stay out
    watched = ("numpy.random", "_hashlib")
    src = Path(verify.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import numpy\n"
        f"before = {{m for m in {watched!r} if m in sys.modules}}\n"
        "from spinsqueeze import cli\n"
        "assert cli.main(['verify', 'all', '--seed', '42']) == 0\n"
        f"after = {{m for m in {watched!r} if m in sys.modules}}\n"
        "assert after <= before, sorted(after - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
