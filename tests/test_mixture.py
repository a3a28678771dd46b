"""The output mixture against a brute-force oracle, and the stability of the
Monte Carlo draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import fadelab as fl
from fadelab import mi
from fadelab.mi import _Mixture
from reference import class_draws, first_appearance

SEED = 314159

#: mi_monte_carlo values recorded before the mixture was factored per
#: modulus pattern (the b = 3 case with the one "mi" stream, before the
#: sub-streams went): (scheme, model, sigma2, samples) -> (estimate, std_error)
GOLDEN = [
    ((1.0, 0.5, 2), ("ar1", 0.5), 4.0, 20_000,
     (0.016191997035328812, 0.0013148778848443112)),
    ((1.0, 0.5, 3), ("ar1", 0.5), 4.0, 30_000,
     (0.030120756506621032, 0.0014240313433262824)),
    ((1.0, 5 / 6, 8), ("ar1", 0.5), 10.0, 10_000,
     (0.01791236150152574, 0.002018070091265627)),
    ((1.0, 5 / 6, 8), ("bandlimited", 0.25), 10.0, 10_000,
     (0.02547283738563454, 0.002308439221110071)),
]


def brute_logpdf(y, law, model, sigma2):
    """Mixture log density with one Gaussian per support row, merging none."""
    b = law.block_length
    terms = []
    for x, p in zip(law.support, law.probabilities):
        cov = fl.cond_covariance(x, model, sigma2)
        _, logdet = np.linalg.slogdet(cov)
        quad = np.real(np.sum(np.conj(y) * np.linalg.solve(cov, y.T).T, axis=1))
        terms.append(np.log(p) - b * np.log(np.pi) - logdet - quad)
    return logsumexp(np.array(terms), axis=0)


@st.composite
def laws(draw):
    b = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    moduli = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    angles = st.floats(0.0, 2 * np.pi, allow_nan=False)
    rows = []
    for _ in range(k):
        if rows and draw(st.booleans()):
            # a global rotation of an earlier row: same covariance class
            row = rows[draw(st.integers(0, len(rows) - 1))] * np.exp(1j * draw(angles))
        else:
            mags = np.array(draw(st.lists(moduli, min_size=b, max_size=b)))
            phases = np.array(draw(st.lists(angles, min_size=b, max_size=b)))
            row = mags * np.exp(1j * phases)
        rows.append(row)
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return fl.DiscreteInputLaw(np.array(rows), p / p.sum())


models = st.one_of(
    st.just(("memoryless",)),
    st.tuples(st.just("ar1"), st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi)),
    st.tuples(st.just("bandlimited"), st.floats(0.05, 0.5)),
)


def build(spec):
    if spec[0] == "memoryless":
        return fl.memoryless()
    if spec[0] == "ar1":
        return fl.ar1(spec[1] * np.exp(1j * spec[2]))
    return fl.bandlimited(spec[1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(law=laws(), spec=models, sigma2=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_mixture_matches_brute_force(law, spec, sigma2, seed):
    model = build(spec)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sigma2 + 4.0)
    y = scale * (rng.standard_normal((7, law.block_length))
                 + 1j * rng.standard_normal((7, law.block_length)))
    got = _Mixture(law, model, sigma2).mixture_logpdf(y)
    np.testing.assert_allclose(got, brute_logpdf(y, law, model, sigma2), rtol=1e-10, atol=1e-10)


class TestFactors:
    def test_one_factor_per_modulus_pattern(self):
        for b in (1, 4, 8):
            law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=b))
            mix = _Mixture(law, fl.ar1(0.5), 1.0)
            assert mix.n_classes == 2 ** (b - 1) + 1
            assert len(mix.chols) == 2

    @pytest.mark.parametrize("b", [1, 2, 3, 6])
    def test_sampling_factor_is_the_class_cholesky(self, b):
        for model in (fl.memoryless(), fl.ar1(0.5), fl.ar1(0.3 + 0.4j), fl.bandlimited(0.25)):
            law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=b))
            mix = _Mixture(law, model, 0.7)
            factors = mix.factors()
            for row, ci in zip(law.support, mix.class_of_row):
                want = np.linalg.cholesky(fl.cond_covariance(row, model, 0.7))
                assert np.array_equal(factors[ci], want)


def full_feature_logpdfs(mix, y):
    """Class log densities from all b + 2 C(b, 2) features (|y_i|^2, then Re
    and Im of conj(y_i) y_j for i < j), none dropped, each class's precision
    taken from its group's Cholesky factor."""
    inv = np.linalg.inv(mix.chols)
    prec = (np.conj(np.swapaxes(inv, 1, 2)) @ inv)[mix.group_of_class]
    iu, ju = np.triu_indices(mix.b, 1)
    q = prec[:, iu, ju] * mix.phases[:, iu] * np.conj(mix.phases[:, ju])
    coef = np.concatenate(
        [np.real(np.diagonal(prec, axis1=1, axis2=2)), 2.0 * q.real, -2.0 * q.imag], axis=1)
    z = np.conj(y[:, iu]) * y[:, ju]
    feats = np.concatenate([np.abs(y) ** 2, z.real, z.imag], axis=1)
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(mix.chols, axis1=1, axis2=2))), axis=1)
    return -(coef @ feats.T) - (mix.b * np.log(np.pi) + logdets[mix.group_of_class])[:, None]


def unit_phase_law(b, k, seed):
    """k rows of moduli in {0, 1, 2} and uniform complex phases."""
    rng = np.random.default_rng(seed)
    sup = rng.integers(0, 3, (k, b)) * np.exp(2j * np.pi * rng.random((k, b)))
    return fl.DiscreteInputLaw(sup, np.full(k, 1.0 / k))


@pytest.mark.parametrize("law,model,n_features", [
    # +-1 signs and real lags: every Im column is 0 for all classes
    (fl.scheme_to_law(fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=5)),
     fl.ar1(0.5), 15),
    (fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=8)),
     fl.bandlimited(0.25), 36),
    (fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=10)),
     fl.ar1(0.8), 55),
    # a complex lag or complex phases keep every column
    (fl.scheme_to_law(fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=5)),
     fl.ar1(0.3 + 0.4j), 25),
    (unit_phase_law(4, 9, 2), fl.ar1(0.5), 16),
])
def test_class_logpdfs_match_every_feature(law, model, n_features):
    mix = _Mixture(law, model, 0.7)
    assert mix._coef.shape[1] == n_features
    rng = np.random.default_rng(8)
    b = law.block_length
    y = 2.0 * (rng.standard_normal((50, b)) + 1j * rng.standard_normal((50, b)))
    np.testing.assert_allclose(mix.class_logpdfs(y), full_feature_logpdfs(mix, y),
                               rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(b=st.integers(1, 6), alpha=st.floats(1e-3, 1.0), n=st.integers(1, 400),
       chunk=st.integers(1, 64), spec=models, seed=st.integers(0, 2 ** 32 - 1))
def test_batches_match_the_per_class_route(b, alpha, n, chunk, spec, seed):
    # a small _CHUNK splits the classes into pieces and the batches into few rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mi, "_CHUNK", chunk)
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.3, duty_cycle=alpha, block_length=b))
        mix = _Mixture(law, build(spec), 0.7)
        got = list(mi._batches(np.random.default_rng(seed), mix, n))
        want = class_draws(np.random.default_rng(seed), mix, n)
    assert len(got) == len(want)
    for (got_c, got_y), (want_c, want_y) in zip(got, want):
        assert np.array_equal(got_c, want_c)
        assert got_y.tobytes() == want_y.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 40), b=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_first_appearance_matches_the_row_loop(k, b, seed):
    # rows drawn from four, some of them equal, as the mixture canonicalizes them
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 3, (4, b)) * np.exp(0.5j * np.pi * rng.integers(0, 4, (4, b)))
    rows = np.round(base[rng.integers(0, 4, k)], 12) + (0.0 + 0.0j)
    for r in (rows, np.abs(rows)):
        got, want = mi._first_appearance(r), first_appearance(r)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("scheme,spec,sigma2,samples,want", GOLDEN)
def test_golden_estimates(scheme, spec, sigma2, samples, want):
    amp, alpha, b = scheme
    model = fl.ar1(spec[1]) if spec[0] == "ar1" else fl.bandlimited(spec[1])
    est = fl.mi_monte_carlo(fl.BlockScheme(amplitude=amp, duty_cycle=alpha, block_length=b),
                            model, sigma2, samples, SEED)
    assert est.estimate == pytest.approx(want[0], rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(want[1], rel=1e-12, abs=0)


def test_log_output_density_matches_brute_force():
    law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=3))
    model = fl.ar1(0.5)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    mix = _Mixture(law, model, 2.0)
    singles = [mix.mixture_logpdf(row)[0] for row in y]
    np.testing.assert_allclose(singles, brute_logpdf(y, law, model, 2.0), rtol=1e-12)
