"""The output mixture against a brute-force oracle, and the stability of the
Monte Carlo draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import fadelab as fl
from fadelab import mi
from fadelab.mi import _Mixture
from reference import class_draws, factors, mixture_logpdf

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


def brute_logpdf(y, scheme, model, sigma2):
    """Mixture log density with one Gaussian per row of ``scheme_to_law``,
    merging none."""
    law = fl.scheme_to_law(scheme)
    b = law.block_length
    terms = []
    for x, p in zip(law.support, law.probabilities):
        cov = fl.cond_covariance(x, model, sigma2)
        _, logdet = np.linalg.slogdet(cov)
        quad = np.real(np.sum(np.conj(y) * np.linalg.solve(cov, y.T).T, axis=1))
        terms.append(np.log(p) - b * np.log(np.pi) - logdet - quad)
    return logsumexp(np.array(terms), axis=0)


#: on-off schemes from the zero block alone to the sign patterns alone, at
#: amplitudes far under and over 1
schemes = st.builds(
    lambda b, alpha, amp: fl.BlockScheme(amplitude=amp, duty_cycle=alpha, block_length=b),
    st.integers(1, 6), st.sampled_from([0.0, 0.4, 1.0]), st.sampled_from([1e-13, 1.0, 1e6]))

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
@given(scheme=schemes, spec=models, snr=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_mixture_matches_brute_force(scheme, spec, snr, seed):
    model = build(spec)
    amp, b = scheme.amplitude, scheme.block_length
    sigma2 = amp ** 2 / snr
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sigma2 + 4.0 * amp ** 2)
    y = scale * (rng.standard_normal((7, b)) + 1j * rng.standard_normal((7, b)))
    got = mixture_logpdf(_Mixture(scheme, model, sigma2), y)
    np.testing.assert_allclose(got, brute_logpdf(y, scheme, model, sigma2), rtol=1e-10, atol=1e-10)


class TestFactors:
    def test_one_factor_per_modulus_pattern(self, monkeypatch):
        calls = []
        cond_covariance = mi.cond_covariance

        def counted(*args):
            calls.append(args)
            return cond_covariance(*args)

        monkeypatch.setattr(mi, "cond_covariance", counted)
        for b in (1, 4, 8):
            for alpha, n_classes, n_factors in ((0.0, 1, 1), (0.5, 2 ** (b - 1) + 1, 2),
                                                (1.0, 2 ** (b - 1), 1)):
                calls.clear()
                scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=b)
                mix = _Mixture(scheme, fl.ar1(0.5), 1.0)
                assert mix.n_classes == n_classes
                assert len(mix.chols) == len(calls) == n_factors

    @pytest.mark.parametrize("b", [1, 2, 3, 6])
    def test_sampling_factor_is_the_class_cholesky(self, b):
        # every row's Cholesky factor is bitwise that of the one class whose
        # signs the row has up to a global flip, every class is some row's,
        # and a class weighs what its rows do
        for model in (fl.memoryless(), fl.ar1(0.5), fl.ar1(0.3 + 0.4j), fl.bandlimited(0.25)):
            scheme = fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=b)
            law = fl.scheme_to_law(scheme)
            mix = _Mixture(scheme, model, 0.7)
            class_factors = factors(mix)
            class_of_row = []
            for row in law.support:
                want = np.linalg.cholesky(fl.cond_covariance(row, model, 0.7))
                class_of_row.append([ci for ci, f in enumerate(class_factors)
                                     if np.array_equal(f, want)
                                     and np.all(mix.signs[ci] * row.real * row[0].real >= 0.0)])
            assert all(len(c) == 1 for c in class_of_row)
            class_of_row = np.concatenate(class_of_row)
            assert set(class_of_row) == set(range(mix.n_classes))
            assert np.array_equal(np.bincount(class_of_row, weights=law.probabilities),
                                  mix.weights)


def full_feature_logpdfs(mix, y):
    """Class log densities from all b + 2 C(b, 2) features (|y_i|^2, then Re
    and Im of conj(y_i) y_j for i < j), none dropped, each class's precision
    taken from its group's Cholesky factor and its signs."""
    inv = np.linalg.inv(mix.chols)
    prec = (np.conj(np.swapaxes(inv, 1, 2)) @ inv)[mix.group_of_class]
    iu, ju = np.triu_indices(mix.b, 1)
    q = prec[:, iu, ju] * mix.signs[:, iu] * mix.signs[:, ju]
    coef = np.concatenate(
        [np.real(np.diagonal(prec, axis1=1, axis2=2)), 2.0 * q.real, -2.0 * q.imag], axis=1)
    z = np.conj(y[:, iu]) * y[:, ju]
    feats = np.concatenate([np.abs(y) ** 2, z.real, z.imag], axis=1)
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(mix.chols, axis1=1, axis2=2))), axis=1)
    return -(coef @ feats.T) - (mix.b * np.log(np.pi) + logdets[mix.group_of_class])[:, None]


# ``law`` is the on-off scheme, the input law of the mixture
@pytest.mark.parametrize("law,model,n_features", [
    # real lags: every Im column is 0 for all classes
    (fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=5), fl.ar1(0.5), 15),
    (fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=8), fl.bandlimited(0.25), 36),
    (fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=10), fl.ar1(0.8), 55),
    # a complex lag keeps every column of the on classes, even far under sigma2
    (fl.BlockScheme(amplitude=1.3, duty_cycle=0.5, block_length=5), fl.ar1(0.3 + 0.4j), 25),
    (fl.BlockScheme(amplitude=1e-13, duty_cycle=1.0, block_length=4), fl.ar1(0.3 + 0.4j), 16),
    # the zero block alone weighs |y_i|^2 only
    (fl.BlockScheme(amplitude=1e6, duty_cycle=0.0, block_length=6), fl.ar1(0.3 + 0.4j), 6),
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
@given(b=st.integers(1, 6), alpha=st.floats(1e-3, 1.0), amp=st.sampled_from([1e-13, 1.3, 1e6]),
       n=st.integers(1, 400), chunk=st.integers(1, 64), spec=models,
       seed=st.integers(0, 2 ** 32 - 1))
def test_batches_match_the_per_class_route(b, alpha, amp, n, chunk, spec, seed):
    # a small _CHUNK splits the classes into pieces and the batches into few rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mi, "_CHUNK", chunk)
        scheme = fl.BlockScheme(amplitude=amp, duty_cycle=alpha, block_length=b)
        mix = _Mixture(scheme, build(spec), 0.7)
        got = [(c, y) for _, c, y in mi._batches(np.random.default_rng(seed), [mix], n)]
        want = class_draws(np.random.default_rng(seed), mix, n)
    assert len(got) == len(want)
    for (got_c, got_y), (want_c, want_y) in zip(got, want):
        assert np.array_equal(got_c, want_c)
        assert got_y.tobytes() == want_y.tobytes()


#: (b, _CHUNK, outputs): about 5 outputs a class below b = 12 and 10^4 at
#: b = 12 leave classes of one row; a patched _CHUNK cuts classes into
#: pieces that end in one row and batches into a few rows
LONG_BLOCK_DRAWS = [(b, mi._CHUNK, 10_000 if b == 12 else 5 * 2 ** (b - 1) + b)
                    for b in range(7, 13)] + [
    (7, 3, 400), (7, 130, 10_000), (9, 1686, 10_000), (12, 3265, 20_000)]


@pytest.mark.parametrize("b,chunk,n", LONG_BLOCK_DRAWS)
@pytest.mark.parametrize("alpha", [0.0, 0.8333, 1.0])
@pytest.mark.parametrize("model", [fl.ar1(0.5), fl.ar1(0.5 + 0.3j)], ids=["real", "complex"])
def test_batches_match_the_per_class_route_at_long_blocks(b, chunk, n, alpha, model):
    # every mixture of one call, at 1 to 3 noise variances, draws each
    # batch bitwise as the per-class route draws it for that mixture alone
    sigma2s = [10.0, 0.7, 1e3][:1 + (b + round(3 * alpha)) % 3]
    scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mi, "_CHUNK", chunk)
        mixes = [_Mixture(scheme, model, sigma2) for sigma2 in sigma2s]
        got = list(mi._batches(np.random.default_rng(b), mixes, n))
        wants = [class_draws(np.random.default_rng(b), mix, n) for mix in mixes]
    for j, want in enumerate(wants):
        mine = [(c, y) for i, c, y in got if i == j]
        assert len(mine) == len(want)
        for (got_c, got_y), (want_c, want_y) in zip(mine, want):
            assert np.array_equal(got_c, want_c)
            assert got_y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("scheme,spec,sigma2,samples,want", GOLDEN)
def test_golden_estimates(scheme, spec, sigma2, samples, want):
    amp, alpha, b = scheme
    model = fl.ar1(spec[1]) if spec[0] == "ar1" else fl.bandlimited(spec[1])
    est = fl.mi_monte_carlo(fl.BlockScheme(amplitude=amp, duty_cycle=alpha, block_length=b),
                            model, sigma2, samples, SEED)
    assert est.estimate == pytest.approx(want[0], rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(want[1], rel=1e-12, abs=0)


def test_log_output_density_matches_brute_force():
    scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=3)
    model = fl.ar1(0.5)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    mix = _Mixture(scheme, model, 2.0)
    singles = [mixture_logpdf(mix, row)[0] for row in y]
    np.testing.assert_allclose(singles, brute_logpdf(y, scheme, model, 2.0), rtol=1e-12)
