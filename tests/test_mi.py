import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import dblquad
from scipy.special import logsumexp

import fadelab as fl
from fadelab import mi, simulate
from fadelab.errors import BlockTooLarge, DomainError
from fadelab.mi import _Mixture
from fadelab.simulate import rng_stream
from reference import (IllConditioned, batch_moments, fit_coefficient, law_moments,
                       mixture_logpdf, second_order_coeff_exact)

SEED = 314159


def mi_b1_quadrature(alpha, amp, sigma2):
    """Independent oracle: 2-D quadrature over the complex output plane for a
    one-symbol on-off law on the memoryless channel."""
    comps = []
    if alpha < 1.0:
        comps.append((1.0 - alpha, sigma2))
    if alpha > 0.0:
        comps.append((alpha, amp * amp + sigma2))

    def mixture(u, v):
        r2 = u * u + v * v
        return sum(w * np.exp(-r2 / var) / (np.pi * var) for w, var in comps)

    total = 0.0
    for w, var in comps:
        def integrand(u, v, var=var):
            r2 = u * u + v * v
            p = np.exp(-r2 / var) / (np.pi * var)
            q = mixture(u, v)
            if p <= 0.0 or q <= 0.0:
                return 0.0
            return p * (np.log(p) - np.log(q))
        val, _ = dblquad(integrand, -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-12)
        total += w * val
    return total


class TestLaw:
    def test_full_duty_single_symbol(self):
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1))
        assert law.support.shape == (2, 1)
        assert np.allclose(sorted(law.support[:, 0].real), [-1.0, 1.0])
        assert np.allclose(law.probabilities, [0.5, 0.5])

    def test_half_duty_two_symbols(self):
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2))
        assert law.support.shape == (5, 2)
        probs = sorted(law.probabilities)
        assert probs[:4] == pytest.approx([0.125] * 4)
        assert probs[4] == pytest.approx(0.5)

    def test_moments(self):
        sch = fl.BlockScheme(amplitude=2.0, duty_cycle=5 / 6, block_length=3)
        m, q = law_moments(fl.scheme_to_law(sch))
        assert np.allclose(m, (5 / 6) * 4.0 * np.eye(3), atol=1e-12)
        assert np.allclose(q, (5 / 6) * 16.0 * np.ones((3, 3)), atol=1e-12)

    def test_underflowing_sign_atoms_are_dropped(self):
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=1e-320, block_length=12))
        assert law.support.shape == (1, 12) and not law.support.any()
        assert law.probabilities.tolist() == [1.0]

    def test_block_cap(self):
        with pytest.raises(BlockTooLarge):
            fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=13))

    def test_law_validation(self):
        with pytest.raises(DomainError):
            fl.DiscreteInputLaw(np.zeros((2, 1), dtype=complex), np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            fl.DiscreteInputLaw(np.zeros((2, 1), dtype=complex), np.array([1.0, 0.0]))


class TestCondCovariance:
    def test_silent(self):
        c = fl.cond_covariance(np.zeros(3, dtype=complex), fl.ar1(0.5), 2.0)
        assert np.allclose(c, 2.0 * np.eye(3))

    def test_matched_signs(self):
        c = fl.cond_covariance(np.array([1.0, 1.0], dtype=complex), fl.ar1(0.5), 1.0)
        assert np.allclose(c, [[2.0, 0.5], [0.5, 2.0]])

    def test_opposed_signs(self):
        c = fl.cond_covariance(np.array([1.0, -1.0], dtype=complex), fl.ar1(0.5), 1.0)
        assert np.allclose(c, [[2.0, -0.5], [-0.5, 2.0]])

    def test_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            c = fl.cond_covariance(x, fl.ar1(0.6), 0.5)
            assert np.linalg.eigvalsh(c)[0] > 0
            assert np.allclose(c, c.conj().T)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_bad_noise_variance(self, sigma2):
        with pytest.raises(DomainError, match="noise variance"):
            fl.cond_covariance(np.ones(2, dtype=complex), fl.ar1(0.5), sigma2)

    def test_overflowing_covariance(self):
        with pytest.raises(DomainError, match="not finite"):
            fl.cond_covariance(np.full(2, 1e200, dtype=complex), fl.ar1(0.5), 1.0)

    @pytest.mark.parametrize("amplitude,sigma2s", [
        (1.0, [1.0, np.nan]), (1.0, [np.inf]), (1e200, [1.0]), (1e160, [1e300, 1e308])])
    def test_estimators_refuse_before_any_draw(self, monkeypatch, amplitude, sigma2s):
        drawn = []
        monkeypatch.setattr(mi, "rng_stream", lambda *args: drawn.append(args))
        scheme = fl.BlockScheme(amplitude=amplitude, duty_cycle=0.5, block_length=3)
        with pytest.raises(DomainError):
            fl.mi_monte_carlo_many(scheme, fl.ar1(0.5), sigma2s, 10_000, SEED)
        if len(sigma2s) == 1:
            with pytest.raises(DomainError):
                fl.mi_monte_carlo(scheme, fl.ar1(0.5), sigma2s[0], 10_000, SEED)
        assert drawn == []


class TestExactCoefficient:
    def test_memoryless_single_symbol(self):
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1))
        assert second_order_coeff_exact(law, fl.memoryless()) == pytest.approx(0.125, abs=1e-14)

    def test_matches_block_formula(self):
        m = fl.ar1(0.5)
        law = fl.scheme_to_law(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=2))
        assert second_order_coeff_exact(law, m) == pytest.approx(
            2 * fl.scheme_coefficients(m, 2, 5 / 6).block_coeff, abs=1e-12)

    def test_silent_law(self):
        law = fl.DiscreteInputLaw(np.zeros((1, 3), dtype=complex), np.array([1.0]))
        assert second_order_coeff_exact(law, fl.ar1(0.5)) == 0.0

    def test_formula_identity_across_catalog(self, models):
        for m in models.values():
            for b in (1, 2, 3, 4):
                for alpha in (0.25, 0.5, 5 / 6, 1.0):
                    sch = fl.BlockScheme(amplitude=1.3, duty_cycle=alpha, block_length=b)
                    law = fl.scheme_to_law(sch)
                    assert second_order_coeff_exact(law, m) == pytest.approx(
                        b * fl.scheme_coefficients(m, b, alpha).block_coeff, abs=1e-10)

    def test_amplitude_invariance(self):
        m = fl.ar1(0.5)
        for amp in (0.5, 1.0, 3.0):
            law = fl.scheme_to_law(fl.BlockScheme(amplitude=amp, duty_cycle=0.5, block_length=3))
            assert second_order_coeff_exact(law, m) == pytest.approx(
                3 * fl.scheme_coefficients(m, 3, 0.5).block_coeff, abs=1e-10)

    def test_nonnegative_on_random_laws(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = rng.integers(1, 5)
            b = rng.integers(1, 4)
            sup = rng.normal(size=(k, b)) + 1j * rng.normal(size=(k, b))
            p = rng.random(k) + 0.05
            p /= p.sum()
            law = fl.DiscreteInputLaw(sup, p)
            assert second_order_coeff_exact(law, fl.ar1(0.6)) >= -1e-12


class TestOutputDensity:
    def test_constant_modulus_single_class(self):
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1)
        val = mixture_logpdf(_Mixture(scheme, fl.memoryless(), 1.0), np.array([0j]))[0]
        assert val == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_silent_law_gaussian(self):
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.0, block_length=2)
        y = np.array([1.0 + 0.5j, -0.25j])
        want = -2 * np.log(np.pi * 2.0) - float(np.sum(np.abs(y) ** 2)) / 2.0
        got = mixture_logpdf(_Mixture(scheme, fl.memoryless(), 2.0), y)[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_sign_collapse_count(self):
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=3)
        assert _Mixture(scheme, fl.ar1(0.5), 1.0).n_classes == 4
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=3)
        assert _Mixture(scheme, fl.ar1(0.5), 1.0).n_classes == 5

    def test_global_sign_symmetry(self):
        # the mixture keeps one of s and -s; a dense sum over the negated
        # support rows, one Gaussian each, gives the same density
        m = fl.ar1(0.5)
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        law = fl.scheme_to_law(scheme)
        mix = _Mixture(scheme, m, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.normal(size=2) + 1j * rng.normal(size=2)
            terms = []
            for x, p in zip(-law.support, law.probabilities):
                cov = fl.cond_covariance(x, m, 1.0)
                quad = np.real(np.conj(y) @ np.linalg.solve(cov, y))
                terms.append(np.log(p) - np.log(np.linalg.det(np.pi * cov).real) - quad)
            assert mixture_logpdf(mix, y)[0] == pytest.approx(logsumexp(terms), abs=1e-13)

    def test_mixture_normalizes(self):
        # brute-force 2-D quadrature of the mixture density for b = 1
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1)
        mix = _Mixture(scheme, fl.memoryless(), 1.0)
        mass, _ = dblquad(
            lambda u, v: np.exp(mixture_logpdf(mix, np.array([u + 1j * v]))[0]),
            -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestMonteCarlo:
    def test_matches_quadrature_oracle(self):
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1)
        est = fl.mi_monte_carlo(sch, fl.memoryless(), 4.0, 200_000, SEED)
        oracle = mi_b1_quadrature(0.5, 1.0, 4.0)
        assert abs(est.estimate - oracle) < 3 * est.std_error
        assert est.std_error > 0

    def test_degenerate_cases_exact_zero(self):
        est = fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1),
                                fl.memoryless(), 1.0, 10_000, SEED)
        assert est.estimate == 0.0 and est.std_error == 0.0
        est = fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=0.0, block_length=2),
                                fl.memoryless(), 1.0, 10_000, SEED)
        assert est.estimate == 0.0

    def test_deterministic_and_partitioned(self, monkeypatch):
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        a = fl.mi_monte_carlo(sch, fl.ar1(0.5), 4.0, 20_000, SEED)
        b = fl.mi_monte_carlo(sch, fl.ar1(0.5), 4.0, 20_000, SEED)
        assert a.estimate == b.estimate and a.std_error == b.std_error
        # the same draws evaluated in batches of 997 rows, across class
        # boundaries: only the rounding of the moment merge may change
        init = mi._Mixture.__init__

        def init_997(mix, *args):
            init(mix, *args)
            mix.batch_rows = 997

        monkeypatch.setattr(mi._Mixture, "__init__", init_997)
        c = fl.mi_monte_carlo(sch, fl.ar1(0.5), 4.0, 20_000, SEED)
        assert c.estimate == pytest.approx(a.estimate, rel=1e-12)
        assert c.std_error == pytest.approx(a.std_error, rel=1e-12)

    def test_stderr_scales_with_samples(self):
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        e1 = fl.mi_monte_carlo(sch, fl.ar1(0.5), 4.0, 40_000, SEED)
        e2 = fl.mi_monte_carlo(sch, fl.ar1(0.5), 4.0, 80_000, SEED)
        assert e1.std_error / e2.std_error == pytest.approx(np.sqrt(2), rel=0.10)

    def test_estimate_nonnegative_within_error(self):
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.25, block_length=2)
        est = fl.mi_monte_carlo(sch, fl.ar1(0.3), 10.0, 50_000, SEED)
        assert est.estimate >= -3 * est.std_error

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(c=st.floats(-60.0, 60.0).map(lambda e: 10.0 ** e), b=st.integers(1, 6),
           alpha=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
    @example(c=1e-13, b=4, alpha=0.5, seed=1)
    def test_scale_free(self, c, b, alpha, seed):
        # only A^2 / sigma2 matters: scaling A by c and sigma2 by c^2 keeps
        # every class apart and moves the estimate by rounding alone.  That
        # rounding is of log densities up to 2b |log c| ~ 1.7e3 in size, and
        # moved 150 draws by up to 1.1e-13 nats; at alpha = 1e-9 the
        # estimate is ~1e-11, so a relative bound alone cannot hold there
        model = fl.ar1(0.5)
        est = fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=b),
                                model, 1.0, 10_000, seed)
        scaled = fl.mi_monte_carlo(
            fl.BlockScheme(amplitude=c, duty_cycle=alpha, block_length=b),
            model, c * c, 10_000, seed)
        assert scaled.estimate == pytest.approx(est.estimate, rel=1e-9, abs=1e-12)
        assert scaled.std_error == pytest.approx(est.std_error, rel=1e-9, abs=1e-12)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1),
                              fl.memoryless(), 1.0, 100, SEED)


#: (block length, samples): at least 4 batches of the default batch_rows,
#: whose (rows x classes) entries per batch stay 2^18
THREADED = [(1, 530_000), (2, 350_000), (4, 120_000), (8, 10_000), (10, 10_000), (12, 10_000)]


def reference_estimate(scheme, model, sigma2, n, seed):
    """mi_monte_carlo's (estimate, std error) with every batch evaluated by
    ``reference.batch_moments``, one after another, and merged in order."""
    mix = _Mixture(scheme, model, sigma2)
    tot = (0, 0.0, 0.0)
    for _, ci, y in mi._batches(rng_stream(seed, "mi"), [mix], n):
        tot = mi._merge_moments(*tot, *batch_moments(mix, ci, y))
    count, mean, m2 = tot
    return mean, float(np.sqrt(m2 / (count - 1) / count))


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: count)


class TestThreads:
    """The batches are evaluated on min(usable CPUs, batches) threads, in
    buffers the calling thread owns; no thread count moves a bit."""

    @pytest.mark.parametrize("rows", [None, 997])
    @pytest.mark.parametrize("b,n", THREADED)
    def test_bitwise_across_thread_counts(self, monkeypatch, b, n, rows):
        if rows is not None:
            init = mi._Mixture.__init__

            def init_rows(mix, *args):
                init(mix, *args)
                mix.batch_rows = rows

            monkeypatch.setattr(mi._Mixture, "__init__", init_rows)
            n = 10_000
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=b)
        model = fl.ar1(0.8)
        assert -(-n // _Mixture(scheme, model, 10.0).batch_rows) >= 4
        want = tuple(x.hex() for x in reference_estimate(scheme, model, 10.0, n, SEED))
        for count in (1, 2, 3):
            use_cpus(monkeypatch, count)
            est = fl.mi_monte_carlo(scheme, model, 10.0, n, SEED)
            assert (est.estimate.hex(), est.std_error.hex()) == want, count

    def test_more_threads_than_cpus_switching_often(self, monkeypatch):
        # 8 evaluators over 79 batches of 127 rows, switching threads every
        # microsecond: a batch lost or merged out of order moves the bits
        use_cpus(monkeypatch, 8)
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=12)
        model = fl.ar1(0.3 + 0.4j)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(
                target=lambda: got.append(fl.mi_monte_carlo(scheme, model, 10.0, 10_000, SEED)))
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive() and len(got) == 1
        want = reference_estimate(scheme, model, 10.0, 10_000, SEED)
        assert (got[0].estimate.hex(), got[0].std_error.hex()) == tuple(x.hex() for x in want)

    @pytest.mark.parametrize("b,rows", [(1, 131_072), (10, 511)])
    def test_batch_evaluation_allocates_no_row_vector(self, b, rows):
        # at b = 1 one row vector is 1 MiB; the evaluation writes only into
        # its buffer set, so a helper thread leaves nothing of that size in
        # its malloc arena
        mix = _Mixture(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=b),
                       fl.ar1(0.8), 10.0)
        _, ci, y = next(mi._batches(np.random.default_rng(1), [mix], 2 * mix.batch_rows))
        assert ci.size == mix.batch_rows == rows
        work = mi._Work([mix], mix.batch_rows)
        want = batch_moments(mix, ci, y)
        assert mi._batch_moments(mix, work, ci, y) == want
        tracemalloc.start()
        try:
            got = mi._batch_moments(mix, work, ci, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 * 1024

    def test_no_thread_outlives_the_call(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        evaluators = set()
        evaluate = mi._batch_moments

        def recorded(*args):
            evaluators.add(threading.get_ident())
            return evaluate(*args)

        monkeypatch.setattr(mi, "_batch_moments", recorded)
        before = threading.active_count()
        fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=10),
                          fl.ar1(0.8), 10.0, 10_000, SEED)
        assert threading.active_count() == before
        assert len(evaluators) > 1

    def test_an_error_in_a_batch_reaches_the_caller(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        calls = itertools.count(1)
        evaluate = mi._batch_moments

        def third_fails(*args):
            if next(calls) == 3:
                raise RuntimeError("batch 3 failed")
            return evaluate(*args)

        monkeypatch.setattr(mi, "_batch_moments", third_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch 3 failed"):
            fl.mi_monte_carlo(fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=10),
                              fl.ar1(0.8), 10.0, 10_000, SEED)
        assert threading.active_count() == before


class TestFit:
    def test_noiseless_quadratic(self):
        c = 0.73
        pts = [(s, c * s ** 2, 0.0) for s in (0.1, 0.2, 0.4)]
        fit = fit_coefficient(pts)
        assert fit.coefficient == pytest.approx(c, abs=1e-10)

    def test_cubic_contamination(self):
        c, d = 0.5, 5.0
        pts = [(s, c * s ** 2 + d * s ** 3, 1e-6) for s in (0.05, 0.1, 0.2, 0.4)]
        fit = fit_coefficient(pts)
        assert fit.coefficient == pytest.approx(c, abs=1e-8)
        assert fit.cubic_coefficient == pytest.approx(d, abs=1e-6)

    def test_errors(self):
        with pytest.raises(DomainError):
            fit_coefficient([(0.1, 1.0, 0.0), (0.2, 2.0, 0.0)])
        with pytest.raises(DomainError):
            fit_coefficient([(0.3, 1.0, 0.0), (0.4, 1.0, 0.0), (0.7, 1.0, 0.0)])
        with pytest.raises(IllConditioned):
            fit_coefficient([(0.2, 1.0, 0.0), (0.25, 1.0, 0.0), (0.3, 1.0, 0.0)])
        with pytest.raises(DomainError, match="SNR values must be > 0"):
            fit_coefficient([(-0.1, 1.0, 0.0), (-0.2, 1.0, 0.0), (-0.4, 1.0, 0.0)])
        with pytest.raises(DomainError, match="SNR values must be > 0"):
            fit_coefficient([(0.0, 0.0, 0.0), (0.1, 1.0, 0.0), (0.3, 2.0, 0.0)])

    def test_weighted_uncertainty(self):
        rng = np.random.default_rng(11)
        c = 1.0
        pts = []
        for s in (0.1, 0.15, 0.25):
            se = 1e-4
            pts.append((s, c * s ** 2 + rng.normal(0.0, se), se))
        fit = fit_coefficient(pts)
        assert abs(fit.coefficient - c) < 5 * fit.std_error
