"""Independent routes that the tests check the package against.

None of these is reached by the command line or by another part of the
package; each is a second way to a number that the package computes
otherwise:

- ``empirical_autocorr`` estimates R(m) from one synthesized path, with
  delete-one-block jackknife errors, against the law's exact lags;
- ``second_order_coeff_exact`` is the moment expansion of the per-block
  SNR^2 coefficient for any finite-support input law, of which
  ``asymptotics.scheme_coefficients(...).block_coeff`` is the on-off
  collapse (b(alpha - alpha^2) + alpha S(b)) / (2 b);
- ``factors`` gives each class of a mixture its own Cholesky factor
  D_s L D_s, which the estimator applies as sign flips about L;
- ``class_draws`` is the Monte Carlo estimator's draw route one class at a
  time: a factor and a ``_cn`` draw per piece, then the pieces regrouped
  into batches;
- ``batch_moments`` is one batch's evaluation with a fresh array for every
  intermediate, the arithmetic the buffered, threaded route must keep bit
  for bit;
- ``mixture_logpdf`` is a mixture's log density at any outputs, as one
  batch, which the brute-force density oracles check;
- ``fit_coefficient`` extracts the SNR^2 coefficient from Monte Carlo
  estimates at several small SNRs, to compare with the exact one;
- ``density_table_by_rows`` reads a density table one row at a time with
  ``float()``, the parse that the package's one ``np.loadtxt`` call keeps;
- ``breakpoints`` gives the quadrature oracles of the lags and the circulant
  cells the density's jumps to split at;
- ``certified_lags`` is the lag count of a density table's lag series, as
  the positive root of the cubic that each of its two tail bounds sets
  equal to tol;
- ``inputs_one_shot`` is the input path drawn whole, every amplitude and
  sign at once, which the input path formed by slices keeps bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from fadelab import mi, simulate, spectra
from fadelab.errors import DomainError, FadingLabError, ParamOutOfRange
from fadelab.mi import DiscreteInputLaw, MIEstimate
from fadelab.spectra import _cn

#: contiguous segments of the delete-one-block jackknife
JACKKNIFE_BLOCKS = 50


class TooShort(FadingLabError):
    """Sample path too short for the requested number of lags."""


class IllConditioned(FadingLabError):
    """Fit abscissas span too narrow a range to separate the model terms."""


@dataclass(frozen=True, eq=False)
class AutocorrEstimate:
    """Biased lag estimates (1/n) sum h_{k+m} conj(h_k) with jackknife errors."""

    lags: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    n: int


def empirical_autocorr(h: np.ndarray, m_max: int) -> AutocorrEstimate:
    """Estimate R(m) for m = 0..m_max from one path.

    Standard errors come from a delete-one-block jackknife over
    ``JACKKNIFE_BLOCKS`` contiguous segments of the lag products, which
    stays honest under the serial dependence of the path.
    """
    h = np.asarray(h)
    n = h.size
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError("m_max must be >= 0")
    if n < 10 * max(m_max, 1):
        raise TooShort(f"need at least {10 * max(m_max, 1)} samples, got {n}")

    lags = np.arange(m_max + 1)
    values = np.empty(m_max + 1, dtype=complex)
    errors = np.empty(m_max + 1)
    for m in lags:
        prod = h[m:] * np.conj(h[:n - m]) if m else (h * np.conj(h)).astype(complex)
        values[m] = prod.sum() / n
        blocks = np.array_split(prod, JACKKNIFE_BLOCKS)
        sums = np.array([b.sum() for b in blocks])
        sizes = np.array([b.size for b in blocks])
        total, count = prod.sum(), prod.size
        loo = (total - sums) / (count - sizes)
        mean_loo = loo.mean()
        var = (JACKKNIFE_BLOCKS - 1) / JACKKNIFE_BLOCKS * np.sum(np.abs(loo - mean_loo) ** 2)
        errors[m] = np.sqrt(var) * (count / n)
    return AutocorrEstimate(lags=lags, values=values, std_errors=errors, n=n)


def peak_amplitude(law: DiscreteInputLaw) -> float:
    """The largest modulus of any support entry, 0 for an empty support."""
    return float(np.max(np.abs(law.support))) if law.support.size else 0.0


def law_moments(law: DiscreteInputLaw) -> tuple[np.ndarray, np.ndarray]:
    """Second-moment matrix E[X X^H] and fourth-moment table E[|X_i|^2 |X_j|^2]."""
    p = law.probabilities
    x = law.support
    ax2 = np.abs(x) ** 2
    m = np.einsum("k,ki,kj->ij", p, x, np.conj(x))
    q = np.einsum("k,ki,kj->ij", p, ax2, ax2)
    return m, q


def second_order_coeff_exact(law: DiscreteInputLaw, model: spectra.FadingModel) -> float:
    """Exact per-block coefficient of SNR^2 for a finite-support law,

        (1/(2 A^4)) * sum_{ij} |R(i-j)|^2 (E[|X_i|^2 |X_j|^2] - |E[X_i X_j^*]|^2)

    with A the peak amplitude.  A variance-like difference of
    |R|^2-weighted moments; non-negative for every law by Cauchy-Schwarz
    per entry.  For the on-off block scheme it equals b times the
    per-symbol block coefficient.
    """
    a4 = peak_amplitude(law) ** 4
    if a4 == 0.0:
        return 0.0
    b = law.block_length
    abs_t2 = np.abs(spectra.toeplitz_cov(model, b)) ** 2
    m, q = law_moments(law)
    first = float(np.sum(abs_t2 * q))
    second = float(np.sum(abs_t2 * np.abs(m) ** 2))
    return (first - second) / (2.0 * a4)


def factors(mix: mi._Mixture) -> np.ndarray:
    """(n_classes, b, b) Cholesky factors D_s L D_s of the class covariances
    of ``mix``, bitwise those of the covariances."""
    s = mix.signs
    return mix.chols[mix.group_of_class] * (s[:, :, None] * s[:, None, :])


def class_draws(rng: np.random.Generator, mix: mi._Mixture, n: int):
    """n outputs of the mixture as (class indices, outputs) batches of
    ``mix.batch_rows`` rows (the last one may be shorter): multinomial class
    counts, then for each class its factor D_s L D_s and its outputs
    ``_cn(rng, (m, b)) @ factor.T`` in pieces of at most ``mi._CHUNK`` rows,
    concatenated and cut across class boundaries."""
    counts = rng.multinomial(n, mix.weights / mix.weights.sum())
    held_c, held_y = [np.empty(0, dtype=int)], [np.empty((0, mix.b), dtype=complex)]
    for ci, left in enumerate(counts.tolist()):
        sign = mix.signs[ci]
        factor_t = (mix.chols[mix.group_of_class[ci]] * np.outer(sign, sign)).T
        while left > 0:
            m = min(left, mi._CHUNK)
            held_c.append(np.full(m, ci))
            held_y.append(_cn(rng, (m, mix.b)) @ factor_t)
            left -= m
    c, y = np.concatenate(held_c), np.concatenate(held_y)
    rows = mix.batch_rows
    return [(c[s:s + rows], y[s:s + rows]) for s in range(0, c.size, rows)]


def batch_moments(mix: mi._Mixture, ci: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
    """(rows, mean, sum of squared deviations) of log p(y|x) - log p(y) over
    one batch, each intermediate a new array: the feature runs, one GEMM,
    the log-sum-exp and the two-pass moments of ``mi._batch_moments``."""
    yt = y.T
    u = np.array([yt.real, yt.imag, -yt.imag], order="C").reshape(3 * mix.b, -1)
    f = np.empty((mix._coef.shape[1], u.shape[1]))
    for lo, hi, j1, i1, j2, i2 in mix._runs:
        np.multiply(u[j1], u[i1], out=f[lo:hi])
        f[lo:hi] += u[j2] * u[i2]
    lp = mix._coef @ f
    lp -= mix._offset
    own = lp[ci, np.arange(ci.size)]
    lp += mix.log_weights[:, None]
    top = lp.max(axis=0)
    lp -= top
    ratio = own - (top + np.log(np.sum(np.exp(lp, out=lp), axis=0)))
    c_mean = float(ratio.mean())
    return ratio.size, c_mean, float(np.sum((ratio - c_mean) ** 2))


def mixture_logpdf(mix: mi._Mixture, y: np.ndarray) -> np.ndarray:
    """Mixture log density at each row of y, as one batch."""
    work = mi._Work([mix], np.atleast_2d(y).shape[0])
    return mix.log_mixture(mix.class_logpdfs(y, work), work)


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares extraction of the SNR^2 coefficient."""

    coefficient: float
    std_error: float
    cubic_coefficient: float
    n_points: int


def _as_points(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    snrs, ests, errs = [], [], []
    for p in points:
        if isinstance(p, MIEstimate):
            snrs.append(p.snr)
            ests.append(p.estimate)
            errs.append(p.std_error)
        else:
            s, e, se = p
            snrs.append(float(s))
            ests.append(float(e))
            errs.append(float(se))
    return np.asarray(snrs), np.asarray(ests), np.asarray(errs)


def fit_coefficient(points) -> FitResult:
    """Extract the SNR^2 coefficient from estimates at several small SNRs.

    Weighted least squares of the estimates against SNR^2 with an SNR^3
    nuisance term absorbing the leading bias.  Points are MIEstimate objects
    or (snr, estimate, std_error) triples; zero standard errors fall back to
    an unweighted fit.
    """
    snr, est, err = _as_points(points)
    if not np.all(snr > 0.0):
        raise DomainError("SNR values must be > 0")
    if len(set(snr.tolist())) < 3:
        raise DomainError("need at least 3 distinct SNR values")
    if np.any(snr > 0.5):
        raise DomainError("fit is only meaningful for SNR <= 0.5")
    if snr.max() / snr.min() < 2.0:
        raise IllConditioned("SNR values must span at least a factor of 2")

    design = np.column_stack([snr ** 2, snr ** 3])
    weighted = np.all(err > 0.0)
    w = 1.0 / err ** 2 if weighted else np.ones_like(snr)
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(design * sw[:, None], est * sw, rcond=None)
    gram_inv = np.linalg.inv(design.T @ (design * w[:, None]))
    if weighted:
        cov = gram_inv
    else:
        resid = est - design @ beta
        dof = snr.size - 2
        mse = float(resid @ resid) / dof if dof > 0 else 0.0
        cov = mse * gram_inv
    return FitResult(
        coefficient=float(beta[0]),
        std_error=float(np.sqrt(max(cov[0, 0], 0.0))),
        cubic_coefficient=float(beta[1]),
        n_points=int(snr.size),
    )


def density_table_by_rows(text: str) -> spectra.FadingModel:
    """``spectra.load_tabulated_density`` of the text, each row read by
    ``float()`` in a loop: the same skipped rows, header and messages."""
    lines = [ln.strip() for ln in io.StringIO(text)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParamOutOfRange("empty density table")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header != ["lambda", "value"]:
        raise ParamOutOfRange("density table must start with a 'lambda,value' header row")
    grid, vals = [], []
    for ln in lines[1:]:
        try:
            lam, val = map(float, ln.split(","))
        except ValueError:
            raise ParamOutOfRange(f"malformed table row: {ln!r}") from None
        grid.append(lam)
        vals.append(val)
    return spectra.tabulated_density(grid, vals)


def breakpoints(model: spectra.FadingModel) -> tuple[float, ...]:
    """The density's interior jumps, where adaptive quadrature splits:
    (-lambda_c, lambda_c) for a band-limited law, none for any other kind."""
    if isinstance(model, spectra.BandLimited):
        return (-model.lambda_c, model.lambda_c)
    return ()


def certified_lags(table: spectra.TabulatedDensity, tol: float) -> int | None:
    """The least N at which E (E + 2|D|) / (4 pi^2 N) + (E + |D|) K / (8 pi^3 N^2)
    + K^2 / (3 (2 pi)^4 N^3) <= tol, for either of two (K, E): the sizes of
    the slope jumps summed, the one at -1/2 taken across the wrap, with
    E = 0; or the same with each piece narrower than 1/(pi (most + 1))
    taking the slope of the nearest wider piece before it and adding its
    own slope's excess over that times its width to E.  D is the end jump
    and most the budget, ``spectra.SERIES_LAG_BUDGET`` and, off the FFT
    route, ``spectra.SERIES_PIECE_LAG_BUDGET`` over the pieces; None past
    it.  Each bound falls with N, so N is the ceiling of the one positive
    root of tol N^3 - a N^2 - b N - c."""
    xs, fs = table.grid.tolist(), table.values.tolist()
    pieces = len(xs) - 1
    most = spectra.SERIES_LAG_BUDGET
    if np.any(np.abs(table.grid - np.linspace(-0.5, 0.5, pieces + 1)) > 4 * np.spacing(0.5)):
        most = min(most, spectra.SERIES_PIECE_LAG_BUDGET // pieces)
    d, best = abs(fs[-1] - fs[0]), None
    for cut in (0.0, 1.0 / (np.pi * (most + 1))):
        with np.errstate(over="ignore", invalid="ignore"):    # a piece too narrow for its slope
            slopes = [np.float64(fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j]) for j in range(pieces)]
            last = max([j for j in range(pieces) if xs[j + 1] - xs[j] >= cut], default=pieces - 1)
            taken, e = [], 0.0
            for j in range(pieces):
                if xs[j + 1] - xs[j] >= cut:
                    last = j
                taken.append(slopes[last])
                if last != j:
                    e += abs((fs[j + 1] - fs[j]) - taken[j] * (xs[j + 1] - xs[j]))
            k = sum(abs(taken[j] - taken[j - 1]) for j in range(pieces))
            cubic = np.array([tol, -e * (e + 2 * d) / (4 * np.pi ** 2),
                              -(e + d) * k / (8 * np.pi ** 3), -k * k / (3 * (2 * np.pi) ** 4)])
        if not np.all(np.isfinite(cubic)):
            continue
        roots = np.roots(cubic)
        n = max(1, int(np.ceil(np.max(roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]))))
        best = n if best is None else min(best, n)
    return best if best is not None and best <= most else None


def inputs_one_shot(scheme: simulate.BlockScheme, n: int, seed: int) -> np.ndarray:
    """x_k = U_{floor(k/b)} * D_k from one draw of the ceil(n / b) amplitudes
    and one of the n int64 signs."""
    b = scheme.block_length
    u = scheme.amplitude * (simulate.rng_stream(seed, "amplitude").random(-(-n // b))
                            < scheme.duty_cycle)
    d = simulate.rng_stream(seed, "sign").integers(0, 2, size=n) * 2 - 1
    x = np.zeros(n, dtype=complex)
    np.multiply(np.repeat(u, b)[:n], d, out=x.real)
    return x
