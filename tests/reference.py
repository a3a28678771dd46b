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
- ``class_draws`` is the Monte Carlo estimator's draw route one class at a
  time: a factor and a ``_cn`` draw per piece, then the pieces regrouped
  into batches;
- ``breakpoints`` gives the quadrature oracles of the lags and the circulant
  cells the density's jumps to split at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fadelab import mi, spectra
from fadelab.errors import DomainError, FadingLabError
from fadelab.mi import DiscreteInputLaw
from fadelab.spectra import _cn

#: contiguous segments of the delete-one-block jackknife
JACKKNIFE_BLOCKS = 50


class TooShort(FadingLabError):
    """Sample path too short for the requested number of lags."""


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


def breakpoints(model: spectra.FadingModel) -> tuple[float, ...]:
    """The density's interior jumps, where adaptive quadrature splits:
    (-lambda_c, lambda_c) for a band-limited law, none for any other kind."""
    if isinstance(model, spectra.BandLimited):
        return (-model.lambda_c, model.lambda_c)
    return ()
