"""Per-block mutual information at small SNR: finite-support input laws
and seeded Monte Carlo estimation.

For a finite-support input law on b symbols, the coefficient of SNR^2 in
the per-block mutual information is

    (1/(2 A^4)) * sum_{ij} |R(i-j)|^2 (E[|X_i|^2 |X_j|^2] - |E[X_i X_j^*]|^2),

evaluated for any law by ``tests/reference.py``; for the on-off block
scheme it is (b(alpha - alpha^2) + alpha S(b)) / 2, b times
``scheme_coefficients(...).block_coeff``.  The Monte Carlo estimator draws
(x, y) from the true joint law and averages log p(y|x) - log p(y), with p(y)
the exact finite Gaussian mixture; support points whose conditional
covariances coincide (global phase rotations) are merged first, and classes
sharing a modulus pattern share one Cholesky factor (see ``_Mixture``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import BlockTooLarge, DomainError, IllConditioned
from .simulate import BlockScheme, rng_stream
from .spectra import _cn

#: mixture enumeration cap on the block length
BLOCK_CAP = 12

#: rows per sampling chunk, and (rows x classes) entries per density
#: evaluation batch.  The draws depend on it: ``_cn`` draws the real parts
#: of a chunk before its imaginary parts, so another value gives other
#: samples (with 4096 instead of 2^18 one seed gave 0.0077816 instead of
#: 0.0077833).  The evaluation batch does not change the draws, only the
#: rounding of the moment merge.
_CHUNK = 1 << 18

_LOG_PI = float(np.log(np.pi))


@dataclass(frozen=True, eq=False)
class DiscreteInputLaw:
    """Finite-support law on complex b-vectors."""

    support: np.ndarray        # (K, b) complex
    probabilities: np.ndarray  # (K,) positive, summing to one

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=complex)
        p = np.asarray(self.probabilities, dtype=float)
        if sup.ndim != 2 or p.ndim != 1 or sup.shape[0] != p.size:
            raise DomainError("support must be (K, b) with K matching the probabilities")
        if np.any(p <= 0.0):
            raise DomainError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {p.sum():.15g}, expected 1")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probabilities", p)

    @property
    def block_length(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True)
class MIEstimate:
    """Seeded Monte Carlo per-block mutual information estimate, in nats."""

    block_length: int
    snr: float
    duty_cycle: float
    estimate: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares extraction of the SNR^2 coefficient."""

    coefficient: float
    std_error: float
    cubic_coefficient: float
    n_points: int


def scheme_to_law(scheme: BlockScheme) -> DiscreteInputLaw:
    """Enumerate the block scheme as a finite-support law.

    Support is the zero block plus amplitude times every sign pattern;
    probabilities are 1 - alpha and alpha / 2^b.  Zero-probability atoms are
    dropped.  Verified moments: E[X_k X_j^*] = alpha A^2 1{k=j} and
    E[|X_k|^2 |X_j|^2] = alpha A^4 for all k, j in a block.
    """
    b = scheme.block_length
    if b > BLOCK_CAP:
        raise BlockTooLarge(f"block length {b} exceeds the enumeration cap {BLOCK_CAP}")
    alpha = scheme.duty_cycle
    amp = scheme.amplitude
    rows, probs = [], []
    if alpha < 1.0:
        rows.append(np.zeros(b, dtype=complex))
        probs.append(1.0 - alpha)
    if alpha > 0.0:
        p_each = alpha / 2 ** b
        for signs in itertools.product((1.0, -1.0), repeat=b):
            rows.append(amp * np.asarray(signs, dtype=complex))
            probs.append(p_each)
    return DiscreteInputLaw(support=np.array(rows), probabilities=np.array(probs))


def cond_covariance(x: np.ndarray, model: spectra.FadingModel, sigma2: float) -> np.ndarray:
    """Conditional output covariance given the input block x.

    Entry (i, j) is R(i-j) x_i conj(x_j) plus sigma2 on the diagonal;
    Hermitian positive definite for sigma2 > 0.
    """
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise DomainError("noise variance must be > 0")
    x = np.asarray(x, dtype=complex)
    b = x.size
    t = spectra.toeplitz_cov(model, b)
    return t * np.outer(x, np.conj(x)) + sigma2 * np.eye(b)


class _Mixture:
    """The output mixture of a law under one channel, factored once per
    modulus pattern.

    Support rows whose conditional covariances coincide (a global phase
    apart) are merged into classes.  Classes that share the modulus pattern
    a = |x| form a group: with x = D_phi a, D_phi = diag(phases), the class
    covariance is D_phi C D_phi^H with C = cond_covariance(a), so one
    Cholesky factor L and one precision P = C^{-1} serve the whole group.
    The class quadratic form

        y^H D_phi P D_phi^H y = sum_i P_ii |y_i|^2
                                + 2 Re sum_{i<j} P_ij phi_i conj(phi_j) conj(y_i) y_j

    is linear in the features (|y_i|^2, Re and Im of conj(y_i) y_j), so the
    log densities of every class at a batch of outputs are one GEMM.
    """

    def __init__(self, law: DiscreteInputLaw, model: spectra.FadingModel, sigma2: float):
        b = law.block_length
        if b > BLOCK_CAP:
            raise BlockTooLarge(f"block length {b} exceeds the enumeration cap {BLOCK_CAP}")
        sup = law.support
        mags = np.abs(sup)
        unit = np.divide(sup, mags, out=np.ones(sup.shape, dtype=complex), where=mags > 0.0)
        # the covariance depends on x only through x_i conj(x_j): rotate each
        # row so that its first nonzero entry is real positive, then round
        lead = unit[np.arange(sup.shape[0]), np.argmax(mags > 0.0, axis=1)]
        canon = np.round(sup * np.conj(lead)[:, None], 12) + (0.0 + 0.0j)  # flush -0.0
        class_of_row, first = _first_appearance(canon)
        group_of_class, group_first = _first_appearance(np.round(mags[first], 12))

        covs = [cond_covariance(mags[first[g]], model, sigma2) for g in group_first]
        self.chols = np.linalg.cholesky(np.array(covs))
        inv = np.linalg.inv(self.chols)
        prec = (np.conj(np.swapaxes(inv, 1, 2)) @ inv)[group_of_class]
        logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(self.chols, axis1=1, axis2=2))), axis=1)

        self.b = b
        self.phases = unit[first]
        self.class_of_row = class_of_row
        self.group_of_class = group_of_class
        self.weights = np.bincount(class_of_row, weights=law.probabilities)
        self.log_weights = np.log(self.weights)
        # coefficients of the features (|y_i|^2, Re, Im of conj(y_i) y_j for i < j)
        self._pairs = np.triu_indices(b, 1)
        iu, ju = self._pairs
        q = prec[:, iu, ju] * self.phases[:, iu] * np.conj(self.phases[:, ju])
        self._coef = np.concatenate(
            [np.real(np.diagonal(prec, axis1=1, axis2=2)), 2.0 * q.real, -2.0 * q.imag], axis=1)
        self._offset = (b * _LOG_PI + logdets[group_of_class])[:, None]
        #: rows per evaluation batch: at most _CHUNK (rows x classes) entries
        self.batch_rows = max(1, _CHUNK // self.n_classes)

    @property
    def n_classes(self) -> int:
        return self.weights.size

    def factor(self, ci: int) -> np.ndarray:
        """Cholesky factor D_phi L D_phi^H of class ci's covariance; equal
        bitwise to the factor of its own covariance for sign patterns."""
        phi = self.phases[ci]
        return self.chols[self.group_of_class[ci]] * np.outer(phi, np.conj(phi))

    def class_logpdfs(self, y: np.ndarray) -> np.ndarray:
        """(n_classes, m) conditional log densities for a batch of m outputs."""
        yt = np.atleast_2d(y).T
        iu, ju = self._pairs
        z = np.conj(yt[iu]) * yt[ju]
        lp = self._coef @ np.concatenate([yt.real ** 2 + yt.imag ** 2, z.real, z.imag])
        lp += self._offset
        return np.negative(lp, out=lp)

    def log_mixture(self, lp: np.ndarray) -> np.ndarray:
        """Mixture log density from a batch of class log densities.

        Written out rather than scipy.special.logsumexp, which costs 6-10x
        as much on these batches (scipy 1.17) and made mi_monte_carlo 1.5-3x
        slower at b = 1 to 12.
        """
        a = lp + self.log_weights[:, None]
        top = a.max(axis=0)
        a -= top
        return top + np.log(np.sum(np.exp(a, out=a), axis=0))

    def mixture_logpdf(self, y: np.ndarray) -> np.ndarray:
        """Mixture log density at each row of y, as one batch."""
        return self.log_mixture(self.class_logpdfs(y))


def _first_appearance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label equal rows alike, in order of first appearance: the label of
    every row and the index of each label's first row."""
    labels: dict[bytes, int] = {}
    first: list[int] = []
    of_row = np.empty(rows.shape[0], dtype=int)
    for i, row in enumerate(rows):
        key = row.tobytes()
        if key not in labels:
            labels[key] = len(first)
            first.append(i)
        of_row[i] = labels[key]
    return of_row, np.asarray(first, dtype=int)


def _merge_moments(n1, mean1, m2_1, n2, mean2, m2_2):
    """Chan-style pooling of (count, mean, sum of squared deviations)."""
    if n1 == 0:
        return n2, mean2, m2_2
    delta = mean2 - mean1
    n = n1 + n2
    mean = mean1 + delta * n2 / n
    m2 = m2_1 + m2_2 + delta * delta * n1 * n2 / n
    return n, mean, m2


def _class_draws(rng: np.random.Generator, mix: _Mixture, n: int):
    """n outputs of the mixture as (class indices, outputs) chunks: multinomial
    class counts, then each class's outputs in chunks of at most _CHUNK rows."""
    counts = rng.multinomial(n, mix.weights / mix.weights.sum())
    for ci, left in enumerate(counts.tolist()):
        factor_t = mix.factor(ci).T
        while left > 0:
            m = min(left, _CHUNK)
            yield np.full(m, ci), _cn(rng, (m, mix.b)) @ factor_t
            left -= m


def _rebatch(chunks, rows: int):
    """Regroup (class indices, outputs) chunks into batches of ``rows`` rows
    (the last one may be shorter), across class boundaries."""
    held_c, held_y, n_held = [], [], 0
    for c, y in chunks:
        held_c.append(c)
        held_y.append(y)
        n_held += c.size
        if n_held < rows:
            continue
        c, y = np.concatenate(held_c), np.concatenate(held_y)
        full = n_held - n_held % rows
        for s in range(0, full, rows):
            yield c[s:s + rows], y[s:s + rows]
        held_c, held_y, n_held = [c[full:]], [y[full:]], n_held - full
    if n_held:
        yield np.concatenate(held_c), np.concatenate(held_y)


def mi_monte_carlo(scheme: BlockScheme, model: spectra.FadingModel, sigma2: float,
                   n_samples: int, seed: int) -> MIEstimate:
    """Monte Carlo estimate of the per-block mutual information in nats.

    Draws (x, y) from the joint law (y sampled directly from its conditional
    Gaussian) and averages log p(y|x) - log p(y).  Every draw comes from the
    seed's "mi" stream, so the estimate is deterministic given the seed.
    """
    n_samples = int(n_samples)
    if n_samples < 10_000:
        raise DomainError("need at least 1e4 samples for a meaningful standard error")
    law = scheme_to_law(scheme)
    mix = _Mixture(law, model, sigma2)

    tot_n, tot_mean, tot_m2 = 0, 0.0, 0.0
    draws = _class_draws(rng_stream(seed, "mi"), mix, n_samples)
    for ci, y in _rebatch(draws, mix.batch_rows):
        lp = mix.class_logpdfs(y)
        ratio = lp[ci, np.arange(ci.size)] - mix.log_mixture(lp)
        c_mean = float(ratio.mean())
        c_m2 = float(np.sum((ratio - c_mean) ** 2))
        tot_n, tot_mean, tot_m2 = _merge_moments(
            tot_n, tot_mean, tot_m2, ratio.size, c_mean, c_m2)

    var = tot_m2 / (tot_n - 1) if tot_n > 1 else 0.0
    std_error = float(np.sqrt(var / tot_n))
    return MIEstimate(
        block_length=scheme.block_length,
        snr=scheme.amplitude ** 2 / float(sigma2),
        duty_cycle=scheme.duty_cycle,
        estimate=float(tot_mean),
        std_error=std_error,
        n_samples=n_samples,
        seed=int(seed),
    )


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
    uniq = np.unique(snr)
    if uniq.size < 3:
        raise DomainError("need at least 3 distinct SNR values")
    if np.any(snr > 0.5):
        raise DomainError("fit is only meaningful for SNR <= 0.5")
    if uniq.max() / uniq.min() < 2.0:
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
