"""Per-block mutual information at small SNR: finite-support input laws
and seeded Monte Carlo estimation.

For a finite-support input law on b symbols, the coefficient of SNR^2 in
the per-block mutual information is

    (1/(2 A^4)) * sum_{ij} |R(i-j)|^2 (E[|X_i|^2 |X_j|^2] - |E[X_i X_j^*]|^2),

evaluated for any law by ``tests/reference.py``; for the on-off block
scheme it is (b(alpha - alpha^2) + alpha S(b)) / 2, b times
``scheme_coefficients(...).block_coeff``.  The Monte Carlo estimator draws
(x, y) from the scheme's joint law and averages log p(y|x) - log p(y), with
p(y) the exact finite Gaussian mixture.  Its classes come from the sign
structure, the zero block and the sign patterns up to a global flip, with
one Cholesky factor for the off block and one, chol(A^2 T_b + sigma2 I),
for every on class up to its signs (see ``_Mixture``).  The outputs are
drawn a span of class pieces at a time (``_batches``), with one GEMM per
factor and each row's signs flipped before and after it, not one product
per class.  Each batch of outputs costs real products for its features,
one GEMM for the log densities of every class and a log-sum-exp in place.
The calling thread draws every batch from the one "mi" stream, and
``simulate._run`` evaluates them on min(usable CPUs, batches) threads,
itself and helpers, each in its own buffer set (``_Work``) that the
calling thread allocates once per call.  The per-batch moments are merged
in batch order, so the thread count changes no bit of an estimate.

The draws do not depend on the noise variance: the class weights come
from the scheme alone, and an output is a fixed normal vector times its
class's factor.  ``mi_monte_carlo_many`` therefore estimates at k noise
variances from one draw of the stream, de-interleaved and sign-flipped
once, forming each batch k times, once per variance's factors; each
estimate is bitwise ``mi_monte_carlo``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import BlockTooLarge, DomainError
from .simulate import BlockScheme, _run, rng_stream

#: mixture enumeration cap on the block length
BLOCK_CAP = 12

#: rows per sampling chunk, and (rows x classes) entries per density
#: evaluation batch.  The draws depend on it: ``_cn`` draws the real parts
#: of a chunk before its imaginary parts, so another value gives other
#: samples (with 4096 instead of 2^18 one seed gave 0.0077816 instead of
#: 0.0077833).  The evaluation batch does not change the draws, only the
#: rounding of the moment merge.  It does not depend on the thread count:
#: every thread evaluates whole batches in its own buffers, and the merge
#: runs in batch order.
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


def _sign_patterns(b: int) -> np.ndarray:
    """The 2^b sign patterns in itertools.product order: row k has -1 where
    bit b-1-j of k is set, so the first 2^(b-1) rows have s_0 = +1."""
    bits = (np.arange(2 ** b)[:, None] >> np.arange(b - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


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
        rows.append(np.zeros((1, b), dtype=complex))
        probs.append([1.0 - alpha])
    if alpha / 2 ** b > 0.0:
        rows.append(amp * _sign_patterns(b).astype(complex))
        probs.append(np.full(2 ** b, alpha / 2 ** b))
    return DiscreteInputLaw(support=np.concatenate(rows), probabilities=np.concatenate(probs))


def cond_covariance(x: np.ndarray, model: spectra.FadingModel, sigma2: float) -> np.ndarray:
    """Conditional output covariance given the input block x.

    Entry (i, j) is R(i-j) x_i conj(x_j) plus sigma2 on the diagonal;
    Hermitian positive definite for 0 < sigma2 < inf, and refused where an
    entry is not finite.
    """
    sigma2 = float(sigma2)
    if not 0.0 < sigma2 < np.inf:
        raise DomainError("noise variance must be finite and > 0")
    x = np.asarray(x, dtype=complex)
    b = x.size
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cov = spectra.toeplitz_cov(model, b) * np.outer(x, np.conj(x)) + sigma2 * np.eye(b)
    if not np.all(np.isfinite(cov)):
        raise DomainError("conditional covariance is not finite")
    return cov


class _Mixture:
    """The output mixture of the on-off block scheme under one channel, its
    classes and factors taken from the scheme's sign structure.

    An on block is x = A D_s 1 with D_s = diag(s), s in {+-1}^b, so its
    conditional covariance is D_s C D_s with C = cond_covariance(A 1); s and
    -s give the same covariance.  The classes are the zero block (weight
    1 - alpha, covariance sigma2 I) when alpha < 1, then the 2^(b-1) sign
    patterns with s_0 = +1 (weight alpha / 2^(b-1) each), in the row order
    of ``scheme_to_law``; classes of weight 0 are dropped.  One Cholesky
    factor L and one precision P = C^{-1} serve all on classes.  The class
    quadratic form

        y^H D_s P D_s y = sum_i P_ii |y_i|^2 + 2 Re sum_{i<j} P_ij s_i s_j conj(y_i) y_j

    is linear in the features (|y_i|^2, Re and Im of conj(y_i) y_j), so the
    log densities of every class at a batch of outputs are one GEMM.  Only
    features that some class weighs are formed, from Re y and Im y: b(b+1)/2
    of the b^2 for real lags, whose Im coefficients are all 0.
    """

    def __init__(self, scheme: BlockScheme, model: spectra.FadingModel, sigma2: float):
        b = scheme.block_length
        if b > BLOCK_CAP:
            raise BlockTooLarge(f"block length {b} exceeds the enumeration cap {BLOCK_CAP}")
        alpha = scheme.duty_cycle
        blocks, signs, weights = [], [], []
        if alpha < 1.0:
            blocks.append(np.zeros(b))
            signs.append(np.ones((1, b)))
            weights.append([1.0 - alpha])
        if alpha / 2 ** b > 0.0:
            blocks.append(np.full(b, scheme.amplitude))
            signs.append(_sign_patterns(b)[:2 ** (b - 1)])
            weights.append(np.full(2 ** (b - 1), alpha / 2 ** (b - 1)))
        self.signs = np.concatenate(signs)
        self.weights = np.concatenate(weights)
        # the zero block, if kept, is class 0; every other class is on
        self.group_of_class = np.minimum(np.arange(self.weights.size), len(blocks) - 1)
        self.chols = np.linalg.cholesky(np.array([cond_covariance(x, model, sigma2)
                                                  for x in blocks]))
        inv = np.linalg.inv(self.chols)
        prec = (np.conj(np.swapaxes(inv, 1, 2)) @ inv)[self.group_of_class]
        logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(self.chols, axis1=1, axis2=2))), axis=1)

        self.b = b
        self.log_weights = np.log(self.weights)
        # coefficients of the features Re and Im of conj(y_i) y_j for i <= j
        # (|y_i|^2 at i = j, which has no Im), negated; a column that is 0 in
        # every class is dropped with its feature
        i, j = np.triu_indices(b)
        q = prec[:, i, j] * (self.signs[:, i] * self.signs[:, j])
        q[:, i == j] = np.real(np.diagonal(prec, axis1=1, axis2=2)) / 2.0
        coef = -2.0 * np.concatenate([q.real, -q.imag], axis=1)
        keep = np.any(coef != 0.0, axis=0)
        self._coef = coef[:, keep]
        # kept feature k is u[j1] u[i1] + u[j2] u[i2] over the rows u = (Re y, Im y, -Im y);
        # a run of features with one (i1, i2) is one broadcast product
        j1, i1, j2, i2 = (np.concatenate(r)[keep] for r in (
            (j, b + j), (i, i), (b + j, j), (b + i, 2 * b + i)))
        cuts = [0, *(np.flatnonzero(np.diff(i2)) + 1), i2.size]
        self._runs = [(lo, hi, j1[lo:hi], i1[lo], j2[lo:hi], i2[lo])
                      for lo, hi in zip(cuts, cuts[1:])]
        self._offset = (b * _LOG_PI + logdets[self.group_of_class])[:, None]
        #: rows per evaluation batch: at most _CHUNK (rows x classes) entries
        self.batch_rows = max(1, _CHUNK // self.n_classes)

    @property
    def n_classes(self) -> int:
        return self.weights.size

    def class_logpdfs(self, y: np.ndarray, work: _Work | None = None) -> np.ndarray:
        """(n_classes, m) conditional log densities for a batch of m outputs,
        computed in ``work``'s buffers (a new set for m rows if None)."""
        y = np.atleast_2d(y)
        b, m = self.b, y.shape[0]
        work = work or _Work([self], m)
        u = work.view("u", 3 * b, m)    # rows Re y, Im y, -Im y
        np.copyto(u[:b], y.real.T)
        np.copyto(u[b:2 * b], y.imag.T)
        np.negative(y.imag.T, out=u[2 * b:])
        f = work.view("f", self._coef.shape[1], m)
        for lo, hi, j1, i1, j2, i2 in self._runs:
            run = work.view("run", hi - lo, m)
            np.take(u, j1, axis=0, out=f[lo:hi], mode="clip")
            np.multiply(f[lo:hi], u[i1], out=f[lo:hi])
            np.take(u, j2, axis=0, out=run, mode="clip")
            np.multiply(run, u[i2], out=run)
            np.add(f[lo:hi], run, out=f[lo:hi])
        lp = np.matmul(self._coef, f, out=work.view("lp", self.n_classes, m))
        lp -= self._offset
        return lp

    def log_mixture(self, lp: np.ndarray, work: _Work) -> np.ndarray:
        """Mixture log density from a batch of class log densities, computed
        in lp's buffer, which it overwrites, and ``work``'s row vectors.

        Written out rather than scipy.special.logsumexp, which costs 6-10x
        as much on these batches (scipy 1.17) and made mi_monte_carlo 1.5-3x
        slower at b = 1 to 12.
        """
        m = lp.shape[1]
        lp += self.log_weights[:, None]
        top = np.max(lp, axis=0, out=work.view("top", m))
        lp -= top
        total = np.sum(np.exp(lp, out=lp), axis=0, out=work.view("total", m))
        np.log(total, out=total)
        total += top
        return total


class _Work:
    """The buffers one thread evaluates batches of up to ``rows`` outputs
    of any of ``mixes`` (one scheme's mixtures) in: the features u and f,
    the run products, the class log densities and the row vectors, all
    slices of one allocation.  ``simulate._run`` makes one per thread, on
    the calling thread, so that a helper allocates nothing of a batch's
    size."""

    def __init__(self, mixes: list[_Mixture], rows: int):
        mix = mixes[0]
        sizes = {"u": 3 * mix.b, "f": max(m._coef.shape[1] for m in mixes),
                 "run": max(hi - lo for m in mixes for lo, hi, *_ in m._runs),
                 "lp": mix.n_classes, "own": 1, "top": 1, "total": 1, "at": 1}
        whole = np.empty(sum(sizes.values()) * rows)
        ends = np.cumsum([0, *sizes.values()]) * rows
        self._flat = {name: whole[lo:hi] for name, lo, hi in zip(sizes, ends, ends[1:])}
        self._flat["at"] = self._flat["at"].view(np.intp)
        self.columns = np.arange(rows)

    def view(self, name: str, *shape: int) -> np.ndarray:
        """A C-contiguous array of the given shape at the start of buffer
        ``name``, strided as a fresh array of that shape is."""
        return self._flat[name][:math.prod(shape)].reshape(shape)


def _merge_moments(n1, mean1, m2_1, n2, mean2, m2_2):
    """Chan-style pooling of (count, mean, sum of squared deviations)."""
    if n1 == 0:
        return n2, mean2, m2_2
    delta = mean2 - mean1
    n = n1 + n2
    mean = mean1 + delta * n2 / n
    m2 = m2_1 + m2_2 + delta * delta * n1 * n2 / n
    return n, mean, m2


def _batches(rng: np.random.Generator, mixes: list[_Mixture], n: int):
    """n outputs of each of ``mixes``, mixtures of one scheme under noise
    variances that differ, as (mixture index, class indices, outputs)
    batches of ``batch_rows`` rows (the last of a mixture may be shorter),
    across class boundaries.

    Multinomial class counts, then each class's outputs in pieces of at most
    _CHUNK rows: a piece of m rows is ``_cn(rng, (m, b)) @ factor.T`` with
    factor = D_s L D_s.  The pieces that start in one batch form a span:
    one ``standard_normal`` call draws each piece's real parts, then its
    imaginary parts, in ``_cn``'s order; they are de-interleaved into rows
    g, and g D_s formed, once for all mixtures.  Per mixture, the span's
    outputs are ((g D_s) L^T) D_s, one GEMM per factor L of ``chols``, the
    signs flipped in place: a sign flip commutes with rounding, so each row
    is bitwise its piece's own product.  numpy takes a one-row product by
    its matrix-vector route, whose rounding differs, so the rows of
    one-row pieces are formed again as one stack of one-row products,
    which numpy takes by that route too.  The weights, and so the draws,
    are the scheme's alone: every mixture's batches are those of a call
    with that mixture alone.
    """
    mix = mixes[0]
    b, rows = mix.b, mix.batch_rows
    counts = rng.multinomial(n, mix.weights / mix.weights.sum()).tolist()
    pieces = np.array([(ci, min(c - s, _CHUNK)) for ci, c in enumerate(counts)
                       for s in range(0, c, _CHUNK)])
    starts = np.cumsum(pieces[:, 1]) - pieces[:, 1]
    chols_t = [np.swapaxes(m.chols, 1, 2) for m in mixes]
    signs = np.repeat(mix.signs, 2, axis=1).astype(np.int8)    # one per float of a row
    held_c, held_y = np.empty(0, dtype=int), [np.empty((0, b), dtype=complex)] * len(mixes)
    for span in np.split(pieces, np.flatnonzero(np.diff(starts // rows)) + 1):
        k, m = span.T
        new = int(m.sum())
        drawn = rng.standard_normal(2 * b * new)
        drawn *= np.sqrt(0.5)
        cuts = (b * np.cumsum(np.repeat(m, 2))).tolist()
        parts = [drawn[lo:hi] for lo, hi in zip([0, *cuts], cuts)]
        g = np.empty((new, b), dtype=complex)
        np.concatenate(parts[0::2], out=g.real.reshape(-1))
        np.concatenate(parts[1::2], out=g.imag.reshape(-1))
        del drawn, parts    # before the outputs are allocated, which may take its place
        c = np.concatenate([held_c, np.repeat(k, m)])
        full = c.size - c.size % rows
        flip = np.take(signs, c[held_c.size:], axis=0) if np.any(signs[k] < 0) else None
        if flip is not None:
            gf = g.view(float)
            gf *= flip
        # the rows of each factor's classes, and the one-row pieces among them
        ends = np.cumsum(np.bincount(mix.group_of_class[k], m, len(mix.chols))).astype(int)
        one = (np.cumsum(m) - 1)[m == 1]
        for j, lt in enumerate(chols_t):
            y = np.empty((c.size, b), dtype=complex)
            y[:held_c.size] = held_y[j]
            out = y[held_c.size:]
            for f, (lo, hi) in enumerate(zip([0, *ends], ends)):
                if hi > lo:
                    np.matmul(g[lo:hi], lt[f], out=out[lo:hi])
                at = one[(lo <= one) & (one < hi)]
                if at.size:
                    out[at] = np.matmul(g[at, None], lt[f])[:, 0]
            if flip is not None:
                of = out.view(float)
                of *= flip
            for s in range(0, full, rows):
                yield j, c[s:s + rows], y[s:s + rows]
            held_y[j] = y[full:]
        held_c = c[full:]
    if held_c.size:
        for j, y in enumerate(held_y):
            yield j, held_c, y


@np.errstate(over="ignore", invalid="ignore")
def _batch_moments(mix: _Mixture, work: _Work, ci: np.ndarray, y: np.ndarray):
    """(rows, mean, sum of squared deviations) of log p(y|x) - log p(y) over
    one batch, computed in ``work``'s buffers alone.

    It runs with numpy's ufunc buffer at its least size, 16 elements: at
    the default, 8192, each op that broadcasts over rows shorter than that
    goes through a 64 KiB buffer that numpy allocates per call.  Buffered
    or not, every op and reduction here gives the same bits.  An overflow
    (products of outputs near the largest double) is left to carry inf or
    nan into the moments, which ``_estimates`` refuses.
    """
    old = np.setbufsize(16)
    try:
        m = ci.size
        lp = mix.class_logpdfs(y, work)
        at = np.multiply(ci, m, out=work.view("at", m))
        at += work.columns[:m]
        ratio = np.take(lp.reshape(-1), at, out=work.view("own", m), mode="clip")
        ratio -= mix.log_mixture(lp, work)
        c_mean = float(ratio.mean())
        dev = np.subtract(ratio, c_mean, out=work.view("top", m))
        return m, c_mean, float(np.sum(np.square(dev, out=dev)))
    finally:
        np.setbufsize(old)


def mi_monte_carlo(scheme: BlockScheme, model: spectra.FadingModel, sigma2: float,
                   n_samples: int, seed: int) -> MIEstimate:
    """Monte Carlo estimate of the per-block mutual information in nats.

    Draws (x, y) from the joint law (y sampled directly from its conditional
    Gaussian) and averages log p(y|x) - log p(y).  Every draw comes from the
    seed's "mi" stream, so the estimate is deterministic given the seed.
    The batches are evaluated on min(usable CPUs, batches) threads and
    merged in batch order, so the thread count does not change a bit of it.
    """
    return _estimates(scheme, model, [sigma2], n_samples, seed)[0]


def mi_monte_carlo_many(scheme: BlockScheme, model: spectra.FadingModel, sigma2s,
                        n_samples: int, seed: int) -> list[MIEstimate]:
    """``mi_monte_carlo`` at each noise variance of ``sigma2s``, bit for bit,
    from one draw of the seed's "mi" stream: the class counts and normals
    are drawn once and each batch is formed once per variance
    (``_batches``).  Every mixture is built, and so refused, before
    anything is drawn."""
    return _estimates(scheme, model, sigma2s, n_samples, seed)


def _estimates(scheme, model, sigma2s, n_samples, seed) -> list[MIEstimate]:
    """The body of both public estimators, which stay one traced call each."""
    n_samples = int(n_samples)
    if n_samples < 10_000:
        raise DomainError("need at least 1e4 samples for a meaningful standard error")
    mixes = [_Mixture(scheme, model, sigma2) for sigma2 in sigma2s]
    rows = mixes[0].batch_rows
    tasks = (lambda work, j=j, ci=ci, y=y: (j, _batch_moments(mixes[j], work, ci, y))
             for j, ci, y in _batches(rng_stream(seed, "mi"), mixes, n_samples))
    totals = [(0, 0.0, 0.0)] * len(mixes)    # merged per mixture in batch order
    for j, moments in _run(tasks, len(mixes) * -(-n_samples // rows), lambda: _Work(mixes, rows)):
        totals[j] = _merge_moments(*totals[j], *moments)
    if not all(math.isfinite(v) for _, mean, m2 in totals for v in (mean, m2)):
        raise DomainError("the estimate is not finite: products of outputs overflow")
    estimates = []
    for sigma2, (tot_n, tot_mean, tot_m2) in zip(sigma2s, totals):
        var = tot_m2 / (tot_n - 1) if tot_n > 1 else 0.0
        estimates.append(MIEstimate(
            block_length=scheme.block_length,
            snr=scheme.amplitude ** 2 / float(sigma2),
            duty_cycle=scheme.duty_cycle,
            estimate=float(tot_mean),
            std_error=float(np.sqrt(var / tot_n)),
            n_samples=n_samples,
            seed=int(seed),
        ))
    return estimates

