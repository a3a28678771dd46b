"""Independent checks of every benchmark op's report.

Each check takes the op's exit code and report text and returns a list of
problems; an empty list means the op met its expected outcome.  The
expected values come from closed forms, mpmath, numpy re-derivations or
reference values stored in ``refs.json`` (computed by ``make_refs.py``),
never from the fadelab functions under test.
"""

from __future__ import annotations

import json

import mpmath as mp
import numpy as np

from laws import Law

PHI_TOL_EXACT = 1e-6     # closed-form laws, scaled by max(1, phi)
PHI_TOL_TABLE = 1e-3     # a density known only on its nodes
PHI_LIMIT_TOL = 1e-3     # the numerical limit route, as the program states
PRED_RTOL = 1e-6
FINITE_PAST_SLACK = 1e-9
MI_SIGMAS = 5.0
R_SIGMAS = 5.0


def _json(rc: int, text: str, problems: list[str]) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        problems.append(f"exit {rc}, report is not JSON: {text[:80]!r}")
        return None


def refusal(error: str):
    """Expected outcome: exit code 2 and a report naming ``error``."""
    def check(rc: int, text: str) -> list[str]:
        problems: list[str] = []
        rep = _json(rc, text, problems)
        if rep is not None and (rc != 2 or rep.get("error") != error):
            problems.append(f"expected exit 2 with {error}, got exit {rc} "
                            f"{rep.get('error') or 'and a result'}")
        return problems
    return check


def _ok(rc: int, text: str) -> tuple[dict | None, list[str]]:
    problems: list[str] = []
    rep = _json(rc, text, problems)
    if rep is not None and rc != 0:
        problems.append(f"exit {rc}: {rep.get('error')} {rep.get('detail', '')[:120]}")
        rep = None
    return rep, problems


def _close(name, got, want, tol, problems):
    if not abs(float(got) - float(want)) <= tol:
        problems.append(f"{name} = {float(got):.12g}, expected {float(want):.12g} (tol {tol:.1e})")


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------

def kappa_of(phi: float) -> float:
    return (2.0 * phi + 1.0) ** 2 / 8.0 if phi < 0.5 else phi


def alpha_star_of(phi: float) -> float:
    return phi + 0.5 if phi < 0.5 else 1.0


def check_validate(law: Law):
    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        for flag in ("autocorr_zero_ok", "hermitian_ok", "unit_mass_ok", "psd_ok", "ok"):
            if rep[flag] is not True:
                problems.append(f"{flag} is {rep[flag]}")
        if rep["psd_min_eigenvalue"] < -1e-9:
            problems.append(f"psd_min_eigenvalue {rep['psd_min_eigenvalue']:.3g} < 0")
        _close("unit_mass", rep["unit_mass"], 1.0, 1e-8, problems)
        _close("jump_mass_total", rep["jump_mass_total"], law.mass or 0.0, 1e-12, problems)
        if rep["has_density"] != (law.kind != "line") or rep["spectral_line"] != (law.kind == "line"):
            problems.append("has_density/spectral_line do not match the law")
        if rep["density_nonnegative_ok"] is not True:
            problems.append(f"density_nonnegative_ok is {rep['density_nonnegative_ok']}")
        return problems
    return check


def check_capacity(law: Law, phi: float | None, tol: float):
    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        if law.kind == "line":
            if rep.get("regime") != "spectral_line":
                problems.append(f"regime {rep.get('regime')}, expected spectral_line")
            _close("linear_slope", rep.get("linear_slope", float("nan")), law.mass, 1e-12, problems)
            return problems
        p = float(rep["phi"])
        _close("phi", p, phi, tol, problems)
        _close("kappa", rep["kappa"], kappa_of(p), 1e-12 * max(1.0, p), problems)
        _close("alpha_star", rep["alpha_star"], alpha_star_of(p), 1e-12, problems)
        want = "slowly_forgetting" if p >= 0.5 else "quickly_forgetting"
        if rep["regime"] != want:
            problems.append(f"regime {rep['regime']} for phi {p:.9g}")
        return problems
    return check


def check_phi(phi: float, tol: float):
    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        _close("phi_integral", rep["phi_integral"], phi, tol, problems)
        _close("phi_series", rep["phi_series"], phi, tol, problems)
        _close("phi_limit", rep["phi_limit"], phi, tol + PHI_LIMIT_TOL, problems)
        if rep["within_tolerance"] is not True:
            problems.append("within_tolerance is not true")
        return problems
    return check


def check_predict_inf(delta2: float, eps_inf: float):
    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        if rep["method"] != "closed_form" or rep["past_length"] != "inf" or rep["clipped"]:
            problems.append(f"method {rep['method']}, past {rep['past_length']}, clipped {rep['clipped']}")
        _close("error", rep["error"], eps_inf, PRED_RTOL * max(eps_inf, 1e-3), problems)
        _close("delta2", rep["delta2"], delta2, 0.0, problems)
        return problems
    return check


def check_predict_finite(n: int, eps_inf: float):
    """Any finite past predicts no better than the infinite past."""
    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        if rep["method"] != "finite_past" or rep["past_length"] != n:
            problems.append(f"method {rep['method']}, past {rep['past_length']}")
        err = float(rep["error"])
        if not (eps_inf - FINITE_PAST_SLACK <= err <= 1.0):
            problems.append(f"finite-past error {err:.9g} outside [{eps_inf:.9g}, 1]"
                            + (" (clipped)" if rep["clipped"] else ""))
        return problems
    return check


def s_of_b(lags: np.ndarray) -> float:
    """S(b) = sum over i != j < b of |R(i-j)|^2, as a plain double sum."""
    b = lags.size
    idx = np.abs(np.subtract.outer(np.arange(b), np.arange(b)))
    sq = np.abs(lags[idx]) ** 2
    return float(sq.sum() - np.trace(sq))


def check_scheme(b: int, lags: np.ndarray):
    """``scheme --b b`` at the default alpha = 1 and A = 1."""
    s = s_of_b(lags)

    def check(rc, text):
        rep, problems = _ok(rc, text)
        if rep is None:
            return problems
        tol = 1e-9 * max(1.0, s)
        _close("s_of_b", rep["s_of_b"], s, tol, problems)
        _close("block_coeff", rep["block_coeff"], 0.5 * s / b, tol, problems)
        _close("iid_coeff", rep["iid_coeff"], 0.5 * s / b, tol, problems)
        if rep["support_size"] != 2 ** b or rep["b"] != b:
            problems.append(f"support_size {rep['support_size']}, b {rep['b']}")
        return problems
    return check


# ---------------------------------------------------------------------------
# Monte Carlo commands
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _mi_close(name, est, se, ref, problems):
    if est < 0.0:
        problems.append(f"{name}: estimate {est:.6g} < 0")
    sigma = float(np.hypot(se, ref["std_error"]))
    if not abs(est - ref["estimate"]) <= MI_SIGMAS * sigma:
        problems.append(f"{name}: estimate {est:.6g} is {abs(est - ref['estimate']) / sigma:.1f} "
                        f"sigma from the reference {ref['estimate']:.6g}")


def check_mi(b: int, samples: int, ref: dict):
    def check(rc, text):
        if rc != 0:
            return [f"exit {rc}: {text[:200]!r}"]
        rows = _csv_rows(text)
        if len(rows) != 1:
            return [f"{len(rows)} result rows"]
        row = rows[0]
        problems: list[str] = []
        if int(row["b"]) != b or int(row["n_samples"]) != samples:
            problems.append(f"b {row['b']}, n_samples {row['n_samples']}")
        _mi_close("mi", float(row["estimate"]), float(row["std_error"]), ref, problems)
        return problems
    return check


def check_sweep(law: Law, b_list, alpha_list, snr_list, refs: dict):
    phi = law.phi()

    def check(rc, text):
        if rc != 0:
            return [f"exit {rc}: {text[:200]!r}"]
        rows = _csv_rows(text)
        problems: list[str] = []
        if len(rows) != len(b_list) * len(alpha_list) * len(snr_list):
            return [f"{len(rows)} rows"]
        for row in rows:
            b, alpha, snr = int(row["b"]), float(row["alpha"]), float(row["snr"])
            s = s_of_b(law.lags(b - 1))
            where = f"b={b} alpha={alpha:g} snr={snr:g}"
            _close(f"upper_g {where}", row["upper_g"], (alpha - alpha ** 2) / 2 + phi * alpha, 1e-9, problems)
            _close(f"block_coeff {where}", row["block_coeff"],
                   0.5 * (alpha - alpha ** 2 + alpha * s / b), 1e-9, problems)
            _close(f"iid_coeff {where}", row["iid_coeff"],
                   0.5 * (alpha - alpha ** 2 + alpha ** 2 * s / b), 1e-9, problems)
            _mi_close(f"mi {where}", float(row["mi_estimate"]), float(row["mi_stderr"]),
                      refs[f"b{b}_alpha{alpha:g}_snr{snr:g}"], problems)
        return problems
    return check


# ---------------------------------------------------------------------------
# channel traces
# ---------------------------------------------------------------------------

def jackknife_lags(h: np.ndarray, m_max: int, n_blocks: int = 50):
    """Lag means of h_{k+m} conj(h_k) and their delete-one-block jackknife
    standard errors, for m = 0..m_max."""
    est, err = [], []
    for m in range(m_max + 1):
        prod = h[m:] * np.conj(h[:h.size - m])
        sums = np.array([blk.sum() for blk in np.array_split(prod, n_blocks)])
        sizes = np.array([blk.size for blk in np.array_split(prod, n_blocks)])
        loo = (prod.sum() - sums) / (prod.size - sizes)
        est.append(prod.mean())
        err.append(np.sqrt((n_blocks - 1) / n_blocks * np.sum(np.abs(loo - loo.mean()) ** 2)))
    return np.array(est), np.array(err)


def check_trace(law: Law, n: int, path: str, amplitude: float = 1.0, sigma2: float = 1.0,
                m_max: int = 4):
    """A ``simulate --out`` CSV: length, peak constraint, noise level and
    the empirical autocorrelation of the fading column.

    One path cannot estimate a spectral line's power (it is a single random
    amplitude), so for line laws the fitted line at frequency 0 is removed and
    the residual's weighted R(m) is checked instead.
    """
    def check(rc, text):
        if rc != 0:
            return [f"exit {rc}: {text[:200]!r}"]
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
        problems: list[str] = []
        if data.shape != (n, 7) or not np.array_equal(data[:, 0], np.arange(n)):
            return [f"trace has shape {data.shape}, expected ({n}, 7) with k = 0..n-1"]
        x = data[:, 1] + 1j * data[:, 2]
        h = data[:, 3] + 1j * data[:, 4]
        y = data[:, 5] + 1j * data[:, 6]
        if np.max(np.abs(x)) > amplitude * (1 + 1e-12):
            problems.append(f"peak |x| = {np.max(np.abs(x)):.6g} > A = {amplitude:g}")
        noise = float(np.mean(np.abs(y - h * x) ** 2))
        _close("noise power", noise, sigma2, R_SIGMAS * sigma2 / np.sqrt(n), problems)
        want = law.lags(m_max)
        if law.kind == "line":
            h = h - h.mean()
            want = (1.0 - law.mass) * law.residual.lags(m_max)
        est, err = jackknife_lags(h, m_max)
        for m in range(m_max + 1):
            if not abs(est[m] - want[m]) <= R_SIGMAS * err[m]:
                problems.append(f"R({m}) = {est[m]:.5f} is {abs(est[m] - want[m]) / err[m]:.1f} "
                                f"jackknife sigma from {want[m]:.5f}")
        return problems
    return check


# ---------------------------------------------------------------------------
# mpmath reference integrals
# ---------------------------------------------------------------------------

def eps_inf_mpmath(law: Law, delta2: float, dps: int = 20) -> float:
    """exp(integral log(f_ac + delta2)) - delta2 by mpmath quadrature, f_ac the
    absolutely continuous part of the law's spectrum."""
    with mp.workdps(dps):
        d2 = mp.mpf(delta2)
        weight = mp.mpf(1)
        if law.kind == "line":
            weight, law = 1 - mp.mpf(law.mass), law.residual
        if law.kind == "memoryless":
            f, pts = (lambda x: weight), [-0.5, 0.5]
        elif law.kind == "ar1":
            a = mp.mpf(law.a)
            w = min(0.25, max(1e-3, 1.0 - law.a))   # the peak's width at 0
            f = lambda x: weight * (1 - a * a) / (1 - 2 * a * mp.cos(2 * mp.pi * x) + a * a)
            pts = sorted({-0.5, -w, -w / 10, 0.0, w / 10, w, 0.5})
        elif law.kind == "bandlimited":
            lc = mp.mpf(law.lambda_c)
            f = lambda x: weight / (2 * lc) if abs(x) <= lc else mp.mpf(0)
            pts = [-0.5, -lc, lc, 0.5]
        else:
            raise ValueError(f"no closed-form density for {law.kind}")
        val = mp.quad(lambda x: mp.log(f(x) + d2), pts)
        return float(mp.exp(val) - d2)
