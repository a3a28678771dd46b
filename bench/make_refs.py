"""Regenerate ``refs.json``, the reference values the oracles cannot afford
to compute on every run.

* Tabulated densities: the lags R(0..15) and exp(integral log(f + delta2)) -
  delta2 of the piecewise-linear interpolant (renormalized to unit mass, as
  the program documents), by mpmath quadrature over each table interval.
* Monte Carlo MI: the same CLI commands as the workloads with many more
  samples and a seed no workload uses.

Run from the checkout root:  python3 bench/make_refs.py   (a few minutes)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from program import ROOT, WORK, load_cli, pin_blas_threads

pin_blas_threads()

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import laws as L  # noqa: E402
import workloads as W  # noqa: E402
from oracles import _csv_rows  # noqa: E402

REF_SEED = 999_999_937
MI_REF_SAMPLES = {8: 400_000, 10: 100_000}
SWEEP_REF_SAMPLES = 2_000_000
TABLE_DPS = 20
#: closed-form memory parameter of the law a table samples (None: refused)
TABLE_PHI = {"ar1_0.6": 0.36 / 0.64, "jakes": None}


def table_refs(name: str) -> dict:
    grid, vals = L.TABLES[name]()
    vals = vals / np.trapezoid(vals, grid)
    with mp.workdps(TABLE_DPS):
        pieces = [(mp.mpf(x0), mp.mpf(x1), mp.mpf(f0), mp.mpf(f1))
                  for x0, x1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])]

        def integral(g):
            return mp.fsum(mp.quad(lambda x: g(f0 + (f1 - f0) * (x - x0) / (x1 - x0), x), [x0, x1])
                           for x0, x1, f0, f1 in pieces)

        lags = [integral(lambda f, x: f * mp.expj(2 * mp.pi * k * x)) for k in range(W.SCHEME_B)]
        eps = {str(d): float(mp.exp(integral(lambda f, x: mp.log(f + d))) - d) for d in (1.0, 0.1)}
    return {"phi": TABLE_PHI[name], "eps_inf": eps,
            "lags_re": [float(mp.re(r)) for r in lags], "lags_im": [float(mp.im(r)) for r in lags]}


def run_cli(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    if rc != 0:
        raise SystemExit(f"reference run failed with exit {rc}: {argv}")
    return buf.getvalue()


def mi_refs(cli) -> dict:
    out = {}
    for key, law, b, _ in W.MI_OPS:
        argv = ["mi", *law.cli, "--b", str(b), "--alpha", repr(W.MI_ALPHA),
                "--sigma2", repr(W.MI_SIGMA2), "--samples", str(MI_REF_SAMPLES[b]),
                "--seed", str(REF_SEED)]
        row = _csv_rows(run_cli(cli, argv))[0]
        out[key] = {"estimate": float(row["estimate"]), "std_error": float(row["std_error"]),
                    "samples": MI_REF_SAMPLES[b]}
        print(key, out[key], file=sys.stderr)
    return out


def sweep_refs(cli) -> dict:
    out = {}
    for row in _csv_rows(run_cli(cli, W.sweep_argv(SWEEP_REF_SAMPLES, REF_SEED))):
        key = f"b{int(row['b'])}_alpha{float(row['alpha']):g}_snr{float(row['snr']):g}"
        out[key] = {"estimate": float(row["mi_estimate"]), "std_error": float(row["mi_stderr"]),
                    "samples": SWEEP_REF_SAMPLES}
    return out


def main() -> None:
    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    refs = {
        "about": (f"Generated by bench/make_refs.py: table integrals by mpmath at {TABLE_DPS} "
                  f"digits per interval; MI by the CLI at seed {REF_SEED}."),
        "tables": {name: table_refs(name) for name in L.TABLES},
        "mi": mi_refs(cli),
        "sweep": sweep_refs(cli),
    }
    path = ROOT / "bench" / "refs.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
