"""The benchmark's three workloads: fixed lists of fadelab CLI invocations.

Every op is one ``fadelab.cli.run(argv)`` call with an expected outcome.  The
Monte Carlo and trace seeds passed to the program derive from the benchmark
seed; the density tables are regenerated from their definitions at set-up.
The op order is fixed, so the process's peak memory does not depend on the
seed.

``laws``            analytic routes: spectra, quadrature, asymptotics and
                    prediction do nearly all the work; mi and simulate none.
``mi_long_blocks``  Monte Carlo MI at b = 8 and 10, where per-sample work
                    scales with the 2^(b-1)+1 covariance classes.
``bulk_samples``    volume-bound work: 10^6-sample trace synthesis and CSV
                    writing, plus short-block Monte Carlo (few classes, many
                    samples) through the same mi code as ``mi_long_blocks``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import laws as L
import oracles as O


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    out: str | None = None       # report file, when the op writes one with --out
    mc_samples: int = 0          # Monte Carlo samples drawn by the op
    trace_samples: int = 0       # channel samples synthesized and written


#: ops that two known defects of the program make fail (see README.md)
KNOWN_DEFECTS = {
    "capacity ar1_0.97": "ar1(0.97) refused with ConditionTwelveFails although phi = 15.92",
    "phi ar1_0.97": "ar1(0.97) refused with ConditionTwelveFails although phi = 15.92",
    "validate table_jakes": "pl_fourier lags of the Jakes table make T_n indefinite",
    "predict_past1024 table_jakes": "indefinite T_n: clipped 0 below the closed form",
    "scheme_b16 table_jakes": "S(16) from wrong pl_fourier lags",
}

LAWS = [
    L.memoryless(),
    *(L.ar1(a) for a in (0.3, 0.5, 0.8, 0.97)),
    *(L.bandlimited(lc) for lc in (0.05, 0.1, 0.25, 0.4)),
    L.table("ar1_0.6"),
    L.table("jakes"),
    L.line(0.3, L.ar1(0.5)),
]

SCHEME_B = 16
MI_ALPHA, MI_SIGMA2 = 0.8333, 10.0
#: (key, law, b, samples) of the long-block Monte Carlo ops
MI_OPS = [
    ("mi_b8_ar1_0.5", L.ar1(0.5), 8, 20_000),
    ("mi_b8_bandlimited_0.25", L.bandlimited(0.25), 8, 20_000),
    ("mi_b10_ar1_0.8", L.ar1(0.8), 10, 10_000),
]
SWEEP_LAW = L.ar1(0.5)
SWEEP_B, SWEEP_ALPHA, SWEEP_SNR = (1, 2, 4), (0.5, 0.8333), (0.1, 0.25)
SWEEP_SAMPLES = 200_000
TRACE_N = 1_000_000
TRACE_LAWS = [L.ar1(0.9), L.line(0.3, L.bandlimited(0.1))]

WORKLOADS = ("laws", "mi_long_blocks", "bulk_samples")


def write_tables(work: str) -> dict[str, str]:
    """Write every density table the workloads read; returns name -> path."""
    paths = {}
    for name, make in L.TABLES.items():
        path = os.path.join(work, f"table_{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(L.table_text(*make()))
        paths[name] = path
    return paths


def _laws_ops(refs: dict, tables: dict[str, str]) -> list[Op]:
    ops = []
    for law in LAWS:
        args = law.args(tables)
        if law.kind == "table":
            ref = refs["tables"][law.table]
            eps = {float(k): v for k, v in ref["eps_inf"].items()}
            lags = np.array(ref["lags_re"]) + 1j * np.array(ref["lags_im"])
            phi, tol = ref["phi"], O.PHI_TOL_TABLE
        else:
            eps = {d: O.eps_inf_mpmath(law, d) for d in (1.0, 0.1)}
            lags = law.lags(SCHEME_B - 1)
            phi = law.phi()
            tol = O.PHI_TOL_EXACT * max(1.0, phi or 0.0)
        if law.kind == "line":
            capacity = O.check_capacity(law, None, 0.0)
            phi_check = O.refusal("NoDensity")
            pred_inf = O.refusal("NoDensity")
        elif phi is None:
            capacity = phi_check = O.refusal("ConditionTwelveFails")
            pred_inf = O.check_predict_inf(1.0, eps[1.0])
        else:
            capacity = O.check_capacity(law, phi, tol)
            phi_check = O.check_phi(phi, tol)
            pred_inf = O.check_predict_inf(1.0, eps[1.0])
        k = law.key
        ops += [
            Op(f"validate {k}", ["validate", *args], O.check_validate(law)),
            Op(f"capacity {k}", ["capacity", *args], capacity),
            Op(f"phi {k}", ["phi", *args, "--method", "all"], phi_check),
            Op(f"predict_inf {k}", ["predict", *args, "--delta2", "1.0"], pred_inf),
            Op(f"predict_past1024 {k}", ["predict", *args, "--delta2", "0.1", "--past", "1024"],
               O.check_predict_finite(1024, eps[0.1])),
            Op(f"scheme_b{SCHEME_B} {k}", ["scheme", *args, "--b", str(SCHEME_B)],
               O.check_scheme(SCHEME_B, lags)),
        ]
    law = L.ar1(0.8)
    ops.append(Op(f"predict_past2048 {law.key}",
                  ["predict", *law.cli, "--delta2", "0.1", "--past", "2048"],
                  O.check_predict_finite(2048, O.eps_inf_mpmath(law, 0.1))))
    return ops


def _mi_ops(refs: dict, seed: int) -> list[Op]:
    ops = []
    for i, (key, law, b, samples) in enumerate(MI_OPS):
        argv = ["mi", *law.cli, "--b", str(b), "--alpha", repr(MI_ALPHA),
                "--sigma2", repr(MI_SIGMA2), "--samples", str(samples),
                "--seed", str(seed * 100 + i)]
        ops.append(Op(key, argv, O.check_mi(b, samples, refs["mi"][key]), mc_samples=samples))
    return ops


def sweep_argv(samples: int, seed: int) -> list[str]:
    return ["sweep", *SWEEP_LAW.cli, "--mc",
            "--b-list", ",".join(map(str, SWEEP_B)),
            "--alpha-list", ",".join(map(repr, SWEEP_ALPHA)),
            "--snr-list", ",".join(map(repr, SWEEP_SNR)),
            "--samples", str(samples), "--seed", str(seed)]


def _bulk_ops(refs: dict, seed: int, work: str) -> list[Op]:
    ops = []
    for i, law in enumerate(TRACE_LAWS):
        path = os.path.join(work, f"trace_{i}.csv")
        argv = ["simulate", *law.cli, "--n", str(TRACE_N), "--seed", str(seed * 100 + i),
                "--out", path]
        ops.append(Op(f"simulate {law.key}", argv, O.check_trace(law, TRACE_N, path),
                      out=path, trace_samples=TRACE_N))
    n_points = len(SWEEP_B) * len(SWEEP_ALPHA) * len(SWEEP_SNR)
    ops.append(Op("sweep_mc ar1_0.5", sweep_argv(SWEEP_SAMPLES, seed * 100 + 50),
                  O.check_sweep(SWEEP_LAW, SWEEP_B, SWEEP_ALPHA, SWEEP_SNR, refs["sweep"]),
                  mc_samples=SWEEP_SAMPLES * n_points))
    return ops


def build(workload: str, seed: int, work: str, refs: dict) -> list[Op]:
    """The workload's ops, in a fixed order."""
    if workload == "laws":
        ops = _laws_ops(refs, write_tables(work))
    elif workload == "mi_long_blocks":
        ops = _mi_ops(refs, seed)
    elif workload == "bulk_samples":
        ops = _bulk_ops(refs, seed, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
