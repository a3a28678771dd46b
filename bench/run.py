"""fadelab benchmark: one workload of CLI invocations in this process.

    python3 bench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: the ops of ``workloads.py`` go through ``fadelab.cli.run`` one at a
time.  With ``--trace 0`` the ops repeat while the next one still fits in
``--seconds`` (at least one full pass); ``wall_s`` is the sum over ops of
each op's median time in reference seconds, and ``setup_s`` the median of
three fresh imports, also in reference seconds (see ``calibration.py``).
With ``--trace 1`` each op runs once untraced and once under the tracer,
and the per-layer metrics come from the spans.
Every op's report is checked against its oracle after timing stops.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from program import ROOT, WORK, child_env, load_cli, pin_blas_threads

BLAS_THREADS = pin_blas_threads()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration as C  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Layers, Tracer  # noqa: E402

SETUP_SAMPLES = 3
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MI_BLOCKS = (1, 2, 4, 8, 10)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": threads, "threads_requested": BLAS_THREADS}


def provenance(args) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

#: a fresh interpreter times the kernel, imports the program, times the
#: kernel again and prints both kernel times
SETUP_SRC = """
import sys
sys.path.append(sys.argv[1])
from calibration import kernel
before = kernel()
import fadelab.cli
print(before, kernel())
"""


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter importing ``fadelab.cli``, raw and in
    reference seconds.  The interpreter times the kernel around its import,
    on the CPU it imports on; both kernel runs are taken off the wall time
    and scale it."""
    raw, ref = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_SRC, str(ROOT / "bench")], env=child_env(),
                             cwd=ROOT, check=True, capture_output=True, text=True, timeout=120).stdout
        dt = time.perf_counter() - t0
        before, after = map(float, out.split())
        raw.append(dt - before - after)
        ref.append(raw[-1] * C.scale(before, after))
    return raw, ref


def run_op(cli, op: W.Op) -> tuple[int, str, float]:
    """One CLI call: (exit code, captured report or error text, seconds).

    An exception escaping the CLI counts as exit code -1 with its traceback,
    so the op fails its check and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(list(op.argv))
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, out.getvalue() or err.getvalue(), dt


def report_digest(op: W.Op, text: str) -> tuple[str, int]:
    """Digest and size of the op's report: its --out file or its stdout."""
    data = text.encode()
    if op.out is not None:
        try:
            with open(op.out, "rb") as fh:
                data = fh.read()
        except OSError:     # the op failed before writing its report
            pass
    return hashlib.sha256(data).hexdigest(), len(data)


def timed_loop(cli, ops: list[W.Op], seconds: float):
    """Run one full pass over the ops, then keep cycling while the next op's
    last time still fits in ``seconds``, under the calibration probe.

    Returns per-op times less the probe's kernel runs, the same in
    reference seconds, each op's first outcome and the kernel samples.
    """
    raw: list[list[float]] = [[] for _ in ops]
    first: list[tuple[int, str] | None] = [None] * len(ops)
    spans: list[tuple[int, float, float]] = []
    with C.Probe() as probe:
        t_start = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - t_start + raw[i % len(ops)][-1] <= seconds:
            k = i % len(ops)
            a = time.perf_counter()
            rc, text, _ = run_op(cli, ops[k])
            b = time.perf_counter()
            spans.append((k, a, b))
            raw[k].append(probe.net(a, b))
            if first[k] is None:
                first[k] = (rc, text)
            i += 1
    ref: list[list[float]] = [[] for _ in ops]
    for k, a, b in spans:
        ref[k].append(probe.net(a, b) * probe.scale(a, b))
    return raw, ref, first, probe.kernels


def check_ops(ops: list[W.Op], outcomes) -> list[tuple[str, list[str]]]:
    """Oracle verdicts, as (op name, problems) for every op that failed."""
    failures = []
    for op, (rc, text) in zip(ops, outcomes):
        try:
            problems = op.check(rc, text)
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            problems = [f"report does not have the expected form: {exc!r}"]
        if problems:
            failures.append((op.name, problems))
    return failures


def rates(ops: list[W.Op], op_times: list[float]) -> dict[str, float | None]:
    """Samples per second over the ops that draw MC samples or write traces."""
    out = {}
    for key, attr in (("mc_samples_per_s", "mc_samples"), ("trace_samples_per_s", "trace_samples")):
        pairs = [(getattr(op, attr), t) for op, t in zip(ops, op_times) if getattr(op, attr)]
        out[key] = sum(n for n, _ in pairs) / sum(t for _, t in pairs) if pairs else None
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

BUILD = tuple(f"spectra.{name}" for name in (
    "memoryless", "ar1", "bandlimited", "tabulated_density", "tabulated_autocorr",
    "line_plus_residual", "load_tabulated_density", "make_model", "condition12_probe"))


def layer_metrics(lay: Layers) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced calls; times are self times in s."""
    return {
        "spectra.build_s": (lay.self_time(*BUILD), "s"),
        "spectra.probe_calls": (lay.calls("spectra.condition12_probe"), "count"),
        "spectra.lags_s": (lay.self_time("spectra.autocorr_lags", "spectra.autocorr"), "s"),
        "spectra.lags_count": (lay.count("spectra.autocorr_lags"), "count"),
        "spectra.toeplitz_s": (lay.self_time("spectra.toeplitz_cov"), "s"),
        "spectra.density_s": (lay.self_time("spectra.density"), "s"),
        "spectra.density_points": (lay.count("spectra.density"), "count"),
        "quadrature.quad_s": (lay.self_time("quadrature.quad_interval"), "s"),
        "quadrature.quad_calls": (lay.calls("quadrature.quad_interval"), "count"),
        "quadrature.pl_fourier_s": (lay.self_time("quadrature.pl_fourier"), "s"),
        "quadrature.pl_fourier_lags": (lay.count("quadrature.pl_fourier"), "count"),
        "asymptotics.phi_series_s": (lay.self_time("asymptotics.phi_series"), "s"),
        "asymptotics.phi_series_calls": (lay.calls("asymptotics.phi_series"), "count"),
        "asymptotics.phi_integral_s": (lay.self_time("asymptotics.phi_integral"), "s"),
        "asymptotics.scheme_s": (lay.self_time(
            "asymptotics.scheme_coefficients", "asymptotics.s_of_b", "asymptotics.s_of_b_table"), "s"),
        "prediction.finite_past_s": (lay.self_time("prediction.finite_past_pred_error"), "s"),
        "prediction.finite_past_dim_sum": (lay.count("prediction.finite_past_pred_error"), "count"),
        "prediction.finite_past_clipped": (int(lay.tags("prediction.finite_past_pred_error").sum()), "count"),
        "prediction.closed_form_s": (lay.self_time(
            "prediction.noisy_pred_error", "prediction.noiseless_pred_error"), "s"),
        "prediction.phi_limit_s": (lay.self_time("prediction.phi_via_limit"), "s"),
        "simulate.gen_fading_s": (lay.self_time("simulate.gen_fading"), "s"),
        "simulate.fading_samples_per_s": (lay.rate("simulate.gen_fading"), "1/s"),
        "simulate.gen_inputs_s": (lay.self_time("simulate.gen_inputs"), "s"),
        "simulate.apply_channel_s": (lay.self_time("simulate.apply_channel"), "s"),
        "simulate.trace_csv_s": (lay.self_time("simulate.trace_to_csv"), "s"),
        "simulate.trace_csv_mb_per_s": (lay.rate("simulate.trace_to_csv") / 1e6, "MB/s"),
        "mi.mc_s": (lay.self_time("mi.mi_monte_carlo", "mi.scheme_to_law", "mi.cond_covariance"), "s"),
        **{f"mi.mc_samples_per_s.b{b}": (lay.rate("mi.mi_monte_carlo", tag=b), "1/s") for b in MI_BLOCKS},
        "mi.mixture_classes": (lay.calls("mi.cond_covariance"), "count"),
        "cli.parse_s": (lay.self_time("cli.parse_config", "cli.build_parser"), "s"),
        "cli.exec_self_s": (lay.self_time("cli.execute"), "s"),
    }


def traced_run(cli, ops: list[W.Op]):
    """Each op once untraced and, right after, once traced.

    Returns the untraced outcomes and op times, the per-layer metrics as
    name -> (value, unit) and the tracer holding the spans.
    """
    import fadelab

    tracer = Tracer(fadelab)
    outcomes, op_times, traced_times, same, report_bytes = [], [], [], 0, 0
    for k, op in enumerate(ops):
        rc, text, dt = run_op(cli, op)
        outcomes.append((rc, text))
        op_times.append(dt)
        digest, _ = report_digest(op, text)
        tracer.current_op = k
        with tracer:
            _, text, dt = run_op(cli, op)
        traced_times.append(dt)
        traced_digest, size = report_digest(op, text)
        same += traced_digest == digest
        report_bytes += size
    layers = layer_metrics(Layers(tracer))
    layers["cli.report_bytes"] = (report_bytes, "B")
    layers["cli.reports_identical"] = (same, "count")
    layers["trace.overhead_frac"] = (sum(traced_times) / sum(op_times) - 1.0, "ratio")
    r = rates(ops, op_times)
    layers["e2e.mc_samples_per_s"] = (r["mc_samples_per_s"] or 0.0, "1/s")
    layers["e2e.trace_samples_per_s"] = (r["trace_samples_per_s"] or 0.0, "1/s")
    return outcomes, op_times, layers, tracer


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    refs = json.loads((ROOT / "bench" / "refs.json").read_text(encoding="utf-8"))
    prov = provenance(args)
    ops = W.build(args.workload, args.seed, str(WORK), refs)
    record = {"provenance": prov, "ops": [op.name for op in ops]}

    if args.trace == 0:
        setup_raw, setup = measure_setup(SETUP_SAMPLES)
        raw, ref, outcomes, cal = timed_loop(cli, ops, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_times = [statistics.median(t) for t in raw]
        metrics = {"wall_s": sum(statistics.median(t) for t in ref),
                   "setup_s": statistics.median(setup), "peak_rss_mb": peak_mb}
        raw_wall = sum(op_times)
        record.update(setup_s=setup, setup_raw_s=setup_raw, op_times=ref, op_times_raw=raw,
                      kernel_s=cal, raw_wall_s=raw_wall)
    else:
        outcomes, op_times, layers, tracer = traced_run(cli, ops)
        tracer.save(WORK / f"spans-{args.workload}.npz")
        metrics = {k: v for k, (v, _) in layers.items()}
        record.update(op_times=op_times, spans=len(tracer.start))

    failures = check_ops(ops, outcomes)
    unexpected = [name for name, _ in failures if name not in W.KNOWN_DEFECTS]
    record.update(metrics=metrics, failures=failures)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    print("provenance " + json.dumps(prov))
    for name, problems in failures:
        tag = "known defect" if name in W.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"FAILED [{tag}] {name}: {'; '.join(problems)}")
    extra = rates(ops, op_times)
    print(f"{args.workload}: {len(ops)} ops, {len(failures)} failed "
          f"(failed_frac {len(failures) / len(ops):.4f}), {len(unexpected)} unexpected")
    if args.trace == 0:
        for key, unit in E2E_UNITS.items():
            print(f"  {key:20s} {metrics[key]:14.6g} {unit}")
        print(f"  {'raw wall':20s} {raw_wall:14.6g} s (kernel median "
              f"{statistics.median(cal):.4g} s over {len(cal)} samples, reference {C.K_REF_S} s)")
        for key, val in extra.items():
            print(f"  {key:20s} " + (f"{val:14.6g} 1/s" if val is not None else "           n/a"))
        units = E2E_UNITS
    else:
        units = {k: u for k, (_, u) in layers.items()}
        for key in sorted(units):
            print(f"  {key:34s} {metrics[key]:14.6g} {units[key]}")
    result = {"correct": not unexpected, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
