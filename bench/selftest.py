"""Self-test of the benchmark itself, run from the checkout root:

    python3 bench/selftest.py

1. The oracles accept real reports and reject a phi perturbed by 1e-3.
2. A traced run of a small op list emits every per-layer metric that
   BENCHMARK.json names, touches every layer, and restores every name the
   tracer rebound.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys

from program import ROOT, WORK, load_cli, pin_blas_threads

pin_blas_threads()

import laws as L  # noqa: E402
import oracles as O  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402


def _report(cli, argv) -> tuple[int, str]:
    rc, text, _ = R.run_op(cli, W.Op(" ".join(argv), argv, lambda rc, text: []))
    return rc, text


def _perturbed(text: str, key: str, delta: float) -> str:
    rep = json.loads(text)
    rep[key] += delta
    return json.dumps(rep)


def check_oracles(cli) -> list[str]:
    """Real reports pass; phi perturbed by 1e-3 fails.  The numerical limit
    route is only claimed to 1e-3, so its perturbation is 2e-3."""
    errors = []
    law = L.ar1(0.5)
    phi = law.phi()
    for argv, oracle, perturb in (
            (["capacity", *law.cli], O.check_capacity(law, phi, O.PHI_TOL_EXACT), {"phi": 1e-3}),
            (["phi", *law.cli, "--method", "all"], O.check_phi(phi, O.PHI_TOL_EXACT),
             {"phi_integral": 1e-3, "phi_series": 1e-3, "phi_limit": 2e-3})):
        rc, text = _report(cli, argv)
        if oracle(rc, text):
            errors.append(f"{argv[0]}: oracle rejects the real report: {oracle(rc, text)}")
        for key, size in perturb.items():
            for delta in (size, -size):
                if not oracle(rc, _perturbed(text, key, delta)):
                    errors.append(f"{argv[0]}: oracle accepts {key} perturbed by {delta:+g}")
    return errors


def small_ops(work: str) -> list[W.Op]:
    """One cheap op through every command, touching every traced layer."""
    tables = W.write_tables(work)
    accept = lambda rc, text: []  # noqa: E731
    ar = L.ar1(0.5).cli
    argvs = [
        ["validate", *ar], ["capacity", *ar], ["phi", "--model", "table", "--table", tables["ar1_0.6"]],
        ["predict", *ar, "--delta2", "1.0"], ["predict", *ar, "--delta2", "0.1", "--past", "64"],
        ["scheme", *ar, "--b", "4"],
        ["simulate", *ar, "--n", "20000", "--out", f"{work}/selftest_trace.csv"],
        ["mi", *ar, "--b", "2", "--sigma2", "10", "--samples", "10000"],
        ["sweep", *ar, "--mc", "--b-list", "1,4", "--alpha-list", "0.5", "--snr-list", "0.1,0.25",
         "--samples", "10000"],
    ]
    ops = [W.Op(a[0], a, accept) for a in argvs]
    ops[6].out, ops[6].trace_samples = f"{work}/selftest_trace.csv", 20_000
    ops[7].mc_samples = 10_000
    return ops


def check_trace(cli) -> list[str]:
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer"]}
    _, _, layers, tracer = R.traced_run(cli, small_ops(str(WORK)))
    got = set(layers)
    if got != wanted:
        errors.append(f"per-layer metrics missing {sorted(wanted - got)}, extra {sorted(got - wanted)}")
    touched = {tracer.names[i].split(".")[0] for i in set(tracer.arrays()["fid"].tolist())}
    for layer in ("spectra", "quadrature", "asymptotics", "prediction", "simulate", "mi", "cli"):
        if layer not in touched:
            errors.append(f"no span in layer {layer}")
    for name, module in sys.modules.items():
        if name.startswith("fadelab"):
            for attr, val in vars(module).items():
                if hasattr(val, "__wrapped__") and getattr(val, "__name__", "") == "traced":
                    errors.append(f"{name}.{attr} is still wrapped")
    return errors


def main() -> int:
    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    errors = check_oracles(cli) + check_trace(cli)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
