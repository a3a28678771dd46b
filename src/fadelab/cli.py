"""Command-line front end with deterministic CSV/JSON reports.

Commands: validate, phi, predict, capacity, scheme, simulate, mi, sweep.
A flat key=value config file can pre-fill any flag; explicit flags win.
Exit codes: 0 success, 1 usage, 2 numerical condition, 3 I/O.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import asymptotics, mi, prediction, simulate, spectra
from .errors import (FadingLabError, NoDensity, NotNormalized, ParamOutOfRange,
                     QuadratureFailure, UsageError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

SWEEP_HEADER = "model,b,alpha,snr,upper_g,block_coeff,iid_coeff,mi_estimate,mi_stderr,seed"


@dataclass
class RunConfig:
    command: str
    args: argparse.Namespace

    def resolved(self) -> dict:
        """Full resolved configuration, echoed into every report."""
        out = {"command": self.command}
        for key in sorted(vars(self.args)):
            val = getattr(self.args, key)
            if val is not None:
                out[key] = val
        return out


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt_float(x: float, digits: int) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(float(x), f".{digits}g")


def _json_dumps(obj, digits: int = 17) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj), digits)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        inner = ", ".join(f"{_json_dumps(str(k))}: {_json_dumps(v, digits)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_dumps(v, digits) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(t) for t in text.split(",") if t.strip()]
        except ValueError:
            raise UsageError(f"expected a comma-separated {kind.__name__} list, got {text!r}")
    return parse


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--model", choices=["memoryless", "ar1", "bandlimited", "table", "line"])
    common.add_argument("--a", type=float)
    common.add_argument("--lambda-c", dest="lambda_c", type=float)
    common.add_argument("--table", type=str)
    common.add_argument("--mass", type=float)
    common.add_argument("--loc", type=float, default=0.0)
    common.add_argument("--residual", choices=["memoryless", "ar1", "bandlimited", "none"])
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str)
    common.add_argument("--format", dest="fmt", choices=["csv", "json"])

    block = _Parser(add_help=False)
    block.add_argument("--b", type=int, default=1)
    block.add_argument("--alpha", type=float, default=1.0)
    block.add_argument("--A", dest="amplitude", type=float, default=1.0)

    parser = _Parser(prog="fadelab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("validate", parents=[common])

    p = sub.add_parser("phi", parents=[common])
    p.add_argument("--method", choices=["integral", "series", "limit", "all"], default="all")
    p.add_argument("--tol", type=float, default=1e-7)

    p = sub.add_parser("predict", parents=[common])
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--past", type=str, default="inf")

    sub.add_parser("capacity", parents=[common])

    sub.add_parser("scheme", parents=[common, block])

    p = sub.add_parser("simulate", parents=[common, block])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)

    p = sub.add_parser("mi", parents=[common, block])
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--b-list", dest="b_list", type=_list_of(int), required=True)
    p.add_argument("--alpha-list", dest="alpha_list", type=_list_of(float), required=True)
    p.add_argument("--snr-list", dest="snr_list", type=_list_of(float), required=True)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--A", dest="amplitude", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100_000)

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {raw.strip()!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


@cache
def _parser_and_keys() -> tuple[_Parser, dict[str, tuple[str, bool]]]:
    """The parser, built once per process (a parse fills a namespace of its
    own), and its config-file keys: key -> (flag, takes a value) for every
    long option of every command, the flag without its dashes, '-' read as '_'."""
    parser = build_parser()
    keys = {}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in commands.choices.values():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    keys[flag[2:].replace("-", "_")] = (flag, action.nargs != 0)
    return parser, keys


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve command line plus optional config file into a RunConfig."""
    argv = list(argv)
    file_kv: dict[str, str] = {}
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            raise UsageError("--config needs a path")
        file_kv = _read_config_file(argv[i + 1])
        del argv[i:i + 2]

    command = None
    if argv and not argv[0].startswith("-"):
        command = argv.pop(0)
    if command is None:
        command = file_kv.pop("command", None)
    else:
        file_kv.pop("command", None)
    if command is None:
        raise UsageError("no command given")
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")

    parser, keys = _parser_and_keys()
    merged = []
    for key, val in file_kv.items():
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
        flag, takes_value = keys[key]
        if takes_value:
            merged.extend([flag, val])
        elif val.lower() in ("1", "true", "yes"):
            merged.append(flag)
        elif val.lower() not in ("0", "false", "no"):
            raise UsageError(f"config key {key!r} takes a boolean, got {val!r}")
    merged.extend(argv)

    args = parser.parse_args([command] + merged)
    _range_check(args)
    return RunConfig(command=command, args=args)


def _past_ok(past: str) -> bool:
    try:
        return past == "inf" or int(past) >= 1
    except ValueError:
        return False


#: (option dest, admissible values, check) applied before dispatch
_RANGES = (
    ("a", "|a| < 1", lambda v: abs(v) < 1.0),
    ("lambda_c", "in (0, 1/2]", lambda v: 0.0 < v <= 0.5),
    ("mass", "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    ("seed", "a non-negative integer", lambda v: v >= 0),
    ("b", ">= 1", lambda v: v >= 1),
    ("n", ">= 1", lambda v: v >= 1),
    ("samples", ">= 10000", lambda v: v >= 10_000),
    ("alpha", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("amplitude", "> 0", lambda v: v > 0.0),
    ("sigma2", "> 0", lambda v: v > 0.0),
    ("delta2", ">= 0", lambda v: v >= 0.0),
    ("tol", f">= machine epsilon {np.finfo(float).eps:.3g}", lambda v: v >= np.finfo(float).eps),
    ("past", "'inf' or a positive integer", _past_ok),
    ("alpha_list", "non-empty, entries in [0, 1]", lambda v: v and all(0.0 <= a <= 1.0 for a in v)),
    ("snr_list", "non-empty, entries > 0", lambda v: v and all(s > 0.0 for s in v)),
    ("b_list", "non-empty, entries >= 1", lambda v: v and all(b >= 1 for b in v)),
)


def _range_check(args: argparse.Namespace):
    """Validate every numeric parameter before dispatch: every float, alone
    or in a list, must be finite, and each option of ``_RANGES`` in range."""
    for key, v in vars(args).items():
        if isinstance(v, (float, list)) and not np.all(np.isfinite(v)):
            raise UsageError(f"{key} must be finite, got {v!r}")
    for key, admissible, ok in _RANGES:
        v = getattr(args, key, None)
        if v is not None and not ok(v):
            raise UsageError(f"{key} must be {admissible}, got {v!r}")


def _build_law(kind: str, args: argparse.Namespace, role: str) -> spectra.FadingModel:
    """The density-type law named by ``--model`` or ``--residual``."""
    if kind == "memoryless":
        return spectra.memoryless()
    if kind == "ar1":
        if args.a is None:
            raise UsageError(f"--a is required for the ar1 {role}")
        return spectra.ar1(args.a)
    if kind == "bandlimited":
        if args.lambda_c is None:
            raise UsageError(f"--lambda-c is required for the bandlimited {role}")
        return spectra.bandlimited(args.lambda_c)
    if args.table is None:
        raise UsageError(f"--table is required for the table {role}")
    return spectra.load_tabulated_density(args.table)


def _build_model(args: argparse.Namespace) -> spectra.FadingModel:
    kind = getattr(args, "model", None)
    if kind is None:
        raise UsageError("--model is required")
    if kind != "line":
        return _build_law(kind, args, "model")
    if args.mass is None:
        raise UsageError("--mass is required for the line model")
    res_kind = args.residual or ("none" if args.mass >= 1.0 else None)
    if res_kind is None:
        raise UsageError("--residual is required when --mass < 1")
    residual = None if res_kind == "none" else _build_law(res_kind, args, "residual")
    return spectra.line_plus_residual([(args.loc, args.mass)], residual)


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _scheme(args: argparse.Namespace) -> simulate.BlockScheme:
    return simulate.BlockScheme(amplitude=args.amplitude, duty_cycle=args.alpha,
                                block_length=args.b)


def _cmd_validate(cfg, model):
    return spectra.validate(model).to_dict()


def _cmd_phi(cfg, model):
    args = cfg.args
    out = {}
    if args.method in ("integral", "all"):
        out["phi_integral"] = asymptotics.phi_integral(model)
    if args.method in ("series", "all"):
        out["phi_series"] = asymptotics.phi_series(model, tol=args.tol)
    if args.method in ("limit", "all"):
        est = prediction.phi_via_limit(model)
        out["phi_limit"] = est.value
        out["limit_indicator"] = est.indicator
    if args.method == "all":
        spread_limit = abs(out["phi_limit"] - out["phi_integral"])
        out["within_tolerance"] = bool(
            asymptotics.phi_routes_agree(out["phi_integral"], out["phi_series"], args.tol)
            and spread_limit <= prediction.PHI_LIMIT_AGREEMENT)
        if not out["within_tolerance"]:
            raise QuadratureFailure(
                f"phi cross-method disagreement: integral {out['phi_integral']:.9g}, "
                f"series {out['phi_series']:.9g}, limit {out['phi_limit']:.9g}")
    return out


def _cmd_predict(cfg, model):
    args = cfg.args
    if args.past != "inf":
        res = prediction.finite_past_pred_error(model, args.delta2, int(args.past))
    elif args.delta2 == 0.0:
        res = prediction.noiseless_pred_error(model)
    else:
        res = prediction.noisy_pred_error(model, args.delta2)
    return {
        "error": res.error,
        "method": res.method,
        "past_length": "inf" if res.past_length is None else res.past_length,
        "delta2": res.noise_variance,
        "clipped": res.clipped,
    }


def _cmd_capacity(cfg, model):
    ca = asymptotics.capacity_asymptote(model)
    if ca.regime == asymptotics.REGIME_SPECTRAL_LINE:
        return {"regime": ca.regime, "linear_slope": ca.linear_slope}
    return {"phi": ca.phi, "regime": ca.regime, "kappa": ca.kappa,
            "alpha_star": ca.alpha_star}


def _cmd_scheme(cfg, model):
    args = cfg.args
    scheme = _scheme(args)
    coeffs = asymptotics.scheme_coefficients(model, args.b, args.alpha)
    support = (1 if args.alpha < 1.0 else 0) + (2 ** args.b if args.alpha > 0.0 else 0)
    return {
        "A": scheme.amplitude,
        "alpha": scheme.duty_cycle,
        "b": scheme.block_length,
        "support_size": support,
        "mean_power": args.alpha * args.amplitude ** 2,
        "fourth_moment": args.alpha * args.amplitude ** 4,
        "s_of_b": coeffs.s_of_b,
        "block_coeff": coeffs.block_coeff,
        "iid_coeff": coeffs.iid_coeff,
    }


def _cmd_simulate(cfg, model):
    args = cfg.args
    return simulate.apply_channel(_scheme(args), model, args.n, args.sigma2, args.seed)


def _cmd_mi(cfg, model):
    args = cfg.args
    scheme = _scheme(args)
    est = mi.mi_monte_carlo(scheme, model, args.sigma2, args.samples, args.seed)
    return {
        "b": est.block_length,
        "snr": est.snr,
        "alpha": est.duty_cycle,
        "estimate": est.estimate,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "seed": est.seed,
    }


def _cmd_sweep(cfg, model):
    args = cfg.args
    ca = asymptotics.capacity_asymptote(model)
    if ca.regime == asymptotics.REGIME_SPECTRAL_LINE:
        raise NoDensity("sweep needs a density-regime model")
    phi = ca.phi
    label = model.label()
    block_max, block_arg = asymptotics.asymptotic_block_max(phi)
    iid_max, iid_arg = asymptotics.asymptotic_iid_max(phi)
    summary = {
        "phi": phi,
        "asymptotic_block_max": block_max,
        "asymptotic_block_argmax": block_arg,
        "asymptotic_iid_max": iid_max,
        "asymptotic_iid_argmax": iid_arg,
        "iid_vs_block_gap": block_max - iid_max,
    }
    rows = []
    for b in args.b_list:
        for alpha in args.alpha_list:
            coeffs = asymptotics.scheme_coefficients(model, b, alpha)
            estimates = [None] * len(args.snr_list)
            if args.mc:
                # one draw of the "mi" stream serves every SNR of the list
                scheme = simulate.BlockScheme(
                    amplitude=args.amplitude, duty_cycle=alpha, block_length=b)
                estimates = mi.mi_monte_carlo_many(
                    scheme, model, [args.amplitude ** 2 / snr for snr in args.snr_list],
                    args.samples, args.seed)
            for snr, r in zip(args.snr_list, estimates):
                est = stderr = None
                if r is not None:
                    est, stderr = r.estimate / b, r.std_error / b
                rows.append({
                    "model": label, "b": b, "alpha": alpha, "snr": snr,
                    "upper_g": asymptotics.upper_bound_g(phi, alpha),
                    "block_coeff": coeffs.block_coeff,
                    "iid_coeff": coeffs.iid_coeff,
                    "mi_estimate": est, "mi_stderr": stderr,
                    "seed": args.seed,
                })
    return {"summary": summary, "rows": rows}


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _config_comments(cfg: RunConfig) -> str:
    return "".join(f"# {k}={_csv_cell(v)}\n" for k, v in cfg.resolved().items())


def _report_format(cfg: RunConfig) -> str:
    """``--format``, else CSV for simulate, mi and sweep and JSON otherwise;
    results and error reports alike."""
    return cfg.args.fmt or ("csv" if cfg.command in ("simulate", "sweep", "mi") else "json")


def _emit(cfg: RunConfig, result, fh):
    fmt = _report_format(cfg)
    if isinstance(result, simulate.ChannelTrace):
        if fmt == "json":
            _trace_to_json(cfg, result, fh)
        else:
            simulate.trace_to_csv(result, fh)
        return

    if fmt == "json":
        fh.write(_json_dumps({"config": cfg.resolved(), **result}) + "\n")
        return
    fh.write(_config_comments(cfg))
    if cfg.command == "sweep":
        for k, v in result["summary"].items():
            fh.write(f"# {k}={_csv_cell(v)}\n")
        fh.write(SWEEP_HEADER + "\n")
        for row in result["rows"]:
            fh.write(",".join(_csv_cell(row[c]) for c in SWEEP_HEADER.split(",")) + "\n")
    else:
        keys = [k for k, v in result.items() if not isinstance(v, (dict, list, tuple))]
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(_csv_cell(result[k]) for k in keys) + "\n")


def _trace_to_json(cfg: RunConfig, trace, fh) -> None:
    """The trace as one JSON object {config, k, re_x, im_x, re_h, im_h, re_y,
    im_y}, written a column at a time by the CSV trace's range writer: the
    bytes of ``_json_dumps`` on the whole object, without holding its text.
    The index column k is formed slice by slice (``col`` None)."""
    columns = {"k": None,
               "re_x": trace.x.real, "im_x": trace.x.imag,
               "re_h": trace.h.real, "im_h": trace.h.imag,
               "re_y": trace.y.real, "im_y": trace.y.imag}
    fh.write('{"config": ' + _json_dumps(cfg.resolved()))
    for name, col in columns.items():
        fh.write(f', "{name}": [')
        simulate._write_ranges(trace.x.size, partial(_json_slice, col), fh)
        fh.write("]")
    fh.write("}\n")


def _json_slice(col, lo: int, hi: int) -> bytes:
    """The JSON text of col[lo:hi], or of the indices lo..hi-1 where col is
    None, led by the separator unless lo is 0."""
    values = range(lo, hi) if col is None else col[lo:hi].tolist()
    return ((", " if lo else "") + ", ".join(map(_json_dumps, values))).encode("ascii")


def _write_report(cfg: RunConfig, emit) -> int:
    """Write a report through ``emit(fh)`` to ``--out`` or stdout."""
    out = getattr(cfg.args, "out", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                emit(fh)
        else:
            emit(sys.stdout)
    except OSError as exc:
        sys.stderr.write(f"fadelab: cannot write report: {exc}\n")
        return EXIT_IO
    return EXIT_OK


_DISPATCH = {
    "validate": _cmd_validate,
    "phi": _cmd_phi,
    "predict": _cmd_predict,
    "capacity": _cmd_capacity,
    "scheme": _cmd_scheme,
    "simulate": _cmd_simulate,
    "mi": _cmd_mi,
    "sweep": _cmd_sweep,
}

_COMMANDS = tuple(_DISPATCH)


def execute(cfg: RunConfig) -> int:
    """Run one resolved command, writing its report; returns the exit code."""
    try:
        model = _build_model(cfg.args)
    except (ParamOutOfRange, NotNormalized) as exc:
        raise UsageError(str(exc)) from exc
    except FileNotFoundError as exc:
        sys.stderr.write(f"fadelab: cannot read table: {exc}\n")
        return EXIT_IO

    try:
        result = _DISPATCH[cfg.command](cfg, model)
    except FadingLabError as exc:  # usage errors are all raised before dispatch
        name = type(exc).__name__
        if _report_format(cfg) == "json":
            text = _json_dumps({"config": cfg.resolved(), "error": name, "detail": str(exc)}) + "\n"
        else:
            text = _config_comments(cfg) + f"error,{name}\ndetail,{_csv_cell(str(exc))}\n"
        code = _write_report(cfg, lambda fh: fh.write(text))
        return EXIT_NUMERICAL if code == EXIT_OK else code
    return _write_report(cfg, lambda fh: _emit(cfg, result, fh))


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
        return execute(cfg)
    except UsageError as exc:
        sys.stderr.write(f"fadelab: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"fadelab: {exc}\n")
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
