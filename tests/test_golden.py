"""Golden CLI reports, replayed byte for byte.

Each case is one ``fadelab`` command line; its golden file under
``tests/golden/`` holds the exit code on the first line and the exact
report after it.  The tabulated law is a 201-node ar1(0.6) density written
by this module from the closed form, and every run reads it by a relative
path, so the reports do not depend on where the suite runs.

Regenerate after an intended change of output (and list the moved bytes in
CHANGES.md), all cases or only the named ones (``phi_all.ar1_0.5.json``;
unknown names are refused)::

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from fadelab.cli import run

GOLDEN = Path(__file__).with_name("golden")
TABLE = "ar1_0.6_n201.csv"

LAWS = {
    "memoryless": ["--model", "memoryless"],
    "ar1_0.5": ["--model", "ar1", "--a", "0.5"],
    "bandlimited_0.25": ["--model", "bandlimited", "--lambda-c", "0.25"],
    "table_ar1_0.6": ["--model", "table", "--table", TABLE],
    "line_0.3_ar1_0.5": ["--model", "line", "--mass", "0.3", "--residual", "ar1", "--a", "0.5"],
}

COMMANDS = {
    "validate": ["validate"],
    "capacity": ["capacity"],
    "phi_all": ["phi", "--method", "all"],
    "predict_inf": ["predict", "--delta2", "0.1"],
    "predict_past64": ["predict", "--delta2", "0.1", "--past", "64"],
    "scheme_b6": ["scheme", "--b", "6"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for law, law_args in LAWS.items():
        for cmd, cmd_args in COMMANDS.items():
            for fmt in ("json", "csv"):
                cases[f"{cmd}.{law}.{fmt}"] = [*cmd_args, *law_args, "--format", fmt]
    for a in ("0.97", "0.99"):
        for cmd in ("validate", "capacity"):
            cases[f"{cmd}.ar1_{a}.json"] = [cmd, "--model", "ar1", "--a", a]
    cases["simulate.ar1_0.9.csv"] = [
        "simulate", "--model", "ar1", "--a", "0.9", "--n", "200", "--sigma2", "0.5",
        "--b", "4", "--alpha", "0.5", "--seed", "7"]
    cases["simulate.line_0.3_bandlimited_0.1.csv"] = [
        "simulate", "--model", "line", "--mass", "0.3", "--loc", "0.1",
        "--residual", "bandlimited", "--lambda-c", "0.1", "--n", "200", "--seed", "8"]
    cases["mi.ar1_0.5.csv"] = [
        "mi", "--model", "ar1", "--a", "0.5", "--b", "4", "--alpha", "0.8333",
        "--sigma2", "10", "--samples", "20000", "--seed", "3"]
    cases["sweep_mc.ar1_0.5.csv"] = [
        "sweep", "--model", "ar1", "--a", "0.5", "--b-list", "1,2", "--alpha-list", "0.5,1",
        "--snr-list", "0.25", "--mc", "--samples", "10000", "--seed", "4"]
    return cases


CASES = _cases()


def write_table(directory) -> None:
    """The 201-node ar1(0.6) density table, from the closed form."""
    a = 0.6
    lam = np.linspace(-0.5, 0.5, 201)
    vals = (1.0 - a * a) / np.abs(1.0 - a * np.exp(-2j * np.pi * lam)) ** 2
    with open(os.path.join(directory, TABLE), "w", encoding="utf-8") as fh:
        fh.write("lambda,value\n")
        for g, v in zip(lam, vals):
            fh.write(f"{g:.17g},{v:.17g}\n")


def replay(argv: list[str]) -> str:
    """Exit code line plus the report that ``fadelab argv`` prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return f"exit {code}\n{buf.getvalue()}"


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_table(d)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_replays(name, table_dir, monkeypatch):
    monkeypatch.chdir(table_dir)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert replay(CASES[name]) == expected


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record [NAME ...]")
    names = sys.argv[2:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_table(tmp)
        os.chdir(tmp)
        for case in names:
            (GOLDEN / f"{case}.txt").write_text(replay(CASES[case]), encoding="utf-8")
    print(f"recorded {len(names)} reports in {GOLDEN}")
