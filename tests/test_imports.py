"""Cold start: a command imports no scipy module and no process pool.
``simulate`` runs on numpy alone, and so do ``capacity``, ``sweep``,
``validate``, ``phi`` and ``predict`` on AR(1) and band-limited laws; with
scipy blocked, every command on every law the command line builds exits
and prints as it does with scipy.

Each check runs a fresh interpreter on this checkout's ``src``, since the
test process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from conftest import jakes_like_table, write_density_table
from fadelab import ar1, density, spectra
from fadelab.cli import run
from test_laws import PROPS

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.integrate", "scipy.signal", "scipy.linalg", "scipy.fft", "scipy.stats")


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=False)


def imported(proc: subprocess.CompletedProcess) -> set[str]:
    """Modules a ``python -X importtime`` run imported, read from its stderr."""
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines()
            if ln.startswith("import time:") and not ln.endswith("| imported package")}


def test_import_cli_loads_no_scipy():
    proc = fresh("-X", "importtime", "-c", "import fadelab.cli")
    assert proc.returncode == 0, proc.stderr
    modules = imported(proc)
    assert "fadelab.cli" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_import_cli_loads_no_process_pool():
    # the trace writer forks with os.fork and os.pipe alone
    modules = imported(fresh("-X", "importtime", "-c", "import fadelab.cli"))
    assert "fadelab.cli" in modules
    assert not [m for m in modules if m.split(".")[0] == "multiprocessing"
                or m.startswith("concurrent.futures")]


def test_table_predict_loads_no_scipy(tmp_path):
    # the uniform-grid table lags come from numpy.fft, the finite past from Durbin
    xs = np.linspace(-0.5, 0.5, 201)
    table = write_density_table(tmp_path / "ar1.csv", xs, density(ar1(0.6), xs))
    proc = fresh("-X", "importtime", "-m", "fadelab.cli", "predict", "--model", "table",
                 "--table", str(table), "--delta2", "0.1", "--past", "64")
    assert proc.returncode == 0, proc.stderr
    assert '"command": "predict"' in proc.stdout
    modules = imported(proc)
    assert "fadelab.prediction" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


SIMULATED = {
    "ar1_0.5": ["--model", "ar1", "--a", "0.5"],
    "bandlimited_0.25": ["--model", "bandlimited", "--lambda-c", "0.25"],
    "jakes_table": ["--model", "table", "--table", "{jakes}"],
    "line_0.3_ar1_0.5": ["--model", "line", "--mass", "0.3", "--residual", "ar1", "--a", "0.5"],
}


@pytest.mark.parametrize("law", SIMULATED)
def test_simulate_loads_no_scipy(law, tmp_path):
    # the AR(1) recursion is a numpy scan, circulant paths use numpy.fft
    jakes = write_density_table(tmp_path / "jakes.csv", *jakes_like_table())
    args = [a.format(jakes=jakes) for a in SIMULATED[law]]
    proc = fresh("-X", "importtime", "-m", "fadelab.cli", "simulate", *args, "--n", "1000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# model=")
    modules = imported(proc)
    assert "fadelab.simulate" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


ANALYTIC = {
    "capacity": ["capacity"],
    "sweep": ["sweep", "--b-list", "1,2,4", "--alpha-list", "0.5,0.8333", "--snr-list", "0.1"],
    "validate": ["validate"],
    "phi_all": ["phi", "--method", "all"],
    "predict": ["predict", "--delta2", "0.1"],
}


@pytest.mark.parametrize("law", ["ar1_0.5", "line_0.3_ar1_0.5", "bandlimited_0.25"])
@pytest.mark.parametrize("command", ANALYTIC)
def test_ar1_analytic_commands_load_no_scipy(command, law):
    # the mass, squared and log integrals and the lag-series tail are closed
    # forms; a sweep, phi and predict refuse a line law
    proc = fresh("-X", "importtime", "-m", "fadelab.cli", *ANALYTIC[command], *SIMULATED[law])
    refused = law.startswith("line") and command in ("sweep", "phi_all", "predict")
    assert proc.returncode == (2 if refused else 0), proc.stderr
    assert proc.stdout
    modules = imported(proc)
    assert "fadelab.asymptotics" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import raises ImportError
from fadelab.cli import run
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""

EVERY_COMMAND = [
    ["validate"], ["capacity"], ["phi", "--method", "all"], ["predict", "--delta2", "0.1"],
    ["predict", "--delta2", "0.1", "--past", "16"], ["scheme", "--b", "4"],
    ["simulate", "--n", "64", "--b", "2"],
    ["mi", "--b", "2", "--sigma2", "10", "--samples", "10000"],
    ["sweep", "--b-list", "1,2", "--alpha-list", "0.5,1", "--snr-list", "0.25", "--mc",
     "--samples", "10000"],
]


def test_every_command_runs_with_scipy_blocked(tmp_path, capsys):
    xs = np.linspace(-0.5, 0.5, 201)
    table = write_density_table(tmp_path / "ar1.csv", xs, density(ar1(0.6), xs))
    laws = [["--model", "memoryless"], SIMULATED["ar1_0.5"], SIMULATED["bandlimited_0.25"],
            ["--model", "table", "--table", str(table)], SIMULATED["line_0.3_ar1_0.5"]]
    argvs = [[*cmd, *law, "--seed", "5"] for cmd in EVERY_COMMAND for law in laws]
    proc = fresh("-c", BLOCKED_RUN, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    for argv, (code, out) in zip(argvs, json.loads(proc.stdout), strict=True):
        assert code in (0, 2), argv  # a report, or a refusal of the law
        assert (code, out) == (run(argv), capsys.readouterr().out), argv


def test_mi_run_loads_no_heavy_scipy_module():
    proc = fresh("-X", "importtime", "-m", "fadelab.cli", "mi", "--model", "ar1", "--a", "0.5",
                 "--b", "4", "--sigma2", "10", "--samples", "10000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# command=mi")
    modules = imported(proc)
    assert "fadelab.mi" in modules
    assert {".".join(m.split(".")[:2]) for m in modules}.isdisjoint(HEAVY)


def test_module_entry_point_prints_the_report(capsys):
    argv = ["capacity", "--model", "memoryless"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    proc = fresh("-m", "fadelab.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert expected and proc.stdout == expected


@PROPS
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300))
def test_toeplitz_matches_scipy(values):
    r = np.array(values, dtype=complex)
    got = spectra._toeplitz(r)
    want = scipy.linalg.toeplitz(r, r.conj())
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
