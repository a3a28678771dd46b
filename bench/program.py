"""Locating and loading the fadelab program in the checkout under test."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


#: BLAS threads per process.  fadelab's BLAS calls are small (b x b
#: triangular solves, Toeplitz factors up to 2048); at 2 threads OpenBLAS
#: spins on them, doubling CPU time and adding about 20% wall time to the
#: b = 10 MI op on a 2-CPU machine, and the timings follow the neighbours' load.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS threads (at most the CPUs this process may use); call before
    numpy is imported.  Returns the thread count."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in _BLAS_ENV:
        os.environ[var] = str(n)
    return n


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_cli():
    """Import ``fadelab.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fadelab" / "cli.py").is_file():
        raise SystemExit(f"bench: no fadelab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fadelab.cli
    if Path(fadelab.cli.__file__).resolve().parent != SRC / "fadelab":
        raise SystemExit(f"bench: imported fadelab from {fadelab.cli.__file__}, not {SRC}")
    return fadelab.cli
