"""Fading laws the benchmark drives, with the closed forms its oracles use.

Each law knows how to spell itself on the fadelab command line and, where
one exists, its exact autocorrelation and memory parameter.  The formulas
here are written from the definitions, not taken from the program, so the
oracles stay independent of the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Law:
    """One fading law as the benchmark sees it.

    ``kind`` is one of memoryless, ar1, bandlimited, table, line.  Tables
    carry a generator name (``table``) whose file the benchmark writes at
    set-up; ``line`` is a spectral line of mass ``mass`` at frequency 0 plus
    an ar1 or bandlimited residual.
    """

    key: str
    kind: str
    a: float | None = None
    lambda_c: float | None = None
    table: str | None = None
    mass: float | None = None
    residual: "Law | None" = None
    cli: tuple[str, ...] = field(default=(), compare=False)

    def args(self, table_paths: dict[str, str]) -> list[str]:
        if self.kind == "table":
            return ["--model", "table", "--table", table_paths[self.table]]
        return list(self.cli)

    def lags(self, k_max: int) -> np.ndarray:
        """Exact R(0..k_max) for closed-form laws."""
        k = np.arange(k_max + 1)
        if self.kind == "memoryless":
            return (k == 0).astype(complex)
        if self.kind == "ar1":
            return self.a ** k + 0j
        if self.kind == "bandlimited":
            return np.sinc(2.0 * self.lambda_c * k) + 0j
        if self.kind == "line":
            return self.mass + (1.0 - self.mass) * self.residual.lags(k_max)
        raise ValueError(f"no closed-form lags for {self.kind}")

    def phi(self) -> float | None:
        """Closed-form memory parameter, None where none is claimed."""
        if self.kind == "memoryless":
            return 0.0
        if self.kind == "ar1":
            return self.a ** 2 / (1.0 - self.a ** 2)
        if self.kind == "bandlimited":
            return 1.0 / (4.0 * self.lambda_c) - 0.5
        return None


def memoryless() -> Law:
    return Law("memoryless", "memoryless", cli=("--model", "memoryless"))


def ar1(a: float) -> Law:
    return Law(f"ar1_{a:g}", "ar1", a=a, cli=("--model", "ar1", "--a", repr(a)))


def bandlimited(lc: float) -> Law:
    return Law(f"bandlimited_{lc:g}", "bandlimited", lambda_c=lc,
               cli=("--model", "bandlimited", "--lambda-c", repr(lc)))


def table(name: str) -> Law:
    return Law(f"table_{name}", "table", table=name)


def line(mass: float, residual: Law) -> Law:
    return Law(f"line_{mass:g}_{residual.key}", "line", mass=mass, residual=residual,
               cli=("--model", "line", "--mass", repr(mass), "--loc", "0",
                    "--residual", residual.kind, *residual.cli[2:]))


# ---------------------------------------------------------------------------
# tabulated densities, regenerated from their definitions at set-up
# ---------------------------------------------------------------------------

def ar1_table(a: float = 0.6, n_nodes: int = 2001) -> tuple[np.ndarray, np.ndarray]:
    """The ar1(a) density sampled on a uniform grid over [-1/2, 1/2]."""
    grid = np.linspace(-0.5, 0.5, n_nodes)
    vals = (1.0 - a * a) / np.abs(1.0 - a * np.exp(-2j * np.pi * grid)) ** 2
    return grid, vals


def jakes_like_table(lambda_d=0.45, gamma=0.9, depth=1e-9, n_bulk=401, n_edge=64):
    """Doppler-style density diverging like (lambda_d^2 - lam^2)^-gamma at the
    band edges, with edge nodes packed geometrically down to ``depth``.

    The same construction as the ``jakes_like_table`` helper of the test
    suite; gamma in (1/2, 1) keeps the mass finite while the squared density
    diverges.
    """
    d = lambda_d * np.geomspace(depth, 0.5, n_edge)
    inner = np.sort(np.unique(np.concatenate([
        np.linspace(-lambda_d * 0.5, lambda_d * 0.5, n_bulk),
        lambda_d - d, -(lambda_d - d)])))
    grid = np.unique(np.concatenate([[-0.5], [-lambda_d], inner, [lambda_d], [0.5]]))
    vals = np.zeros_like(grid)
    inside = np.abs(grid) < lambda_d
    vals[inside] = (lambda_d ** 2 - grid[inside] ** 2) ** (-gamma)
    vals /= np.trapezoid(vals, grid)
    return grid, vals


TABLES = {"ar1_0.6": ar1_table, "jakes": jakes_like_table}


def table_text(grid: np.ndarray, vals: np.ndarray) -> str:
    return "lambda,value\n" + "".join(f"{g:.17g},{v:.17g}\n" for g, v in zip(grid, vals))
