"""A seeded census of density tables through ``capacity_asymptote``: the
outcome counts per (verdict, outcome) against a committed table.

The tables come from ``np.random.default_rng``, not from hypothesis, whose
derandomized draws change when a test's source does.  A change that moves a
count re-records ``TABLE_OUTCOMES`` and says why.
"""

import collections

import numpy as np

import fadelab as fl
from fadelab import spectra
from fadelab.errors import FadingLabError
from reference import table_probe

#: tables drawn: about 2.6 s on 2-CPU x86_64
TABLES = 1000

#: (verdict, outcome) -> count over the ``TABLES`` tables of ``census_tables``
TABLE_OUTCOMES = {
    ("yes", "accepted"): 577,
    ("undetermined", "ConditionTwelveFails"): 255,
    ("no", "ConditionTwelveFails"): 168,
}


def census_tables(count, seed=0):
    """Unit-mass tables, drawn one at a time: at even odds a uniform grid of
    2 to 400 intervals, else 1 to 30 unique interior nodes uniform on
    (-0.499, 0.499) plus the ends; values uniform on [0.1, 5.1), with
    f(1/2) = f(-1/2) at even odds; normalized by the trapezoid rule."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            grid = np.linspace(-0.5, 0.5, rng.integers(2, 401) + 1)
        else:
            inner = rng.uniform(-0.499, 0.499, rng.integers(1, 31))
            grid = np.array(sorted({-0.5, 0.5, *inner.tolist()}))
        vals = rng.uniform(0.0, 5.0, grid.size) + 0.1
        if rng.random() < 0.5:
            vals[-1] = vals[0]
        yield fl.tabulated_density(grid, vals / np.trapezoid(vals, grid))


def test_table_census():
    """Every table with the verdict "yes" is accepted: its lag series meets
    the density route within ``phi_routes_agree``'s bound."""
    counts = collections.Counter()
    for table in census_tables(TABLES):
        try:
            fl.capacity_asymptote(table)
            outcome = "accepted"
        except FadingLabError as exc:
            outcome = type(exc).__name__
        counts[(table.density_square_integrable, outcome)] += 1
    assert dict(counts) == TABLE_OUTCOMES


def test_census_table_probes_keep_their_reference():
    """Each census table's one-evaluation probe is its reference's, bit for
    bit: verdict and the four estimates."""
    for table in census_tables(TABLES):
        assert spectra._table_probe(table) == table_probe(table)
