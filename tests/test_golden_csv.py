"""Golden-CSV regression for the six experiment runners.

A refactor of the runners must leave their CSVs unchanged in every
column except ``seconds``. The files under ``tests/data/`` hold the rows
of each runner on a small grid at a fixed seed, with ``seconds`` written
as 0. Error columns are compared within ``ERR_ATOL`` absolute, which
allows rounding differences between BLAS builds; every other column must
match as text.

``python tests/test_golden_csv.py`` rewrites the files. Do that only for
an intended change of the outputs, and say so in CHANGES.md.
"""

import csv
import os
import sys
from dataclasses import replace

import pytest

from ihskit.experiments import CSV_HEADER, run_experiment, write_rows

SEED = 11
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
ERR_COLUMNS = ("err_ls_semi", "err_truth_semi", "err_truth_l2")
ERR_ATOL = 1e-8

# golden file stem -> (experiment id, runner keywords)
GRIDS = {
    "fig1": ("fig1", dict(n_grid=(100, 400), trials=3)),
    "fig2": ("fig2", dict(d=20, n=600, trials=3)),
    "fig2_plain": ("fig2", dict(d=20, n=600, trials=3, step="plain")),
    "fig3": ("fig3", dict(d_grid=(16,), trials=3)),
    "fig4": ("fig4", dict(d=64, n=1200, s=8, trials=2)),
    "fig5": ("fig5", dict(d_grid=(32,), trials=2)),
    "fig6a": ("fig6a", dict(d1=8, d2=8, r=2, m=30, n_grid=(40,), trials=2)),
}


def _golden_path(stem):
    return os.path.join(DATA, f"golden_{stem}.csv")


def _write(stem, path):
    exp_id, kwargs = GRIDS[stem]
    rows = run_experiment(exp_id, SEED, **kwargs)
    write_rows([replace(row, seconds=0.0) for row in rows], path)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("stem", sorted(GRIDS))
def test_runner_matches_golden_csv(stem, tmp_path):
    out = tmp_path / f"{stem}.csv"
    _write(stem, out)
    got, want = _read(out), _read(_golden_path(stem))
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for col in CSV_HEADER:
            if col == "seconds":
                continue
            if col in ERR_COLUMNS and g[col] and w[col]:
                assert abs(float(g[col]) - float(w[col])) <= ERR_ATOL, (i, col, g[col], w[col])
            else:
                assert g[col] == w[col], (i, col, g[col], w[col])


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for stem in sys.argv[1:] or sorted(GRIDS):
        _write(stem, _golden_path(stem))
        print(_golden_path(stem))
