"""Every figure CSV of `nucaug report` against recorded digests.

A synthetic results table holds every cell that the one-setting figures
read: the ten headline architectures at none, error and gaussian1 to
gaussian5, three seeds each, with one failed trial and some trials without
an extrapolation metric among them. fig6 reads that table with a second
optimizer added, and fig8 with a second activation added. `nucaug report`
exports each figure of `report.FIGURES` from its table, and the sha256 of
the written CSV must equal the recorded one, so a change to a report's
cells, order or number format that moves one byte fails here. The digests
depend only on Python's float formatting.

To re-record them, after a change that alters these files on purpose, run
from the repository root:

    PYTHONPATH=src python3 tests/test_report_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from nucaug import ame, cli, experiment, report

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "report_golden.json")
LEVELS = [("none", 0), ("error", 0)] + [("gaussian", k) for k in range(1, 6)]
SEEDS = (0, 1, 2)
# the table each figure is exported from; every other figure reads "base"
TABLE_OF = {"fig6": "optimizers", "fig8": "activations"}


def _rows(optimizer="adam", activation="relu", offset=0.0) -> list[list]:
    rows = []
    for a, (widths, epochs, batch) in enumerate(experiment.ARCH_SETTINGS):
        for lv, (technique, k) in enumerate(LEVELS):
            for seed in SEEDS:
                arch = "-".join(map(str, widths))
                if (arch, technique, k, seed) == ("32-16-8", "gaussian", 5, 2):
                    rows.append([arch, technique, k, optimizer, activation, seed, "", "", "",
                                 epochs, batch, "failed: non-finite training loss at epoch 3"])
                    continue
                rms = round(1.0 + offset + 0.173 * a - 0.061 * lv + 0.0237 * seed, 6)
                extrap = "" if technique == "error" and seed == 1 else repr(
                    round(rms + 0.5 + 0.0411 * (a % 3) * seed, 6))
                rows.append([arch, technique, k, optimizer, activation, seed, repr(rms),
                             extrap, repr(round(0.01 * rms * rms, 6)), epochs, batch, "ok"])
    return rows


def write_tables(directory) -> dict[str, str]:
    """The path of each synthetic results CSV, by table name."""
    tables = {"base": _rows(),
              "optimizers": _rows() + _rows(optimizer="nadam", offset=0.11),
              "activations": _rows() + _rows(activation="tanh", offset=-0.07)}
    paths = {}
    for name, rows in tables.items():
        paths[name] = os.path.join(directory, f"{name}.csv")
        ame.write_csv(paths[name], experiment.RESULTS_COLUMNS, rows)
    return paths


def report_digest(figure: str, tables: dict[str, str], directory) -> str:
    """sha256 of the CSV that `nucaug report --figure FIGURE` writes."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", tables[TABLE_OF.get(figure, "base")], "--figure", figure,
                         "--out", str(directory)]) == cli.EXIT_OK
    with open(os.path.join(directory, f"{figure}.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    return write_tables(tmp_path_factory.mktemp("report_golden"))


def test_every_figure_is_recorded():
    with open(GOLDEN) as fh:
        assert sorted(json.load(fh)) == sorted(report.FIGURES)


@pytest.mark.parametrize("figure", sorted(report.FIGURES))
def test_figure_csv_matches_golden_digest(figure, tables, tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)[figure]
    assert report_digest(figure, tables, tmp_path) == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(tmp)
        digests = {figure: report_digest(figure, paths, tmp) for figure in sorted(report.FIGURES)}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
