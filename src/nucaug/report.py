"""Figure- and table-ready exports from a persisted sweep results CSV.

Every export is a plain CSV (header + rows) meant for external plotting
tools; nothing here renders images. Figure ids:

  table1  baseline vs error-augmented mean rms, with percent change
  table2  mean test rms for gaussian resampling k = 0..5
  table3  same as table2 on the extrapolation set
  fig2    Gaussian draw illustration for one nuclide
  fig3    mean test rms vs resample count for four architectures
  fig4    per-seed test rms traces for the 32-16-8 architecture
  fig5    fig3 on the extrapolation set
  fig6    optimizer comparison (nadam / adamax / rmsprop) for 32-16-8
  fig7    fig4 on the extrapolation set
  fig8    activation comparison (tanh / sigmoid) for 32-16-8
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import augment
from .ame import NuclideRecord
from .errors import ConfigurationError, DataIntegrityError, IncompleteDataError
from .experiment import pct_change
from .network import NetworkSpec, param_count, parse_arch

# figure id -> builder over results-CSV rows; fig2 takes a nuclide instead.
# The lambdas look each function up when called, so a wrapper installed on a
# module attribute (a profiler, a tracer) sees every export.
FIGURES = {
    "table1": lambda rows: table_error_augmentation(rows),
    "table2": lambda rows: table_gaussian(rows, "rms_test_mev"),
    "table3": lambda rows: table_gaussian(rows, "rms_extrap_mev"),
    "fig3": lambda rows: rms_vs_resampling(rows, "rms_test_mev"),
    "fig4": lambda rows: per_seed_traces(rows, "rms_test_mev"),
    "fig5": lambda rows: rms_vs_resampling(rows, "rms_extrap_mev"),
    "fig6": lambda rows: optimizer_comparison(rows),
    "fig7": lambda rows: per_seed_traces(rows, "rms_extrap_mev"),
    "fig8": lambda rows: activation_comparison(rows),
}

FIG3_ARCHS = ["128", "32-32", "32-16-8", "32-16-16-8"]
STABILITY_ARCH = "32-16-8"
STABILITY_LEVELS = ["none", "gaussian2", "gaussian5"]
TABLE_MAX_K = 5


def _cell(row: dict) -> tuple[str, str, int]:
    """(arch, technique, k) of a row."""
    return row["arch"], row["augmentation"], int(row["k"])


@np.errstate(over="ignore")
def _group_means(rows: list[dict], column: str, key=_cell) -> dict[tuple, float]:
    """key(row) -> mean of the column over the rows that have a value (a
    failed row has none)."""
    acc = defaultdict(list)
    for row in rows:
        if row[column]:
            acc[key(row)].append(float(row[column]))
    means = {cell: float(np.mean(vals)) for cell, vals in acc.items()}
    for cell, mean in means.items():
        if not np.isfinite(mean) and np.isfinite(acc[cell]).all():
            raise DataIntegrityError(
                f"the mean {column} of cell ({', '.join(map(str, cell))}) is not finite")
    return means


def _one_setting(rows: list[dict]) -> None:
    """Reject rows from more than one (optimizer, activation) pair."""
    pairs = sorted({(r["optimizer"], r["activation"]) for r in rows})
    if len(pairs) > 1:
        raise ConfigurationError(
            "results mix (optimizer, activation) settings "
            f"{', '.join(f'{o}/{a}' for o, a in pairs)}; report one at a time")


def _archs_in(rows: list[dict]) -> list[str]:
    return list(dict.fromkeys(row["arch"] for row in rows))


def table_error_augmentation(rows: list[dict]) -> tuple[list[str], list[list]]:
    """Baseline vs error-augmented mean test rms, plus percent change."""
    _one_setting(rows)
    means = _group_means(rows, "rms_test_mev")
    header = ["arch", "n_params", "epochs", "batch",
              "rms_baseline_mev", "rms_augmented_mev", "pct_change"]
    out = []
    for arch in _archs_in(rows):
        meta = next(r for r in rows if r["arch"] == arch)
        base, aug = means.get((arch, "none", 0)), means.get((arch, "error", 0))
        if base is None or aug is None:
            raise IncompleteDataError([(arch, "none"), (arch, "error")])
        if base <= 0:
            raise DataIntegrityError(f"arch {arch}: baseline rms must be > 0, got {base}")
        out.append([arch, param_count(NetworkSpec(parse_arch(arch))), meta["epochs"],
                    meta["batch"], f"{base:.3f}", f"{aug:.3f}",
                    f"{pct_change(base, aug):.3f}"])
    return header, out


def table_gaussian(rows: list[dict], column: str) -> tuple[list[str], list[list]]:
    """Mean rms per architecture for k = 0 (none) .. TABLE_MAX_K gaussian passes."""
    _one_setting(rows)
    means = _group_means(rows, column)
    levels = [("none", 0)] + [("gaussian", k) for k in range(1, TABLE_MAX_K + 1)]
    header = ["arch"] + [f"rms_k{k}_mev" for k in range(0, TABLE_MAX_K + 1)]
    out = []
    for arch in _archs_in(rows):
        cells = [means.get((arch, *level)) for level in levels]
        out.append([arch] + ["" if v is None else f"{v:.3f}" for v in cells])
    return header, out


def rms_vs_resampling(rows: list[dict], column: str) -> tuple[list[str], list[list]]:
    """Long-format mean rms vs resample count for the FIG3_ARCHS present."""
    _one_setting(rows)
    means = _group_means(rows, column)
    archs = [a for a in FIG3_ARCHS if a in _archs_in(rows)]
    header = ["arch", "resamples", "mean_rms_mev"]
    out = []
    for arch in archs:
        pairs = sorted((k, v) for (a, technique, k), v in means.items()
                       if a == arch and technique != "error")
        for k, v in pairs:
            out.append([arch, k, f"{v:.3f}"])
    if not out:
        raise IncompleteDataError(archs)
    return header, out


def per_seed_traces(rows: list[dict], column: str) -> tuple[list[str], list[list]]:
    """Per-seed rms of STABILITY_ARCH at each of STABILITY_LEVELS."""
    _one_setting(rows)
    header = ["level", "seed", "rms_mev"]
    out = []
    for lvl in STABILITY_LEVELS:
        cell = (STABILITY_ARCH, *augment.parse_level(lvl))
        cells = sorted((int(r["seed"]), float(r[column])) for r in rows
                       if _cell(r) == cell and r[column])
        if not cells:
            raise IncompleteDataError([(STABILITY_ARCH, lvl)])
        for seed, v in cells:
            out.append([lvl, seed, f"{v:.3f}"])
    return header, out


def _setting_comparison(rows: list[dict], setting: str) -> tuple[list[str], list[list]]:
    """Mean test rms of STABILITY_ARCH per setting value and level, ordered by both."""
    means = _group_means(rows, "rms_test_mev", key=lambda row: (row[setting], *_cell(row)))
    header = [setting, "arch", "resamples", "mean_rms_mev"]
    cells = sorted((value, augment.level_label(technique, k), k, v)
                   for (value, a, technique, k), v in means.items()
                   if a == STABILITY_ARCH and technique != "error")
    out = [[value, STABILITY_ARCH, k, f"{v:.3f}"] for value, _, k, v in cells]
    if not out:
        raise IncompleteDataError([STABILITY_ARCH])
    return header, out


def optimizer_comparison(rows: list[dict]) -> tuple[list[str], list[list]]:
    return _setting_comparison(rows, "optimizer")


def activation_comparison(rows: list[dict]) -> tuple[list[str], list[list]]:
    return _setting_comparison(rows, "activation")


def gaussian_illustration(record: NuclideRecord, k: int,
                          noise_seed: int = 0) -> tuple[list[str], list[list]]:
    """The cumulative Gaussian draws for a single nuclide, one row per draw."""
    aug = augment.gaussian_resample([record], k, noise_seed)
    header = ["z", "a", "resample", "energy_mev", "mu_mev", "sigma_mev"]
    out = [[record.z, record.a, 0, repr(record.be_total),
            repr(record.be_total), repr(record.be_err)]]
    for i, energy in enumerate(aug.rows["energy"][1:].tolist(), start=1):
        out.append([record.z, record.a, i, repr(energy),
                    repr(record.be_total), repr(record.be_err)])
    return header, out
