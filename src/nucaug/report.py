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
from .errors import ConfigurationError, IncompleteDataError
from .experiment import pct_change
from .network import NetworkSpec, param_count

# figure id -> builder over results-CSV rows; fig2 takes a nuclide instead.
# The lambdas look each function up when called, so a wrapper installed on a
# module attribute (a profiler, a tracer) sees every export.
FIGURES = {
    "table1": lambda rows: table_error_augmentation(rows),
    "table2": lambda rows: table_gaussian(rows, "rms_test_mev"),
    "table3": lambda rows: table_gaussian(rows, "rms_extrap_mev"),
    "fig3": lambda rows: rms_vs_resampling(rows, column="rms_test_mev"),
    "fig4": lambda rows: per_seed_traces(rows, column="rms_test_mev"),
    "fig5": lambda rows: rms_vs_resampling(rows, column="rms_extrap_mev"),
    "fig6": lambda rows: optimizer_comparison(rows),
    "fig7": lambda rows: per_seed_traces(rows, column="rms_extrap_mev"),
    "fig8": lambda rows: activation_comparison(rows),
}

FIG3_ARCHS = ["128", "32-32", "32-16-8", "32-16-16-8"]
STABILITY_ARCH = "32-16-8"
STABILITY_LEVELS = ["none", "gaussian2", "gaussian5"]


def _level(row: dict) -> str:
    if row["augmentation"] == "gaussian":
        return f"gaussian{row['k']}"
    return row["augmentation"]


def _metric(row: dict, column: str) -> float | None:
    if row["status"] != "ok" or not row[column]:
        return None
    return float(row[column])


def _group_means(rows: list[dict], column: str) -> dict[tuple[str, str, str, str], float]:
    """(arch, level, optimizer, activation) -> mean over seeds."""
    acc = defaultdict(list)
    for row in rows:
        value = _metric(row, column)
        if value is not None:
            acc[(row["arch"], _level(row), row["optimizer"], row["activation"])].append(value)
    return {key: float(np.mean(vals)) for key, vals in acc.items()}


def _one_setting(rows: list[dict]) -> None:
    """Reject rows from more than one (optimizer, activation) pair."""
    pairs = sorted({(r["optimizer"], r["activation"]) for r in rows})
    if len(pairs) > 1:
        raise ConfigurationError(
            "results mix (optimizer, activation) settings "
            f"{', '.join(f'{o}/{a}' for o, a in pairs)}; report one at a time")


def _archs_in(rows: list[dict]) -> list[str]:
    seen = []
    for row in rows:
        if row["arch"] not in seen:
            seen.append(row["arch"])
    return seen


def table_error_augmentation(rows: list[dict]) -> tuple[list[str], list[list]]:
    """Baseline vs error-augmented mean test rms, plus percent change."""
    _one_setting(rows)
    means = _group_means(rows, "rms_test_mev")
    header = ["arch", "n_params", "epochs", "batch",
              "rms_baseline_mev", "rms_augmented_mev", "pct_change"]
    out = []
    for arch in _archs_in(rows):
        meta = next(r for r in rows if r["arch"] == arch)
        base = [v for (a, lvl, _, _), v in means.items() if a == arch and lvl == "none"]
        aug = [v for (a, lvl, _, _), v in means.items() if a == arch and lvl == "error"]
        if not base or not aug:
            raise IncompleteDataError([(arch, "none"), (arch, "error")])
        widths = tuple(int(w) for w in arch.split("-"))
        out.append([arch, param_count(NetworkSpec(widths)), meta["epochs"], meta["batch"],
                    f"{base[0]:.3f}", f"{aug[0]:.3f}",
                    f"{pct_change(base[0], aug[0]):.3f}"])
    return header, out


def table_gaussian(rows: list[dict], column: str = "rms_test_mev",
                   max_k: int = 5) -> tuple[list[str], list[list]]:
    """Mean rms per architecture for k = 0 (none) .. max_k gaussian passes."""
    _one_setting(rows)
    means = _group_means(rows, column)
    levels = ["none"] + [f"gaussian{k}" for k in range(1, max_k + 1)]
    header = ["arch"] + [f"rms_k{k}_mev" for k in range(0, max_k + 1)]
    out = []
    for arch in _archs_in(rows):
        cells = []
        for lvl in levels:
            vals = [v for (a, l, _, _), v in means.items() if a == arch and l == lvl]
            cells.append(f"{vals[0]:.3f}" if vals else "")
        out.append([arch] + cells)
    return header, out


def rms_vs_resampling(rows: list[dict], archs: list[str] | None = None,
                      column: str = "rms_test_mev") -> tuple[list[str], list[list]]:
    """Long-format mean rms vs resample count, for the figure curves."""
    _one_setting(rows)
    means = _group_means(rows, column)
    archs = archs or [a for a in FIG3_ARCHS if a in _archs_in(rows)]
    header = ["arch", "resamples", "mean_rms_mev"]
    out = []
    for arch in archs:
        pairs = sorted((0 if lvl == "none" else int(lvl.removeprefix("gaussian")), v)
                       for (a, lvl, _, _), v in means.items()
                       if a == arch and lvl != "error")
        for k, v in pairs:
            out.append([arch, k, f"{v:.3f}"])
    if not out:
        raise IncompleteDataError(archs)
    return header, out


def per_seed_traces(rows: list[dict], arch: str = STABILITY_ARCH,
                    levels: list[str] | None = None,
                    column: str = "rms_test_mev") -> tuple[list[str], list[list]]:
    """Per-seed rms for one architecture at a few augmentation levels."""
    _one_setting(rows)
    levels = levels or STABILITY_LEVELS
    header = ["level", "seed", "rms_mev"]
    out = []
    for lvl in levels:
        cells = sorted((int(r["seed"]), _metric(r, column)) for r in rows
                       if r["arch"] == arch and _level(r) == lvl
                       and _metric(r, column) is not None)
        if not cells:
            raise IncompleteDataError([(arch, lvl)])
        for seed, v in cells:
            out.append([lvl, seed, f"{v:.3f}"])
    return header, out


def optimizer_comparison(rows: list[dict], arch: str = STABILITY_ARCH,
                         column: str = "rms_test_mev") -> tuple[list[str], list[list]]:
    means = _group_means(rows, column)
    header = ["optimizer", "arch", "resamples", "mean_rms_mev"]
    out = []
    for (a, lvl, opt, _), v in sorted(means.items(), key=lambda kv: (kv[0][2], kv[0][1])):
        if a != arch or lvl == "error":
            continue
        k = 0 if lvl == "none" else int(lvl.removeprefix("gaussian"))
        out.append([opt, a, k, f"{v:.3f}"])
    if not out:
        raise IncompleteDataError([arch])
    return header, out


def activation_comparison(rows: list[dict], arch: str = STABILITY_ARCH,
                          column: str = "rms_test_mev") -> tuple[list[str], list[list]]:
    means = _group_means(rows, column)
    header = ["activation", "arch", "resamples", "mean_rms_mev"]
    out = []
    for (a, lvl, _, act), v in sorted(means.items(), key=lambda kv: (kv[0][3], kv[0][1])):
        if a != arch or lvl == "error":
            continue
        k = 0 if lvl == "none" else int(lvl.removeprefix("gaussian"))
        out.append([act, a, k, f"{v:.3f}"])
    if not out:
        raise IncompleteDataError([arch])
    return header, out


def gaussian_illustration(record: NuclideRecord, k: int,
                          noise_seed: int = 0) -> tuple[list[str], list[list]]:
    """The cumulative Gaussian draws for a single nuclide, one row per draw."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    aug = augment.gaussian_resample([record], k, noise_seed)
    header = ["z", "a", "resample", "energy_mev", "mu_mev", "sigma_mev"]
    out = [[record.z, record.a, 0, repr(record.be_total),
            repr(record.be_total), repr(record.be_err)]]
    for i, energy in enumerate(aug.rows["energy"][1:].tolist(), start=1):
        out.append([record.z, record.a, i, repr(energy),
                    repr(record.be_total), repr(record.be_err)])
    return header, out
