"""Sweep orchestration: architectures x augmentation levels x seeds.

Each trial owns its data and network, so trials are independent and may run
in any order (or in parallel); the persisted result table is canonically
sorted, which makes sweep outputs order-independent. Completed trials are
cached one file per trial, keyed by a hash of the trial settings plus a
dataset checksum, so interrupted sweeps resume where they stopped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from . import __version__, augment
from .ame import DatasetSplit, NuclideRecord, read_csv, write_csv
from .errors import ConfigurationError, TrainingDivergedError
from .network import NetworkSpec, TrainConfig, TrainedModel, arch_label, parse_arch, train
from .optimizers import OptimizerConfig, check_algorithm

# (hidden widths, epochs, batch size) used throughout the baseline study
ARCH_SETTINGS: list[tuple[tuple[int, ...], int, int]] = [
    ((128,), 4500, 32),
    ((32, 32), 6000, 64),
    ((64, 16), 4500, 32),
    ((32, 32, 8), 5500, 32),
    ((32, 16, 8), 3500, 64),
    ((64, 16, 8), 4500, 32),
    ((32, 16, 8, 4), 7000, 32),
    ((32, 16, 16, 8), 3500, 64),
    ((32, 32, 8, 8), 3500, 32),
    ((64, 16, 8, 4), 5000, 64),
]


@np.errstate(over="ignore", invalid="ignore")
def score(model: TrainedModel, records: list[NuclideRecord]) -> tuple[np.ndarray, float]:
    """The model's predictions for the records, and their rms in MeV; inf, without
    a numpy warning, on overflow."""
    z, _, a, be_total, _, _ = zip(*records)
    pred = model.predict(z, a)
    d = pred - np.array(be_total)
    return pred, math.sqrt(float(np.mean(d * d)))


@dataclass(frozen=True)
class TrialSpec:
    network: NetworkSpec
    train_config: TrainConfig
    optimizer: OptimizerConfig
    technique: str            # a technique of augment.LEVELS
    k: int                    # resample count, in the technique's k range
    noise_seed: int = 0

    def __post_init__(self):
        augment.check_level(self.technique, self.k, self.noise_seed)

    @property
    def seed(self) -> int:
        return self.train_config.seed

    @property
    def arch_label(self) -> str:
        return arch_label(self.network.hidden_widths)

    @property
    def level_label(self) -> str:
        return augment.level_label(self.technique, self.k)

    def cache_key(self, data_tag: str) -> str:
        # "std=True;tstd=True" names the z-scoring that training always does, and a level
        # that draws nothing is keyed "noise=0": both keep the keys of cached trials
        noise = self.noise_seed if augment.LEVELS[self.technique].draws else 0
        opt, cfg = self.optimizer, self.train_config
        parts = (f"arch={self.arch_label};act={self.network.activation};"
                 f"aug={self.technique};k={self.k};seed={cfg.seed};"
                 f"opt={opt.algorithm};lr={opt.learning_rate!r};b1={opt.beta1!r};"
                 f"b2={opt.beta2!r};eps={opt.epsilon!r};rho={opt.rmsprop_decay!r};"
                 f"epochs={cfg.epochs};batch={cfg.batch_size};"
                 f"noise={noise};std=True;tstd=True;data={data_tag}")
        return hashlib.sha256(parts.encode()).hexdigest()[:32]


# each metric of a trial: its TrialResult field and its results column
_METRICS = {"rms_test": "rms_test_mev", "rms_extrapolation": "rms_extrap_mev",
            "final_train_loss": "final_train_loss"}


def _check_outcome(status, metrics: dict, wall_time=0.0) -> None:
    """The one rule of a trial's outcome, in memory, in its cache file and in
    results.csv: a status of "ok" or "failed: <reason>"; in an ok trial,
    rms_test and final_train_loss are numbers >= 0 (nan and inf read) and
    rms_extrapolation is None (no extrapolation set) or such a number; a
    failed trial has all three None; wall_time is a number. `metrics` maps
    each metric's results column to its value; a message names the column
    and quotes a number as a sweep writes it."""
    if status == "ok":
        for field, column in _METRICS.items():
            value = metrics[column]
            if type(value) in (int, float):  # no bool
                if value < 0:
                    raise ConfigurationError(
                        f"{column} field '{value!r}': a metric must not be negative")
            elif value is None:
                if field != "rms_extrapolation":
                    raise ConfigurationError(f"an ok trial needs a {column}")
            else:
                raise ConfigurationError(f"{column} field {value!r}: expected a number")
    elif type(status) is str and status.startswith("failed: "):
        for column in _METRICS.values():
            if metrics[column] is not None:
                raise ConfigurationError(
                    f"a failed trial has no {column}, got '{metrics[column]!r}'")
    else:
        raise ConfigurationError(f"status field {status!r}: expected ok or failed: <reason>")
    if type(wall_time) not in (int, float):
        raise ConfigurationError(f"wall_time {wall_time!r}: expected a number")


@dataclass(frozen=True)
class TrialResult:
    spec: TrialSpec
    rms_test: float | None    # None for a failed trial
    rms_extrapolation: float | None
    final_train_loss: float | None
    status: str               # "ok" or "failed: <reason>"
    wall_time: float = 0.0

    def __post_init__(self):
        _check_outcome(self.status, {column: getattr(self, field)
                                     for field, column in _METRICS.items()}, self.wall_time)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


RESULTS_COLUMNS = ["arch", "augmentation", "k", "optimizer", "activation", "seed",
                   *_METRICS.values(), "epochs", "batch", "status"]


def result_row(res: TrialResult) -> list:
    s, cfg = res.spec, res.spec.train_config
    metrics = (getattr(res, field) for field in _METRICS)
    return [s.arch_label, s.technique, s.k, s.optimizer.algorithm, s.network.activation,
            cfg.seed, *("" if v is None else repr(v) for v in metrics),
            cfg.epochs, cfg.batch_size, res.status]


def _leak_check(aug_set: augment.AugmentedTrainingSet,
                held_out: list[NuclideRecord]) -> None:
    z, a = aug_set.rows["z"].tolist(), aug_set.rows["a"].tolist()
    if not {r.key for r in held_out}.isdisjoint(zip(z, a)):
        train_keys = set(zip(z, a))
        leaked = [r.key for r in held_out if r.key in train_keys]
        raise ConfigurationError(f"held-out nuclei appear in training rows: {leaked[:5]}")


def run_trial(spec: TrialSpec, split: DatasetSplit,
              extrapolation: list[NuclideRecord] | None = None) -> TrialResult:
    """Augment the training half only, train, and score on the fixed test set
    (and optionally the extrapolation set) against measured energies."""
    start = time.perf_counter()
    aug_set = augment.apply(spec.technique, spec.k, split.train, spec.noise_seed)
    _leak_check(aug_set, split.test + (extrapolation or []))

    try:
        model = train(spec.network, aug_set, spec.train_config, spec.optimizer)
    except TrainingDivergedError as exc:
        return TrialResult(spec=spec, rms_test=None, rms_extrapolation=None,
                           final_train_loss=None, status=f"failed: {exc}",
                           wall_time=time.perf_counter() - start)

    rms_ext = score(model, extrapolation)[1] if extrapolation else None
    return TrialResult(spec=spec, rms_test=score(model, split.test)[1],
                       rms_extrapolation=rms_ext,
                       final_train_loss=model.loss_history[-1], status="ok",
                       wall_time=time.perf_counter() - start)


class ResultTable:
    """Collected trial results with canonical ordering."""

    def __init__(self, trials: Iterable[TrialResult] = ()):
        self.trials = list(trials)

    def add(self, result: TrialResult) -> None:
        self.trials.append(result)

    def sorted_trials(self) -> list[TrialResult]:
        # by the fields that name a trial's row: arch to seed
        return sorted(self.trials, key=lambda res: result_row(res)[:6])

    def write_csv(self, path) -> None:
        write_csv(path, RESULTS_COLUMNS, map(result_row, self.sorted_trials()))


def _metric(text: str) -> float | None:
    return float(text) if text else None


# the kind of each results column
_RESULTS_KINDS = (parse_arch, str, int, str, str, int, _metric, _metric, _metric, int, int, str)


def _results_row(fields: list) -> dict:
    values = dict(zip(RESULTS_COLUMNS, fields))
    network = NetworkSpec(values["arch"], values["activation"])
    check_algorithm(values["optimizer"])  # a row holds no other optimizer setting
    TrainConfig(values["epochs"], values["batch"], values["seed"])
    augment.check_level(values["augmentation"], values["k"], 0)  # no noise seed
    _check_outcome(values["status"], values)
    values["arch"] = arch_label(network.hidden_widths)
    return values


def read_results_csv(path) -> list[dict]:
    """Result rows from a ResultTable.write_csv file (ame.read_csv), as dicts
    of their checked values: ints for k, seed, epochs and batch, a float or
    None (an empty field) for each metric, and the arch_label of the widths
    read. A wrong header, a short or long row, a field not of its kind, or a
    row that breaks the rules of its settings (those of the NetworkSpec, the
    optimizer's check_algorithm, the TrainConfig and augment.check_level, in
    that order) or of its outcome (_check_outcome) raises MassTableParseError
    naming the line."""
    return read_csv(path, RESULTS_COLUMNS, _RESULTS_KINDS, _results_row)


def dataset_tag(split: DatasetSplit,
                extrapolation: list[NuclideRecord] | None = None) -> str:
    """Checksum of the exact datasets a sweep runs on."""
    h = hashlib.sha256()
    for part in (split.train, split.test, extrapolation or []):
        h.update("".join([f"{r.z},{r.a},{r.be_total!r},{r.be_err!r};" for r in part]).encode())
        h.update(b"|")
    h.update(f"seed={split.split_seed};ratio={split.ratio!r}".encode())
    return h.hexdigest()[:16]


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# the TrialResult fields a trial's cache file holds; wall_time may be absent
_CACHED_FIELDS = (*_METRICS, "status", "wall_time")


def _cached_result(spec: TrialSpec, cache_dir: str, data_tag: str) -> TrialResult | None:
    """The stored result, or None unless the file holds a TrialResult as
    _store_result writes it. A file without wall_time, from before it was
    stored, reads 0.0."""
    path = os.path.join(cache_dir, spec.cache_key(data_tag) + ".json")
    try:
        with open(path) as fh:
            payload = {"wall_time": 0.0, **json.load(fh)}
        fields = {name: payload[name] for name in _CACHED_FIELDS}
        for name in _METRICS:  # strict JSON has no inf or nan; _store_result writes text
            if fields[name] in ("inf", "nan"):
                fields[name] = float(fields[name])
        return TrialResult(spec=spec, **fields)
    except (FileNotFoundError, ValueError, KeyError, TypeError, RecursionError):
        return None


def _store_result(res: TrialResult, cache_dir: str, data_tag: str) -> None:
    payload = {name: getattr(res, name) for name in _CACHED_FIELDS}
    for name in _METRICS:
        if payload[name] is not None and not math.isfinite(payload[name]):
            payload[name] = repr(payload[name])  # a metric is never -inf
    path = os.path.join(cache_dir, res.spec.cache_key(data_tag) + ".json")
    _atomic_write(path, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def build_trial_specs(architectures, levels, seeds, optimizer: OptimizerConfig,
                      activation: str, noise_seed: int = 0) -> list[TrialSpec]:
    """Cartesian product of the sweep axes.

    architectures: (hidden_widths, epochs, batch) triples;
    levels: (technique, k) pairs of augment.LEVELS. Every spec is validated
    here, so a bad setting, an empty axis or a repeated value on an axis
    (hidden widths, level label or seed) fails before any trial runs.
    """
    for axis, values in (("architectures", [arch_label(w) for w, _, _ in architectures]),
                         ("levels", [augment.level_label(*level) for level in levels]),
                         ("seeds", list(seeds))):
        if not values:
            raise ConfigurationError(f"the sweep has no {axis}")
        seen = set()
        for v in values:
            if v in seen:
                raise ConfigurationError(f"the sweep's {axis} repeat {v}")
            seen.add(v)
    specs = []
    for widths, epochs, batch in architectures:
        network = NetworkSpec(tuple(widths), activation)
        configs = [TrainConfig(epochs, batch, seed) for seed in seeds]
        for technique, k in levels:
            specs.extend(TrialSpec(network, config, optimizer, technique, k, noise_seed)
                         for config in configs)
    return specs


def sweep(architectures, levels, seeds, optimizer: OptimizerConfig,
          activation: str, split: DatasetSplit,
          extrapolation: list[NuclideRecord] | None = None,
          noise_seed: int = 0, *, cache_dir: str, jobs: int = 1,
          progress=None) -> ResultTable:
    """Run (or resume) the full Cartesian sweep; results are order-independent.

    Pending trials run in min(jobs, pending) worker processes, and each is
    cached as soon as it finishes, whatever the order it was submitted in.
    If the result loop stops early (an interrupt, or an error from progress),
    the trials not yet started are cancelled rather than run and discarded.
    """
    specs = build_trial_specs(architectures, levels, seeds, optimizer,
                              activation, noise_seed)
    data_tag = dataset_tag(split, extrapolation)
    os.makedirs(cache_dir, exist_ok=True)

    table = ResultTable()
    pending = []
    for spec in specs:
        cached = _cached_result(spec, cache_dir, data_tag)
        if cached is not None:
            table.add(cached)
            if progress:
                progress(cached, cached=True)
        else:
            pending.append(spec)

    workers = min(jobs, len(pending))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if pool:
            futures = [pool.submit(run_trial, spec, split, extrapolation) for spec in pending]
            results = (future.result() for future in as_completed(futures))
        else:
            results = (run_trial(spec, split, extrapolation) for spec in pending)
        try:
            for res in results:
                _store_result(res, cache_dir, data_tag)
                table.add(res)
                if progress:
                    progress(res, cached=False)
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
    return table


def write_manifest(path, *, split: DatasetSplit, extrapolation, seeds, levels,
                   architectures, optimizer: OptimizerConfig, activation: str,
                   noise_seed: int, input_standardize: bool = True,  # kept for perfbench
                   ame_checksums: dict | None = None) -> None:
    """Everything needed to re-run any trial of the sweep bit-exactly."""
    manifest = {
        "software_version": __version__,
        "split_seed": split.split_seed,
        "split_ratio": split.ratio,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "n_extrapolation": len(extrapolation) if extrapolation else 0,
        "dataset_tag": dataset_tag(split, extrapolation),
        "ame_checksums": ame_checksums or {},
        "trial_seeds": list(seeds),
        "noise_seed": noise_seed,
        "input_standardize": input_standardize,
        "target_standardize": True,  # train always z-scores both; these only record it
        "activation": activation,
        "optimizer": asdict(optimizer),
        "levels": [list(level) for level in levels],
        "architectures": [{"hidden_widths": list(w), "epochs": e, "batch": b}
                          for w, e, b in architectures],
        "augmentation_sizes": {
            f"{tech}_{k}": augment.level_size(split.train, tech, k)
            for tech, k in levels},
    }
    _atomic_write(str(path), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
