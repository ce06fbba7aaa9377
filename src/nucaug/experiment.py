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

from . import augment
from .ame import DatasetSplit, NuclideRecord, bad_field, csv_rows, write_csv
from .errors import ConfigurationError, MassTableParseError, TrainingDivergedError
from .network import NetworkSpec, TrainConfig, train
from .optimizers import OptimizerConfig

TECHNIQUES = ("none", "error", "gaussian")

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
def rms_error(predictions, targets) -> float:
    """sqrt(mean((pred - target)^2)), in MeV; inf, without a numpy warning,
    where the squares overflow."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ConfigurationError("rms_error needs equal-length nonempty inputs")
    d = predictions - targets
    return float(np.sqrt(np.mean(d * d)))


def pct_change(baseline: float, augmented: float) -> float:
    """Percent improvement of `augmented` over `baseline` (negative = worse)."""
    if baseline <= 0:
        raise ConfigurationError(f"baseline must be > 0, got {baseline}")
    return 100.0 * (baseline - augmented) / baseline


@dataclass(frozen=True)
class TrialSpec:
    hidden_widths: tuple[int, ...]
    activation: str
    technique: str            # "none", "error" or "gaussian"
    k: int                    # gaussian resample count (0 otherwise)
    seed: int                 # drives both init and shuffle seeds
    optimizer: OptimizerConfig
    epochs: int
    batch_size: int
    noise_seed: int = 0

    def __post_init__(self):
        # reject what run_trial would reject, before any trial of a sweep trains
        NetworkSpec(hidden_widths=self.hidden_widths, activation=self.activation)
        TrainConfig(epochs=self.epochs, batch_size=self.batch_size)
        if self.technique not in TECHNIQUES:
            raise ConfigurationError(f"unknown augmentation technique {self.technique!r}")
        if self.technique == "gaussian" and (self.k < 1 or self.noise_seed < 0):
            raise ConfigurationError(
                f"gaussian needs k >= 1 and noise_seed >= 0, got k={self.k}, "
                f"noise_seed={self.noise_seed}")

    @property
    def arch_label(self) -> str:
        return "-".join(str(w) for w in self.hidden_widths)

    @property
    def level_label(self) -> str:
        return f"gaussian{self.k}" if self.technique == "gaussian" else self.technique

    def cache_key(self, data_tag: str) -> str:
        # "std=True;tstd=True" names the z-scoring that training always does;
        # the literal text keeps the keys of already cached trials unchanged
        parts = (f"arch={self.arch_label};act={self.activation};"
                 f"aug={self.technique};k={self.k};seed={self.seed};"
                 f"opt={self.optimizer.algorithm};lr={self.optimizer.learning_rate!r};"
                 f"b1={self.optimizer.beta1!r};b2={self.optimizer.beta2!r};"
                 f"eps={self.optimizer.epsilon!r};rho={self.optimizer.rmsprop_decay!r};"
                 f"epochs={self.epochs};batch={self.batch_size};"
                 f"noise={self.noise_seed};std=True;tstd=True;data={data_tag}")
        return hashlib.sha256(parts.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class TrialResult:
    spec: TrialSpec
    rms_test: float
    rms_extrapolation: float | None
    final_train_loss: float
    status: str               # "ok" or "failed: <reason>"
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


RESULTS_COLUMNS = ["arch", "augmentation", "k", "optimizer", "activation", "seed",
                   "rms_test_mev", "rms_extrap_mev", "final_train_loss",
                   "epochs", "batch", "status"]


def result_row(res: TrialResult) -> list:
    s = res.spec
    return [s.arch_label, s.technique, s.k, s.optimizer.algorithm, s.activation,
            s.seed,
            repr(res.rms_test) if res.ok else "",
            "" if res.rms_extrapolation is None or not res.ok else repr(res.rms_extrapolation),
            repr(res.final_train_loss) if res.ok else "",
            s.epochs, s.batch_size, res.status]


def _leak_check(aug_set: augment.AugmentedTrainingSet,
                held_out: Iterable[NuclideRecord]) -> None:
    train_keys = set(zip(aug_set.rows["z"].tolist(), aug_set.rows["a"].tolist()))
    leaked = [r.key for r in held_out if r.key in train_keys]
    if leaked:
        raise ConfigurationError(f"held-out nuclei appear in training rows: {leaked[:5]}")


def run_trial(spec: TrialSpec, split: DatasetSplit,
              extrapolation: list[NuclideRecord] | None = None) -> TrialResult:
    """Augment the training half only, train, and score on the fixed test set
    (and optionally the extrapolation set) against measured energies."""
    start = time.perf_counter()
    aug_set = augment.apply(spec.technique, spec.k, split.train, spec.noise_seed)
    _leak_check(aug_set, split.test)
    if extrapolation:
        _leak_check(aug_set, extrapolation)

    net_spec = NetworkSpec(hidden_widths=spec.hidden_widths, activation=spec.activation)
    cfg = TrainConfig(epochs=spec.epochs, batch_size=spec.batch_size,
                      init_seed=spec.seed, shuffle_seed=spec.seed)
    try:
        model = train(net_spec, aug_set, cfg, spec.optimizer)
    except TrainingDivergedError as exc:
        return TrialResult(spec=spec, rms_test=math.nan, rms_extrapolation=None,
                           final_train_loss=math.nan, status=f"failed: {exc}",
                           wall_time=time.perf_counter() - start)

    def score(records):
        pred = model.predict([r.z for r in records], [r.a for r in records])
        return rms_error(pred, [r.be_total for r in records])

    rms_ext = score(extrapolation) if extrapolation else None
    return TrialResult(spec=spec, rms_test=score(split.test),
                       rms_extrapolation=rms_ext,
                       final_train_loss=model.loss_history[-1], status="ok",
                       wall_time=time.perf_counter() - start)


class ResultTable:
    """Collected trial results with canonical ordering."""

    def __init__(self, trials: Iterable[TrialResult] = ()):
        self.trials = list(trials)

    def add(self, result: TrialResult) -> None:
        self.trials.append(result)

    @staticmethod
    def _sort_key(res: TrialResult):
        s = res.spec
        return (s.arch_label, s.technique, s.k, s.optimizer.algorithm,
                s.activation, s.seed)

    def sorted_trials(self) -> list[TrialResult]:
        return sorted(self.trials, key=self._sort_key)

    def write_csv(self, path) -> None:
        write_csv(path, RESULTS_COLUMNS, map(result_row, self.sorted_trials()))


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split("-"))


def _number_or_empty(text: str) -> str:
    """A metric: empty for a failed trial, else anything float reads, nan and
    inf included (returned as text, so bad_field does not reject those)."""
    if text:
        float(text)
    return text


# what each results column must read as
_RESULTS_TYPES = (_widths, str, int, str, str, int, _number_or_empty, _number_or_empty,
                  _number_or_empty, int, int, str)


def read_results_csv(path) -> list[dict]:
    """Result rows, as dicts of their CSV text, from a ResultTable.write_csv
    file. A wrong header, a short or long row, an arch that is not hyphenated
    integers, an unknown augmentation, a k, seed, epochs or batch that is not
    an integer, or a metric that is neither empty nor a number raises
    MassTableParseError naming the line."""
    rows = []
    for line_no, row in csv_rows(path, RESULTS_COLUMNS):
        try:
            for kind, text in zip(_RESULTS_TYPES, row):
                kind(text)
        except ValueError:
            raise bad_field(line_no, RESULTS_COLUMNS, _RESULTS_TYPES, row) from None
        if row[1] not in TECHNIQUES:
            raise MassTableParseError(line_no, f"unknown augmentation {row[1]!r}")
        rows.append(dict(zip(RESULTS_COLUMNS, row)))
    return rows


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
_CACHED_FIELDS = ("rms_test", "rms_extrapolation", "final_train_loss", "status",
                  "wall_time")


def _cached_result(spec: TrialSpec, cache_dir: str, data_tag: str) -> TrialResult | None:
    """The stored result, or None if it is missing, unreadable or partial."""
    path = os.path.join(cache_dir, spec.cache_key(data_tag) + ".json")
    try:
        with open(path) as fh:
            payload = {"wall_time": 0.0, **json.load(fh)}
        return TrialResult(spec=spec, **{name: payload[name] for name in _CACHED_FIELDS})
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _store_result(res: TrialResult, cache_dir: str, data_tag: str) -> None:
    payload = {name: getattr(res, name) for name in _CACHED_FIELDS}
    path = os.path.join(cache_dir, res.spec.cache_key(data_tag) + ".json")
    _atomic_write(path, json.dumps(payload, sort_keys=True) + "\n")


def build_trial_specs(architectures, levels, seeds, optimizer: OptimizerConfig,
                      activation: str, noise_seed: int = 0) -> list[TrialSpec]:
    """Cartesian product of the sweep axes.

    architectures: (hidden_widths, epochs, batch) triples;
    levels: ("none"|"error"|"gaussian", k) pairs. Every spec is validated
    here, so a bad setting fails before any trial runs.
    """
    if not (architectures and levels and seeds):
        raise ConfigurationError("sweep axes must be nonempty")
    specs = []
    for widths, epochs, batch in architectures:
        for technique, k in levels:
            for seed in seeds:
                specs.append(TrialSpec(
                    hidden_widths=tuple(widths), activation=activation,
                    technique=technique, k=k, seed=seed, optimizer=optimizer,
                    epochs=epochs, batch_size=batch, noise_seed=noise_seed))
    return specs


def sweep(architectures, levels, seeds, optimizer: OptimizerConfig,
          activation: str, split: DatasetSplit,
          extrapolation: list[NuclideRecord] | None = None,
          noise_seed: int = 0, cache_dir: str | None = None, jobs: int = 1,
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
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)

    table = ResultTable()
    pending = []
    for spec in specs:
        cached = _cached_result(spec, cache_dir, data_tag) if cache_dir else None
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
                if cache_dir:
                    _store_result(res, cache_dir, data_tag)
                table.add(res)
                if progress:
                    progress(res, cached=False)
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
    return table


def _level_size(train: list[NuclideRecord], technique: str, k: int) -> int:
    if technique == "gaussian":
        return len(train) * (1 + k)
    if technique == "error":
        z0 = sum(1 for r in train if r.be_err == 0)
        return 3 * len(train) - 2 * z0
    return len(train)


def write_manifest(path, *, split: DatasetSplit, extrapolation, seeds, levels,
                   architectures, optimizer: OptimizerConfig, activation: str,
                   noise_seed: int, input_standardize: bool = True,
                   target_standardize: bool = True,  # recorded; train always z-scores
                   ame_checksums: dict | None = None) -> None:
    """Everything needed to re-run any trial of the sweep bit-exactly."""
    from . import __version__
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
        "target_standardize": target_standardize,
        "activation": activation,
        "optimizer": asdict(optimizer),
        "levels": [list(level) for level in levels],
        "architectures": [{"hidden_widths": list(w), "epochs": e, "batch": b}
                          for w, e, b in architectures],
        "augmentation_sizes": {
            f"{tech}_{k}": _level_size(split.train, tech, k)
            for tech, k in levels},
    }
    _atomic_write(str(path), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
