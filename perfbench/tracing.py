"""In-memory span tracer for the per-layer (``--trace 1``) run.

The tracer wraps, from outside the package, the module attributes through
which each layer is called, and records one span per call: layer, start,
end and the enclosing span. Spans live in flat arrays while the benchmark
runs and are summarised only after the last traced unit has finished. A
layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers plus the benchmark's own
share (``bench``) add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

ROOT = "bench"

# layer -> "module:attribute" sites whose calls are timed as that layer
LAYERS: dict[str, list[str]] = {
    "network.fwd_bwd": ["nucaug.network:_forward_backward"],
    "optimizers.step": ["nucaug.network:optimizer_step"],
    "network.train": ["nucaug.experiment:train", "nucaug.network:train"],
    "network.predict": ["nucaug.network:TrainedModel.predict"],
    "augment.apply": ["nucaug.augment:apply"],
    "augment.csv_io": ["nucaug.augment:write_augmented_csv",
                       "nucaug.augment:read_augmented_csv"],
    "ame.parse": ["nucaug.ame:parse_mass_table"],
    "ame.select": ["nucaug.ame:filter_experimental", "nucaug.ame:diff_new_nuclei",
                   "nucaug.ame:split_dataset"],
    "ame.csv_io": ["nucaug.ame:write_records_csv", "nucaug.ame:read_records_csv"],
    "experiment.sweep": ["nucaug.experiment:sweep"],
    "experiment.run_trial": ["nucaug.experiment:run_trial"],
    "experiment.dataset_tag": ["nucaug.experiment:dataset_tag"],
    "experiment.write": ["nucaug.experiment:ResultTable.write_csv",
                         "nucaug.experiment:write_manifest"],
    "report.export": ["nucaug.report:" + name for name in (
        "table_error_augmentation", "table_gaussian", "rms_vs_resampling",
        "per_seed_traces", "optimizer_comparison", "activation_comparison",
        "gaussian_illustration")],
    "cli.main": ["nucaug.cli:main"],
}

# counter -> (layer it is read at, amount taken from that call's return value)
COUNTERS = {
    "augment.rows_out": ("augment.apply", lambda result: len(result.rows)),
    "ame.records_parsed": ("ame.parse", len),
    "report.figures_written": ("report.export", lambda result: 1),
}

# Cache lookups are counted without a span, so that reading the cache stays
# in the sweep's own self time.
CACHE_SITE = "nucaug.experiment:_cached_result"

# Per-layer metrics, per unit of work: (name, unit, kind, layer or counter).
# kind "self" is seconds of self time, "calls" the number of spans, "per_call"
# self time per span in microseconds, "count" a counter.
PER_LAYER = [
    ("network.fwd_bwd_s", "s", "self", "network.fwd_bwd"),
    ("network.fwd_bwd_calls", "count", "calls", "network.fwd_bwd"),
    ("network.fwd_bwd_us", "us", "per_call", "network.fwd_bwd"),
    ("optimizers.step_s", "s", "self", "optimizers.step"),
    ("optimizers.step_calls", "count", "calls", "optimizers.step"),
    ("optimizers.step_us", "us", "per_call", "optimizers.step"),
    ("network.train_self_s", "s", "self", "network.train"),
    ("network.predict_s", "s", "self", "network.predict"),
    ("network.predict_calls", "count", "calls", "network.predict"),
    ("augment.apply_s", "s", "self", "augment.apply"),
    ("augment.rows_out", "count", "count", "augment.rows_out"),
    ("augment.csv_io_s", "s", "self", "augment.csv_io"),
    ("ame.parse_s", "s", "self", "ame.parse"),
    ("ame.records_parsed", "count", "count", "ame.records_parsed"),
    ("ame.select_s", "s", "self", "ame.select"),
    ("ame.csv_io_s", "s", "self", "ame.csv_io"),
    ("experiment.sweep_self_s", "s", "self", "experiment.sweep"),
    ("experiment.cache_hits", "count", "count", "experiment.cache_hits"),
    ("experiment.cache_misses", "count", "count", "experiment.cache_misses"),
    ("experiment.run_trial_self_s", "s", "self", "experiment.run_trial"),
    ("experiment.dataset_tag_s", "s", "self", "experiment.dataset_tag"),
    ("experiment.write_s", "s", "self", "experiment.write"),
    ("report.export_s", "s", "self", "report.export"),
    ("report.figures_written", "count", "count", "report.figures_written"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("bench.self_s", "s", "self", ROOT),
]


def _resolve(site: str):
    """(owner, attribute name, current value) of a site, or None if it is gone."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans around the layer sites while installed."""

    def __init__(self):
        self.layer_names = [ROOT, *LAYERS]
        self.layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.unit_counts: list[Counter] = []
        self.absent: dict[str, list[str]] = {}
        self._patches = []
        for layer, sites in LAYERS.items():
            missing = [s for s in sites if _resolve(s) is None]
            if missing:
                self.absent[layer] = missing
        if _resolve(CACHE_SITE) is None:
            self.absent["experiment.cache_hits"] = [CACHE_SITE]
            self.absent["experiment.cache_misses"] = [CACHE_SITE]
        for counter, (layer, _) in COUNTERS.items():
            if layer in self.absent:
                self.absent[counter] = self.absent[layer]

    # ------------------------------------------------------------ recording

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, layer: str):
        layer_id = self.layer_id[layer]
        counter = next(((name, amount) for name, (at, amount) in COUNTERS.items()
                        if at == layer), None)
        counts, opened, close = self.counts, self._open, self._close

        def wrapper(*args, **kwargs):
            idx = opened(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter:
                counts[counter[0]] += counter[1](result)
            return result
        return wrapper

    def _cache_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["experiment.cache_misses" if result is None
                   else "experiment.cache_hits"] += 1
            return result
        return wrapper

    def _patch(self, site: str, make_wrapper) -> None:
        owner, attr, _ = _resolve(site)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            if layer not in self.absent:
                for site in sites:
                    self._patch(site, lambda fn, layer=layer: self._span_wrapper(fn, layer))
        if "experiment.cache_hits" not in self.absent:
            self._patch(CACHE_SITE, self._cache_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_unit(self) -> None:
        self.install()
        self._open(self.layer_id[ROOT])

    def end_unit(self) -> None:
        self._close(self.stack[-1])
        self.uninstall()
        self.unit_counts.append(self.counts.copy())
        self.counts.clear()

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Per-layer totals over all traced units.

        Returns {"self_s": {layer: s}, "calls": {layer: n}, "wall_s": [unit
        durations], "unit_calls": [{layer: n} per unit], "unit_counts":
        [{counter: n} per unit]}.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(self.layer_names, 0.0)
        calls = dict.fromkeys(self.layer_names, 0)
        unit_calls: list[Counter] = []
        wall = []
        root_id = self.layer_id[ROOT]
        for i in range(n):
            name = self.layer_names[self.layer[i]]
            if self.layer[i] == root_id:
                unit_calls.append(Counter())
                wall.append(dur[i])
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            unit_calls[-1][name] += 1
        return {"self_s": self_s, "calls": calls, "wall_s": wall,
                "unit_calls": unit_calls, "unit_counts": self.unit_counts}


def per_layer_metrics(summary: dict, absent: dict) -> dict:
    """{metric: (value per traced unit, unit)} for every metric not absent."""
    units = len(summary["wall_s"])
    counts = Counter()
    for unit in summary["unit_counts"]:
        counts.update(unit)
    out = {}
    for name, unit, kind, key in PER_LAYER:
        if key in absent:
            continue
        if kind == "self":
            value = summary["self_s"][key] / units
        elif kind == "calls":
            value = summary["calls"][key] / units
        elif kind == "per_call":
            calls = summary["calls"][key]
            value = summary["self_s"][key] / calls * 1e6 if calls else 0.0
        else:
            value = counts[key] / units
        if unit == "count" and value == int(value):
            value = int(value)
        out[name] = (value, unit)
    return out
