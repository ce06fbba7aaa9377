import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from nucaug import augment, experiment
from nucaug.ame import DatasetSplit, NuclideRecord
from nucaug.augment import identity_set
from nucaug.errors import ConfigurationError
from nucaug.experiment import (ARCH_SETTINGS, ResultTable, TrialResult,
                               TrialSpec, build_trial_specs, dataset_tag,
                               read_results_csv, result_row, run_trial, score, sweep,
                               write_manifest)
from nucaug.network import NetworkSpec, TrainConfig, train
from nucaug.optimizers import OptimizerConfig


def rec(z, n, be, err=0.05):
    return NuclideRecord(z=z, n=n, a=z + n, be_total=be, be_err=err,
                         estimated=False)


def toy_split(n=30, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        z = 8 + i
        nn = z + int(rng.integers(0, 4))
        records.append(rec(z, nn, 8.0 * (z + nn) + rng.normal(0, 1)))
    cut = int(0.7 * n)
    return DatasetSplit(train=records[:cut], test=records[cut:],
                        split_seed=seed, ratio=0.7)


def toy_spec(**overrides):
    s = dict(hidden_widths=(6, 4), activation="relu", technique="none",
             k=0, seed=0, optimizer=OptimizerConfig(), epochs=40,
             batch_size=8, noise_seed=0)
    s.update(overrides)
    return TrialSpec(network=NetworkSpec(s["hidden_widths"], s["activation"]),
                     train_config=TrainConfig(s["epochs"], s["batch_size"], s["seed"]),
                     optimizer=s["optimizer"], technique=s["technique"], k=s["k"],
                     noise_seed=s["noise_seed"])


def fake_result(spec):
    return TrialResult(spec=spec, rms_test=1.0, rms_extrapolation=None,
                       final_train_loss=0.5, status="ok")


def waiting_trial(spec, split, extrapolation=None):
    """Stand-in for run_trial (module level, so a worker can unpickle it):
    seed 0 returns only once the file named by NUCAUG_TEST_WAIT_FOR exists
    (or after 60 s); every other seed returns at once."""
    if spec.seed == 0:
        deadline = time.monotonic() + 60.0
        while (not os.path.exists(os.environ["NUCAUG_TEST_WAIT_FOR"])
               and time.monotonic() < deadline):
            time.sleep(0.01)
    return fake_result(spec)


def slow_trial(spec, split, extrapolation=None):
    """Stand-in for run_trial: marks its start with a file in the directory
    NUCAUG_TEST_STARTED, then takes a fifth of a second."""
    open(os.path.join(os.environ["NUCAUG_TEST_STARTED"], str(spec.seed)), "w").close()
    time.sleep(0.2)
    return fake_result(spec)


class FixedModel:
    """A model whose predictions are given, whatever the nuclei."""

    def __init__(self, predictions):
        self.predictions = np.array(predictions, dtype=np.float64)

    def predict(self, z, a):
        assert len(z) == len(a) == len(self.predictions)
        return self.predictions


def scored(predictions, targets):
    """score's (predictions, rms) for records whose energies are the targets."""
    return score(FixedModel(predictions), [rec(20, 20 + i, float(t))
                                           for i, t in enumerate(targets)])


class TestScore:
    def test_rms_values(self):
        assert scored([1.0, 2.0], [1.0, 2.0])[1] == 0.0
        assert scored([3.0, 0.0], [0.0, 4.0])[1] == pytest.approx(math.sqrt(12.5))

    def test_overflow_is_inf_without_warning(self):
        # pytest turns a RuntimeWarning from the package into an error
        assert scored([0.0, 0.0], [1e300, 1.0])[1] == math.inf

    def test_rms_is_the_root_of_numpys_mean(self):
        # the same bits as the root of the mean taken in numpy
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 300, 4999):
            # a record's binding energy is >= 0
            pred, target = np.abs(rng.normal(800.0, 300.0, size=(2, n)))
            d = pred - target
            assert (scored(pred, target)[1] == math.sqrt(float(np.mean(d * d)))
                    == float(np.sqrt(np.mean(d * d))))


class TestArchSettings:
    def test_ten_architectures(self):
        assert len(ARCH_SETTINGS) == 10
        labels = ["-".join(str(w) for w in widths)
                  for widths, _, _ in ARCH_SETTINGS]
        assert len(set(labels)) == 10

    def test_epoch_batch_values(self):
        table = {tuple(w): (e, b) for w, e, b in ARCH_SETTINGS}
        assert table[(32, 32)] == (6000, 64)
        assert table[(32, 16, 8)] == (3500, 64)
        assert table[(128,)] == (4500, 32)


class TestTrialSpec:
    def test_labels(self):
        assert toy_spec().level_label == "none"
        assert toy_spec(technique="gaussian", k=3).level_label == "gaussian3"
        assert toy_spec(hidden_widths=(32, 16, 8)).arch_label == "32-16-8"

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            toy_spec(seed=-1)

    @pytest.mark.parametrize("technique, k", [("none", 3), ("none", -1), ("error", 1)])
    def test_k_only_for_gaussian(self, technique, k):
        with pytest.raises(ConfigurationError) as exc:
            toy_spec(technique=technique, k=k)
        assert str(exc.value) == f"{technique} takes k = 0, got k={k}"

    def test_network_and_train_config(self):
        spec = toy_spec(activation="tanh", seed=3, epochs=7, batch_size=5)
        assert spec.network == NetworkSpec(hidden_widths=(6, 4), activation="tanh")
        assert spec.train_config == TrainConfig(epochs=7, batch_size=5, seed=3)

    def test_cache_key_sensitivity(self):
        base = toy_spec().cache_key("tag")
        assert toy_spec().cache_key("tag") == base
        assert toy_spec(seed=1).cache_key("tag") != base
        assert toy_spec().cache_key("other") != base
        assert toy_spec(epochs=41).cache_key("tag") != base

    @pytest.mark.parametrize("technique", augment.TECHNIQUES)
    def test_noise_seed_keys_a_level_exactly_when_it_changes_its_rows(self, technique):
        # a level that draws nothing is keyed "noise=0" whatever its noise seed,
        # which holds because its rows do not depend on that seed
        k = augment.LEVELS[technique].least_k
        seeds = (0, 1, 7)
        keys = [toy_spec(technique=technique, k=k, noise_seed=seed).cache_key("tag")
                for seed in seeds]
        rows = [augment.apply(technique, k, toy_split().train, seed).rows for seed in seeds]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert (keys[i] == keys[j]) == np.array_equal(rows[i], rows[j])
        assert len(set(keys)) == (3 if augment.LEVELS[technique].draws else 1)


class TestRunTrial:
    def test_scores_and_status(self):
        split = toy_split()
        res = run_trial(toy_spec(epochs=300), split)
        assert res.ok
        assert res.rms_test > 0
        assert res.rms_extrapolation is None
        assert math.isfinite(res.final_train_loss)

    def test_extrapolation_scored(self):
        split = toy_split()
        extra = [rec(60, 70, 8.0 * 130)]
        res = run_trial(toy_spec(), split, extra)
        assert res.rms_extrapolation is not None

    def test_scored_through_score(self):
        split = toy_split()
        spec = toy_spec()
        model = train(spec.network, identity_set(split.train), spec.train_config,
                      spec.optimizer)
        pred, rms = experiment.score(model, split.test)
        assert np.array_equal(pred, model.predict([r.z for r in split.test],
                                                  [r.a for r in split.test]))
        d = pred - np.array([r.be_total for r in split.test])
        assert rms == math.sqrt(float(np.mean(d * d)))
        assert run_trial(spec, split).rms_test == rms

    def test_leak_detection(self):
        split = toy_split()
        leaky = DatasetSplit(train=split.train, test=split.train[:1],
                             split_seed=0, ratio=0.7)
        with pytest.raises(ConfigurationError):
            run_trial(toy_spec(), leaky)

    @pytest.mark.parametrize("technique, k", [("none", 0), ("error", 0), ("gaussian", 2)])
    def test_leak_into_extrapolation_names_the_keys(self, technique, k):
        split = toy_split()
        leaked = [split.train[3], split.train[7]]
        extra = [rec(60, 70, 8.0 * 130), *leaked]
        with pytest.raises(ConfigurationError) as exc:
            run_trial(toy_spec(technique=technique, k=k), split, extra)
        keys = [r.key for r in leaked]
        assert str(exc.value) == f"held-out nuclei appear in training rows: {keys}"

    def test_leaks_into_test_and_extrapolation_in_one_message(self):
        split = toy_split()
        leaky = DatasetSplit(train=split.train, test=split.test + split.train[:1],
                             split_seed=0, ratio=0.7)
        extra = [split.train[2]]
        with pytest.raises(ConfigurationError) as exc:
            run_trial(toy_spec(), leaky, extra)
        keys = [split.train[0].key, split.train[2].key]
        assert str(exc.value) == f"held-out nuclei appear in training rows: {keys}"

    def test_divergence_reported_not_raised(self):
        hot = OptimizerConfig(learning_rate=1e80)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_trial(toy_spec(optimizer=hot, epochs=60), toy_split())
        assert not res.ok
        assert res.status.startswith("failed:")
        assert res.rms_test is None and res.final_train_loss is None


class TestResultTable:
    def make_table(self):
        table = ResultTable()
        for seed in (1, 0):
            for technique, k, value in (("none", 0, 2.0 + seed),
                                        ("gaussian", 5, 1.0 + seed)):
                spec = toy_spec(technique=technique, k=k, seed=seed)
                table.add(TrialResult(spec=spec, rms_test=value,
                                      rms_extrapolation=value + 1,
                                      final_train_loss=0.1, status="ok"))
        return table

    def test_canonical_sort(self):
        trials = self.make_table().sorted_trials()
        keys = [(t.spec.level_label, t.spec.seed) for t in trials]
        assert keys == [("gaussian5", 0), ("gaussian5", 1),
                        ("none", 0), ("none", 1)]

    def test_csv_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "results.csv"
        table.write_csv(path)
        rows = read_results_csv(path)
        assert len(rows) == 4
        assert rows[0]["arch"] == "6-4"
        assert rows[0]["rms_test_mev"] == 1.0

    def test_result_row_excludes_wall_time(self):
        res = TrialResult(spec=toy_spec(), rms_test=1.5, rms_extrapolation=None,
                          final_train_loss=0.2, status="ok", wall_time=123.0)
        row_fast = result_row(res)
        slow = TrialResult(spec=toy_spec(), rms_test=1.5, rms_extrapolation=None,
                           final_train_loss=0.2, status="ok", wall_time=456.0)
        assert row_fast == result_row(slow)


class TestTrialCache:
    RESULT = TrialResult(spec=toy_spec(), rms_test=1.5, rms_extrapolation=None,
                         final_train_loss=0.25, status="ok", wall_time=3.0)
    PAYLOAD = {"rms_test": 1.5, "rms_extrapolation": None, "final_train_loss": 0.25,
               "status": "ok", "wall_time": 3.0}

    def test_round_trip(self, tmp_path):
        experiment._store_result(self.RESULT, str(tmp_path), "tag")
        path = tmp_path / f"{self.RESULT.spec.cache_key('tag')}.json"
        assert path.read_text() == json.dumps(self.PAYLOAD, sort_keys=True) + "\n"
        assert experiment._cached_result(self.RESULT.spec, str(tmp_path), "tag") == self.RESULT

    @pytest.mark.parametrize("text, wall_time", [
        (json.dumps({k: v for k, v in PAYLOAD.items() if k != "wall_time"}), 0.0),
        (json.dumps({k: v for k, v in PAYLOAD.items() if k != "status"}), None),
        (json.dumps(list(PAYLOAD)), None),
        ('"ok"', None),
        (json.dumps(PAYLOAD)[:20], None),
        ("[" * 100_000, None),  # nested too deep for json to decode
    ], ids=["no-wall-time", "no-status", "list", "string", "truncated", "nested_too_deep"])
    def test_older_or_partial_file(self, tmp_path, text, wall_time):
        # a file from before wall_time was stored loads with 0.0; anything
        # else that is not a complete payload is a cache miss
        spec = self.RESULT.spec
        (tmp_path / f"{spec.cache_key('tag')}.json").write_text(text)
        cached = experiment._cached_result(spec, str(tmp_path), "tag")
        if wall_time is None:
            assert cached is None
        else:
            assert cached == dataclasses.replace(self.RESULT, wall_time=wall_time)

    @pytest.mark.parametrize("change", [
        {"rms_test": "x"}, {"rms_test": None}, {"rms_test": True},
        {"final_train_loss": "0.25"}, {"rms_extrapolation": "2.0"},
        {"rms_extrapolation": False}, {"wall_time": None}, {"wall_time": "3.0"},
        {"status": "banana"}, {"status": "failed:x"}, {"status": None}, {"status": ["ok"]},
        {"rms_test": -1.5}, {"final_train_loss": -0.25}, {"rms_extrapolation": -2.0},
        # a failed trial as the sweep stored it before its metrics were null
        {"rms_test": math.nan, "final_train_loss": math.nan,
         "status": "failed: non-finite training loss at epoch 2"},
    ], ids=["rms_text", "rms_null", "rms_bool", "loss_text", "extrap_text", "extrap_bool",
            "wall_time_null", "wall_time_text", "status_banana", "status_no_space",
            "status_null", "status_list", "negative_rms", "negative_loss",
            "negative_extrap", "failed_nan"])
    def test_file_the_sweep_does_not_write_is_retrained(self, tmp_path, change):
        split = toy_split()
        cache = str(tmp_path / "trials")
        axes = dict(architectures=[((6, 4), 40, 8)], levels=[("none", 0)], seeds=[0, 1],
                    optimizer=OptimizerConfig(), activation="relu", split=split,
                    cache_dir=cache)
        first = sweep(**axes)
        path = os.path.join(cache, toy_spec(seed=1).cache_key(dataset_tag(split)) + ".json")
        with open(path) as fh:
            payload = {**json.load(fh), **change}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert experiment._cached_result(toy_spec(seed=1), cache, dataset_tag(split)) is None

        seen = []
        again = sweep(**axes, progress=lambda res, cached: seen.append((res.spec.seed, cached)))
        assert sorted(seen) == [(0, True), (1, False)]
        results = tmp_path / "results.csv"
        again.write_csv(results)
        assert read_results_csv(results) == [
            dict(zip(experiment.RESULTS_COLUMNS, [
                s.arch_label, s.technique, s.k, s.optimizer.algorithm, s.network.activation,
                s.seed, res.rms_test, res.rms_extrapolation, res.final_train_loss,
                s.train_config.epochs, s.train_config.batch_size, res.status]))
            for res in first.sorted_trials() for s in [res.spec]]
        # the retrained trial's file was overwritten, so it is a hit from now on
        assert experiment._cached_result(toy_spec(seed=1), cache, dataset_tag(split)) is not None

    @pytest.mark.parametrize("field, column, value", [
        ("rms_extrapolation", "rms_extrap_mev", math.inf),
        ("rms_test", "rms_test_mev", math.nan),
    ], ids=["inf", "nan"])
    def test_non_finite_metric_is_strict_json_and_a_hit(self, tmp_path, field, column, value):
        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        split = toy_split()
        cache = tmp_path / "trials"
        cache.mkdir()
        experiment._store_result(dataclasses.replace(self.RESULT, **{field: value}),
                                 str(cache), dataset_tag(split))
        (path,) = cache.iterdir()
        assert json.loads(path.read_text(), parse_constant=reject)[field] == repr(value)

        seen = []
        table = sweep(architectures=[((6, 4), 40, 8)], levels=[("none", 0)], seeds=[0],
                      optimizer=OptimizerConfig(), activation="relu", split=split,
                      cache_dir=str(cache), progress=lambda res, cached: seen.append(cached))
        assert seen == [True]
        table.write_csv(tmp_path / "results.csv")
        assert repr(read_results_csv(tmp_path / "results.csv")[0][column]) == repr(value)

    def test_failed_result_round_trips(self, tmp_path):
        failed = dataclasses.replace(self.RESULT, rms_test=None, final_train_loss=None,
                                     status="failed: non-finite training loss at epoch 2")
        experiment._store_result(failed, str(tmp_path), "tag")
        cached = experiment._cached_result(failed.spec, str(tmp_path), "tag")
        assert cached.status == failed.status and cached.rms_test is None


class TestSweep:
    AXES = dict(architectures=[((6, 4), 40, 8)],
                levels=[("none", 0), ("gaussian", 2)], seeds=[0, 1])

    def test_full_grid_and_determinism(self, tmp_path):
        split = toy_split()
        t1 = sweep(**self.AXES, optimizer=OptimizerConfig(), activation="relu",
                   split=split, cache_dir=str(tmp_path / "first"))
        t2 = sweep(**self.AXES, optimizer=OptimizerConfig(), activation="relu",
                   split=split, cache_dir=str(tmp_path / "second"))
        assert len(t1.trials) == 4
        rows1 = [result_row(r) for r in t1.sorted_trials()]
        rows2 = [result_row(r) for r in t2.sorted_trials()]
        assert rows1 == rows2

    def test_cache_resume(self, tmp_path):
        split = toy_split()
        cache = str(tmp_path / "trials")
        seen = []
        sweep(**self.AXES, optimizer=OptimizerConfig(), activation="relu",
              split=split, cache_dir=cache,
              progress=lambda res, cached: seen.append(cached))
        assert seen == [False] * 4
        seen.clear()
        again = sweep(**self.AXES, optimizer=OptimizerConfig(),
                      activation="relu", split=split, cache_dir=cache,
                      progress=lambda res, cached: seen.append(cached))
        assert seen == [True] * 4
        assert len(os.listdir(cache)) == 4
        assert all(r.ok for r in again.trials)

    def test_cache_keyed_by_dataset(self, tmp_path):
        cache = str(tmp_path / "trials")
        sweep(**self.AXES, optimizer=OptimizerConfig(), activation="relu",
              split=toy_split(seed=0), cache_dir=cache)
        sweep(**self.AXES, optimizer=OptimizerConfig(), activation="relu",
              split=toy_split(seed=1), cache_dir=cache)
        assert len(os.listdir(cache)) == 8

    def test_one_augmentation_per_trial(self, split, monkeypatch, tmp_path):
        # what the benchmark's traced counts expect: augment.apply runs once
        # per trial, and its rows sum to seeds x the levels' sizes
        levels, seeds = [("error", 0), ("gaussian", 2)], [0, 1]
        rows = []
        apply = augment.apply

        def counting_apply(*args):
            out = apply(*args)
            rows.append(len(out.rows))
            return out

        monkeypatch.setattr(augment, "apply", counting_apply)
        table = sweep([((4,), 1, 512)], levels, seeds, optimizer=OptimizerConfig(),
                      activation="relu", split=split, cache_dir=str(tmp_path / "trials"))
        assert len(table.trials) == len(rows) == len(levels) * len(seeds)
        assert sum(rows) == len(seeds) * sum(
            augment.level_size(split.train, technique, k) for technique, k in levels)

    def test_parallel_matches_serial(self, tmp_path):
        split = toy_split()
        serial = sweep(**self.AXES, optimizer=OptimizerConfig(),
                       activation="relu", split=split, cache_dir=str(tmp_path / "serial"))
        parallel = sweep(**self.AXES, optimizer=OptimizerConfig(),
                         activation="relu", split=split,
                         cache_dir=str(tmp_path / "parallel"), jobs=2)
        assert [result_row(r) for r in serial.sorted_trials()] == \
            [result_row(r) for r in parallel.sorted_trials()]

    def test_trial_cached_when_it_finishes(self, tmp_path, monkeypatch):
        # seed 0 is submitted first but cannot finish until seed 1 is cached
        monkeypatch.setattr(experiment, "run_trial", waiting_trial)
        split = toy_split()
        cache = str(tmp_path / "trials")
        fast = os.path.join(cache, toy_spec(seed=1).cache_key(dataset_tag(split)) + ".json")
        monkeypatch.setenv("NUCAUG_TEST_WAIT_FOR", fast)
        order, fast_cached = [], []

        def progress(res, cached):
            order.append(res.spec.seed)
            if res.spec.seed == 0:
                fast_cached.append(os.path.exists(fast))

        sweep(architectures=[((6, 4), 40, 8)], levels=[("none", 0)], seeds=[0, 1],
              optimizer=OptimizerConfig(), activation="relu", split=split,
              cache_dir=cache, jobs=2, progress=progress)
        assert order == [1, 0]
        assert fast_cached == [True]

    def test_pending_trials_cancelled_when_loop_stops(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "run_trial", slow_trial)
        started = tmp_path / "started"
        started.mkdir()
        monkeypatch.setenv("NUCAUG_TEST_STARTED", str(started))
        cache = tmp_path / "trials"
        seeds = list(range(40))

        def progress(res, cached):
            raise BrokenPipeError("stdout closed")

        with pytest.raises(BrokenPipeError):
            sweep(architectures=[((6, 4), 40, 8)], levels=[("none", 0)],
                  seeds=seeds, optimizer=OptimizerConfig(), activation="relu",
                  split=toy_split(), cache_dir=str(cache), jobs=2,
                  progress=progress)
        # only the trials already handed to a worker ran; the rest were dropped
        assert len(os.listdir(started)) < len(seeds) // 2
        assert len(os.listdir(cache)) == 1

    @pytest.mark.parametrize("levels, activation", [
        ([("none", 0), ("gaussian", 0)], "relu"),
        ([("none", 0), ("mixup", 0)], "relu"),
        ([("none", 0)], "swish"),
    ])
    def test_invalid_spec_rejected_up_front(self, levels, activation):
        with pytest.raises(ConfigurationError):
            build_trial_specs(self.AXES["architectures"], levels, [0],
                              OptimizerConfig(), activation)

    @pytest.mark.parametrize("architectures, levels, seeds, message", [
        ([((6, 4), 40, 8)], [("none", 0)], [0, -1], "seed must be >= 0, got -1"),
        ([((6, 4), 40, 8)], [("none", 0)], [0, 1, 0], "the sweep's seeds repeat 0"),
        ([((6, 4), 40, 8)], [("gaussian", 2), ("none", 0), ("gaussian", 2)], [0],
         "the sweep's levels repeat gaussian2"),
        ([((6, 4), 40, 8), ((6, 4), 50, 16)], [("none", 0)], [0],
         "the sweep's architectures repeat 6-4"),
        ([((6, 4), 40, 8)], [("none", 0)], [], "the sweep has no seeds"),
        ([((6, 4), 40, 8)], [], [0], "the sweep has no levels"),
    ])
    def test_bad_axis_rejected_up_front(self, architectures, levels, seeds, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            build_trial_specs(architectures, levels, seeds, OptimizerConfig(), "relu")

    def test_repeat_found_in_linear_time(self):
        # a check of each value against the values before it took about a
        # minute on an axis this long
        seeds = [*range(100_000), 5]
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="^the sweep's seeds repeat 5$"):
            build_trial_specs([((6, 4), 40, 8)], [("none", 0)], seeds, OptimizerConfig(),
                              "relu")
        assert time.perf_counter() - start < 10.0

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            build_trial_specs([], [("none", 0)], [0], OptimizerConfig(), "relu")


class TestDatasetTag:
    def test_sensitive_to_content_and_seed(self):
        a = dataset_tag(toy_split(seed=0))
        assert dataset_tag(toy_split(seed=0)) == a
        assert dataset_tag(toy_split(seed=1)) != a
        assert dataset_tag(toy_split(seed=0), [rec(60, 70, 1000.0)]) != a


class TestManifest:
    def test_contents(self, tmp_path):
        split = toy_split()
        extra = [rec(60, 70, 8.0 * 130)]
        path = tmp_path / "manifest.json"
        write_manifest(path, split=split, extrapolation=extra, seeds=[0, 1],
                       levels=[("none", 0), ("error", 0), ("gaussian", 5)],
                       architectures=[((6, 4), 40, 8)],
                       optimizer=OptimizerConfig(), activation="relu",
                       noise_seed=0, input_standardize=True,
                       ame_checksums={"ame2016": "abc"})
        manifest = json.loads(path.read_text())
        assert manifest["dataset_tag"] == dataset_tag(split, extra)
        assert manifest["n_train"] == len(split.train)
        assert manifest["optimizer"]["beta2"] == 0.99
        z0 = sum(1 for r in split.train if r.be_err == 0)
        sizes = manifest["augmentation_sizes"]
        assert sizes["none_0"] == len(split.train)
        assert sizes["error_0"] == 3 * len(split.train) - 2 * z0
        assert sizes["gaussian_5"] == 6 * len(split.train)
