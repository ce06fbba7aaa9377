"""Acceptance gate for the full study pipeline.

Criteria 1-6 are self-contained oracles and run in seconds. Criteria 7-10
evaluate the persisted headline sweep in results/ (produced, from the
repository root, by `nucaug sweep --config configs/headline.ini --out
results`); its manifest's dataset tag is checked
against the shipped data files, its grid must be the headline one, and the
CSV must hold exactly one ok row per trial of that grid, so stale, smaller or
partial results fail loudly instead of silently passing. Criterion 11 re-runs one full trial and compares the
result row byte for byte with the persisted one.
"""

import csv
import json
import math
import os
import shutil
from collections import defaultdict

import numpy as np
import pytest

from nucaug import ame, cli
from nucaug.augment import error_resample, gaussian_resample
from nucaug.experiment import (ARCH_SETTINGS, ResultTable, TrialResult,
                               TrialSpec, build_trial_specs, dataset_tag,
                               read_results_csv, result_row, run_trial,
                               write_manifest)
from nucaug.network import (NetworkParams, NetworkSpec, TrainConfig, _forward_backward,
                            _layer_outputs, param_count)
from nucaug.optimizers import OptimizerConfig, init_state, optimizer_step

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS_DIR = os.path.join(ROOT, "results")
HEADLINE_COMMAND = "nucaug sweep --config configs/headline.ini --out results"

TABLE1_PARAM_COUNTS = [513, 1185, 1249, 1425, 769, 1377, 801, 1041, 1497, 1409]


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1ParameterCounts:
    def test_all_ten_architectures(self):
        got = [param_count(NetworkSpec(widths)) for widths, _, _ in ARCH_SETTINGS]
        report(1, got == TABLE1_PARAM_COUNTS,
               f"parameter counts {got} vs expected {TABLE1_PARAM_COUNTS}")


class TestCriterion2DatasetShape:
    def test_filtered_count_and_split(self, experimental16, split):
        n = len(experimental16)
        ok = abs(n - 2408) <= 5 and len(split.train) == math.floor(0.7 * n)
        report(2, ok, f"{n} experimental nuclei (expected 2408 +/- 5), "
                      f"{len(split.train)} train / {len(split.test)} test")


class TestCriterion3AugmentationSizes:
    def test_error_resample_size(self, split):
        n = len(split.train)
        z0 = sum(1 for r in split.train if r.be_err == 0)
        rows = len(error_resample(split.train).rows)
        ok = rows == 3 * n - 2 * z0
        if z0 == 30:
            ok = ok and rows == 4995
        report(3, ok, f"error resampling: n={n}, z0={z0}, rows={rows} "
                      f"(3n - 2*z0 = {3 * n - 2 * z0})")

    def test_gaussian_sizes(self, split):
        n = len(split.train)
        sizes = [len(gaussian_resample(split.train, k, 0).rows)
                 for k in range(1, 6)]
        expected = [n * (1 + k) for k in range(1, 6)]
        ok = sizes == expected
        if n == 1685:
            ok = ok and sizes == [3370, 5055, 6740, 8425, 10110]
        report(3, ok, f"gaussian resampling sizes {sizes} for n={n}")


class TestCriterion4WorkedExample:
    def test_pb208_triplication(self):
        pb208 = ame.NuclideRecord(z=82, n=126, a=208, be_total=1636.43022,
                                  be_err=0.00125, estimated=False)
        got = error_resample([pb208]).rows["energy"].tolist()
        expected = [1636.43022, 1636.43147, 1636.42897]
        ok = len(got) == 3 and all(abs(g - e) < 1e-9
                                   for g, e in zip(got, expected))
        report(4, ok, f"Pb-208 triplication {got}")


class TestCriterion5Gradients:
    def test_100_random_networks(self):
        # randomized parameters (biases included) keep ReLU pre-activations
        # off the kink, where the two-sided difference would be meaningless
        rng = np.random.default_rng(20230707)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            depth = int(rng.integers(1, 4))
            widths = tuple(int(rng.integers(2, 7)) for _ in range(depth))
            act = ("relu", "tanh", "sigmoid")[trial % 3]
            spec = NetworkSpec(widths, activation=act)
            params = NetworkParams(spec, rng.normal(0.0, 0.7,
                                                    size=param_count(spec)))
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            grad = np.empty_like(params.flat)
            _forward_backward(params, NetworkParams(spec, grad), X, y)

            def loss():  # apart from the gradient's own loss
                return np.mean((_layer_outputs(params, X)[-1][:, 0] - y) ** 2)

            for j in range(grad.size):
                orig = params.flat[j]
                params.flat[j] = orig + h
                lp = loss()
                params.flat[j] = orig - h
                lm = loss()
                params.flat[j] = orig
                numeric = (lp - lm) / (2 * h)
                worst = max(worst, abs(grad[j] - numeric)
                            / max(abs(grad[j]), abs(numeric), 1e-4))
        report(5, worst < 1e-5,
               f"worst finite-difference relative error {worst:.3e}")


class TestCriterion6OptimizerOracles:
    def test_one_step_each(self):
        lr, b1, b2, eps, rho = 0.001, 0.9, 0.99, 1e-8, 0.9
        theta, g = 1.0, 0.5
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        oracles = {
            "adam": theta - lr * (m / (1 - b1))
            / (math.sqrt(v / (1 - b2)) + eps),
            "nadam": theta - lr * (b1 * m / (1 - b1) + (1 - b1) * g / (1 - b1))
            / (math.sqrt(v / (1 - b2)) + eps),
            "adamax": theta - (lr / (1 - b1)) * m / (abs(g) + eps),
            "rmsprop": theta - lr * g / (math.sqrt((1 - rho) * g * g) + eps),
        }
        errors = {}
        for algorithm, expected in oracles.items():
            config = OptimizerConfig(algorithm=algorithm, learning_rate=lr,
                                     beta1=b1, beta2=b2, epsilon=eps,
                                     rmsprop_decay=rho)
            params = np.array([theta])
            state = init_state(config, 1)
            optimizer_step(state, params, np.array([g]))
            errors[algorithm] = abs(params[0] - expected)
        worst = max(errors.values())
        report(6, worst < 1e-12, f"one-step errors {errors}")


# ------------------------------------------------- persisted sweep criteria

@pytest.fixture(scope="module")
def sweep_rows(split, extrapolation):
    results_csv = os.path.join(RESULTS_DIR, "results.csv")
    manifest_json = os.path.join(RESULTS_DIR, "manifest.json")
    if not (os.path.exists(results_csv) and os.path.exists(manifest_json)):
        pytest.fail(f"results/ missing; run `{HEADLINE_COMMAND}` "
                    "to (re)generate the headline sweep")
    with open(manifest_json) as fh:
        manifest = json.load(fh)
    tag = dataset_tag(split, extrapolation)
    if manifest["dataset_tag"] != tag:
        pytest.fail(f"results/manifest.json dataset tag {manifest['dataset_tag']}"
                    f" does not match the shipped data files ({tag}); re-run "
                    f"`{HEADLINE_COMMAND}`")
    problem = headline_grid_problem(manifest)
    if problem:
        pytest.fail(f"results/manifest.json is not the headline sweep ({problem});"
                    f" re-run `{HEADLINE_COMMAND}`")
    rows = read_results_csv(results_csv)
    problem = sweep_coverage_problem(rows, manifest)
    if problem:
        pytest.fail(f"results/results.csv is not the full sweep of its manifest "
                    f"({problem}); re-run `{HEADLINE_COMMAND}`")
    return rows


HEADLINE_GRID = {
    "architectures": [{"hidden_widths": list(w), "epochs": e, "batch": b}
                      for w, e, b in ARCH_SETTINGS],
    "levels": [["none", 0], ["gaussian", 5]],
    "trial_seeds": list(range(10)),
}


def headline_grid_problem(manifest):
    """None if the manifest's grid is the one criteria 7-11 grade.

    That is all ten ARCH_SETTINGS x {none, gaussian5} x seeds 0-9; otherwise a
    message naming the manifest keys that differ. A complete but smaller sweep
    would leave criteria 8 and 10 averaging empty cells.
    """
    differ = [key for key, want in HEADLINE_GRID.items() if manifest[key] != want]
    return f"{', '.join(differ)} differ from the headline grid" if differ else None


def sweep_coverage_problem(rows, manifest):
    """None if `rows` hold exactly one ok row per cell of the manifest's grid.

    The grid is architectures x levels x trial_seeds (at the manifest's
    optimizer and activation); otherwise a message naming every missing,
    duplicate, failed or unexpected (arch, level, seed) cell.
    """
    setting = (manifest["optimizer"]["algorithm"], manifest["activation"])

    def label(arch, technique, k, optimizer, activation, seed):
        level = f"gaussian{k}" if technique == "gaussian" else technique
        other = ("" if (optimizer, activation) == setting
                 else f" ({optimizer}/{activation})")
        return f"{arch}/{level}/seed {seed}{other}"

    expected = {("-".join(str(w) for w in a["hidden_widths"]), tech, k, *setting, seed)
                for a in manifest["architectures"]
                for tech, k in manifest["levels"]
                for seed in manifest["trial_seeds"]}
    seen = defaultdict(list)
    for row in rows:
        seen[(row["arch"], row["augmentation"], row["k"], row["optimizer"],
              row["activation"], row["seed"])].append(row["status"])
    kinds = {
        "missing": [c for c in expected if c not in seen],
        "duplicate": [c for c in seen if len(seen[c]) > 1],
        "failed": [c for c in seen if len(seen[c]) == 1 and seen[c][0] != "ok"],
        "unexpected": [c for c in seen if c not in expected],
    }
    parts = [f"{kind} {len(cells)}: "
             + ", ".join(label(*cell) for cell in sorted(cells))
             for kind, cells in kinds.items() if cells]
    return "; ".join(parts) or None


def level_means(rows, column="rms_test_mev"):
    """(arch, level) -> list of per-seed values, adam/relu rows only."""
    acc = defaultdict(list)
    for row in rows:
        if row["status"] != "ok" or row["optimizer"] != "adam" \
                or row["activation"] != "relu" or row[column] is None:
            continue
        level = (f"gaussian{row['k']}" if row["augmentation"] == "gaussian"
                 else row["augmentation"])
        acc[(row["arch"], level)].append(row[column])
    return acc


class TestSweepCoverageCheck:
    def test_missing_and_failed_cells_are_named(self, tmp_path, split,
                                                 extrapolation):
        archs, seeds = ARCH_SETTINGS[:2], [0, 1]
        levels = [("none", 0), ("gaussian", 5)]
        write_manifest(tmp_path / "manifest.json", split=split,
                       extrapolation=extrapolation, seeds=seeds, levels=levels,
                       architectures=archs, optimizer=OptimizerConfig(),
                       activation="relu", noise_seed=0)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        table = ResultTable()
        for spec in build_trial_specs(archs, levels, seeds, OptimizerConfig(),
                                      "relu", 0):
            table.add(TrialResult(spec, 2.0, 3.0, 0.5, "ok"))
        path = tmp_path / "results.csv"
        table.write_csv(path)
        assert sweep_coverage_problem(read_results_csv(path), manifest) is None

        rows = read_results_csv(path)
        dropped = rows.pop(0)
        rows[0].update(rms_test_mev=None, rms_extrap_mev=None, final_train_loss=None,
                       status="failed: diverged")  # as read_results_csv reads a failed trial
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(dropped))
            writer.writeheader()
            writer.writerows(rows)
        problem = sweep_coverage_problem(read_results_csv(path), manifest)

        def cell(row):
            level = (f"gaussian{row['k']}" if row["augmentation"] == "gaussian"
                     else row["augmentation"])
            return f"{row['arch']}/{level}/seed {row['seed']}"
        assert problem == f"missing 1: {cell(dropped)}; failed 1: {cell(rows[0])}"

    def test_only_the_headline_grid_is_graded(self, tmp_path, split,
                                               extrapolation):
        def manifest(archs, levels, seeds):
            path = tmp_path / "manifest.json"
            write_manifest(path, split=split, extrapolation=extrapolation,
                           seeds=seeds, levels=levels, architectures=archs,
                           optimizer=OptimizerConfig(), activation="relu",
                           noise_seed=0)
            with open(path) as fh:
                return json.load(fh)

        headline = [("none", 0), ("gaussian", 5)]
        assert headline_grid_problem(
            manifest(ARCH_SETTINGS, headline, range(10))) is None
        assert headline_grid_problem(
            manifest(ARCH_SETTINGS[:2], headline, [0, 1])) == (
            "architectures, trial_seeds differ from the headline grid")
        assert headline_grid_problem(
            manifest(ARCH_SETTINGS, [("none", 0), ("gaussian", 2)], range(10))
        ) == "levels differ from the headline grid"


class TestHeadlineConfig:
    def test_config_resumes_the_committed_sweep(self, tmp_path, monkeypatch, capsys):
        # resumed from a copy of the committed trials, the committed config
        # rewrites every committed file of results/ byte for byte, untrained
        out = tmp_path / "results"
        shutil.copytree(os.path.join(RESULTS_DIR, "trials"), out / "trials")
        monkeypatch.chdir(ROOT)
        code = cli.main(["sweep", "--config", "configs/headline.ini", "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert code == 0, stderr
        assert stdout.count("(cached)") == 200
        written = sorted(p.name for p in out.iterdir() if p.is_file())
        committed = sorted(name for name in os.listdir(RESULTS_DIR)
                           if os.path.isfile(os.path.join(RESULTS_DIR, name)))
        assert {"results.csv", "manifest.json"} <= set(written)
        assert written == committed
        for name in written:
            with open(out / name, "rb") as fresh, \
                    open(os.path.join(RESULTS_DIR, name), "rb") as kept:
                assert fresh.read() == kept.read(), name


ARCH_LABELS = ["-".join(str(w) for w in widths) for widths, _, _ in ARCH_SETTINGS]


class TestCriterion7BaselineBracket:
    def test_32_32_baseline_mean(self, sweep_rows):
        values = level_means(sweep_rows)[("32-32", "none")]
        mean = float(np.mean(values))
        ok = len(values) == 10 and 1.2 <= mean <= 2.8
        report(7, ok, f"(32-32) baseline mean test rms {mean:.3f} MeV over "
                      f"{len(values)} seeds (bracket [1.2, 2.8])")


class TestCriterion8AugmentationBenefit:
    def test_gaussian5_at_least_8_of_10(self, sweep_rows):
        means = level_means(sweep_rows)
        improved = []
        for arch in ARCH_LABELS:
            base = float(np.mean(means[(arch, "none")]))
            aug = float(np.mean(means[(arch, "gaussian5")]))
            improved.append(aug <= base)
        detail = ", ".join(f"{a}:{'+' if i else '-'}"
                           for a, i in zip(ARCH_LABELS, improved))
        report(8, sum(improved) >= 8,
               f"gaussian(5) helped {sum(improved)}/10 architectures [{detail}]")


class TestCriterion9SeedStability:
    def test_32_16_8_std_shrinks(self, sweep_rows):
        means = level_means(sweep_rows)
        std_none = float(np.std(means[("32-16-8", "none")]))
        std_aug = float(np.std(means[("32-16-8", "gaussian5")]))
        report(9, std_aug < std_none,
               f"(32-16-8) across-seed std {std_none:.3f} -> {std_aug:.3f} MeV")


class TestCriterion10Extrapolation:
    def test_new_nuclei_at_least_8_of_10(self, sweep_rows):
        means = level_means(sweep_rows, "rms_extrap_mev")
        improved = []
        for arch in ARCH_LABELS:
            base = float(np.mean(means[(arch, "none")]))
            aug = float(np.mean(means[(arch, "gaussian5")]))
            improved.append(aug < base)
        detail = ", ".join(f"{a}:{'+' if i else '-'}"
                           for a, i in zip(ARCH_LABELS, improved))
        report(10, sum(improved) >= 8,
               f"extrapolation improved for {sum(improved)}/10 [{detail}]")


@pytest.mark.slow
class TestCriterion11Determinism:
    def test_rerun_matches_persisted_row(self, sweep_rows, split, extrapolation):
        spec = TrialSpec(network=NetworkSpec((32, 16, 8), "relu"),
                         train_config=TrainConfig(epochs=3500, batch_size=64, seed=0),
                         optimizer=OptimizerConfig(), technique="none", k=0)
        fresh = [str(x) for x in result_row(run_trial(spec, split, extrapolation))]
        # the row's text as persisted, which read_results_csv decodes
        with open(os.path.join(RESULTS_DIR, "results.csv"), newline="") as fh:
            persisted = next(row for row in csv.reader(fh)
                             if row[:6] == ["32-16-8", "none", "0", "adam", "relu", "0"])
        report(11, fresh == persisted,
               f"re-run row {fresh} vs persisted {persisted}")
