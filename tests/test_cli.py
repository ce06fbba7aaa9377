import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nucaug import ame, augment, cli, experiment, network, report
from nucaug.errors import ConfigurationError, DataIntegrityError, MassTableParseError
from nucaug.optimizers import OptimizerConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")
MASS16 = os.path.join(DATA, "mass16_synthetic.txt")
MASS20 = os.path.join(DATA, "mass20_synthetic.txt")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """``nucaug <argv>`` in a process of its own, which sees the real standard
    error: pytest collects numpy's warnings before they could reach it."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "nucaug.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def toy_records(n=40, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        z = 8 + i
        nn = z + int(rng.integers(0, 4))
        out.append(ame.NuclideRecord(z=z, n=nn, a=z + nn,
                                     be_total=8.0 * (z + nn) + rng.normal(0, 1),
                                     be_err=0.05, estimated=False))
    return out


@pytest.fixture
def records_csv(tmp_path):
    path = tmp_path / "records.csv"
    ame.write_records_csv(toy_records(), path)
    return str(path)


class TestIngest:
    def test_counts_and_output(self, tmp_path, capsys):
        out_csv = str(tmp_path / "ame2016.csv")
        code, out, _ = run(["ingest", MASS16, "--edition", "AME2016",
                            "--out-csv", out_csv], capsys)
        assert code == 0
        assert "filtered: 2408" in out
        assert len(ame.read_records_csv(out_csv)) == 2408

    def test_diff_reports_new_nuclei(self, tmp_path, capsys):
        old_csv = str(tmp_path / "old.csv")
        run(["ingest", MASS16, "--edition", "AME2016", "--out-csv", old_csv],
            capsys)
        new_csv = str(tmp_path / "new.csv")
        code, out, _ = run(["ingest", MASS20, "--edition", "AME2020",
                            "--diff", old_csv, "--out-csv", new_csv], capsys)
        assert code == 0
        assert "new: 71" in out
        assert len(ame.read_records_csv(new_csv)) == 71

    def test_custom_bounds(self, capsys):
        code, out, _ = run(["ingest", MASS16, "--edition", "AME2016",
                            "--z-min", "20", "--n-min", "20"], capsys)
        assert code == 0
        filtered = int(next(line.split()[1] for line in out.splitlines()
                            if line.startswith("filtered:")))
        assert 0 < filtered < 2408

    def test_bad_edition_is_usage_error(self, capsys):
        code, _, err = run(["ingest", MASS16, "--edition", "AME1993"], capsys)
        assert code == cli.EXIT_USAGE

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(["ingest", "/no/such/file", "--edition", "AME2016"],
                           capsys)
        assert code == cli.EXIT_DATA
        assert "data error" in err

    def test_record_rule_fault_names_its_line(self, tmp_path, capsys):
        lines = Path(MASS16).read_bytes().split(b"\n")
        record = lines[41]  # line 42, the first record: Z=1 N=2 A=3
        lines[41] = record[:14] + b"4".rjust(5) + record[19:]
        table = tmp_path / "mass16.txt"
        table.write_bytes(b"\n".join(lines))
        out_csv = tmp_path / "ame2016.csv"
        assert run(["ingest", str(table), "--edition", "AME2016", "--out-csv", str(out_csv)],
                   capsys) == (cli.EXIT_DATA, "",
                               "data error: line 42: A != Z + N for Z=1 N=2 A=4\n")
        assert not out_csv.exists()


class TestAugment:
    def test_gaussian(self, records_csv, tmp_path, capsys):
        out = str(tmp_path / "aug.csv")
        code, stdout, _ = run(["augment", records_csv, "--technique",
                               "gaussian", "--k", "2", "--out", out], capsys)
        assert code == 0
        assert "rows: 120" in stdout
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["technique"] == "gaussian" and manifest["k"] == 2

    def test_error_technique(self, records_csv, tmp_path, capsys):
        out = str(tmp_path / "aug.csv")
        code, stdout, _ = run(["augment", records_csv, "--technique", "error",
                               "--out", out], capsys)
        assert code == 0
        assert "rows: 120" in stdout  # 3n with no zero-uncertainty records

    def test_unknown_technique_usage_error(self, records_csv, tmp_path, capsys):
        code, _, _ = run(["augment", records_csv, "--technique", "mixup",
                          "--out", str(tmp_path / "x.csv")], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["--technique", "error", "--k", "7"], "error takes k = 0, got k=7"),
        (["--technique", "none", "--k", "7", "--noise-seed", "3"],
         "none takes k = 0, got k=7"),
    ])
    def test_k_only_for_gaussian(self, records_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "aug.csv"
        assert run(["augment", records_csv, *argv, "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [Path(records_csv)]

    def test_noise_seed_outside_the_philox_key(self, records_csv, tmp_path, capsys):
        out = tmp_path / "aug.csv"
        assert run(["augment", records_csv, "--technique", "gaussian", "--k", "2",
                    "--noise-seed", "18446744073709551616", "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "",
            "error: noise_seed must be an integer <= 18446744073709551615, "
            "got 18446744073709551616\n")
        assert list(tmp_path.iterdir()) == [Path(records_csv)]

    def test_out_of_memory_is_data_error(self, records_csv, tmp_path, capsys, monkeypatch):
        # numpy's MemoryError, without allocating the array
        message = "Unable to allocate 215. GiB for an array with shape (3000001, 2408)"

        def apply(*args):
            raise MemoryError(message)
        monkeypatch.setattr(augment, "apply", apply)
        out = tmp_path / "aug.csv"
        assert run(["augment", records_csv, "--technique", "gaussian", "--k", "3000000",
                    "--out", str(out)], capsys) == (
            cli.EXIT_DATA, "", f"data error: out of memory: {message}\n")
        assert list(tmp_path.iterdir()) == [Path(records_csv)]


# load_model's messages for a malformed loss history and malformed statistics
BAD_LOSS_HISTORY = "loss_history must be a nonempty list of finite floats >= 0"
BAD_STATS = ("input_mean, input_std and target_stats must each be 2 finite float64 numbers, "
             "with each std > 0")


class TestTrainEvaluate:
    def test_round_trip(self, records_csv, tmp_path, capsys):
        model = str(tmp_path / "model.npz")
        code, out, _ = run(["train", records_csv, "--arch", "16-8",
                            "--epochs", "200", "--batch", "8",
                            "--seed", "3", "--out", model], capsys)
        assert code == 0
        assert "final train MSE" in out
        assert os.path.exists(model)

        pred_csv = str(tmp_path / "pred.csv")
        code, out, _ = run(["evaluate", model, records_csv,
                            "--out", pred_csv], capsys)
        assert code == 0
        rms = float(out.split("rms: ")[1].split()[0])
        assert rms < 30.0
        with open(pred_csv) as fh:
            assert len(fh.readlines()) == 41

    def test_beta_out_of_range_is_usage_error(self, records_csv, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--beta1", "1.0", "--out", str(model)], capsys) == (
            cli.EXIT_USAGE, "", "error: beta1 must be in [0, 1), got 1.0\n")
        assert not model.exists()

    def test_betas_reach_the_optimizer(self, records_csv, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert run(["train", records_csv, "--arch", "8-4", "--epochs", "20", "--batch", "8",
                    "--seed", "2", "--beta1", "0.5", "--beta2", "0.5",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        trained = network.load_model(model)

        def direct(opt):
            return network.train(network.NetworkSpec((8, 4)),
                                 augment.identity_set(ame.read_records_csv(records_csv)),
                                 network.TrainConfig(20, 8, 2), opt)
        expected = direct(OptimizerConfig(beta1=0.5, beta2=0.5))
        assert trained.params.flat.tobytes() == expected.params.flat.tobytes()
        assert trained.loss_history == expected.loss_history
        assert trained.params.flat.tobytes() != direct(OptimizerConfig()).params.flat.tobytes()

    def test_train_on_augmented_csv(self, records_csv, tmp_path, capsys):
        aug = str(tmp_path / "aug.csv")
        run(["augment", records_csv, "--technique", "gaussian", "--k", "1",
             "--out", aug], capsys)
        model = str(tmp_path / "model.npz")
        code, _, _ = run(["train", aug, "--arch", "8-4", "--epochs", "20",
                          "--batch", "16", "--out", model], capsys)
        assert code == 0

    @pytest.mark.parametrize("content", [b"z,a\n8,16\n", b""])
    def test_evaluate_non_model_is_data_error(self, content, records_csv,
                                              tmp_path, capsys):
        model = tmp_path / "model.npz"
        model.write_bytes(content)
        code, _, err = run(["evaluate", str(model), records_csv], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_evaluate_matches_run_trial(self, tmp_path, capsys):
        # train then evaluate scores the test half as run_trial does
        split = ame.split_dataset(toy_records(60), 0.7, 0)
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        ame.write_records_csv(split.train, train_csv)
        ame.write_records_csv(split.test, test_csv)
        model = str(tmp_path / "model.npz")
        assert run(["train", str(train_csv), "--arch", "6-4", "--epochs", "30",
                    "--batch", "8", "--seed", "2", "--out", model], capsys)[0] == cli.EXIT_OK
        code, out, _ = run(["evaluate", model, str(test_csv)], capsys)
        spec = experiment.TrialSpec(network=network.NetworkSpec((6, 4), "relu"),
                                    train_config=network.TrainConfig(30, 8, seed=2),
                                    optimizer=OptimizerConfig(), technique="none", k=0)
        rms = experiment.run_trial(spec, split).rms_test
        assert (code, out) == (cli.EXIT_OK, f"rms: {rms:.6f} MeV over {len(split.test)} nuclei\n")

    @pytest.mark.parametrize("key", ["input_dim", "output_dim"])
    def test_evaluate_model_of_other_dims_is_data_error(self, key, records_csv, tmp_path,
                                                        capsys, edit_model_meta):
        model = tmp_path / "model.npz"
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        edit_model_meta(model, **{key: 3})
        dims = "input_dim 3 and output_dim 1" if key == "input_dim" else (
            "input_dim 2 and output_dim 3")
        code, out, err = run(["evaluate", str(model), records_csv], capsys)
        assert (code, out, err) == (
            cli.EXIT_DATA, "",
            f"data error: {model} is not a model file: {dims}, expected 2 and 1\n")

    @pytest.mark.parametrize("meta, message", [
        ({"format_version": 2}, "unsupported model format version 2"),
        ({"activation": "softplus"},
         "activation must be one of relu, tanh, sigmoid, got 'softplus'"),
        ({"hidden_widths": [0]}, "hidden widths must be integers >= 1, got (0,)"),
        ({"hidden_widths": [4.5]}, "hidden widths must be integers >= 1, got (4.5,)"),
        ({"hidden_widths": [True]}, "hidden widths must be integers >= 1, got (True,)"),
        ({"hidden_widths": [5]}, "flat vector must be float64 of length 21"),
        *(({"loss_history": history}, BAD_LOSS_HISTORY)
          for history in ("abc", 3, [], [1.0, -1.0], [1.0, None], [2], [float("nan")])),
    ], ids=["format_version", "activation", "width_0", "width_not_integer", "width_bool",
            "widths_not_the_vector", "history_text", "history_number", "history_empty",
            "history_negative", "history_null", "history_int", "history_nan"])
    def test_evaluate_model_of_bad_metadata_is_data_error(self, meta, message, records_csv,
                                                          tmp_path, capsys, edit_model_meta):
        model = tmp_path / "model.npz"
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        edit_model_meta(model, **meta)
        assert run(["evaluate", str(model), records_csv], capsys) == (
            cli.EXIT_DATA, "", f"data error: {model} is not a model file: {message}\n")

    @pytest.mark.parametrize("name, array, message", [
        ("input_mean", np.zeros(3), BAD_STATS),
        ("target_stats", np.array([1.0]), BAD_STATS),
        ("target_stats", np.array([]), BAD_STATS),
        ("input_mean", np.array(["8", "16"]), BAD_STATS),
        ("input_std", np.zeros(2), BAD_STATS),
        ("flat", np.full(17, np.inf), "flat vector must be finite"),  # arch 4
        ("flat", np.full(17, np.nan), "flat vector must be finite"),
        ("meta", np.frombuffer(b"[" * 100_000, dtype=np.uint8),
         "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ], ids=["mean_of_3", "target_stats_of_1", "target_stats_empty", "mean_of_text",
            "std_0", "flat_inf", "flat_nan", "meta_nested_too_deep"])
    def test_evaluate_model_of_bad_arrays_is_data_error(self, name, array, message,
                                                        records_csv, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        with np.load(model) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(model, **{**arrays, name: array})
        assert run(["evaluate", str(model), records_csv], capsys) == (
            cli.EXIT_DATA, "", f"data error: {model} is not a model file: {message}\n")

    def test_evaluate_of_overflowing_predictions_is_one_line(self, records_csv, tmp_path,
                                                            capsys):
        # finite parameters whose predictions overflow: no numpy warning
        model = tmp_path / "model.npz"
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        with np.load(model) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(model, **{**arrays, "flat": np.full_like(arrays["flat"], 1e300)})
        n = len(ame.read_records_csv(records_csv))
        assert run(["evaluate", str(model), records_csv], capsys) == (
            cli.EXIT_DATA, "", f"data error: rms over {n} nuclei is not finite: inf\n")

    def test_bad_arch_usage_error(self, records_csv, tmp_path, capsys):
        code, _, _ = run(["train", records_csv, "--arch", "8-x", "--epochs",
                          "5", "--batch", "8",
                          "--out", str(tmp_path / "m.npz")], capsys)
        assert code == cli.EXIT_USAGE

    def test_negative_seed_usage_error(self, records_csv, tmp_path, capsys):
        code, _, err = run(["train", records_csv, "--arch", "4", "--epochs", "1",
                            "--batch", "8", "--seed", "-1",
                            "--out", str(tmp_path / "m.npz")], capsys)
        assert (code, err) == (cli.EXIT_USAGE, "error: seed must be >= 0, got -1\n")
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_usage_error(self, lr, tmp_path, capsys):
        # no training CSV: the setting is rejected before a table is read
        assert run(["train", str(tmp_path / "absent.csv"), "--arch", "4", "--epochs", "1",
                    "--batch", "8", "--lr", lr, "--out", str(tmp_path / "m.npz")], capsys) == (
            cli.EXIT_USAGE, "", f"error: learning_rate must be a finite number > 0, got {lr}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("energies, options, message", [
        # spread past float64 once squared
        (("1e300", "1"), ["--epochs", "3"], "non-finite training loss at epoch 1"),
        # every step overflows
        (("127.619", "131.762"), ["--epochs", "3", "--lr", "1e200"],
         "non-finite training loss at epoch 2"),
        # the loss is taken before the one step, which overflows
        (("127.619", "131.762"), ["--epochs", "1", "--lr", "1e308", "--optimizer", "rmsprop"],
         "non-finite parameters after epoch 1"),
    ])
    def test_overflow_is_one_line(self, tmp_path, energies, options, message):
        path = tmp_path / "records.csv"
        path.write_text(",".join(ame.CSV_COLUMNS) + "\n"
                        + f"8,8,16,{energies[0]},0.01,0\n8,9,17,{energies[1]},0.01,0\n")
        proc = run_process(["train", str(path), "--arch", "4", "--batch", "8", *options,
                            "--out", str(tmp_path / "m.npz")])
        assert proc.returncode == cli.EXIT_DATA
        assert proc.stderr == f"data error: {message}\n"

    def test_evaluate_overflow_is_one_line(self, records_csv, tmp_path, capsys):
        model = str(tmp_path / "model.npz")
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", model], capsys)[0] == cli.EXIT_OK
        # the squared errors overflow
        path = tmp_path / "huge.csv"
        path.write_text(",".join(ame.CSV_COLUMNS) + "\n8,8,16,1e300,0.01,0\n8,9,17,1,0.01,0\n")
        pred = tmp_path / "pred.csv"
        proc = run_process(["evaluate", model, str(path), "--out", str(pred)])
        assert proc.returncode == cli.EXIT_DATA
        assert proc.stderr == "data error: rms over 2 nuclei is not finite: inf\n"
        assert proc.stdout == "" and not pred.exists()

    @pytest.mark.parametrize("header", [ame.CSV_COLUMNS, augment.AUGMENTED_CSV_COLUMNS])
    def test_csv_not_utf8_is_data_error(self, tmp_path, capsys, header):
        row = "8,8,16,127.619,0.01,0" + (",original" if "origin" in header else "")
        path = tmp_path / "records.csv"
        path.write_bytes(f"{','.join(header)}\n{row}\n".encode() + b"\xff")
        for argv in (["augment", str(path), "--technique", "error",
                      "--out", str(tmp_path / "aug.csv")],
                     ["train", str(path), "--arch", "4", "--epochs", "1",
                      "--batch", "8", "--out", str(tmp_path / "m.npz")]):
            code, _, err = run(argv, capsys)
            assert code == cli.EXIT_DATA
            assert err == f"data error: {path} is not UTF-8 text\n"


class TestEmptyInputs:
    """`ingest --diff` writes a CSV with no records when no nucleus is new; it
    reads back, and a command that needs records exits 2 naming the file."""

    @pytest.fixture
    def empty_csv(self, tmp_path, capsys):
        old = str(tmp_path / "old.csv")
        assert run(["ingest", MASS16, "--edition", "AME2016", "--out-csv", old],
                   capsys)[0] == cli.EXIT_OK
        path = tmp_path / "empty.csv"
        code, out, _ = run(["ingest", MASS16, "--edition", "AME2016", "--diff", old,
                            "--out-csv", str(path)], capsys)
        assert code == cli.EXIT_OK and "new: 0" in out
        assert ame.read_records_csv(path) == []
        return path

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{model}", "{csv}"],
        ["train", "{csv}", "--arch", "4", "--epochs", "1", "--batch", "8",
         "--out", "{tmp}/m.npz"],
        ["train", "{augmented}", "--arch", "4", "--epochs", "1", "--batch", "8",
         "--out", "{tmp}/m.npz"],
        *(["augment", "{csv}", "--technique", technique, "--k", "2",
           "--out", "{tmp}/aug.csv"] for technique in augment.TECHNIQUES),
    ], ids=["evaluate", "train", "train_augmented", "augment_none", "augment_error",
            "augment_gaussian"])
    def test_no_records_is_data_error(self, argv, empty_csv, records_csv, tmp_path,
                                      capsys):
        model = str(tmp_path / "model.npz")
        assert run(["train", records_csv, "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", model], capsys)[0] == cli.EXIT_OK
        augmented = tmp_path / "augmented.csv"
        augmented.write_text(",".join(augment.AUGMENTED_CSV_COLUMNS) + "\n")
        paths = {"model": model, "csv": empty_csv, "augmented": augmented, "tmp": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        code, out, err = run(argv, capsys)
        named = argv[2] if argv[0] == "evaluate" else argv[1]
        assert (code, out, err) == (cli.EXIT_DATA, "",
                                    f"data error: {named} holds no records\n")
        assert not (tmp_path / "aug.csv").exists() and not (tmp_path / "m.npz").exists()


class TestUnreadablePaths:
    """A path that cannot be opened as the command needs is a data error:
    one line on standard error and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "{dir}", "--edition", "AME2016"],
        ["augment", "{dir}", "--technique", "error", "--out", "{tmp}/aug.csv"],
        ["train", "{dir}", "--arch", "4", "--epochs", "1", "--batch", "8",
         "--out", "{tmp}/m.npz"],
        ["evaluate", "{dir}", "{tmp}/x.csv"],
        ["report", "{dir}", "--figure", "table2", "--out", "{tmp}"],
        ["report", "--figure", "fig2", "--records", "{dir}", "--nuclide", "8,16",
         "--out", "{tmp}"],
        # outputs
        ["ingest", MASS16, "--edition", "AME2016", "--out-csv", "{dir}"],
        ["augment", "{records}", "--technique", "error", "--out", "{dir}"],
        ["report", "--figure", "fig2", "--records", "{records}", "--nuclide", "8,19",
         "--out", "{file}"],
        ["sweep", "--config", "{config}", "--out", "{file}"],
    ])
    def test_is_data_error(self, argv, records_csv, tmp_path, capsys):
        directory = tmp_path / "dir"
        directory.mkdir()
        file = tmp_path / "file"
        file.write_text("")
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20))
        argv = [arg.format(dir=directory, tmp=tmp_path, records=records_csv, file=file,
                           config=config) for arg in argv]
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: [Errno ") and err.count("\n") == 1
        assert f"{directory}" in err or f"{file}" in err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--config", str(tmp_path), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert err == f"error: cannot read config file {tmp_path}: Is a directory\n"


SWEEP_CONFIG = """\
[data]
ame2016 = {mass16}
ame2020 = {mass20}

[split]
ratio = 0.7
seed = 5

[sweep]
architectures = 6-4:25:64
levels = none gaussian1
seeds = 0 1

[optimizer]
algorithm = adam
"""


class TestRejectedCommandMakesNoDirectory:
    """A command that fails before its first write leaves no output directory."""

    @pytest.mark.parametrize("argv, exit_code", [
        (["report", "--figure", "fig2", "--records", "{records}", "--nuclide", "8,19",
          "--noise-seed", "18446744073709551616", "--out", "{out}"], cli.EXIT_USAGE),
        (["sweep", "--config", "{config}", "--out", "{out}"], cli.EXIT_DATA),
    ], ids=["report_bad_noise_seed", "sweep_missing_table"])
    def test_no_output_directory(self, argv, exit_code, records_csv, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=tmp_path / "missing.txt", mass20=MASS20))
        out = tmp_path / "out"
        argv = [arg.format(records=records_csv, config=config, out=out) for arg in argv]
        code, _, err = run(argv, capsys)
        assert code == exit_code and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["sweep", "--config", "{config}", "--out", "{out}"],
         "bad config [sweep] architectures: bad architecture token '32-16-8:3'; "
         "expected WIDTHS:EPOCHS:BATCH like 32-16-8:3500:64"),
        (["report", "--figure", "fig2", "--out", "{out}"],
         "fig2 needs --records and --nuclide Z,A"),
        (["report", "--figure", "fig2", "--records", "{records}", "--nuclide", "82-208",
          "--out", "{out}"], "bad --nuclide '82-208'; expected Z,A like 82,208"),
        (["report", "--figure", "table1", "--out", "{out}"],
         "figure 'table1' needs a results CSV"),
    ], ids=["sweep_bad_architecture", "fig2_no_nuclide", "fig2_bad_nuclide",
            "report_no_results_csv"])
    def test_usage_error_line(self, argv, line, records_csv, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20)
                          .replace("6-4:25:64", "32-16-8:3"))
        out = tmp_path / "out"
        argv = [arg.format(records=records_csv, config=config, out=out) for arg in argv]
        assert run(argv, capsys) == (cli.EXIT_USAGE, "", f"error: {line}\n")
        assert not out.exists()


@pytest.mark.slow
class TestSweep:
    def test_sweep_and_resume(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20))
        out_dir = tmp_path / "out"
        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", str(out_dir)], capsys)
        assert code == 0
        assert "completed 4 trials, 0 failed" in stdout
        results = (out_dir / "results.csv").read_text()
        assert results.count("\n") == 5  # header + 4 trials
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["n_train"] == 1685
        assert manifest["n_extrapolation"] == 71
        assert manifest["augmentation_sizes"]["gaussian_1"] == 3370

        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", str(out_dir)], capsys)
        assert code == 0
        assert stdout.count("(cached)") == 4
        assert (out_dir / "results.csv").read_text() == results

        # a truncated cache file is a miss: only that trial runs again
        victim = sorted((out_dir / "trials").iterdir())[0]
        text = victim.read_text()
        victim.write_text(text[:len(text) // 2])
        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", str(out_dir)], capsys)
        assert code == 0
        assert stdout.count("(cached)") == 3
        assert (out_dir / "results.csv").read_text() == results
        rewritten = json.loads(victim.read_text())
        assert rewritten.pop("wall_time") > 0
        assert rewritten == {k: v for k, v in json.loads(text).items()
                             if k != "wall_time"}

    def test_readme_command_block_runs_in_order(self, tmp_path, monkeypatch, capsys):
        # from the repository's data and configs, into a new demo/ directory
        readme = Path(ROOT, "README.md").read_text()
        section = readme[readme.index("## Command line\n"):]
        block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
        for name in ("data", "configs"):
            (tmp_path / name).symlink_to(Path(ROOT, name).resolve())
        monkeypatch.chdir(tmp_path)
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["mkdir"]:
                os.mkdir(argv[1])
            elif argv:
                assert argv[0] == "nucaug"
                code, _, err = run(argv[1:], capsys)
                assert (code, err) == (cli.EXIT_OK, ""), line
        assert (tmp_path / "demo" / "figures" / "fig4.csv").read_text().count("\n") == 10

    def test_diverged_trials_exit_3_and_resume_from_cache(self, tmp_path):
        # every trial diverges: the run exits 3 with empty metrics in
        # results.csv and null ones in strict-JSON cache files, and a resume
        # reads both trials from the cache, exits 3 and writes the same rows
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20)
                          .replace("architectures = 6-4:25:64", "architectures = 4:3:512")
                          .replace("levels = none gaussian1", "levels = none")
                          .replace("seeds = 0 1", "seeds = 0..1")
                          + "learning_rate = 1e80\n")
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
        first = run_process(argv)
        assert first.returncode == cli.EXIT_TRIAL_FAILURES, first.stderr
        assert "completed 2 trials, 2 failed" in first.stdout
        results = (tmp_path / "out" / "results.csv").read_text()
        rows = experiment.read_results_csv(tmp_path / "out" / "results.csv")
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            assert row["status"].startswith("failed: ")
            assert row["rms_test_mev"] is row["rms_extrap_mev"] is row["final_train_loss"] is None

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        files = sorted((tmp_path / "out" / "trials").glob("*.json"))
        assert len(files) == 2
        for path in files:
            payload = json.loads(path.read_text(), parse_constant=no_constant)
            assert payload["rms_test"] is payload["final_train_loss"] is None

        again = run_process(argv)
        assert again.returncode == cli.EXIT_TRIAL_FAILURES, again.stderr
        assert again.stdout.count("(cached)") == 2
        assert (tmp_path / "out" / "results.csv").read_text() == results

    def test_bad_trial_spec_fails_before_training(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        text = SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20)
        config.write_text(text.replace("levels = none gaussian1",
                                       "levels = none gaussian0"))
        out_dir = tmp_path / "out"
        code, _, err = run(["sweep", "--config", str(config),
                            "--out", str(out_dir)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(out_dir.glob("trials/*.json"))

    def test_missing_config_key(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(f"[data]\n" f"ame2016 = {MASS16}\n")
        code, _, err = run(["sweep", "--config", str(config),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE


class TestUsableCpus:
    def test_falls_back_where_the_os_cannot_say(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_affinity_where_available(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
        assert cli._usable_cpus() == 2


class TestSweepConfig:
    VALID = SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20)

    def test_readme_config_loads(self, tmp_path):
        readme = Path(ROOT, "README.md").read_text()
        block = re.search(r"^\[data\]$.*?^\[optimizer\]$[^`]*", readme,
                          re.M | re.S).group(0)
        config = tmp_path / "sweep.ini"
        config.write_text(block)
        data, split, sweep, opt = cli._load_sweep_config(str(config))
        assert data["ame2016"] == "data/mass16_synthetic.txt"
        assert split == {"ratio": 0.7, "seed": 5}
        assert sweep["architectures"] == experiment.ARCH_SETTINGS
        assert sweep["levels"] == [("none", 0), ("error", 0), ("gaussian", 1),
                                   ("gaussian", 5)]
        assert sweep["seeds"] == list(range(10))
        assert opt.algorithm == "adam"

    def test_optimizer_section_defaults_to_optimizer_config(self, tmp_path):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID[:self.VALID.index("[optimizer]")])
        assert "[optimizer]" not in config.read_text()
        assert cli._load_sweep_config(str(config))[3] == OptimizerConfig()

    @pytest.mark.parametrize("old, new", [
        ("levels = none gaussian1", "levels = gaussian"),
        ("seeds = 0 1", "seeds = a..b"),
        ("ratio = 0.7", "ratio = abc"),
        ("[data]", "ratio = 0.7\n[data]"),
        ("seeds = 0 1", "seeds = 0 1\nseeds = 2"),
        ("seeds = 0 1", "seeds = 0 1\nstandardize = false"),
        ("[optimizer]", "[optimiser]"),
        ("algorithm = adam", "algorithm = adam\nlearning_rate = 5%"),
        ("levels = none gaussian1", "levels = none gaussian1 x"),
        ("levels = none gaussian1", "levels = none gaussianx"),
        ("seed = 5", "seed = -1"),
        ("seeds = 0 1", "seeds = -1"),
        ("seeds = 0 1", "seeds = 0 0"),
        ("seeds = 0 1", "seeds = 0 5..3"),
        ("seeds = 0 1", "seeds ="),
        ("levels = none gaussian1", "levels = none gaussian1 none"),
        ("architectures = 6-4:25:64", "architectures = 6-4:25:64 6-4:30:32"),
        ("architectures = 6-4:25:64", "architectures = 0:25:64"),
        ("seeds = 0 1", "seeds = 0 1\nnoise_seed = 18446744073709551616"),
        ("levels = none gaussian1", "levels = gaussian4294967296"),
        pytest.param(f"ame2016 = {MASS16}", "ame2016 =", id="ame2016-empty"),
        pytest.param(f"ame2020 = {MASS20}", "ame2020 =", id="ame2020-empty"),
        pytest.param(f"ame2016 = {MASS16}", "ame2016 = a\0b", id="ame2016-nul"),
    ])
    def test_bad_config_is_one_line_usage_error(self, old, new, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID.replace(old, new, 1))
        code, _, err = run(["sweep", "--config", str(config),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("trials/*.json"))

    @pytest.mark.parametrize("seeds, message", [
        ("0..99999999999999999999", "seed range '0..99999999999999999999' is too long"),
        ("0..1..2", "seed range '0..1..2' is not LO..HI"),
    ])
    def test_bad_seed_range_is_one_line_before_any_table(self, seeds, message, tmp_path,
                                                         capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID.replace("seeds = 0 1", f"seeds = {seeds}")
                          .replace(MASS16, str(tmp_path / "absent.txt")))
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(config), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: bad config [sweep] seeds: {message}\n")
        assert not out.exists()

    def test_split_without_training_records_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID.replace("ratio = 0.7", "ratio = 0.0001"))
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(config), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "",
            "error: split ratio 0.0001 leaves no training records of 2408\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("learning_rate = 0", "learning_rate must be a finite number > 0, got 0.0"),
        ("learning_rate = nan", "learning_rate must be a finite number > 0, got nan"),
        ("learning_rate = inf", "learning_rate must be a finite number > 0, got inf"),
        ("epsilon = -1e-8", "epsilon must be a finite number > 0, got -1e-08"),
        ("epsilon = nan", "epsilon must be a finite number > 0, got nan"),
        ("epsilon = inf", "epsilon must be a finite number > 0, got inf"),
        ("beta2 = 1", "beta2 must be in [0, 1), got 1.0"),
        ("algorithm = sgd", "optimizer must be one of adam, nadam, adamax, rmsprop, got 'sgd'"),
    ])
    def test_optimizer_fault_names_its_section_and_value(self, line, message, tmp_path,
                                                         capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID.replace("algorithm = adam", line))
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(config), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: bad config [optimizer]: {message}\n")
        assert not out.exists()

    LINES = st.one_of(
        st.sampled_from(["[data]", "[split]", "[sweep]", "[optimizer]",
                         "[DEFAULT]", "[", "  continued"]),
        st.builds("{} = {}".format,
                  st.sampled_from(["ame2016", "z_min", "ratio", "seed", "architectures",
                                   "levels", "seeds", "noise_seed", "activation",
                                   "algorithm", "beta1", "standardize"]),
                  st.text(max_size=8)),
        st.text(max_size=20),
    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(LINES, max_size=12))
    def test_any_text_loads_or_is_usage_error(self, tmp_path_factory, lines):
        config = tmp_path_factory.getbasetemp() / "fuzz.ini"
        config.write_text("\n".join(lines), encoding="utf-8")
        try:
            cli._load_sweep_config(str(config))
        except ConfigurationError:
            pass

    NO_SLASH = st.text().filter(lambda text: "/" not in text)

    @settings(max_examples=100, deadline=None)
    @given(NO_SLASH, NO_SLASH)
    @example("", "")
    @example("a\0b", "a\0b")
    def test_any_data_path_is_one_line_error(self, tmp_path_factory, ame2016, ame2020):
        # run from an empty directory with no "/" in either path, so no path
        # names a table or a device: every sweep stops before OUT is made
        base = tmp_path_factory.getbasetemp()
        config = base / "data_fuzz.ini"
        config.write_text(self.VALID.replace(MASS16, ame2016).replace(MASS20, ame2020),
                          encoding="utf-8")
        cwd = base / "data_fuzz_cwd"
        cwd.mkdir(exist_ok=True)
        err, home = io.StringIO(), os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(["sweep", "--config", str(config), "--out", "OUT"])
        finally:
            os.chdir(home)
        assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert not list(cwd.iterdir())


def loads_training_csv(path) -> bool:
    """True if `nucaug train` reads the CSV into rows of finite energies,
    False if its reader rejects it with one of the package's data errors;
    any other exception, or a non-finite energy, fails the calling test."""
    try:
        rows = cli._load_training_rows(path).rows
    except (MassTableParseError, DataIntegrityError):
        return False
    assert np.isfinite(rows["energy"]).all()
    return True


def csv_record(z, n, be, err, estimated, origin):
    """A row whose fields have the right types; its values may still be
    negative, non-finite, huge or inconsistent."""
    return f"{z},{n},{z + n},{be!r},{err!r},{estimated}" + (f",{origin}" if origin else "")


CSV_JUNK = st.one_of(
    st.lists(st.one_of(
        st.text(alphabet="0123456789 .-+eEinfa_#\"", max_size=24),
        st.sampled_from(["8", "16", "0", "1", "nan", "inf", "-inf", "1e999", "1e300",
                         "original", ""]),
        st.text(max_size=8)), max_size=9).map(",".join),
    st.text(max_size=40),
)
ENERGY = st.one_of(st.floats(0, 3000), st.floats())
RESULTS_HEADER = ",".join(experiment.RESULTS_COLUMNS)
NUMBER = st.one_of(ENERGY.map(repr), st.sampled_from(["0", "-1"]))
METRIC = st.one_of(st.just(""), NUMBER)
# (metrics, status): mostly as a sweep writes them, so that most texts reach
# a figure builder, and sometimes in any combination
METRICS_AND_STATUS = st.one_of(
    st.tuples(st.tuples(NUMBER, METRIC, NUMBER), st.just("ok")),
    st.just((("", "", ""), "failed: diverged")),
    st.tuples(st.tuples(METRIC, METRIC, METRIC), st.sampled_from(["ok", "failed: diverged"])))
# a results row of the right field types, though its values may make no
# sense (the reader rejects an arch of 0, a negative seed or metric, and
# metrics that do not match the status); the junk line of csv_texts and
# TestStrictResultsCsv supply the rows of other types. One optimizer and
# activation, so that most texts reach a figure builder.
RESULTS_RECORD = st.builds(
    lambda arch, technique, k, seed, metrics_status, epochs, batch: ",".join(map(str, [
        arch, technique, k, "adam", "relu", seed, *metrics_status[0], epochs, batch,
        metrics_status[1]])),
    st.sampled_from(["128", "32-16-8", "32-32", "0"]),
    st.sampled_from(["none", "error", "gaussian"]), st.integers(0, 6),
    st.one_of(st.integers(0, 9), st.integers()), METRICS_AND_STATUS,
    st.integers(1, 5000), st.sampled_from([32, 64]))


@st.composite
def csv_texts(draw):
    """A canonical, augmented, results or other header, then records of the
    header's width, with a junk line among them half of the time."""
    header = draw(st.sampled_from([",".join(ame.CSV_COLUMNS),
                                   ",".join(augment.AUGMENTED_CSV_COLUMNS),
                                   RESULTS_HEADER, None]))
    origin = (st.just("") if header == ",".join(ame.CSV_COLUMNS)
              else st.sampled_from(["original", "gauss_1", '"x,y"']))
    record = st.builds(csv_record, st.one_of(st.integers(0, 120), st.integers()),
                       st.integers(0, 180), ENERGY, ENERGY, st.sampled_from([0, 1]), origin)
    if header == RESULTS_HEADER:
        record = RESULTS_RECORD
    elif header is None:
        header = draw(CSV_JUNK)
    lines = draw(st.lists(record, max_size=6))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(CSV_JUNK))
    return "\n".join([header, *lines]) + "\n"


RESULTS_ROW = "32-16-8,none,0,adam,relu,0,2.0,2.5,0.1,3500,64,ok"
ERROR_ROW = RESULTS_ROW.replace(",none,", ",error,")
# two baseline rows whose mean overflows, and an error row, for table1
OVERFLOWING_MEAN = (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',1.7e308,')}\n"
                    f"{RESULTS_ROW.replace(',relu,0,2.0,', ',relu,1,1.7e308,')}\n{ERROR_ROW}\n")


class TestCsvReaderFuzz:
    """Any text given to `nucaug augment` (canonical reader), `nucaug train`
    (canonical or augmented reader) and `nucaug report` (results reader)
    loads, with finite energies for the first two, or the command exits 1 or
    2 with one line on standard error; `report` on a text under the results
    header exits 0 or 2, as its rows hold one optimizer and activation."""

    @given(text=csv_texts())
    # results that once got past the reader or the reports: an arch of 0, a
    # zero baseline, a k that no sweep writes and a mean that overflows
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace('32-16-8', '0')}\n"
                  f"{ERROR_ROW.replace('32-16-8', '0')}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',0.0,')}\n{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',none,0,', ',none,3,')}\n"
                  f"{RESULTS_ROW}\n")
    @example(text=OVERFLOWING_MEAN)
    # rows that no sweep writes, which the reports once dropped without a word
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',relu,0,', ',relu,-3,')}\n"
                  f"{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',3500,', ',0,')}\n{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',64,', ',-64,')}\n{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',adam,', ',sgd,')}\n"
                  f"{ERROR_ROW.replace(',adam,', ',sgd,')}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',relu,', ',softplus,')}\n"
                  f"{ERROR_ROW.replace(',relu,', ',softplus,')}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW}\n"
                  f"{RESULTS_ROW.replace(',relu,0,2.0,2.5,0.1,', ',relu,1,,,,')}\n{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',ok', ',banana')}\n{ERROR_ROW}\n")
    @example(text=f"{RESULTS_HEADER}\n{RESULTS_ROW}\n"
                  f"{RESULTS_ROW.replace(',relu,0,', ',relu,1,').replace(',ok', ',failed: x')}\n"
                  f"{ERROR_ROW}\n")
    @settings(max_examples=150, deadline=None)
    def test_any_text(self, tmp_path_factory, text):
        base = tmp_path_factory.getbasetemp()
        path = base / "fuzz.csv"
        path.write_text(text, encoding="utf-8")

        try:
            records = ame.read_records_csv(path)
        except (MassTableParseError, DataIntegrityError):
            records = None
        else:
            assert all(math.isfinite(r.be_total) and math.isfinite(r.be_err)
                       for r in records)
        loaded = loads_training_csv(path)
        try:
            results = experiment.read_results_csv(path)
        except (MassTableParseError, DataIntegrityError):
            results = None

        for argv, ok in (
                (["augment", str(path), "--technique", "error",
                  "--out", str(base / "fuzz_aug.csv")],
                 bool(records) and len({r.key for r in records}) == len(records)),
                (["train", str(path), "--arch", "4", "--epochs", "1", "--batch", "8",
                  "--out", str(base / "fuzz_model.npz")], loaded),
                *((["report", str(path), "--figure", figure, "--out", str(base)],
                   results is not None) for figure in ("table1", "table2", "fig4"))):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
                assert stderr.getvalue().count("\n") == 1
            if argv[0] == "report" and text.startswith(RESULTS_HEADER + "\n"):
                assert code in (cli.EXIT_OK, cli.EXIT_DATA)
            if not ok:
                assert code != cli.EXIT_OK
            elif argv[0] == "augment":
                assert code == cli.EXIT_OK


class TestStrictResultsCsv:
    """`nucaug report` reads the results CSV strictly: anything but the
    results header, rows of its width, integer k, seed >= 0, epochs and
    batch >= 1, the package's optimizers and activations, metrics that are
    empty or numbers, a status of ok or failed: <reason>, and metrics that
    match the status is a data error naming the line."""

    @pytest.mark.parametrize("text, message", [
        (",".join(ame.CSV_COLUMNS) + "\n8,8,16,127.619,0.01,0\n",
         f"line 1: unexpected CSV header {ame.CSV_COLUMNS}"),
        ("", "line 1: unexpected CSV header None"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\n32-16-8,none,0,adam\n",
         "line 3: 4 fields, expected 12"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW},x\n", "line 2: 13 fields, expected 12"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',none,0,', ',gaussian,x,')}\n",
         "line 2: non-numeric k field 'x'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',relu,0,', ',relu,1.0,')}\n",
         "line 2: non-numeric seed field '1.0'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',2.0 MeV,')}\n",
         "line 2: non-numeric rms_test_mev field '2.0 MeV'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',3500,', ',3.5e3,')}\n",
         "line 2: non-numeric epochs field '3.5e3'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',inf,').replace(',3500,', ',x,')}\n",
         "line 2: non-numeric epochs field 'x'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace('32-16-8', '32-16-')}\n",
         "line 2: non-numeric arch field '32-16-'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\n{RESULTS_ROW.replace(',none,', ',mixup,')}\n",
         "line 3: unknown augmentation technique 'mixup'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace('32-16-8', '32-0-8')}\n",
         "line 2: hidden widths must be integers >= 1, got (32, 0, 8)"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',-1,')}\n",
         "line 2: rms_test_mev field '-1.0': a metric must not be negative"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',0.1,', ',-inf,')}\n",
         "line 2: final_train_loss field '-inf': a metric must not be negative"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\n{RESULTS_ROW.replace(',none,0,', ',none,3,')}\n",
         "line 3: none takes k = 0, got k=3"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',none,0,', ',error,-1,')}\n",
         "line 2: error takes k = 0, got k=-1"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',none,0,', ',gaussian,0,')}\n",
         "line 2: gaussian takes k >= 1, got k=0"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',none,0,', ',gaussian,4294967296,')}\n",
         "line 2: gaussian takes k <= 4294967295, got k=4294967296"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',relu,0,', ',relu,-3,')}\n",
         "line 2: seed must be >= 0, got -3"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW}\n{RESULTS_ROW.replace(',3500,', ',0,')}\n",
         "line 3: epochs must be >= 1, got 0"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',64,', ',-64,')}\n",
         "line 2: batch_size must be >= 1, got -64"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',adam,', ',sgd,')}\n",
         "line 2: optimizer must be one of adam, nadam, adamax, rmsprop, got 'sgd'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',relu,', ',softplus,')}\n",
         "line 2: activation must be one of relu, tanh, sigmoid, got 'softplus'"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',ok', ',banana')}\n",
         "line 2: status field 'banana': expected ok or failed: <reason>"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',ok', ',failed:x')}\n",
         "line 2: status field 'failed:x': expected ok or failed: <reason>"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,2.5,0.1,', ',,,,')}\n",
         "line 2: an ok trial needs a rms_test_mev"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',0.1,', ',,')}\n",
         "line 2: an ok trial needs a final_train_loss"),
        (f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',ok', ',failed: x')}\n",
         "line 2: a failed trial has no rms_test_mev, got '2.0'"),
        (f"{RESULTS_HEADER}\n32-16-8,none,0,adam,relu,0,,,0.1,3500,64,failed: x\n",
         "line 2: a failed trial has no final_train_loss, got '0.1'"),
        # two faults each: the first in the order network, optimizer, training,
        # level, outcome is the one reported
        (f"{RESULTS_HEADER}\n"
         f"{RESULTS_ROW.replace('32-16-8', '32-0-8').replace(',adam,', ',sgd,')}\n",
         "line 2: hidden widths must be integers >= 1, got (32, 0, 8)"),
        (f"{RESULTS_HEADER}\n"
         f"{RESULTS_ROW.replace(',adam,', ',sgd,').replace(',3500,', ',0,')}\n",
         "line 2: optimizer must be one of adam, nadam, adamax, rmsprop, got 'sgd'"),
        (f"{RESULTS_HEADER}\n"
         f"{RESULTS_ROW.replace(',3500,', ',0,').replace(',none,', ',mixup,')}\n",
         "line 2: epochs must be >= 1, got 0"),
        (f"{RESULTS_HEADER}\n"
         f"{RESULTS_ROW.replace(',none,', ',mixup,').replace(',ok', ',banana')}\n",
         "line 2: unknown augmentation technique 'mixup'"),
    ], ids=["canonical", "empty", "short", "long", "k", "seed", "rms", "epochs",
            "inf_rms_then_epochs", "arch",
            "augmentation", "arch_width_0", "negative_rms", "negative_loss", "none_k3",
            "error_k_negative", "gaussian_k0", "gaussian_k_over", "negative_seed", "epochs_0",
            "negative_batch",
            "optimizer", "activation", "status", "status_no_space", "ok_no_metrics",
            "ok_no_loss", "failed_with_metrics", "failed_with_loss", "width_0_and_optimizer",
            "optimizer_and_epochs_0", "epochs_0_and_augmentation",
            "augmentation_and_status"])
    @pytest.mark.parametrize("figure", ["table1", "table2", "fig4", "fig6"])
    def test_bad_results_is_data_error(self, tmp_path, capsys, text, message, figure):
        path = tmp_path / "results.csv"
        path.write_text(text)
        with pytest.raises(MassTableParseError) as exc:
            experiment.read_results_csv(path)
        assert str(exc.value) == message
        code, _, err = run(["report", str(path), "--figure", figure,
                            "--out", str(tmp_path)], capsys)
        assert (code, err) == (cli.EXIT_DATA, f"data error: {message}\n")

    def test_zero_baseline_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n{RESULTS_ROW.replace(',2.0,', ',0.0,')}\n"
                        f"{ERROR_ROW}\n")
        code, _, err = run(["report", str(path), "--figure", "table1",
                            "--out", str(tmp_path)], capsys)
        assert (code, err) == (
            cli.EXIT_DATA, "data error: arch 32-16-8: baseline rms must be > 0, got 0.0\n")
        path.write_text(f"{RESULTS_HEADER}\n{RESULTS_ROW}\n{ERROR_ROW}\n")
        assert run(["report", str(path), "--figure", "table1",
                    "--out", str(tmp_path)], capsys)[0] == cli.EXIT_OK

    def test_overflowing_mean_is_one_line(self, tmp_path):
        # finite metrics whose mean is not; numpy would warn on standard error
        path = tmp_path / "results.csv"
        path.write_text(OVERFLOWING_MEAN)
        argv = ["report", str(path), "--figure", "table1", "--out", str(tmp_path)]
        proc = run_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            cli.EXIT_DATA, "",
            "data error: the mean rms_test_mev of cell (32-16-8, none, 0) is not finite\n")
        assert not (tmp_path / "table1.csv").exists()
        # a cell that holds inf already has an inf mean, as before
        path.write_text(OVERFLOWING_MEAN.replace(",1.7e308,", ",inf,", 1))
        proc = run_process(argv)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        assert (tmp_path / "table1.csv").read_text().splitlines()[1] == (
            "32-16-8,769,3500,64,inf,2.000,nan")

    def test_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_bytes(f"{RESULTS_HEADER}\n{RESULTS_ROW}\n".encode() + b"\xff")
        code, _, err = run(["report", str(path), "--figure", "table2",
                            "--out", str(tmp_path)], capsys)
        assert (code, err) == (cli.EXIT_DATA, f"data error: {path} is not UTF-8 text\n")

    def test_empty_metrics_and_blank_lines_read(self, tmp_path, capsys):
        # a failed trial has empty metrics, as has the extrapolation metric of
        # an ok trial in a sweep without AME2020; blank lines are skipped
        failed = "32-16-8,none,0,adam,relu,1,,,,3500,64,failed: diverged"
        no_extrap = "32-16-8,none,0,adam,relu,2,2.0,,0.1,3500,64,ok"
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n\n{RESULTS_ROW}\n{failed}\n\n{no_extrap}\n")
        rows = experiment.read_results_csv(path)
        settings = ["32-16-8", "none", 0, "adam", "relu"]
        assert [list(row.values()) for row in rows] == [
            [*settings, 0, 2.0, 2.5, 0.1, 3500, 64, "ok"],
            [*settings, 1, None, None, None, 3500, 64, "failed: diverged"],
            [*settings, 2, 2.0, None, 0.1, 3500, 64, "ok"]]
        code, _, _ = run(["report", str(path), "--figure", "table2",
                          "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert (tmp_path / "table2.csv").read_text().splitlines()[1] == "32-16-8,2.000,,,,,"

    def test_integer_text_reads_in_canonical_form(self, tmp_path, capsys):
        # an arch of 032-16-8 and an epochs of " 3500" name the trial that a
        # sweep writes as 32-16-8 and 3500, so they group and print as it does
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n"
                        f"{RESULTS_ROW.replace('32-16-8', '032-16-8').replace(',3500,', ', 3500,')}"
                        f"\n{ERROR_ROW}\n")
        assert [(row["arch"], row["epochs"]) for row in experiment.read_results_csv(path)] == [
            ("32-16-8", 3500), ("32-16-8", 3500)]
        assert run(["report", str(path), "--figure", "table1",
                    "--out", str(tmp_path)], capsys)[0] == cli.EXIT_OK
        assert (tmp_path / "table1.csv").read_text().splitlines()[1:] == [
            "32-16-8,769,3500,64,2.000,2.000,0.000"]


class TestReport:
    @pytest.mark.parametrize("figure, row, missing", [
        ("table1", RESULTS_ROW, "[('32-16-8', 'none'), ('32-16-8', 'error')]"),
        ("fig3", RESULTS_ROW.replace("32-16-8", "64-16"),
         "['128', '32-32', '32-16-8', '32-16-16-8']"),
        ("fig5", RESULTS_ROW.replace("32-16-8", "64-16"),
         "['128', '32-32', '32-16-8', '32-16-16-8']"),
    ], ids=["table1", "fig3", "fig5"])
    def test_missing_cells_is_one_bare_line(self, figure, row, missing, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n{row}\n")
        out = tmp_path / "out"
        assert run(["report", str(path), "--figure", figure, "--out", str(out)], capsys) == (
            cli.EXIT_DATA, "", f"data error: missing result cells: {missing}\n")
        assert not out.exists()

    @pytest.mark.parametrize("figure", list(report.FIGURES))
    def test_no_results_is_data_error(self, figure, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n")
        out = tmp_path / "out"
        assert run(["report", str(path), "--figure", figure, "--out", str(out)], capsys) == (
            cli.EXIT_DATA, "", f"data error: {path} holds no results\n")
        assert not out.exists()

    def test_export_removes_a_figure_the_results_lack(self, tmp_path):
        # fig4 shows 32-16-8, which these results (of an earlier sweep's
        # output directory) no longer hold
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n{RESULTS_ROW.replace('32-16-8', '128')}\n")
        stale = tmp_path / "fig4.csv"
        stale.write_text("arch,augmentation\n32-16-8,none\n")
        cli._export_figures(str(path), str(tmp_path))
        assert not stale.exists()
        assert not (tmp_path / "fig7.csv").exists()

    def test_fig2(self, tmp_path, capsys):
        records_csv = str(tmp_path / "records.csv")
        ame.write_records_csv(
            [ame.NuclideRecord(z=82, n=126, a=208, be_total=1636.43022,
                               be_err=0.00125, estimated=False)], records_csv)
        code, out, _ = run(["report", "--figure", "fig2", "--records",
                            records_csv, "--nuclide", "82,208", "--k", "3",
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "fig2.csv") as fh:
            assert len(fh.readlines()) == 5  # header + original + 3 draws

    def test_fig2_unknown_nuclide(self, tmp_path, capsys):
        records_csv = str(tmp_path / "records.csv")
        ame.write_records_csv(toy_records(5), records_csv)
        code, _, err = run(["report", "--figure", "fig2", "--records",
                            records_csv, "--nuclide", "82,208",
                            "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA

    def test_unknown_figure(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text(",".join(
            ["arch", "augmentation", "k", "optimizer", "activation", "seed",
             "rms_test_mev", "rms_extrap_mev", "final_train_loss", "epochs",
             "batch", "status"]) + "\n")
        code, _, _ = run(["report", str(results), "--figure", "fig99",
                          "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_USAGE

    def test_mixed_optimizers_is_usage_error(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        header = ("arch,augmentation,k,optimizer,activation,seed,rms_test_mev,"
                  "rms_extrap_mev,final_train_loss,epochs,batch,status\n")
        results.write_text(header
                           + "32-16-8,none,0,adam,relu,0,2.0,2.5,0.1,3500,64,ok\n"
                           + "32-16-8,none,0,nadam,relu,0,3.0,3.5,0.1,3500,64,ok\n")
        code, _, err = run(["report", str(results), "--figure", "table2",
                            "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_USAGE
        assert "adam/relu" in err and "nadam/relu" in err


# bad augmentation levels: (technique, k, noise seed) and augment.check_level's message
BAD_LEVELS = {
    "gaussian_k0": ("gaussian", 0, 0, "gaussian takes k >= 1, got k=0"),
    "none_k3": ("none", 3, 0, "none takes k = 0, got k=3"),
    "error_k_negative": ("error", -1, 0, "error takes k = 0, got k=-1"),
    "mixup": ("mixup", 0, 0, "unknown augmentation technique 'mixup'"),
    "none_noise_seed_negative": ("none", 0, -1, "noise_seed must be an integer >= 0, got -1"),
    "gaussian_noise_seed_negative": ("gaussian", 1, -1,
                                     "noise_seed must be an integer >= 0, got -1"),
    "gaussian_k_over_32_bits": ("gaussian", 2**32, 0,
                                "gaussian takes k <= 4294967295, got k=4294967296"),
    "gaussian_noise_seed_over_64_bits": (
        "gaussian", 1, 2**64,
        "noise_seed must be an integer <= 18446744073709551615, got 18446744073709551616"),
}
# every input that takes a level -> the bad levels it can express: `augment
# --technique` has argparse choices, the results CSV records no noise seed,
# and fig2 draws only gaussian
LEVEL_INPUTS = {
    "config": list(BAD_LEVELS),
    "trial_spec": list(BAD_LEVELS),
    "augment": [level for level in BAD_LEVELS if level != "mixup"],
    "results_csv": [level for level in BAD_LEVELS if "noise_seed" not in level],
    "sidecar": list(BAD_LEVELS),
    "fig2": [level for level in BAD_LEVELS if level.startswith("gaussian")],
}


class TestLevelRule:
    """One rule for an augmentation level, augment.check_level, with one
    message at every input that takes a level; each input adds only its own
    framing and exit code, and writes nothing."""

    @pytest.mark.parametrize("door, level", [(door, level) for door, levels in
                                             LEVEL_INPUTS.items() for level in levels])
    def test_one_rule_one_message(self, door, level, tmp_path, capsys):
        technique, k, noise_seed, message = BAD_LEVELS[level]
        getattr(self, door)(tmp_path, capsys, technique, k, noise_seed, message)

    def config(self, tmp_path, capsys, technique, k, noise_seed, message):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20).replace(
            "levels = none gaussian1",
            f"levels = {technique}{k or ''}\nnoise_seed = {noise_seed}"))
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(config), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: bad config [sweep]: {message}\n")
        assert not out.exists()

    def trial_spec(self, tmp_path, capsys, technique, k, noise_seed, message):
        with pytest.raises(ConfigurationError) as exc:
            experiment.TrialSpec(network=network.NetworkSpec((4,), "relu"),
                                 train_config=network.TrainConfig(1, 8, seed=0),
                                 optimizer=OptimizerConfig(), technique=technique, k=k,
                                 noise_seed=noise_seed)
        assert str(exc.value) == message

    def augment(self, tmp_path, capsys, technique, k, noise_seed, message):
        records = tmp_path / "records.csv"
        ame.write_records_csv(toy_records(), records)
        out = tmp_path / "aug.csv"
        assert run(["augment", str(records), "--technique", technique, "--k", str(k),
                    "--noise-seed", str(noise_seed), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [records]

    def results_csv(self, tmp_path, capsys, technique, k, noise_seed, message):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n"
                        f"{RESULTS_ROW.replace(',none,0,', f',{technique},{k},')}\n")
        assert run(["report", str(path), "--figure", "table2", "--out", str(tmp_path)],
                   capsys) == (cli.EXIT_DATA, "", f"data error: line 2: {message}\n")
        assert list(tmp_path.iterdir()) == [path]

    def sidecar(self, tmp_path, capsys, technique, k, noise_seed, message):
        records = toy_records()
        path = tmp_path / "aug.csv"
        augment.write_augmented_csv(augment.identity_set(records), records, path)
        Path(f"{path}.manifest.json").write_text(json.dumps(
            {"technique": technique, "k": k, "noise_seed": noise_seed,
             "base_size": len(records)}))
        model = tmp_path / "model.npz"
        assert run(["train", str(path), "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys) == (
            cli.EXIT_DATA, "",
            f"data error: bad augmented-CSV sidecar {path}.manifest.json: {message}\n")
        assert not model.exists()

    def fig2(self, tmp_path, capsys, technique, k, noise_seed, message):
        records = tmp_path / "records.csv"
        ame.write_records_csv([ame.NuclideRecord(z=82, n=126, a=208, be_total=1636.43022,
                                                 be_err=0.00125, estimated=False)], records)
        assert run(["report", "--figure", "fig2", "--records", str(records), "--nuclide",
                    "82,208", "--k", str(k), "--noise-seed", str(noise_seed),
                    "--out", str(tmp_path)], capsys) == (
            cli.EXIT_USAGE, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [records]


# a good trial's settings, and each bad one with the message of its owner's rule
# (NetworkSpec, OptimizerConfig or TrainConfig)
GOOD_SETTINGS = {"widths": (4,), "activation": "relu", "optimizer": "adam",
                 "epochs": 1, "batch": 8, "seed": 0}
BAD_SETTINGS = {
    "optimizer": ({"optimizer": "sgd"},
                  "optimizer must be one of adam, nadam, adamax, rmsprop, got 'sgd'"),
    "activation": ({"activation": "softplus"},
                   "activation must be one of relu, tanh, sigmoid, got 'softplus'"),
    "width_0": ({"widths": (4, 0)}, "hidden widths must be integers >= 1, got (4, 0)"),
    "epochs_0": ({"epochs": 0}, "epochs must be >= 1, got 0"),
    "batch_0": ({"batch": 0}, "batch_size must be >= 1, got 0"),
    "seed_negative": ({"seed": -3}, "seed must be >= 0, got -3"),
    # more parameters than a numpy array holds (np.iinfo(np.intp).max // 8)
    "width_unsizable": ({"widths": (99999999999999999999,)},
                        "hidden widths 99999999999999999999 need more than "
                        "1152921504606846975 parameters, the most a numpy array holds"),
}
# every input that takes a trial setting -> the bad settings it can express:
# `train --optimizer` and `--activation` have argparse choices, and a model
# file records only the network
SETTING_INPUTS = {
    "config": list(BAD_SETTINGS),
    "train": [name for name in BAD_SETTINGS if name not in ("optimizer", "activation")],
    "trial_spec": list(BAD_SETTINGS),
    "results_csv": list(BAD_SETTINGS),
    "model_file": ["activation", "width_0", "width_unsizable"],
}


class TestTrialSettingRules:
    """One owner for each trial setting's rule, with one message at every
    input that takes the setting; each input adds only its own framing and
    exit code, and writes nothing."""

    @pytest.mark.parametrize("door, name", [(door, name) for door, names in
                                            SETTING_INPUTS.items() for name in names])
    def test_one_rule_one_message(self, door, name, tmp_path, capsys, edit_model_meta):
        change, message = BAD_SETTINGS[name]
        self.edit_model_meta = edit_model_meta
        getattr(self, door)(tmp_path, capsys, {**GOOD_SETTINGS, **change}, message)

    def config(self, tmp_path, capsys, s, message):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20)
                          .replace("6-4:25:64", f"{'-'.join(map(str, s['widths']))}:"
                                                f"{s['epochs']}:{s['batch']}")
                          .replace("seeds = 0 1", f"seeds = {s['seed']}\n"
                                                  f"activation = {s['activation']}")
                          .replace("algorithm = adam", f"algorithm = {s['optimizer']}"))
        # the optimizer is an [optimizer] key, the other settings [sweep] keys
        section = "optimizer" if message.startswith("optimizer") else "sweep"
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(config), "--out", str(out)], capsys) == (
            cli.EXIT_USAGE, "", f"error: bad config [{section}]: {message}\n")
        assert not out.exists()

    def train(self, tmp_path, capsys, s, message):
        records = tmp_path / "records.csv"
        ame.write_records_csv(toy_records(), records)
        assert run(["train", str(records), "--arch", "-".join(map(str, s["widths"])),
                    "--epochs", str(s["epochs"]), "--batch", str(s["batch"]),
                    "--seed", str(s["seed"]), "--out", str(tmp_path / "model.npz")],
                   capsys) == (cli.EXIT_USAGE, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [records]

    def trial_spec(self, tmp_path, capsys, s, message):
        with pytest.raises(ConfigurationError) as exc:
            experiment.TrialSpec(network=network.NetworkSpec(s["widths"], s["activation"]),
                                 train_config=network.TrainConfig(s["epochs"], s["batch"],
                                                                  s["seed"]),
                                 optimizer=OptimizerConfig(algorithm=s["optimizer"]),
                                 technique="none", k=0)
        assert str(exc.value) == message

    def results_csv(self, tmp_path, capsys, s, message):
        path = tmp_path / "results.csv"
        path.write_text(f"{RESULTS_HEADER}\n{'-'.join(map(str, s['widths']))},none,0,"
                        f"{s['optimizer']},{s['activation']},{s['seed']},2.0,2.5,0.1,"
                        f"{s['epochs']},{s['batch']},ok\n")
        assert run(["report", str(path), "--figure", "table2", "--out", str(tmp_path)],
                   capsys) == (cli.EXIT_DATA, "", f"data error: line 2: {message}\n")
        assert list(tmp_path.iterdir()) == [path]

    def model_file(self, tmp_path, capsys, s, message):
        records = tmp_path / "records.csv"
        ame.write_records_csv(toy_records(), records)
        model = tmp_path / "model.npz"
        assert run(["train", str(records), "--arch", "4", "--epochs", "1", "--batch", "8",
                    "--out", str(model)], capsys)[0] == cli.EXIT_OK
        self.edit_model_meta(model, hidden_widths=list(s["widths"]),
                             activation=s["activation"])
        out = tmp_path / "predictions.csv"
        assert run(["evaluate", str(model), str(records), "--out", str(out)], capsys) == (
            cli.EXIT_DATA, "", f"data error: {model} is not a model file: {message}\n")
        assert not out.exists()


class TestTopLevel:
    def test_flag_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(
            ["train", "t.csv", "--arch", "4", "--epochs", "1", "--batch", "1", "--out", "m"])
        assert OptimizerConfig(algorithm=args.optimizer, learning_rate=args.lr,
                               beta1=args.beta1, beta2=args.beta2) == OptimizerConfig()
        assert args.activation == "relu"
        args = cli.build_parser().parse_args(["ingest", "mass.txt", "--edition", "AME2016"])
        assert (args.z_min, args.n_min) == (8, 8)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_no_command_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
