import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucaug import ame, augment, cli, experiment
from nucaug.errors import ConfigurationError, DataIntegrityError, MassTableParseError

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")
MASS16 = os.path.join(DATA, "mass16_synthetic.txt")
MASS20 = os.path.join(DATA, "mass20_synthetic.txt")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestAugment:
    def test_gaussian(self, records_csv, tmp_path, capsys):
        out = str(tmp_path / "aug.csv")
        code, stdout, _ = run(["augment", records_csv, "--technique",
                               "gaussian", "--k", "2", "--out", out], capsys)
        assert code == 0
        assert "rows: 120" in stdout
        manifest = json.loads(open(out + ".manifest.json").read())
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

    def test_bad_arch_usage_error(self, records_csv, tmp_path, capsys):
        code, _, _ = run(["train", records_csv, "--arch", "8-x", "--epochs",
                          "5", "--batch", "8",
                          "--out", str(tmp_path / "m.npz")], capsys)
        assert code == cli.EXIT_USAGE


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


@pytest.mark.slow
class TestSweep:
    def test_sweep_and_resume(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_CONFIG.format(mass16=MASS16, mass20=MASS20))
        out_dir = str(tmp_path / "out")
        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", out_dir], capsys)
        assert code == 0
        assert "completed 4 trials, 0 failed" in stdout
        results = open(os.path.join(out_dir, "results.csv")).read()
        assert results.count("\n") == 5  # header + 4 trials
        manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
        assert manifest["n_train"] == 1685
        assert manifest["n_extrapolation"] == 71
        assert manifest["augmentation_sizes"]["gaussian_1"] == 3370

        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", out_dir], capsys)
        assert code == 0
        assert stdout.count("(cached)") == 4
        assert open(os.path.join(out_dir, "results.csv")).read() == results

        # a truncated cache file is a miss: only that trial runs again
        trials = os.path.join(out_dir, "trials")
        victim = os.path.join(trials, sorted(os.listdir(trials))[0])
        text = open(victim).read()
        with open(victim, "w") as fh:
            fh.write(text[:len(text) // 2])
        code, stdout, _ = run(["sweep", "--config", str(config),
                               "--out", out_dir], capsys)
        assert code == 0
        assert stdout.count("(cached)") == 3
        assert open(os.path.join(out_dir, "results.csv")).read() == results
        rewritten = json.loads(open(victim).read())
        assert rewritten.pop("wall_time") > 0
        assert rewritten == {k: v for k, v in json.loads(text).items()
                             if k != "wall_time"}

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
        readme = open(os.path.join(ROOT, "README.md")).read()
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
    ])
    def test_bad_config_is_one_line_usage_error(self, old, new, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(self.VALID.replace(old, new, 1))
        code, _, err = run(["sweep", "--config", str(config),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1

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


@st.composite
def csv_texts(draw):
    """A canonical, augmented or other header, then records of the header's
    width, with a junk line among them half of the time."""
    header = draw(st.sampled_from([",".join(ame.CSV_COLUMNS),
                                   ",".join(augment.AUGMENTED_CSV_COLUMNS), None]))
    origin = (st.just("") if header == ",".join(ame.CSV_COLUMNS)
              else st.sampled_from(["original", "gauss_1", '"x,y"']))
    record = st.builds(csv_record, st.one_of(st.integers(0, 120), st.integers()),
                       st.integers(0, 180), ENERGY, ENERGY, st.sampled_from([0, 1]), origin)
    if header is None:
        header = draw(CSV_JUNK)
    lines = draw(st.lists(record, max_size=6))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(CSV_JUNK))
    return "\n".join([header, *lines]) + "\n"


class TestCsvReaderFuzz:
    """Any text given to `nucaug augment` (canonical reader) and `nucaug
    train` (canonical or augmented reader) loads with finite energies, or
    the command exits 1 or 2 with one line on standard error."""

    @given(text=csv_texts())
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

        for argv, ok in (
                (["augment", str(path), "--technique", "error",
                  "--out", str(base / "fuzz_aug.csv")], bool(records)),
                (["train", str(path), "--arch", "4", "--epochs", "1", "--batch", "8",
                  "--out", str(base / "fuzz_model.npz")], loaded)):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
                assert stderr.getvalue().count("\n") == 1
            if not ok:
                assert code != cli.EXIT_OK
            elif argv[0] == "augment":
                assert code == cli.EXIT_OK


class TestReport:
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


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_no_command_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
