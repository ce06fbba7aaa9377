import pytest

from nucaug import report
from nucaug.ame import NuclideRecord
from nucaug.augment import gaussian_resample
from nucaug.errors import ConfigurationError, DataIntegrityError, IncompleteDataError


def result_rows():
    """A small synthetic results table covering two architectures, as
    experiment.read_results_csv returns its rows."""
    rows = []
    values = {
        ("32-32", "none", 0): 2.0, ("32-32", "none", 1): 2.4,
        ("32-32", "error", 0): 1.8, ("32-32", "error", 1): 2.0,
        ("32-32", "gaussian", 2): 1.6, ("32-32", "gaussian", 5): 1.4,
        ("32-16-8", "none", 0): 2.6, ("32-16-8", "none", 1): 3.0,
        ("32-16-8", "error", 0): 2.2, ("32-16-8", "error", 1): 2.4,
        ("32-16-8", "gaussian", 2): 2.0, ("32-16-8", "gaussian", 5): 1.7,
    }
    for (arch, technique, third), value in values.items():
        seed = third if technique in ("none", "error") else 0
        k = third if technique == "gaussian" else 0
        rows.append({
            "arch": arch, "augmentation": technique, "k": k,
            "optimizer": "adam", "activation": "relu", "seed": seed,
            "rms_test_mev": value, "rms_extrap_mev": value + 0.5,
            "final_train_loss": 0.1, "epochs": 3500, "batch": 64,
            "status": "ok",
        })
    return rows


class TestPctChange:
    def test_pct_change(self):
        assert report.pct_change(2.0, 1.0) == pytest.approx(50.0)
        assert report.pct_change(1.0, 1.5) == pytest.approx(-50.0)
        # worked example: 1.903 -> 1.591 is a 16.395 % gain
        assert report.pct_change(1.903, 1.591) == pytest.approx(16.395, abs=5e-4)


class TestTables:
    def test_error_augmentation_table(self):
        header, out = report.table_error_augmentation(result_rows())
        assert header[0] == "arch"
        by_arch = {row[0]: row for row in out}
        row = by_arch["32-32"]
        assert row[1] == 1185                      # parameter count
        assert float(row[4]) == pytest.approx(2.2)  # mean of 2.0, 2.4
        assert float(row[5]) == pytest.approx(1.9)
        assert float(row[6]) == pytest.approx(100 * (2.2 - 1.9) / 2.2, abs=1e-3)

    def test_error_augmentation_zero_baseline(self):
        rows = result_rows()
        for row in rows:
            if (row["arch"], row["augmentation"]) == ("32-32", "none"):
                row["rms_test_mev"] = 0.0
        with pytest.raises(DataIntegrityError,
                           match="^arch 32-32: baseline rms must be > 0, got 0.0$"):
            report.table_error_augmentation(rows)

    def test_error_augmentation_incomplete(self):
        rows = [r for r in result_rows() if r["augmentation"] != "error"]
        with pytest.raises(IncompleteDataError):
            report.table_error_augmentation(rows)

    def test_gaussian_table(self):
        header, out = report.table_gaussian(result_rows(), "rms_test_mev")
        assert header == ["arch"] + [f"rms_k{k}_mev" for k in range(6)]
        row = next(r for r in out if r[0] == "32-16-8")
        assert float(row[1]) == pytest.approx(2.8)   # none mean
        assert float(row[3]) == pytest.approx(2.0)   # k = 2
        assert row[2] == ""                          # k = 1 absent

    def test_gaussian_table_extrapolation_column(self):
        _, out = report.table_gaussian(result_rows(), "rms_extrap_mev")
        row = next(r for r in out if r[0] == "32-32")
        assert float(row[6]) == pytest.approx(1.9)   # 1.4 + 0.5


class TestCurves:
    def test_rms_vs_resampling(self):
        header, out = report.rms_vs_resampling(result_rows(), "rms_test_mev")
        assert header == ["arch", "resamples", "mean_rms_mev"]
        curve = [(r[1], float(r[2])) for r in out if r[0] == "32-32"]
        assert curve == [(0, 2.2), (2, 1.6), (5, 1.4)]

    def test_rms_vs_resampling_missing_arch(self):
        # 64-16 is not one of the curve architectures
        rows = [{**r, "arch": "64-16"} for r in result_rows() if r["arch"] == "32-32"]
        with pytest.raises(IncompleteDataError):
            report.rms_vs_resampling(rows, "rms_test_mev")

    @pytest.mark.parametrize("builder", [
        lambda rows: report.rms_vs_resampling(rows, "rms_test_mev"),
        report.optimizer_comparison, report.activation_comparison],
        ids=["fig3", "fig6", "fig8"])
    def test_series_are_none_and_gaussian_by_name(self, builder):
        # fig3/fig5 and fig6/fig8 plot the Gaussian series: a level of another
        # technique, even at a k that gaussian also has, joins none of them
        rows = result_rows()
        other = [{**r, "augmentation": "replicate", "rms_test_mev": 9.0}
                 for r in rows if r["augmentation"] == "gaussian"]
        assert builder(rows + other) == builder(rows)

    def test_per_seed_traces(self):
        header, out = report.per_seed_traces(result_rows(), "rms_test_mev")
        assert header == ["level", "seed", "rms_mev"]
        assert [(r[0], r[1], float(r[2])) for r in out] == [
            ("none", 0, 2.6), ("none", 1, 3.0), ("gaussian2", 0, 2.0),
            ("gaussian5", 0, 1.7)]

    @pytest.mark.parametrize("column, means", [("rms_test_mev", ["3.100", "2.500", "2.200"]),
                                               ("rms_extrap_mev", ["3.600", "3.000", "2.700"])])
    def test_repeated_seed_cell_is_its_mean(self, column, means):
        # rows merged by hand may hold one (arch, level, seed) twice: fig4 and
        # fig7 print that cell's mean, as every other report does
        rows = [r for r in result_rows() if r["arch"] == "32-16-8" and r["seed"] == 0]
        rows += [{**r, column: r[column] + 1.0} for r in rows]
        _, out = report.per_seed_traces(rows, column)
        assert out == [[lvl, 0, mean] for lvl, mean in zip(report.STABILITY_LEVELS, means)]

    def test_per_seed_traces_missing_level(self):
        rows = [r for r in result_rows() if r["k"] != 5]
        with pytest.raises(IncompleteDataError, match="32-16-8', 'gaussian5'"):
            report.per_seed_traces(rows, "rms_test_mev")


class TestComparisons:
    def test_optimizer_comparison(self):
        rows = result_rows()
        for row in rows[6:8]:  # 32-16-8, none
            row["optimizer"] = "nadam"
        _, out = report.optimizer_comparison(rows)
        optimizers = {r[0] for r in out}
        assert "nadam" in optimizers

    @pytest.mark.parametrize("builder, setting", [
        (report.optimizer_comparison, "optimizer"),
        (report.activation_comparison, "activation"),
    ])
    def test_rows_by_setting_value_then_level_label(self, builder, setting):
        # level labels sort as text: gaussian2 and gaussian5 come before none
        rows = result_rows()
        rows = [{**r, setting: "b"} for r in rows] + [
            {**r, setting: "a", "rms_test_mev": 1.0} for r in rows]
        header, out = builder(rows)
        assert header == [setting, "arch", "resamples", "mean_rms_mev"]
        assert out == [["a", "32-16-8", 2, "1.000"], ["a", "32-16-8", 5, "1.000"],
                       ["a", "32-16-8", 0, "1.000"], ["b", "32-16-8", 2, "2.000"],
                       ["b", "32-16-8", 5, "1.700"], ["b", "32-16-8", 0, "2.800"]]

    def test_activation_comparison(self):
        _, out = report.activation_comparison(result_rows())
        assert all(r[0] == "relu" for r in out)

    def test_failed_rows_ignored(self):
        rows = result_rows()
        rows.append({**rows[6], "seed": 9, "rms_test_mev": None, "rms_extrap_mev": None,
                     "final_train_loss": None, "status": "failed: diverged"})
        header, out = report.per_seed_traces(rows, "rms_test_mev")
        assert [r[:2] for r in out] == [["none", 0], ["none", 1], ["gaussian2", 0],
                                        ["gaussian5", 0]]


class TestSettingGuard:
    @pytest.mark.parametrize("fig_id", ["table1", "table2", "table3", "fig3",
                                        "fig4", "fig5", "fig7"])
    def test_mixed_settings_rejected(self, fig_id):
        rows = result_rows()
        rows += [{**row, "activation": "tanh"} for row in rows]
        with pytest.raises(ConfigurationError, match="adam/relu, adam/tanh"):
            report.FIGURES[fig_id](rows)

    @pytest.mark.parametrize("fig_id", ["fig6", "fig8"])
    def test_comparisons_span_settings(self, fig_id):
        rows = result_rows()
        rows += [{**row, "optimizer": "nadam", "activation": "tanh"} for row in rows]
        _, out = report.FIGURES[fig_id](rows)
        assert len({r[0] for r in out}) == 2

    def test_comparison_refuses_a_value_under_two_settings(self):
        # fig6 would average adam's relu and tanh rows; fig8 compares
        # activations whose rows each hold one optimizer
        rows = [{**row, "optimizer": optimizer, "activation": activation,
                 "rms_test_mev": value}
                for optimizer, activation, value in [("adam", "relu", 1.0),
                                                     ("adam", "tanh", 3.0),
                                                     ("nadam", "sigmoid", 5.0)]
                for row in result_rows() if row["arch"] == "32-16-8"
                and row["augmentation"] == "none"]
        with pytest.raises(ConfigurationError, match=r"^results mix \(optimizer, activation\) "
                           r"settings adam/relu, adam/tanh; compare one activation per "
                           r"optimizer$"):
            report.FIGURES["fig6"](rows)
        _, out = report.FIGURES["fig8"](rows)
        assert [r[0] for r in out] == ["relu", "sigmoid", "tanh"]
        rows += [{**rows[-1], "optimizer": "adam"}]  # sigmoid under nadam and adam
        with pytest.raises(ConfigurationError, match=r"adam/sigmoid, nadam/sigmoid; "
                                                     r"compare one optimizer per activation$"):
            report.FIGURES["fig8"](rows)


class TestGaussianIllustration:
    RECORD = NuclideRecord(z=82, n=126, a=208, be_total=1636.43022,
                           be_err=0.00125, estimated=False)

    def test_rows_match_resampler(self):
        header, out = report.gaussian_illustration(self.RECORD, 3, noise_seed=4)
        aug = gaussian_resample([self.RECORD], 3, noise_seed=4)
        assert len(out) == 4
        assert [float(r[3]) for r in out] == aug.rows["energy"].tolist()
        assert out[0][3] == repr(self.RECORD.be_total)

    def test_k_validated(self):
        with pytest.raises(ConfigurationError):
            report.gaussian_illustration(self.RECORD, 0)
