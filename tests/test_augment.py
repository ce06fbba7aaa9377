import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucaug import ame, augment, cli, network
from nucaug.ame import NuclideRecord
from nucaug.errors import ConfigurationError, DataIntegrityError, MassTableParseError
from nucaug.optimizers import OptimizerConfig


def rec(z, n, be, err, estimated=False):
    return NuclideRecord(z=z, n=n, a=z + n, be_total=be, be_err=err,
                         estimated=estimated)


SAMPLE = [
    rec(8, 8, 127.619, 0.001),
    rec(20, 20, 342.052, 0.0),       # zero uncertainty
    rec(82, 126, 1636.43022, 0.00125),
    rec(28, 30, 506.454, 0.25),
]


class TestIdentity:
    def test_rows_match_input(self):
        out = augment.identity_set(SAMPLE)
        assert out.technique == "none"
        assert out.base_size == len(SAMPLE)
        assert out.rows[["z", "a", "energy"]].tolist() == \
            [(r.z, r.a, r.be_total) for r in SAMPLE]
        assert all(out.rows["origin"] == augment.ORIGIN_ORIGINAL)


class TestErrorResample:
    def test_triplication_values(self):
        pb = rec(82, 126, 1636.43022, 0.00125)
        out = augment.error_resample([pb])
        assert out.rows["energy"].tolist() == \
            pytest.approx([1636.43022, 1636.43147, 1636.42897], abs=1e-9)
        assert out.rows["origin"].tolist() == \
            [augment.ORIGIN_ORIGINAL, augment.ORIGIN_ERR_PLUS,
             augment.ORIGIN_ERR_MINUS]

    def test_size_formula(self):
        out = augment.error_resample(SAMPLE)
        z0 = sum(1 for r in SAMPLE if r.be_err == 0)
        assert len(out.rows) == 3 * len(SAMPLE) - 2 * z0

    def test_zero_uncertainty_not_duplicated(self):
        out = augment.error_resample(SAMPLE)
        ca40 = out.rows[(out.rows["z"] == 20) & (out.rows["a"] == 40)]
        assert len(ca40) == 1 and ca40[0]["origin"] == augment.ORIGIN_ORIGINAL

    def test_originals_first(self):
        out = augment.error_resample(SAMPLE)
        head = out.rows[:len(SAMPLE)]
        assert all(head["origin"] == augment.ORIGIN_ORIGINAL)


class TestGaussianResample:
    def test_size_law(self):
        for k in range(1, 6):
            out = augment.gaussian_resample(SAMPLE, k, noise_seed=0)
            assert len(out.rows) == len(SAMPLE) * (1 + k)

    def test_prefix_property(self):
        # the k-pass row list extends the (k-1)-pass list under one seed
        out5 = augment.gaussian_resample(SAMPLE, 5, noise_seed=7)
        for k in range(1, 5):
            outk = augment.gaussian_resample(SAMPLE, k, noise_seed=7)
            assert np.array_equal(out5.rows[:len(outk.rows)], outk.rows)

    def test_deterministic_and_seed_sensitive(self):
        a = augment.gaussian_resample(SAMPLE, 3, noise_seed=1)
        b = augment.gaussian_resample(SAMPLE, 3, noise_seed=1)
        c = augment.gaussian_resample(SAMPLE, 3, noise_seed=2)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_zero_sigma_draws_exact(self):
        out = augment.gaussian_resample(SAMPLE, 4, noise_seed=0)
        ca40 = out.rows[(out.rows["z"] == 20) & (out.rows["a"] == 40)]
        assert len(ca40) == 5
        assert all(ca40["energy"] == 342.052)

    def test_draw_independent_of_neighbor_sigma(self):
        # zero-sigma nuclei must not shift the draws of the others
        others = [r for r in SAMPLE if r.be_err > 0]
        with_zero = augment.gaussian_resample(SAMPLE, 2, noise_seed=3)
        removed = {(20, 40)}
        kept = [row for row in with_zero.rows.tolist() if row[:2] not in removed]
        # indices change when the zero-sigma record is dropped, so compare
        # per-nucleus draws keyed by their position in the input list
        direct = {}
        for i, record in enumerate(SAMPLE):
            for pass_idx in (1, 2):
                stream = augment._stream(3, pass_idx, i)
                direct[(record.z, record.a, pass_idx)] = (
                    record.be_total + record.be_err * stream.standard_normal())
        for pass_idx in (1, 2):
            for z, a, energy, origin in kept:
                if origin == pass_idx:  # the code of gauss_<pass_idx>
                    assert energy == direct[(z, a, pass_idx)]
        assert others  # sanity

    @pytest.mark.parametrize("noise_seed", [0, 7, 2**64 - 1])
    def test_every_cell_matches_its_own_stream(self, split, noise_seed):
        # the computed Philox words and the re-keyed fallback must give, on
        # the real training set, the draw a fresh _stream would give for
        # every (pass, nucleus) cell; at 2**64 - 1 the Philox key bump wraps
        train = split.train
        assert any(r.be_err == 0 for r in train)
        out = augment.gaussian_resample(train, 5, noise_seed)
        expected = [
            r.be_total + r.be_err * augment._stream(noise_seed, pass_idx, i).standard_normal()
            for pass_idx in range(1, 6) for i, r in enumerate(train)]
        assert out.rows["energy"][len(train):].tobytes() == np.array(expected).tobytes()

    def test_key_bits_above_the_nucleus_index(self):
        # pass indices up to 40 set key bits 32-37, above the nucleus index
        out = augment.gaussian_resample(SAMPLE[:3], 40, noise_seed=5)
        expected = [r.be_total + r.be_err * augment._stream(5, pass_idx, i).standard_normal()
                    for pass_idx in range(1, 41) for i, r in enumerate(SAMPLE[:3])]
        assert out.rows["energy"][3:].tobytes() == np.array(expected).tobytes()

    def test_draw_moments(self):
        mu, sigma = 500.0, 0.3
        record = rec(28, 30, mu, sigma)
        out = augment.gaussian_resample([record] * 1, 20000, noise_seed=11)
        draws = out.rows["energy"][1:]
        assert abs(draws.mean() - mu) < 4 * sigma / np.sqrt(draws.size)
        assert abs(draws.std() - sigma) < 0.01 * sigma

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            augment.gaussian_resample(SAMPLE, 0, 0)
        with pytest.raises(ConfigurationError):
            augment.gaussian_resample(SAMPLE, 1, -1)
        with pytest.raises(ConfigurationError):  # the level is checked first
            augment.gaussian_resample([], 0, 0)

    @given(k=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           n=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_size_and_prefix_properties(self, k, seed, n):
        records = [rec(8 + i, 8 + i, 100.0 + i, 0.01 * i) for i in range(n)]
        out = augment.gaussian_resample(records, k, seed)
        assert len(out.rows) == n * (1 + k)
        if k > 1:
            prev = augment.gaussian_resample(records, k - 1, seed)
            assert np.array_equal(out.rows[:len(prev.rows)], prev.rows)


# every technique of the level table at its least k, and at least k + 4 where
# its range allows, so a new entry is covered without editing the tests below
TABLE_LEVELS = [(technique, k) for technique, level in augment.LEVELS.items()
                for k in (level.least_k, level.least_k + 4) if k <= level.most_k]


class TestApply:
    def test_dispatch(self):
        assert augment.apply("none", 0, SAMPLE).technique == "none"
        assert augment.apply("error", 0, SAMPLE).technique == "error"
        assert augment.apply("gaussian", 2, SAMPLE, 5).k == 2

    def test_unknown_technique(self):
        with pytest.raises(ConfigurationError):
            augment.apply("mixup", 0, SAMPLE)

    @pytest.mark.parametrize("technique, k", TABLE_LEVELS)
    def test_empty_set_at_every_level(self, technique, k):
        # an empty training set is training's one fault, with one message
        out = augment.apply(technique, k, [], noise_seed=3)
        assert len(out.rows) == 0 and out.rows.dtype == augment.ROW_DTYPE
        with pytest.raises(ConfigurationError, match="^training set is empty$"):
            network.train(network.NetworkSpec(hidden_widths=(4,)), out,
                          network.TrainConfig(epochs=1, batch_size=8), OptimizerConfig())

    @pytest.mark.parametrize("technique, k", TABLE_LEVELS)
    def test_level_size_is_the_augmented_size(self, split, technique, k):
        # the size the sweep manifest records, against the real augmentation
        rows = augment.apply(technique, k, split.train, noise_seed=3).rows
        assert augment.level_size(split.train, technique, k) == len(rows)
        assert augment.level_size(SAMPLE, technique, k) == len(
            augment.apply(technique, k, SAMPLE).rows)


class TestLevels:
    @pytest.mark.parametrize("technique, k", TABLE_LEVELS)
    def test_parse_level_reads_every_label(self, technique, k):
        label = augment.level_label(technique, k)
        assert augment.parse_level(label) == (technique, k)

    @pytest.mark.parametrize("text", ["5", "Gaussian5", "", "gaussian-",
                                      "none 3", "gaussian\u0663", "gaussian+1"])
    def test_parse_level_rejects_other_forms(self, text):
        with pytest.raises(ValueError, match="^unknown augmentation level "):
            augment.parse_level(text)

    @pytest.mark.parametrize("text, message", [
        ("mixup", "unknown augmentation technique 'mixup'"),
        ("gaussianx", "unknown augmentation technique 'gaussianx'"),
        ("gaussian", "gaussian takes k >= 1, got k=0"),
        ("gaussian-1", "gaussian takes k >= 1, got k=-1"),
        ("none3", "none takes k = 0, got k=3"),
        ("error-1", "error takes k = 0, got k=-1"),
    ])
    def test_a_label_may_name_no_level(self, text, message):
        # parse_level reads the form; check_level alone says what is a level
        with pytest.raises(ConfigurationError) as exc:
            augment.check_level(*augment.parse_level(text), 0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("technique, k, noise_seed", [
        ("none", 0, None), ("none", 0, 0), ("none", 0, 7), ("error", 0, None),
        ("error", 0, 3), ("gaussian", 1, 0), ("gaussian", 5, 2**40),
        ("none", 0, 2**64 - 1), ("gaussian", 2**32 - 1, 2**64 - 1)])
    def test_valid_levels(self, technique, k, noise_seed):
        augment.check_level(technique, k, noise_seed)

    @pytest.mark.parametrize("technique, k, noise_seed, message", [
        ("gaussian", 1, None, "noise_seed must be an integer >= 0, got None"),
        ("error", 0, -1, "noise_seed must be an integer >= 0, got -1"),
        ("none", 0, "0", "noise_seed must be an integer >= 0, got '0'"),
        ("gaussian", 1, True, "noise_seed must be an integer >= 0, got True"),
        ("gaussian", 2.0, 0, "gaussian takes k >= 1, got k=2.0"),
        ("gaussian", True, 0, "gaussian takes k >= 1, got k=True"),
        ("none", "0", 0, "none takes k = 0, got k='0'"),
        ("none", False, 0, "none takes k = 0, got k=False"),
        ("gaussian", 2**32, 0, "gaussian takes k <= 4294967295, got k=4294967296"),
        ("none", 0, 2**64,
         "noise_seed must be an integer <= 18446744073709551615, got 18446744073709551616"),
        (None, 0, 0, "unknown augmentation technique None"),
        (["none"], 0, 0, "unknown augmentation technique ['none']"),
    ])
    def test_types(self, technique, k, noise_seed, message):
        with pytest.raises(ConfigurationError) as exc:
            augment.check_level(technique, k, noise_seed)
        assert str(exc.value) == message


ORIGIN_RULE = "expected original, err_plus, err_minus or gauss_<i> with i >= 1"


class TestOrigins:
    @pytest.mark.parametrize("code, name", [
        (augment.ORIGIN_ORIGINAL, "original"), (augment.ORIGIN_ERR_PLUS, "err_plus"),
        (augment.ORIGIN_ERR_MINUS, "err_minus"), (1, "gauss_1"), (5, "gauss_5"),
        (12, "gauss_12"), (2 ** 63 - 1, f"gauss_{2 ** 63 - 1}")])
    def test_names_and_codes(self, code, name):
        assert augment.origin_name(code) == name
        assert augment.origin_code(name) == code

    @pytest.mark.parametrize("text", [
        "mixup", "gauss_0", "gauss_01", "x,y", "", "gauss_", "gauss_-1", "gauss_+1",
        "gauss_1 ", " original", "Original", "gauss_\u0663", "gauss_\u00b2",
        f"gauss_{2 ** 63}"])
    def test_other_text_rejected(self, text):
        with pytest.raises(ConfigurationError) as exc:
            augment.origin_code(text)
        assert str(exc.value) == ORIGIN_RULE

    def test_rows_are_all_numeric(self):
        for out in (augment.identity_set(SAMPLE), augment.error_resample(SAMPLE),
                    augment.gaussian_resample(SAMPLE, 3, noise_seed=0)):
            assert out.rows.dtype == augment.ROW_DTYPE
            assert not out.rows.dtype.hasobject
        gauss = augment.gaussian_resample(SAMPLE, 3, noise_seed=0).rows["origin"]
        assert gauss.tolist() == [code for code in range(4) for _ in SAMPLE]


class TestAugmentedCsv:
    def test_round_trip(self, tmp_path):
        out = augment.gaussian_resample(SAMPLE, 3, noise_seed=9)
        path = tmp_path / "aug.csv"
        augment.write_augmented_csv(out, SAMPLE, path)
        back = augment.read_augmented_csv(path)
        assert np.array_equal(back.rows, out.rows)
        assert back.technique == "gaussian"
        assert back.k == 3
        assert back.noise_seed == 9
        assert back.base_size == len(SAMPLE)

    @pytest.mark.parametrize("row, message", [
        ("8,8", "2 fields, expected 7"),
        ("8,8,16,127.619,0.01,0,original,x", "8 fields, expected 7"),
        ("8,8,16,abc,0.01,0,original", "non-numeric be_total_mev field 'abc'"),
        ("8,x,16,127.619,0.01,0,original", "non-numeric n field 'x'"),
        ("8,8,16,inf,0.01,0,gauss_1", "be_total_mev field 'inf' is not a finite"),
        ("8,8,16,-inf,0.01,0,gauss_1", "be_total_mev field '-inf' is not a finite"),
        ("8,8,16,127.619,nan,0,gauss_1", "be_err_mev field 'nan' is not a finite"),
        ("8,8,16,1e999,0.01,0,gauss_1", "be_total_mev field '1e999' is not a finite"),
        ("8,8,16,127.619,0.01,0,mixup", f"origin field 'mixup': {ORIGIN_RULE}"),
        ("8,8,16,127.619,0.01,0,gauss_0", f"origin field 'gauss_0': {ORIGIN_RULE}"),
        ("8,8,16,127.619,0.01,0,gauss_01", f"origin field 'gauss_01': {ORIGIN_RULE}"),
        ('8,8,16,127.619,0.01,0,"x,y"', f"origin field 'x,y': {ORIGIN_RULE}"),
        ("9223372036854775808,8,9223372036854775816,127.619,0.01,0,original",
         "z field '9223372036854775808': does not fit a 64-bit integer"),
        ("8,8,16,127.619,0.01,5,original", "estimated field '5': expected 0"),
        # fields that read, in a row whose identity or uncertainty is not a record's
        ("8,9,16,127.619,0.01,0,original", "A != Z + N for Z=8 N=9 A=16"),
        ("8,8,16,127.619,-0.01,0,err_minus", "negative uncertainty for Z=8 A=16"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        # read_augmented_csv and `nucaug train` on an augmented CSV
        header = ",".join(augment.AUGMENTED_CSV_COLUMNS)
        good = "8,8,16,127.619,0.01,0,original"
        path = tmp_path / "aug.csv"
        path.write_text("\n".join([header, good, good, row, good]) + "\n")
        with pytest.raises(MassTableParseError) as exc:
            augment.read_augmented_csv(path)
        assert exc.value.line_no == 4
        assert message in str(exc.value)

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["train", str(path), "--arch", "4", "--epochs", "1",
                             "--batch", "8", "--out", str(tmp_path / "m.npz")])
        assert code == cli.EXIT_DATA
        assert stderr.getvalue().startswith("data error: line 4:")
        assert stderr.getvalue().count("\n") == 1

    @pytest.mark.parametrize("sidecar, message", [
        ('{"technique": "none"', "Expecting ',' delimiter"),
        ("{}", "expected a JSON object with the keys base_size, k, noise_seed, technique"),
        ('{"technique": "mixup", "k": -3, "noise_seed": "x", "base_size": -5}',
         "unknown augmentation technique 'mixup'"),
        ('{"technique": "error", "k": 0, "noise_seed": null, "base_size": -5}',
         "base_size -5 is not the 4 original rows"),
        ('{"technique": "error", "k": 0, "noise_seed": null, "base_size": 4.0}',
         "base_size 4.0 is not the 4 original rows"),
        ('{"technique": "gaussian", "k": "3", "noise_seed": 1, "base_size": 4}',
         "gaussian takes k >= 1, got k='3'"),
        ("[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
    ], ids=["not_json", "no_keys", "probe", "base_size", "base_size_float", "k_text",
            "nested_too_deep"])
    def test_bad_sidecar_is_data_error(self, tmp_path, sidecar, message):
        path = tmp_path / "aug.csv"
        augment.write_augmented_csv(augment.error_resample(SAMPLE), SAMPLE, path)
        (tmp_path / "aug.csv.manifest.json").write_text(sidecar)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["train", str(path), "--arch", "4", "--epochs", "1",
                             "--batch", "8", "--out", str(tmp_path / "m.npz")])
        assert code == cli.EXIT_DATA
        err = stderr.getvalue()
        assert err.startswith(f"data error: bad augmented-CSV sidecar {path}.manifest.json: ")
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("argv, level", [
        (["--technique", "none"], ("none", 0, None)),
        (["--technique", "error", "--noise-seed", "3"], ("error", 0, None)),
        (["--technique", "gaussian"], ("gaussian", 1, 0)),
        (["--technique", "gaussian", "--k", "5", "--noise-seed", "7"], ("gaussian", 5, 7)),
    ], ids=["none", "error", "gaussian1", "gaussian5"])
    def test_sidecar_reads_back(self, tmp_path, argv, level):
        # what `nucaug augment` writes, `nucaug train` reads as the same level
        records = tmp_path / "records.csv"
        ame.write_records_csv(SAMPLE, records)
        path = tmp_path / "aug.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["augment", str(records), *argv, "--out", str(path)]) == 0
        back = augment.read_augmented_csv(path)
        assert (back.technique, back.k, back.noise_seed, back.base_size) == (
            *level, len(SAMPLE))

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)

    @given(sidecar=st.fixed_dictionaries({}, optional={
        "technique": st.sampled_from(augment.TECHNIQUES) | JSON,
        "k": st.integers(-1, 3) | JSON,
        "noise_seed": st.none() | st.integers(-1, 3) | JSON,
        "base_size": st.integers(3, 5) | JSON}))
    @settings(max_examples=150, deadline=None)
    def test_any_sidecar(self, tmp_path_factory, sidecar):
        # the sidecar's values, whatever JSON they are, never reach a traceback
        path = tmp_path_factory.getbasetemp() / "fuzz_aug.csv"
        augment.write_augmented_csv(augment.error_resample(SAMPLE), SAMPLE, path)
        with open(str(path) + ".manifest.json", "w") as fh:
            json.dump(sidecar, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["train", str(path), "--arch", "4", "--epochs", "1",
                             "--batch", "8", "--out", str(path) + ".npz"])
        err = stderr.getvalue()
        if code == cli.EXIT_OK:
            back = augment.read_augmented_csv(path)
            assert err == "" and {key: getattr(back, key) for key in sidecar} == sidecar
        else:
            assert code == cli.EXIT_DATA
            assert err.startswith(f"data error: bad augmented-CSV sidecar {path}.manifest.json: ")
            assert err.count("\n") == 1

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "aug.csv"
        path.write_text("z,a,energy\n8,16,127.6\n")
        with pytest.raises(MassTableParseError, match="unexpected CSV header"):
            augment.read_augmented_csv(path)

    @pytest.mark.parametrize("technique", ["none", "error", "gaussian"])
    def test_repeated_key_is_data_error(self, tmp_path, technique):
        # each row takes the uncertainty of its (Z, A)'s record, which a
        # repeated (Z, A) leaves ambiguous
        records = tmp_path / "records.csv"
        records.write_text(",".join(ame.CSV_COLUMNS) + "\n"
                           "20,20,40,342.05,0.1,0\n20,20,40,342.05,0.7,0\n")
        out = tmp_path / "aug.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["augment", str(records), "--technique", technique,
                             "--out", str(out)])
        assert (code, stderr.getvalue()) == (
            cli.EXIT_DATA, "data error: duplicate (Z, A) in augment input: [(20, 40)]\n")
        assert sorted(tmp_path.iterdir()) == [records]

    def test_repeated_key_message_is_the_diff_message(self):
        twice = [SAMPLE[0], *SAMPLE, SAMPLE[2]]
        with pytest.raises(DataIntegrityError) as exc:
            augment.write_augmented_csv(augment.identity_set(twice), twice, "unwritten.csv")
        keys = sorted({SAMPLE[0].key, SAMPLE[2].key})
        assert str(exc.value) == f"duplicate (Z, A) in augment input: {keys}"
        with pytest.raises(DataIntegrityError) as exc:
            ame.diff_new_nuclei(twice, [])
        assert str(exc.value) == f"duplicate (Z, A) in old input: {keys}"

    @pytest.mark.parametrize("level, message", [
        (["--technique", "error"], "the err_plus energy of Z=8 A=16 is not finite: inf"),
        (["--technique", "gaussian", "--k", "3"],
         "the gauss_1 energy of Z=8 A=16 is not finite: inf"),
    ])
    def test_overflowing_energy_is_data_error(self, tmp_path, level, message):
        # energies its own readers would reject are never written
        records = tmp_path / "records.csv"
        records.write_text(",".join(ame.CSV_COLUMNS) + "\n8,8,16,1.7e308,1.7e308,0\n")
        out = tmp_path / "aug.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["augment", str(records), *level, "--out", str(out)])
        assert (code, stderr.getvalue()) == (cli.EXIT_DATA, f"data error: {message}\n")
        assert sorted(tmp_path.iterdir()) == [records]

    def test_out_of_range_mass_number_is_data_error(self):
        with pytest.raises(DataIntegrityError, match="64-bit"):
            augment.identity_set([rec(8, 10**20, 127.6, 0.1)])
