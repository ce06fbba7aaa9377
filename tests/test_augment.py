import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucaug import augment, cli
from nucaug.ame import NuclideRecord
from nucaug.errors import ConfigurationError, DataIntegrityError, MassTableParseError


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

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            augment.error_resample([])


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
                direct[(record.z, record.a, pass_idx)] = augment.gaussian_draw(
                    record.be_total, record.be_err, stream)
        for pass_idx in (1, 2):
            tag = augment.origin_gauss(pass_idx)
            for z, a, energy, origin in kept:
                if origin == tag:
                    assert energy == direct[(z, a, pass_idx)]
        assert others  # sanity

    @pytest.mark.parametrize("noise_seed", [0, 7])
    def test_every_cell_matches_its_own_stream(self, split, noise_seed):
        # the re-keyed generator must give, on the real training set, the
        # draw a fresh _stream would give for every (pass, nucleus) cell
        train = split.train
        assert any(r.be_err == 0 for r in train)
        out = augment.gaussian_resample(train, 5, noise_seed)
        expected = [augment.gaussian_draw(r.be_total, r.be_err,
                                          augment._stream(noise_seed, pass_idx, i))
                    for pass_idx in range(1, 6) for i, r in enumerate(train)]
        assert out.rows["energy"][len(train):].tobytes() == np.array(expected).tobytes()

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
        with pytest.raises(ConfigurationError):
            augment.gaussian_resample([], 1, 0)

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


class TestApply:
    def test_dispatch(self):
        assert augment.apply("none", 0, SAMPLE).technique == "none"
        assert augment.apply("error", 0, SAMPLE).technique == "error"
        assert augment.apply("gaussian", 2, SAMPLE, 5).k == 2

    def test_unknown_technique(self):
        with pytest.raises(ConfigurationError):
            augment.apply("mixup", 0, SAMPLE)


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
    ])
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

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "aug.csv"
        path.write_text("z,a,energy\n8,16,127.6\n")
        with pytest.raises(MassTableParseError, match="unexpected CSV header"):
            augment.read_augmented_csv(path)

    def test_out_of_range_mass_number_is_data_error(self):
        with pytest.raises(DataIntegrityError, match="64-bit"):
            augment.identity_set([rec(8, 10**20, 127.6, 0.1)])
