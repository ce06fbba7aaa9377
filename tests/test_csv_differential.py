"""The interchange-CSV writers against the csv.writer ones they replaced.

`reference_*` are those functions as they were, kept here as the reference.
The writers must write the same bytes for any records and any augmented set
whose source has no repeated (Z, A), and the readers must read those bytes
back to the same records and training rows.
"""

import csv
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nucaug import ame, augment
from nucaug.ame import CSV_COLUMNS, NuclideRecord
from nucaug.augment import AUGMENTED_CSV_COLUMNS, AugmentedTrainingSet


def reference_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def reference_write_records_csv(records, path):
    reference_write_csv(path, CSV_COLUMNS,
                        ((r.z, r.n, r.a, repr(r.be_total), repr(r.be_err), int(r.estimated))
                         for r in records))


def reference_write_augmented_csv(aug, source, path):
    err = {r.key: repr(r.be_err) for r in source}
    names = {code: augment.origin_name(code) for code in set(aug.rows["origin"].tolist())}
    reference_write_csv(path, AUGMENTED_CSV_COLUMNS,
                        ((z, a - z, a, repr(energy), err[(z, a)], 0, names[origin])
                         for z, a, energy, origin in aug.rows.tolist()))
    manifest = {key: getattr(aug, key) for key in ("base_size", "k", "noise_seed", "technique")}
    with open(str(path) + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# energies with the reprs a writer must keep: -0.0 (a record takes it, as
# -0.0 >= 0), subnormals, 1e16 and above, and any other finite float >= 0
ENERGIES = (st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e300,
                             1.7976931348623157e308, 0.1, 342.05])
            | st.floats(0, allow_nan=False, allow_infinity=False))


@st.composite
def record_lists(draw, energies=ENERGIES):
    """Records with distinct (Z, A), any Z and N, and any energies and flags."""
    pairs = draw(st.lists(st.tuples(st.integers(-10, 2 ** 62), st.integers(-10, 400)),
                          max_size=12, unique_by=lambda p: (p[0], p[0] + p[1])))
    return [NuclideRecord(z, n, z + n, draw(energies), draw(energies), draw(st.booleans()))
            for z, n in pairs]


@st.composite
def augmented_sets(draw):
    """A source and a training set of its records: a level of augment.apply,
    or rows of any of its (Z, A) with any finite energy and any origin."""
    if draw(st.booleans()):
        # energies that a shift or a draw of a few sigma cannot overflow
        source = draw(record_lists(ENERGIES.filter(lambda e: e <= 1e300)).filter(bool))
        technique = draw(st.sampled_from(augment.TECHNIQUES))
        k = draw(st.integers(1, 4)) if technique == "gaussian" else 0
        return augment.apply(technique, k, source, draw(st.integers(0, 9))), source
    source = draw(record_lists().filter(bool))
    picks = draw(st.lists(st.sampled_from(source), max_size=20))
    energies = [draw(st.floats(allow_nan=False, allow_infinity=False)) for _ in picks]
    origins = [draw(st.sampled_from([0, -1, -2]) | st.integers(1, 2 ** 63 - 1))
               for _ in picks]
    rows = augment._rows([r.z for r in picks], [r.a for r in picks], energies, origins)
    return AugmentedTrainingSet(rows=rows, technique="none"), source


def written(write, path, *args):
    write(*args, path)
    with open(path, "rb") as fh:
        data = fh.read()
    sidecar = str(path) + ".manifest.json"
    try:
        with open(sidecar, "rb") as fh:
            return data, fh.read()
    except FileNotFoundError:
        return data, None


class TestWritersAgainstReference:
    @given(records=record_lists())
    @settings(max_examples=50, deadline=None)
    def test_records(self, tmp_path_factory, records):
        base = tmp_path_factory.getbasetemp()
        want = written(reference_write_records_csv, base / "want.csv", records)
        assert written(ame.write_records_csv, base / "got.csv", records) == want
        assert ame.read_records_csv(base / "got.csv") == records

    @given(case=augmented_sets())
    @settings(max_examples=50, deadline=None)
    def test_augmented(self, tmp_path_factory, case):
        aug, source = case
        base = tmp_path_factory.getbasetemp()
        want = written(reference_write_augmented_csv, base / "want.csv", aug, source)
        assert written(augment.write_augmented_csv, base / "got.csv", aug, source) == want
        back = augment.read_augmented_csv(base / "got.csv").rows
        assert back.tobytes() == aug.rows.tobytes()

    def test_crlf_and_repr_bytes(self, tmp_path):
        records = [NuclideRecord(20, 20, 40, 342.05, 0.1, False),
                   NuclideRecord(8, 9, 17, 1e16, -0.0, True)]
        ame.write_records_csv(records, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"z,n,a,be_total_mev,be_err_mev,estimated\r\n"
            b"20,20,40,342.05,0.1,0\r\n8,9,17,1e+16,-0.0,1\r\n")
        augment.write_augmented_csv(augment.error_resample(records[:1]), records[:1],
                                    tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == (
            b"z,n,a,be_total_mev,be_err_mev,estimated,origin\r\n"
            b"20,20,40,342.05,0.1,0,original\r\n20,20,40,342.15000000000003,0.1,0,err_plus\r\n"
            b"20,20,40,341.95,0.1,0,err_minus\r\n")
