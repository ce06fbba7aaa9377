"""Atomic-mass-table ingestion.

Reads fixed-width AME-style ``mass`` files (AME2016 ``mass16`` layout and
AME2020 ``mass_1.mas20`` layout), converts the per-nucleon binding energy
column (keV) to total binding energies in MeV, and provides the dataset
operations used downstream: experimental filtering, edition diffing and a
seeded train/test split.

Values whose decimal point is replaced by ``#`` follow the AME convention
for non-experimental (extrapolated) entries and are flagged ``estimated``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, DataIntegrityError, MassTableParseError


@dataclass(frozen=True)
class NuclideRecord:
    """One nucleus: identity, total binding energy and its uncertainty."""

    z: int
    n: int
    a: int
    be_total: float  # MeV
    be_err: float    # MeV, one sigma
    estimated: bool

    def __post_init__(self):
        if self.a != self.z + self.n:
            raise DataIntegrityError(f"A != Z + N for Z={self.z} N={self.n} A={self.a}")
        # one chained test on the common path; nan fails every comparison
        if not (0.0 <= self.be_err < math.inf and 0.0 <= self.be_total < math.inf):
            for name, value in (("uncertainty", self.be_err), ("binding energy", self.be_total)):
                if not math.isfinite(value):
                    raise DataIntegrityError(f"non-finite {name} for Z={self.z} A={self.a}")
                if value < 0:
                    raise DataIntegrityError(f"negative {name} for Z={self.z} A={self.a}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.z, self.a)


@dataclass(frozen=True)
class DatasetSplit:
    train: list[NuclideRecord]
    test: list[NuclideRecord]
    split_seed: int
    ratio: float


@dataclass(frozen=True)
class MassTableLayout:
    """Fixed-width column positions of one AME edition (0-based slices)."""

    header_lines: int
    min_width: int
    col_n: tuple[int, int]
    col_z: tuple[int, int]
    col_a: tuple[int, int]
    col_bea: tuple[int, int]       # binding energy per nucleon, keV
    col_bea_err: tuple[int, int]   # its uncertainty, keV


# Column positions follow the Fortran record formats printed in the headers
# of the published files:
#   mass16:      a1,i3,i5,i5,i5,1x,a3,a4,1x,f13.5,f11.5,f11.3,f9.3,...
#   mass_1.mas20: a1,i3,i5,i5,i5,1x,a3,a4,1x,f14.6,f12.6,f13.5,f10.5,...
LAYOUTS: dict[str, MassTableLayout] = {
    "AME2016": MassTableLayout(
        header_lines=39,
        min_width=72,
        col_n=(4, 9),
        col_z=(9, 14),
        col_a=(14, 19),
        col_bea=(52, 63),
        col_bea_err=(63, 72),
    ),
    "AME2020": MassTableLayout(
        header_lines=36,
        min_width=77,
        col_n=(4, 9),
        col_z=(9, 14),
        col_a=(14, 19),
        col_bea=(54, 67),
        col_bea_err=(67, 77),
    ),
}


def _int_field(line: str, col: tuple[int, int], line_no: int, name: str) -> int:
    text = line[col[0]:col[1]].strip()
    try:
        return int(text)
    except ValueError:
        raise MassTableParseError(line_no, f"non-numeric {name} field {text!r}") from None


def _energy_field(line: str, col: tuple[int, int], line_no: int, name: str, a: int) -> float:
    """Parse a per-nucleon keV field into a total in MeV (times A / 1000).

    ``#`` stands in for the decimal point of an estimate. ``float`` also
    reads nan and inf, and a huge value overflows once scaled by A, so a
    result that is not finite is rejected like a non-numeric one.
    """
    text = line[col[0]:col[1]].strip()
    try:
        value = float(text.replace("#", ".")) * a / 1000.0
    except ValueError:
        raise MassTableParseError(line_no, f"non-numeric {name} field {text!r}") from None
    if not math.isfinite(value):
        raise MassTableParseError(line_no, f"{name} field {text!r} is not a finite energy")
    return value


def parse_mass_table(content: str | bytes, edition: str) -> list[NuclideRecord]:
    """Parse a complete AME ``mass`` file into nuclide records.

    The per-nucleon binding energy (keV) and its uncertainty are converted to
    total MeV: be_total = (BE/A) * A / 1000.
    """
    if edition not in LAYOUTS:
        raise ConfigurationError(
            f"unknown mass-table edition {edition!r}; known: {sorted(LAYOUTS)}")
    layout = LAYOUTS[edition]
    if isinstance(content, bytes):
        content = content.decode("ascii", errors="replace")

    min_width = layout.min_width
    n0, n1 = layout.col_n
    z0, z1 = layout.col_z
    a0, a1 = layout.col_a
    b0, b1 = layout.col_bea
    e0, e1 = layout.col_bea_err
    isfinite = math.isfinite
    records = []
    append = records.append
    lines = content.splitlines()[layout.header_lines:]
    for line_no, line in enumerate(lines, start=layout.header_lines + 1):
        if len(line) < min_width:
            if not line.strip():
                continue
            raise MassTableParseError(line_no, f"line width {len(line)} < required {min_width}")
        # int() and float() strip whitespace themselves; anything they reject,
        # and a value that is not finite, goes back through the field helpers,
        # which raise the error that names the line and field
        bea, bea_err = line[b0:b1], line[e0:e1]
        try:
            n = int(line[n0:n1])
            z = int(line[z0:z1])
            a = int(line[a0:a1])
            be_total = float(bea.replace("#", ".")) * a / 1000.0
            be_err = float(bea_err.replace("#", ".")) * a / 1000.0
            if not (isfinite(be_total) and isfinite(be_err)):
                raise ValueError
        except ValueError:
            if not line.strip():
                continue
            n = _int_field(line, layout.col_n, line_no, "N")
            z = _int_field(line, layout.col_z, line_no, "Z")
            a = _int_field(line, layout.col_a, line_no, "A")
            be_total = _energy_field(line, layout.col_bea, line_no, "BE/A", a)
            be_err = _energy_field(line, layout.col_bea_err, line_no, "BE/A uncertainty", a)
        append(NuclideRecord(z, n, a, be_total, be_err, "#" in bea or "#" in bea_err))
    return records


def filter_experimental(records: Iterable[NuclideRecord],
                        z_min: int = 8, n_min: int = 8) -> list[NuclideRecord]:
    """Keep measured (non-estimated) nuclei with z >= z_min and n >= n_min."""
    return [r for r in records
            if r.z >= z_min and r.n >= n_min and not r.estimated]


def diff_new_nuclei(old: Iterable[NuclideRecord],
                    new: Iterable[NuclideRecord]) -> list[NuclideRecord]:
    """Records present in `new` but absent from `old`, keyed by (Z, A)."""
    old, new = list(old), list(new)
    for name, recs in (("old", old), ("new", new)):
        keys = [r.key for r in recs]
        if len(keys) != len(set(keys)):
            seen, dups = set(), set()
            for k in keys:
                (dups if k in seen else seen).add(k)
            raise DataIntegrityError(f"duplicate (Z, A) in {name} input: {sorted(dups)}")
    old_keys = {r.key for r in old}
    return [r for r in new if r.key not in old_keys]


def split_dataset(records: list[NuclideRecord], ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled split; first floor(ratio*N) records become train."""
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"split ratio must be in (0, 1), got {ratio}")
    if not records:
        raise ConfigurationError("cannot split an empty record list")
    perm = np.random.default_rng(seed).permutation(len(records))
    n_train = int(math.floor(ratio * len(records)))
    return DatasetSplit(
        train=[records[i] for i in perm[:n_train]],
        test=[records[i] for i in perm[n_train:]],
        split_seed=seed,
        ratio=ratio,
    )


CSV_COLUMNS = ["z", "n", "a", "be_total_mev", "be_err_mev", "estimated"]


def write_records_csv(records: Iterable[NuclideRecord], path) -> None:
    """Write the canonical nuclide CSV, the interchange format of the pipeline."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows((r.z, r.n, r.a, repr(r.be_total), repr(r.be_err), int(r.estimated))
                    for r in records)


def csv_rows(path, columns: list[str]):
    """(line number, fields) of each data row of a CSV file headed `columns`.

    Blank lines are skipped. Another header, a row with more or fewer fields
    than the header, or text the csv module cannot split raises
    MassTableParseError naming the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != columns:
                raise MassTableParseError(1, f"unexpected CSV header {header}")
            width = len(columns)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise MassTableParseError(
                        reader.line_num, f"{len(row)} fields, expected {width}")
                yield reader.line_num, row
        except csv.Error as exc:
            raise MassTableParseError(reader.line_num, f"malformed CSV row: {exc}") from None


def bad_field(line_no: int, columns: list[str], types, row) -> MassTableParseError:
    """The error for the first field of `row` that its type does not read,
    or that reads as a non-finite float."""
    for name, kind, text in zip(columns, types, row):
        try:
            value = kind(text)
        except ValueError:
            return MassTableParseError(line_no, f"non-numeric {name} field {text!r}")
        if kind is float and not math.isfinite(value):
            return MassTableParseError(line_no, f"{name} field {text!r} is not a finite energy")
    return MassTableParseError(line_no, f"unreadable row {row}")


_CSV_TYPES = (int, int, int, float, float, int)


def read_records_csv(path) -> list[NuclideRecord]:
    """Read a write_records_csv file; a malformed row raises
    MassTableParseError naming the line."""
    records = []
    for line_no, row in csv_rows(path, CSV_COLUMNS):
        z, n, a, be_total, be_err, estimated = row
        try:
            fields = (int(z), int(n), int(a), float(be_total), float(be_err),
                      bool(int(estimated)))
        except ValueError:
            raise bad_field(line_no, CSV_COLUMNS, _CSV_TYPES, row) from None
        records.append(NuclideRecord(*fields))
    return records
