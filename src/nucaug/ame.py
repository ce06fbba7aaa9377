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
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigurationError, DataIntegrityError, MassTableParseError


class _NuclideFields(NamedTuple):
    z: int
    n: int
    a: int
    be_total: float  # MeV
    be_err: float    # MeV, one sigma
    estimated: bool


class NuclideRecord(_NuclideFields):
    """One nucleus: identity, total binding energy and its uncertainty.

    An immutable tuple of its six fields, so that building one, which every
    parsed or read record does, costs one tuple. Every way of making one
    (positional, keyword, ``_make``, ``_replace`` and unpickling) passes the
    checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, z: int, n: int, a: int, be_total: float, be_err: float,
                estimated: bool):
        if a != z + n:
            raise DataIntegrityError(f"A != Z + N for Z={z} N={n} A={a}")
        # one chained test on the common path; nan fails every comparison
        if not (0.0 <= be_err < math.inf and 0.0 <= be_total < math.inf):
            for name, value in (("uncertainty", be_err), ("binding energy", be_total)):
                if not math.isfinite(value):
                    raise DataIntegrityError(f"non-finite {name} for Z={z} A={a}")
                if value < 0:
                    raise DataIntegrityError(f"negative {name} for Z={z} A={a}")
        return tuple.__new__(cls, (z, n, a, be_total, be_err, estimated))

    @classmethod
    def _make(cls, iterable) -> "NuclideRecord":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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


_FIELD_NAMES = ("N", "Z", "A", "BE/A", "BE/A uncertainty")


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
        # int() and float() strip whitespace themselves; "#" stands in for the
        # decimal point of an estimate. A line they reject, or whose energy is
        # not finite (float reads nan and inf, and a huge value overflows once
        # scaled by A), goes to bad_field, which names the line and field.
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
            try:
                a = int(line[a0:a1])
            except ValueError:
                a = 0  # bad_field names A before it reads an energy

            def energy(text):
                return float(text.replace("#", ".")) * a / 1000.0

            fields = [line[c0:c1].strip()
                      for c0, c1 in ((n0, n1), (z0, z1), (a0, a1), (b0, b1), (e0, e1))]
            raise bad_field(line_no, _FIELD_NAMES, (int, int, int, energy, energy),
                            fields) from None
        append(NuclideRecord(z, n, a, be_total, be_err, "#" in bea or "#" in bea_err))
    return records


Z_N_MIN = 8  # the smallest Z and N of the study's nuclei


def filter_experimental(records: Iterable[NuclideRecord],
                        z_min: int = Z_N_MIN, n_min: int = Z_N_MIN) -> list[NuclideRecord]:
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
    if seed < 0:
        raise ConfigurationError(f"split seed must be >= 0, got {seed}")
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


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """Write a header line and rows; every CSV the package writes goes here."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_records_csv(records: Iterable[NuclideRecord], path) -> None:
    """Write the canonical nuclide CSV, the interchange format of the pipeline."""
    write_csv(path, CSV_COLUMNS,
              ((r.z, r.n, r.a, repr(r.be_total), repr(r.be_err), int(r.estimated))
               for r in records))


def csv_rows(path, columns: list[str]):
    """(line number, fields) of each data row of a CSV file headed `columns`.

    Blank lines are skipped. Another header, a row with more or fewer fields
    than the header, or text the csv module cannot split raises
    MassTableParseError naming the line; a file that is not UTF-8 text
    raises DataIntegrityError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
        except UnicodeDecodeError:
            # decoding runs a block at a time, so no line can be named
            raise DataIntegrityError(f"{path} is not UTF-8 text") from None


def bad_field(line_no: int, columns, types, row) -> MassTableParseError:
    """The error for the first field of `row` that its type does not read,
    or rejects with a ConfigurationError, or that reads as a non-finite float."""
    for name, kind, text in zip(columns, types, row):
        try:
            value = kind(text)
        except ConfigurationError as exc:  # a number, but out of range
            return MassTableParseError(line_no, f"{name} field {text!r}: {exc}")
        except ValueError:
            return MassTableParseError(line_no, f"non-numeric {name} field {text!r}")
        if isinstance(value, float) and not math.isfinite(value):
            return MassTableParseError(line_no, f"{name} field {text!r} is not a finite energy")
    return MassTableParseError(line_no, f"unreadable row {row}")


_CSV_TYPES = (int, int, int, float, float, int)
_INT64 = range(-2 ** 63, 2 ** 63)


def read_records_csv(path) -> list[NuclideRecord]:
    """Read a write_records_csv file; a malformed row, or a Z or A that does
    not fit the 64-bit arrays of augmentation, raises MassTableParseError
    naming the line."""
    records = []
    for line_no, row in csv_rows(path, CSV_COLUMNS):
        z, n, a, be_total, be_err, estimated = row
        try:
            fields = (int(z), int(n), int(a), float(be_total), float(be_err),
                      bool(int(estimated)))
        except ValueError:
            raise bad_field(line_no, CSV_COLUMNS, _CSV_TYPES, row) from None
        if fields[0] not in _INT64 or fields[2] not in _INT64:
            raise MassTableParseError(line_no, "Z or A does not fit a 64-bit integer")
        records.append(NuclideRecord(*fields))
    return records
