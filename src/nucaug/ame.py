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
import operator
import re
import string
from dataclasses import dataclass
from itertools import compress, repeat
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

    key = property(operator.itemgetter(0, 2), doc="(Z, A), read at C speed")


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
    col_n: tuple[int, int]
    col_z: tuple[int, int]
    col_a: tuple[int, int]
    col_bea: tuple[int, int]       # binding energy per nucleon, keV
    col_bea_err: tuple[int, int]   # its uncertainty, keV

    @property
    def columns(self) -> tuple[tuple[int, int], ...]:
        """The five fields' slices, in the order of _FIELD_NAMES."""
        return self.col_n, self.col_z, self.col_a, self.col_bea, self.col_bea_err

    @property
    def min_width(self) -> int:
        """The width of a record line: where its last field ends."""
        return max(end for _, end in self.columns)


# Column positions follow the Fortran record formats printed in the headers
# of the published files:
#   mass16:      a1,i3,i5,i5,i5,1x,a3,a4,1x,f13.5,f11.5,f11.3,f9.3,...
#   mass_1.mas20: a1,i3,i5,i5,i5,1x,a3,a4,1x,f14.6,f12.6,f13.5,f10.5,...
LAYOUTS: dict[str, MassTableLayout] = {
    "AME2016": MassTableLayout(
        header_lines=39,
        col_n=(4, 9),
        col_z=(9, 14),
        col_a=(14, 19),
        col_bea=(52, 63),
        col_bea_err=(63, 72),
    ),
    "AME2020": MassTableLayout(
        header_lines=36,
        col_n=(4, 9),
        col_z=(9, 14),
        col_a=(14, 19),
        col_bea=(54, 67),
        col_bea_err=(67, 77),
    ),
}


_FIELD_NAMES = ("N", "Z", "A", "BE/A", "BE/A uncertainty")
# what str.strip() strips from a line of ASCII text; a record line may not
# hold the five among them at which str.splitlines() would end it
_WHITESPACE = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
_LINE_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"
_LINE_BREAK = re.compile(b"[%s]" % _LINE_BREAKS)
_HASH, _POINT = ord("#"), ord(".")


def parse_mass_table(content: str | bytes, edition: str) -> list[NuclideRecord]:
    r"""Parse a complete AME ``mass`` file into nuclide records.

    The per-nucleon binding energy (keV) and its uncertainty are converted to
    total MeV: be_total = (BE/A) * A / 1000.

    The file is read as ASCII text, one byte per column; any other byte, and
    any non-ASCII character of a str, is an unreadable character. Only
    ``\n``, ``\r\n`` and ``\r`` end a line, so an error names the physical
    line: the first bad one, in file order. Whitespace-only lines are
    skipped; a record line that holds one of the other line-break characters
    (``\x0b``, ``\x0c``, ``\x1c``-``\x1e``) is rejected.
    """
    if edition not in LAYOUTS:
        raise ConfigurationError(
            f"unknown mass-table edition {edition!r}; known: {sorted(LAYOUTS)}")
    layout = LAYOUTS[edition]
    if isinstance(content, str):
        content = content.encode("ascii", "replace")
    if any(map(content.__contains__, _LINE_BREAKS)):  # memchr; a regex takes 5 ms
        _raise_first_bad_line(content, layout)  # returns if only blank lines hold them

    table = _record_table(content, layout)
    fields = [table[:, c0:c1] for c0, c1 in layout.columns]
    bea, bea_err = fields[3:]
    # "#" stands in for the decimal point of an estimate
    bea_hash, err_hash = bea == _HASH, bea_err == _HASH
    estimated = (bea_hash.any(1) | err_hash.any(1)).tolist()
    bea[bea_hash] = bea_err[err_hash] = _POINT
    try:
        if any((field == 0).any() for field in fields):
            raise ValueError("a short line, or a NUL in a field")
        # one column's text at a time, so that the texts of all five never coexist
        n, z, a = (list(map(int, _column_text(field))) for field in fields[:3])
        mass = np.array(a, dtype=np.float64)
        # float reads nan and inf, and a huge value overflows once scaled by A
        with np.errstate(over="ignore", invalid="ignore"):
            be_total, be_err = (np.fromiter(map(float, _column_text(field)), np.float64,
                                            len(mass)) * mass / 1000.0
                                for field in fields[3:])
        if not (np.isfinite(be_total).all() and np.isfinite(be_err).all()):
            raise ValueError("a non-finite energy")
        # __new__ itself, with every check, but without type.__call__'s own cost;
        # its DataIntegrityError is a ValueError, which the line scan frames
        return list(map(NuclideRecord.__new__, repeat(NuclideRecord), z, n, a,
                        be_total.tolist(), be_err.tolist(), estimated))
    except ValueError:
        _raise_first_bad_line(content, layout)
        raise AssertionError("the line scan accepts every line of a table that the "
                             "column pass rejects") from None


def _record_table(content: bytes, layout: MassTableLayout) -> np.ndarray:
    """The non-blank lines after the header as a byte matrix, each cut or
    NUL-padded to the width of a record line. The fields end at that width,
    so a shorter line ends in padding, which no field may hold."""
    lines = content.splitlines()[layout.header_lines:]
    record = map(len, map(bytes.strip, lines, repeat(_WHITESPACE)))
    table = np.fromiter(compress(lines, record), f"S{layout.min_width}")
    return table.view(np.uint8).reshape(len(table), layout.min_width)


def _column_text(field: np.ndarray) -> list[bytes]:
    """Each row of a byte-matrix column as bytes, without trailing NULs."""
    return field.view(f"S{field.shape[1]}")[:, 0].tolist()


def _raise_first_bad_line(content: bytes, layout: MassTableLayout) -> None:
    """Raise the error of the first record line, in file order, that
    parse_mass_table rejects; return if there is none."""
    lines = content.splitlines()[layout.header_lines:]
    for line_no, raw in enumerate(lines, start=layout.header_lines + 1):
        line = raw.decode("ascii", errors="replace")
        if not line.strip():
            continue
        if found := _LINE_BREAK.search(raw):
            raise MassTableParseError(
                line_no, f"line-break character {found[0].decode()!r} inside a record")
        if len(line) < layout.min_width:
            raise MassTableParseError(
                line_no, f"line width {len(line)} < required {layout.min_width}")
        # strip only what int() and float() skip, so that a \x1f is named
        fields = [line[c0:c1].strip(string.whitespace) for c0, c1 in layout.columns]
        n, z, a = read_fields(line_no, _FIELD_NAMES[:3], (int,) * 3, fields[:3])

        def bea(text):  # keV per nucleon, "#" for the point of an estimate, to MeV
            return energy(float(text.replace("#", ".")) * a / 1000.0)

        be_total, be_err = read_fields(line_no, _FIELD_NAMES[3:], (bea, bea), fields[3:])
        try:
            NuclideRecord(z, n, a, be_total, be_err, False)  # A != Z + N, a negative energy
        except DataIntegrityError as exc:
            raise MassTableParseError(line_no, str(exc)) from None


Z_N_MIN = 8  # the smallest Z and N of the study's nuclei


def filter_experimental(records: Iterable[NuclideRecord],
                        z_min: int = Z_N_MIN, n_min: int = Z_N_MIN) -> list[NuclideRecord]:
    """Keep measured (non-estimated) nuclei with z >= z_min and n >= n_min."""
    return [r for r in records
            if r.z >= z_min and r.n >= n_min and not r.estimated]


def unique_keys(records: Iterable[NuclideRecord], name: str) -> list[tuple[int, int]]:
    """The (Z, A) of each record, in order; DataIntegrityError naming the
    `name` input and every repeated key if a key repeats."""
    keys = list(map(NuclideRecord.key.fget, records))
    if len(keys) != len(set(keys)):
        seen, dups = set(), set()
        for k in keys:
            (dups if k in seen else seen).add(k)
        raise DataIntegrityError(f"duplicate (Z, A) in {name} input: {sorted(dups)}")
    return keys


def diff_new_nuclei(old: Iterable[NuclideRecord],
                    new: Iterable[NuclideRecord]) -> list[NuclideRecord]:
    """Records present in `new` but absent from `old`, keyed by (Z, A)."""
    new = list(new)
    old_keys, new_keys = unique_keys(old, "old"), unique_keys(new, "new")
    known = set(old_keys)
    return [r for r, k in zip(new, new_keys) if k not in known]


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
    """Write a header line and rows through csv.writer, which quotes a field
    that needs it: results.csv and the report CSVs, whose status and label
    text can. The two interchange CSVs, whose fields are numbers and fixed
    names that never need quoting, are written as text by write_csv_lines."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_csv_lines(path, header: list[str], lines: Iterable[str]) -> None:
    """Write a header line and data lines, each already ended by CRLF: the
    bytes csv.writer writes for fields that need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(lines))


def record_columns(records: Iterable[NuclideRecord]) -> tuple[tuple, ...]:
    """The records' fields, one tuple per field, in one transpose."""
    return tuple(zip(*records)) or ((),) * len(NuclideRecord._fields)


def write_records_csv(records: Iterable[NuclideRecord], path) -> None:
    """Write the canonical nuclide CSV, the interchange format of the pipeline:
    Z, N and A as integers, the energies as repr floats and estimated as 0 or 1."""
    z, n, a, be_total, be_err, estimated = record_columns(records)
    write_csv_lines(path, CSV_COLUMNS, map("{},{},{},{!r},{!r},{}\r\n".format,
                                           z, n, a, be_total, be_err, map(int, estimated)))


def read_csv(path, columns: list[str], kinds, rule) -> list:
    """rule(fields) of each data row of a CSV file headed `columns`, where
    `fields` are the row's values read by `kinds`.

    Blank lines are skipped. Another header, a row of another width, text
    the csv module cannot split, a field its kind rejects (read_fields) and
    a ConfigurationError or DataIntegrityError of `rule` raise
    MassTableParseError naming the line; text that is not UTF-8 raises
    DataIntegrityError naming the file."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != columns:
                raise MassTableParseError(1, f"unexpected CSV header {header}")
            for row in reader:
                if len(row) != len(columns):
                    if not row:
                        continue
                    raise MassTableParseError(
                        reader.line_num, f"{len(row)} fields, expected {len(columns)}")
                try:
                    out.append(rule(read_fields(reader.line_num, columns, kinds, row)))
                except (ConfigurationError, DataIntegrityError) as exc:
                    raise MassTableParseError(reader.line_num, str(exc)) from None
        except csv.Error as exc:
            raise MassTableParseError(reader.line_num, f"malformed CSV row: {exc}") from None
        except UnicodeDecodeError:
            # decoding runs a block at a time, so no line can be named
            raise DataIntegrityError(f"{path} is not UTF-8 text") from None
    return out


class _NotFinite(ValueError):
    """A number, but nan or an infinity."""


def read_fields(line_no: int, columns, kinds, row) -> list:
    """The fields of `row`, each read by its kind: a callable that raises
    ValueError for text that is not a number of its kind, _NotFinite for nan
    or an infinity, and ConfigurationError for a number out of its range;
    MassTableParseError naming the line and the first field rejected."""
    try:
        return [kind(text) for kind, text in zip(kinds, row)]
    except ValueError:
        pass
    for name, kind, text in zip(columns, kinds, row):
        try:
            kind(text)
        except _NotFinite:
            raise MassTableParseError(
                line_no, f"{name} field {text!r} is not a finite energy") from None
        except ConfigurationError as exc:  # a number, but out of range
            raise MassTableParseError(line_no, f"{name} field {text!r}: {exc}") from None
        except ValueError:
            raise MassTableParseError(line_no, f"non-numeric {name} field {text!r}") from None


def energy(text) -> float:
    """The kind of an energy field: a finite float, from its text or a float."""
    value = float(text)
    if math.isfinite(value):
        return value
    raise _NotFinite


def int64(text: str) -> int:
    """The kind of a Z or A field: an integer that fits augmentation's arrays."""
    value = int(text)
    if -2 ** 63 <= value < 2 ** 63:
        return value
    raise ConfigurationError("does not fit a 64-bit integer")


def choice(values: dict):
    """The kind of a field whose text is a key of `values`, read as its value."""
    def kind(text: str):
        try:
            return values[text]
        except KeyError:
            int(text)  # ValueError for text that is not a number
            raise ConfigurationError(f"expected {' or '.join(values)}") from None
    return kind


flag = choice({"0": False, "1": True})  # estimated, as write_records_csv writes it


def read_records_csv(path) -> list[NuclideRecord]:
    """Read a write_records_csv file (read_csv); a row that is not a
    NuclideRecord raises MassTableParseError naming the line."""
    return read_csv(path, CSV_COLUMNS, (int64, int, int64, energy, energy, flag),
                    NuclideRecord._make)
