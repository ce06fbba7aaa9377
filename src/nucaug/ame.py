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
        if self.be_err < 0:
            raise DataIntegrityError(f"negative uncertainty for Z={self.z} A={self.a}")
        if self.be_total < 0:
            raise DataIntegrityError(f"negative binding energy for Z={self.z} A={self.a}")

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


def _energy_field(line: str, col: tuple[int, int], line_no: int, name: str,
                  a: int) -> tuple[float, bool]:
    """Parse a per-nucleon keV field into a total in MeV (times A / 1000).

    ``#`` in place of the decimal point marks an estimate. ``float`` also
    reads nan and inf, and a huge value overflows once scaled by A, so a
    result that is not finite is rejected like a non-numeric one.
    """
    text = line[col[0]:col[1]].strip()
    estimated = "#" in text
    try:
        value = float(text.replace("#", ".")) * a / 1000.0
    except ValueError:
        raise MassTableParseError(line_no, f"non-numeric {name} field {text!r}") from None
    if not math.isfinite(value):
        raise MassTableParseError(line_no, f"{name} field {text!r} is not a finite energy")
    return value, estimated


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

    records = []
    for line_no, line in enumerate(content.splitlines(), start=1):
        if line_no <= layout.header_lines:
            continue
        if not line.strip():
            continue
        if len(line) < layout.min_width:
            raise MassTableParseError(
                line_no, f"line width {len(line)} < required {layout.min_width}")
        n = _int_field(line, layout.col_n, line_no, "N")
        z = _int_field(line, layout.col_z, line_no, "Z")
        a = _int_field(line, layout.col_a, line_no, "A")
        be_total, est1 = _energy_field(line, layout.col_bea, line_no, "BE/A", a)
        be_err, est2 = _energy_field(line, layout.col_bea_err, line_no, "BE/A uncertainty", a)
        records.append(NuclideRecord(z=z, n=n, a=a, be_total=be_total, be_err=be_err,
                                     estimated=est1 or est2))
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
        for r in records:
            w.writerow([r.z, r.n, r.a, repr(r.be_total), repr(r.be_err), int(r.estimated)])


def read_records_csv(path) -> list[NuclideRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise MassTableParseError(1, f"unexpected CSV header {reader.fieldnames}")
        return [NuclideRecord(
            z=int(row["z"]), n=int(row["n"]), a=int(row["a"]),
            be_total=float(row["be_total_mev"]), be_err=float(row["be_err_mev"]),
            estimated=bool(int(row["estimated"])),
        ) for row in reader]
