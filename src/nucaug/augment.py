"""Training-set augmentation.

Two techniques, both leaving (Z, A) untouched:

* error resampling: each nucleus with a nonzero uncertainty contributes its
  measured energy plus the two values shifted by +/- one sigma;
* cumulative Gaussian resampling: k full passes of draws from
  Normal(be_total, be_err) are appended after the originals, so the rows
  for k-1 passes are a prefix of the rows for k passes under the same seed.

A training set's rows are one all-numeric numpy structured array
(ROW_DTYPE) with the fields z, a, energy (MeV) and origin, an int64 code:
0 for an original row, -1 and -2 for the plus- and minus-sigma rows, and i
for a row of Gaussian pass i. The origin names ("original", "err_plus",
"err_minus" and "gauss_<i>") appear only in the augmented CSV.

Randomness is counter-based (Philox) and keyed by
(noise_seed, resample_index, nucleus_index), so every draw is addressable and
generation order does not matter.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ame import NuclideRecord, bad_field, csv_rows, write_csv
from .errors import ConfigurationError, DataIntegrityError

ORIGIN_ORIGINAL = 0
ORIGIN_ERR_PLUS = -1
ORIGIN_ERR_MINUS = -2
_ORIGIN_NAMES = {ORIGIN_ORIGINAL: "original", ORIGIN_ERR_PLUS: "err_plus",
                 ORIGIN_ERR_MINUS: "err_minus"}
_ORIGIN_CODES = {name: code for code, name in _ORIGIN_NAMES.items()}
_INT64_MAX = 2 ** 63 - 1


def origin_name(code: int) -> str:
    """The augmented CSV's name of an origin code; pass i >= 1 is gauss_<i>."""
    return _ORIGIN_NAMES.get(code) or f"gauss_{code}"


def origin_code(name: str) -> int:
    """The code of an origin name exactly as origin_name prints it;
    ConfigurationError for any other text."""
    code = _ORIGIN_CODES.get(name)
    if code is None:
        index = name[6:] if name.startswith("gauss_") else ""
        if not (index.isascii() and index.isdigit() and index[0] != "0"
                and int(index) <= _INT64_MAX):
            raise ConfigurationError(
                "expected original, err_plus, err_minus or gauss_<i> with i >= 1")
        code = int(index)
    return code


ROW_DTYPE = np.dtype([("z", np.int64), ("a", np.int64), ("energy", np.float64),
                      ("origin", np.int64)])


def _rows(z, a, energy, origin) -> np.ndarray:
    rows = np.empty(len(energy), dtype=ROW_DTYPE)
    try:
        rows["z"], rows["a"], rows["energy"], rows["origin"] = z, a, energy, origin
    except OverflowError:
        raise DataIntegrityError("a Z or A value does not fit a 64-bit integer") from None
    return rows


def _columns(records: list[NuclideRecord]) -> tuple[tuple, ...]:
    """The records' fields, one tuple per field, in one transpose."""
    return tuple(zip(*records)) if records else ((),) * len(NuclideRecord._fields)


def _originals(train: list[NuclideRecord]) -> np.ndarray:
    z, _, a, be_total, _, _ = _columns(train)
    return _rows(z, a, be_total, ORIGIN_ORIGINAL)


@dataclass(frozen=True)
class AugmentedTrainingSet:
    rows: np.ndarray        # ROW_DTYPE
    technique: str          # "none", "error" or "gaussian"
    k: int = 0              # resample count, gaussian only
    noise_seed: int | None = None

    @property
    def base_size(self) -> int:
        """The number of original rows."""
        return int(np.count_nonzero(self.rows["origin"] == ORIGIN_ORIGINAL))


def identity_set(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """The un-augmented training set (technique "none")."""
    return AugmentedTrainingSet(rows=_originals(train), technique="none")


def error_resample(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """Triplicate each nucleus with nonzero uncertainty by +/- one sigma.

    Row order is deterministic: all originals in input order, then the
    plus-sigma rows, then the minus-sigma rows. Nuclei with zero uncertainty
    contribute only their original row, so the total row count is
    3*n - 2*z0 with z0 the number of zero-uncertainty records.
    """
    if not train:
        raise ConfigurationError("error_resample requires a nonempty training set")
    z, _, a, be_total, be_err, _ = _columns(train)
    base = _rows(z, a, be_total, ORIGIN_ORIGINAL)
    err = np.array(be_err)
    shifted = err > 0
    plus, minus = base[shifted], base[shifted]
    plus["energy"] += err[shifted]
    plus["origin"] = ORIGIN_ERR_PLUS
    minus["energy"] -= err[shifted]
    minus["origin"] = ORIGIN_ERR_MINUS
    rows = np.concatenate([base, plus, minus])
    return AugmentedTrainingSet(rows=rows, technique="error")


def _stream(noise_seed: int, resample_index: int, nucleus_index: int) -> np.random.Generator:
    """Addressable Philox stream for one (pass, nucleus) cell."""
    key = np.array([noise_seed, (resample_index << 32) | nucleus_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_draw(mu: float, sigma: float, rng: np.random.Generator) -> float:
    """One draw from Normal(mu, sigma); sigma = 0 returns mu exactly.

    Always consumes exactly one standard-normal deviate so stream positions
    do not depend on sigma.
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    x = rng.standard_normal()
    return mu + sigma * x


def gaussian_resample(train: list[NuclideRecord], k: int,
                      noise_seed: int) -> AugmentedTrainingSet:
    """Append k cumulative passes of Gaussian draws after the original rows.

    Pass r of nucleus i draws from the stream keyed by (noise_seed, r, i), so
    the result for k-1 passes is exactly the prefix of the result for k
    passes. Total rows: len(train) * (1 + k). Zero-uncertainty nuclei yield
    exact duplicates of their measured value in every pass.
    """
    check_level("gaussian", k, noise_seed)
    if not train:
        raise ConfigurationError("gaussian_resample requires a nonempty training set")
    n = len(train)
    rows = np.tile(_originals(train), 1 + k)
    rows["origin"] = np.arange(1 + k).repeat(n)  # pass r's rows are gauss_<r>
    # One generator, re-keyed per cell: (r, i) only changes the key, and every
    # stream starts at counter 0 with an empty buffer. Gives the draws of a
    # fresh _stream(noise_seed, r, i) without building k * n generators.
    rng = _stream(noise_seed, 0, 0)
    start = rng.bit_generator.state
    key = start["state"]["key"]
    draws = []
    for r_idx in range(1, k + 1):
        for i, rec in enumerate(train):
            key[1] = (r_idx << 32) | i
            rng.bit_generator.state = start
            draws.append(gaussian_draw(rec.be_total, rec.be_err, rng))
    rows["energy"][n:] = draws
    return AugmentedTrainingSet(rows=rows, technique="gaussian", k=k, noise_seed=noise_seed)


TECHNIQUES = ("none", "error", "gaussian")


def check_level(technique: str, k: int, noise_seed: int | None) -> None:
    """Raise ConfigurationError unless this is a level: gaussian takes an int k >= 1
    and an int noise seed >= 0; none and error take k = 0 and None or an int >= 0."""
    if technique not in TECHNIQUES:
        raise ConfigurationError(f"unknown augmentation technique {technique!r}")
    gaussian = technique == "gaussian"
    if type(k) is not int or (k < 1 if gaussian else k != 0):
        raise ConfigurationError(
            f"{technique} takes k {'>= 1' if gaussian else '= 0'}, got k={k!r}")
    if not (type(noise_seed) is int and noise_seed >= 0 or noise_seed is None and not gaussian):
        raise ConfigurationError(f"noise_seed must be an integer >= 0, got {noise_seed!r}")


def level_label(technique: str, k: int) -> str:
    """The label of an augmentation level: "none", "error" or "gaussian<k>"."""
    return f"gaussian{k}" if technique == "gaussian" else technique


def parse_level(text: str) -> tuple[str, int]:
    """The (technique, k) a label names: a lower-case word, then k (0 if
    absent), unchecked; ValueError for text of any other form."""
    match = re.fullmatch(r"([a-z]+)(-?[0-9]+)?", text)
    if not match:
        raise ValueError(f"unknown augmentation level {text!r}")
    return match[1], int(match[2] or 0)


def apply(technique: str, k: int, train: list[NuclideRecord],
          noise_seed: int = 0) -> AugmentedTrainingSet:
    """The training set of one level (see check_level)."""
    if technique == "gaussian":
        return gaussian_resample(train, k, noise_seed)
    check_level(technique, k, noise_seed)
    return identity_set(train) if technique == "none" else error_resample(train)


def level_size(train: list[NuclideRecord], technique: str, k: int) -> int:
    """len(apply(technique, k, train).rows), without augmenting."""
    if technique == "gaussian":
        return len(train) * (1 + k)
    if technique == "error":
        return 3 * len(train) - 2 * sum(1 for r in train if r.be_err == 0)
    return len(train)


AUGMENTED_CSV_COLUMNS = ["z", "n", "a", "be_total_mev", "be_err_mev", "estimated", "origin"]
# the AugmentedTrainingSet attributes that the sidecar manifest holds
_SIDECAR_KEYS = ("base_size", "k", "noise_seed", "technique")


def write_augmented_csv(aug: AugmentedTrainingSet, source: list[NuclideRecord], path) -> None:
    """Canonical nuclide CSV extended with an `origin` column, plus a sidecar
    manifest (<path>.manifest.json) recording technique, k, base_size and seed."""
    err = {r.key: repr(r.be_err) for r in source}
    names = {code: origin_name(code) for code in set(aug.rows["origin"].tolist())}
    # tolist() yields Python scalars, whose repr is the plain number
    write_csv(path, AUGMENTED_CSV_COLUMNS,
              ((z, a - z, a, repr(energy), err[(z, a)], 0, names[origin])
               for z, a, energy, origin in aug.rows.tolist()))
    manifest = {key: getattr(aug, key) for key in _SIDECAR_KEYS}
    with open(str(path) + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_AUGMENTED_CSV_TYPES = (int, int, int, float, float, int, origin_code)


def read_augmented_csv(path) -> AugmentedTrainingSet:
    """Read a write_augmented_csv file; a malformed row, an energy that is
    not a finite number, or an origin that origin_name does not print, raises
    MassTableParseError naming the line and the field, and a
    sidecar that is not a JSON object of a level (check_level) and of these
    rows' base_size raises DataIntegrityError naming the sidecar."""
    z, a, energy, origin = [], [], [], []
    for line_no, fields in csv_rows(path, AUGMENTED_CSV_COLUMNS):
        try:
            row_z, _, row_a, be_total, be_err, _, row_origin = (
                kind(text) for kind, text in zip(_AUGMENTED_CSV_TYPES, fields))
            if not (math.isfinite(be_total) and math.isfinite(be_err)):
                raise ValueError
        except ValueError:
            raise bad_field(line_no, AUGMENTED_CSV_COLUMNS, _AUGMENTED_CSV_TYPES,
                            fields) from None
        z.append(row_z)
        a.append(row_a)
        energy.append(be_total)
        origin.append(row_origin)
    rows = _rows(z, a, energy, origin)
    sidecar = str(path) + ".manifest.json"
    try:
        with open(sidecar) as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict) and manifest.keys() >= set(_SIDECAR_KEYS)):
            raise ValueError(f"expected a JSON object with the keys {', '.join(_SIDECAR_KEYS)}")
        check_level(manifest["technique"], manifest["k"], manifest["noise_seed"])
        base, originals = manifest["base_size"], origin.count(ORIGIN_ORIGINAL)
        if (type(base), base) != (int, originals):
            raise ValueError(f"base_size {base!r} is not the {originals} original rows")
    except FileNotFoundError:
        return AugmentedTrainingSet(rows=rows, technique="none")
    except ValueError as exc:  # not JSON, not text, or not a sidecar of these rows
        raise DataIntegrityError(f"bad augmented-CSV sidecar {sidecar}: {exc}") from None
    return AugmentedTrainingSet(rows=rows, technique=manifest["technique"], k=manifest["k"],
                                noise_seed=manifest["noise_seed"])
