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

import functools
import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .ame import (NuclideRecord, choice, energy, int64, read_csv, record_columns,
                  unique_keys, write_csv_lines)
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


@dataclass(frozen=True)
class AugmentedTrainingSet:
    rows: np.ndarray        # ROW_DTYPE
    technique: str          # a technique of LEVELS
    k: int = 0              # resample count, in the technique's k range
    noise_seed: int | None = None

    def __post_init__(self):
        # a shift or a draw near the largest float overflows
        bad = np.flatnonzero(~np.isfinite(self.rows["energy"]))
        if len(bad):
            z, a, value, origin = self.rows[bad[0]].tolist()
            raise DataIntegrityError(
                f"the {origin_name(origin)} energy of Z={z} A={a} is not finite: {value}")

    @property
    def base_size(self) -> int:
        """The number of original rows."""
        return int(np.count_nonzero(self.rows["origin"] == ORIGIN_ORIGINAL))


def identity_set(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """The un-augmented training set (technique "none")."""
    z, _, a, be_total, _, _ = record_columns(train)
    return AugmentedTrainingSet(rows=_rows(z, a, be_total, ORIGIN_ORIGINAL), technique="none")


def error_resample(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """Triplicate each nucleus with nonzero uncertainty by +/- one sigma.

    Row order is deterministic: all originals in input order, then the
    plus-sigma rows, then the minus-sigma rows. Nuclei with zero uncertainty
    contribute only their original row, so the total row count is
    3*n - 2*z0 with z0 the number of zero-uncertainty records.
    """
    z, _, a, be_total, be_err, _ = record_columns(train)
    base = _rows(z, a, be_total, ORIGIN_ORIGINAL)
    err = np.array(be_err)
    shifted = err > 0
    plus, minus = base[shifted], base[shifted]
    with np.errstate(over="ignore"):  # AugmentedTrainingSet names the row instead
        plus["energy"] += err[shifted]
        minus["energy"] -= err[shifted]
    plus["origin"] = ORIGIN_ERR_PLUS
    minus["origin"] = ORIGIN_ERR_MINUS
    rows = np.concatenate([base, plus, minus])
    return AugmentedTrainingSet(rows=rows, technique="error")


def _stream(noise_seed: int, resample_index: int, nucleus_index: int) -> np.random.Generator:
    """Addressable Philox stream for one (pass, nucleus) cell."""
    key = np.array([noise_seed, (resample_index << 32) | nucleus_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m * x, from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> 32, x & 0xFFFFFFFF
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    carry = ((lo_lo >> 32) + (hi_lo & 0xFFFFFFFF) + (lo_hi & 0xFFFFFFFF)) >> 32
    return x_hi * m_hi + (hi_lo >> 32) + (lo_hi >> 32) + carry, x * np.uint64(m)


def _philox_words(noise_seed: int, key1: np.ndarray) -> np.ndarray:
    """The first word of each stream keyed (noise_seed, key1), as
    np.random.Philox(key=...).random_raw() gives it: word 0 of Philox4x64-10
    at counter 1 (Salmon et al., SC'11), in wrapping uint64 arithmetic."""
    zero = np.zeros_like(key1)
    c0, c1, c2, c3 = np.ones_like(key1), zero, zero, zero
    key0 = noise_seed
    for round_index in range(10):
        if round_index:
            key0 = (key0 + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            key1 = key1 + np.uint64(0xBB67AE8584CAA73B)
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ key1, lo0
    return c0


@functools.cache
def _normal_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's normal widths and one-word bounds, read from its standard_normal.

    A word w with idx = w & 0xff, sign bit 8 and rabs = bits 9-60 gives
    +-rabs * width[idx] from w alone when rabs < bound[idx]. Each bound is
    the strip ratio floor(width[idx-1] / width[idx] * 2**52), kept only if
    numpy draws (bound - 1) * width[idx] from one word; otherwise it is 0.
    """
    rng = _stream(0, 0, 0)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    state["buffer_pos"] = 0

    def draw(word: int) -> tuple[float, bool]:  # the deviate and whether one word made it
        state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
        bit_generator.state = state
        return rng.standard_normal(), bit_generator.state["buffer_pos"] == 1

    widths = np.array([draw(1 << 9 | idx)[0] for idx in range(256)])
    bounds = np.zeros(256, dtype=np.uint64)
    for idx in range(2, 256):
        bound = math.floor(widths[idx - 1] / widths[idx] * 2.0 ** 52)
        if bound >= 1 and draw((bound - 1) << 9 | idx) == ((bound - 1) * widths[idx], True):
            bounds[idx] = bound
    return widths, bounds


def gaussian_resample(train: list[NuclideRecord], k: int,
                      noise_seed: int) -> AugmentedTrainingSet:
    """Append k cumulative passes of Gaussian draws after the original rows.

    Pass r of nucleus i draws from the stream keyed by (noise_seed, r, i), so
    the result for k-1 passes is exactly the prefix of the result for k
    passes. Total rows: len(train) * (1 + k). Each cell draws one standard
    normal deviate whatever its sigma, so a zero-uncertainty nucleus yields
    its measured value exactly in every pass.
    """
    check_level("gaussian", k, noise_seed)
    z, _, a, be_total, be_err, _ = record_columns(train)
    n = len(train)
    rows = np.tile(_rows(z, a, be_total, ORIGIN_ORIGINAL), 1 + k)
    rows["origin"] = np.arange(1 + k).repeat(n)  # pass r's rows are gauss_<r>
    # Every cell's deviate is numpy's draw from the first word of its stream
    # whenever that word alone makes it; the rest (about 2 %) re-key one
    # generator, which gives the draws of a fresh _stream(noise_seed, r, i).
    key1 = (np.arange(1, k + 1, dtype=np.uint64)[:, None] << 32
            | np.arange(n, dtype=np.uint64)).ravel()
    word = _philox_words(noise_seed, key1)
    widths, bounds = _normal_tables()
    idx = (word & 0xFF).astype(np.intp)
    rabs = word >> 9 & np.uint64(2 ** 52 - 1)
    deviates = rabs * widths[idx]
    deviates[word & 0x100 != 0] *= -1
    rng = _stream(noise_seed, 0, 0)
    start = rng.bit_generator.state
    for cell in np.flatnonzero(rabs >= bounds[idx]).tolist():
        start["state"]["key"][1] = key1[cell]
        rng.bit_generator.state = start
        deviates[cell] = rng.standard_normal()
    with np.errstate(over="ignore", invalid="ignore"):  # AugmentedTrainingSet names the row
        rows["energy"][n:] = np.tile(be_total, k) + np.tile(be_err, k) * deviates
    return AugmentedTrainingSet(rows=rows, technique="gaussian", k=k, noise_seed=noise_seed)


# technique -> Level; build(train, k, noise_seed) gives its rows, size(train, k) their count
Level = namedtuple("Level", "least_k most_k draws build size")
LEVELS = {
    "none": Level(0, 0, False, lambda t, *_: identity_set(t), lambda t, _: len(t)),
    "error": Level(0, 0, False, lambda t, *_: error_resample(t),
                   lambda t, _: 3 * len(t) - 2 * sum(r.be_err == 0 for r in t)),
    "gaussian": Level(1, 2**32 - 1, True, gaussian_resample, lambda t, k: len(t) * (1 + k)),
}
TECHNIQUES = tuple(LEVELS)


def check_level(technique: str, k: int, noise_seed: int | None) -> None:
    """Raise ConfigurationError unless this is a level: a technique of LEVELS, an
    int k in its range, and an int noise seed >= 0, or None if the technique draws
    nothing. A _stream key bounds the noise seed to 64 bits and gaussian's k to 32."""
    if technique not in TECHNIQUES:
        raise ConfigurationError(f"unknown augmentation technique {technique!r}")
    least, most, draws, _, _ = LEVELS[technique]
    if type(k) is not int or k < least or least == most != k:
        raise ConfigurationError(
            f"{technique} takes k {'=' if least == most else '>='} {least}, got k={k!r}")
    if k > most:
        raise ConfigurationError(f"{technique} takes k <= {most}, got k={k}")
    if not (type(noise_seed) is int and noise_seed >= 0 or noise_seed is None and not draws):
        raise ConfigurationError(f"noise_seed must be an integer >= 0, got {noise_seed!r}")
    if noise_seed is not None and noise_seed > 2**64 - 1:
        raise ConfigurationError(
            f"noise_seed must be an integer <= {2**64 - 1}, got {noise_seed}")


def level_label(technique: str, k: int) -> str:
    """The label of an augmentation level: the technique, then k unless it is 0."""
    return f"{technique}{k or ''}"


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
    check_level(technique, k, noise_seed)
    return LEVELS[technique].build(train, k, noise_seed)


def level_size(train: list[NuclideRecord], technique: str, k: int) -> int:
    """len(apply(technique, k, train).rows), without augmenting."""
    return LEVELS[technique].size(train, k)


AUGMENTED_CSV_COLUMNS = ["z", "n", "a", "be_total_mev", "be_err_mev", "estimated", "origin"]
# the AugmentedTrainingSet attributes that the sidecar manifest holds
_SIDECAR_KEYS = ("base_size", "k", "noise_seed", "technique")


def write_augmented_csv(aug: AugmentedTrainingSet, source: list[NuclideRecord], path) -> None:
    """Canonical nuclide CSV extended with an `origin` column, plus a sidecar
    manifest (<path>.manifest.json) recording technique, k, base_size and seed.

    Each row takes Z, N, A and the uncertainty of the source record of its
    (Z, A), so a (Z, A) that repeats in `source` raises DataIntegrityError."""
    index = {key: i for i, key in enumerate(unique_keys(source, "augment"))}
    z, n, a, _, be_err, _ = record_columns(source)
    # the "z,n,a," head and ",be_err,0," tail of each source record, formatted once
    heads = list(map("{},{},{},".format, z, n, a))
    tails = list(map(",{!r},0,".format, be_err))
    rows = aug.rows
    origin = rows["origin"].tolist()
    names = {code: origin_name(code) for code in set(origin)}
    source_of = list(map(index.__getitem__, zip(rows["z"].tolist(), rows["a"].tolist())))
    # tolist() yields Python floats, whose repr is the plain number
    write_csv_lines(path, AUGMENTED_CSV_COLUMNS, map(
        "{}{!r}{}{}\r\n".format, map(heads.__getitem__, source_of), rows["energy"].tolist(),
        map(tails.__getitem__, source_of), map(names.__getitem__, origin)))
    manifest = {key: getattr(aug, key) for key in _SIDECAR_KEYS}
    with open(str(path) + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# write_augmented_csv writes every row's estimated as 0
_AUGMENTED_CSV_KINDS = (int64, int, int64, energy, energy, choice({"0": False}), origin_code)


def _augmented_row(fields: list) -> tuple:
    z, n, a, row_energy, be_err, _, origin = fields
    NuclideRecord(z, n, a, 0.0, be_err, False)  # an err_minus energy may be below 0
    return z, a, row_energy, origin


def read_augmented_csv(path) -> AugmentedTrainingSet:
    """Read a write_augmented_csv file (ame.read_csv); a row whose identity
    or uncertainty is not a NuclideRecord's raises MassTableParseError
    naming the line, and a sidecar that is not a JSON object of a level
    (check_level) and of these rows' base_size raises DataIntegrityError
    naming the sidecar."""
    rows = np.array(read_csv(path, AUGMENTED_CSV_COLUMNS, _AUGMENTED_CSV_KINDS, _augmented_row),
                    dtype=ROW_DTYPE)
    sidecar = str(path) + ".manifest.json"
    try:
        with open(sidecar) as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict) and manifest.keys() >= set(_SIDECAR_KEYS)):
            raise ValueError(f"expected a JSON object with the keys {', '.join(_SIDECAR_KEYS)}")
        check_level(manifest["technique"], manifest["k"], manifest["noise_seed"])
        base, originals = manifest["base_size"], rows["origin"].tolist().count(ORIGIN_ORIGINAL)
        if (type(base), base) != (int, originals):
            raise ValueError(f"base_size {base!r} is not the {originals} original rows")
    except FileNotFoundError:
        return AugmentedTrainingSet(rows=rows, technique="none")
    # not JSON, nested too deep to decode, not text, or not a sidecar of these rows
    except (ValueError, RecursionError) as exc:
        raise DataIntegrityError(f"bad augmented-CSV sidecar {sidecar}: {exc}") from None
    return AugmentedTrainingSet(rows=rows, technique=manifest["technique"], k=manifest["k"],
                                noise_seed=manifest["noise_seed"])
