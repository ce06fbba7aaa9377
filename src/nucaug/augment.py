"""Training-set augmentation.

Two techniques, both leaving (Z, A) untouched:

* error resampling: each nucleus with a nonzero uncertainty contributes its
  measured energy plus the two values shifted by +/- one sigma;
* cumulative Gaussian resampling: k full passes of draws from
  Normal(be_total, be_err) are appended after the originals, so the rows
  for k-1 passes are a prefix of the rows for k passes under the same seed.

A training set's rows are one numpy structured array (ROW_DTYPE) with the
fields z, a, energy (MeV) and origin ("original", "err_plus", "err_minus"
or "gauss_<i>").

Randomness is counter-based (Philox) and keyed by
(noise_seed, resample_index, nucleus_index), so every draw is addressable and
generation order does not matter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ame import NuclideRecord, bad_field, csv_rows, write_csv
from .errors import ConfigurationError, DataIntegrityError

ORIGIN_ORIGINAL = "original"
ORIGIN_ERR_PLUS = "err_plus"
ORIGIN_ERR_MINUS = "err_minus"


def origin_gauss(resample_index: int) -> str:
    return f"gauss_{resample_index}"


# origin is an object field, so all rows of a tag share one string; a
# fixed-width unicode field would copy the tag into every row
ROW_DTYPE = np.dtype([("z", np.int64), ("a", np.int64), ("energy", np.float64),
                      ("origin", object)])


def _rows(z, a, energy, origin) -> np.ndarray:
    rows = np.empty(len(energy), dtype=ROW_DTYPE)
    try:
        rows["z"], rows["a"], rows["energy"], rows["origin"] = z, a, energy, origin
    except OverflowError:
        raise DataIntegrityError("a Z or A value does not fit a 64-bit integer") from None
    return rows


def _originals(train: list[NuclideRecord]) -> np.ndarray:
    return _rows([r.z for r in train], [r.a for r in train],
                 [r.be_total for r in train], ORIGIN_ORIGINAL)


@dataclass(frozen=True)
class AugmentedTrainingSet:
    rows: np.ndarray        # ROW_DTYPE
    base_size: int
    technique: str          # "none", "error" or "gaussian"
    k: int = 0              # resample count, gaussian only
    noise_seed: int | None = None


def identity_set(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """The un-augmented training set (technique "none")."""
    return AugmentedTrainingSet(rows=_originals(train), base_size=len(train),
                                technique="none")


def error_resample(train: list[NuclideRecord]) -> AugmentedTrainingSet:
    """Triplicate each nucleus with nonzero uncertainty by +/- one sigma.

    Row order is deterministic: all originals in input order, then the
    plus-sigma rows, then the minus-sigma rows. Nuclei with zero uncertainty
    contribute only their original row, so the total row count is
    3*n - 2*z0 with z0 the number of zero-uncertainty records.
    """
    if not train:
        raise ConfigurationError("error_resample requires a nonempty training set")
    base = _originals(train)
    err = np.array([r.be_err for r in train])
    shifted = err > 0
    plus, minus = base[shifted], base[shifted]
    plus["energy"] += err[shifted]
    plus["origin"] = ORIGIN_ERR_PLUS
    minus["energy"] -= err[shifted]
    minus["origin"] = ORIGIN_ERR_MINUS
    rows = np.concatenate([base, plus, minus])
    return AugmentedTrainingSet(rows=rows, base_size=len(train), technique="error")


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
    if k < 1:
        raise ConfigurationError(f"resample count k must be >= 1, got {k}")
    if noise_seed < 0:
        raise ConfigurationError(f"noise_seed must be >= 0, got {noise_seed}")
    if not train:
        raise ConfigurationError("gaussian_resample requires a nonempty training set")
    n = len(train)
    rows = np.tile(_originals(train), 1 + k)
    # One generator, re-keyed per cell: (r, i) only changes the key, and every
    # stream starts at counter 0 with an empty buffer. Gives the draws of a
    # fresh _stream(noise_seed, r, i) without building k * n generators.
    rng = _stream(noise_seed, 0, 0)
    start = rng.bit_generator.state
    key = start["state"]["key"]
    draws = []
    for r_idx in range(1, k + 1):
        rows["origin"][r_idx * n:(r_idx + 1) * n] = origin_gauss(r_idx)
        for i, rec in enumerate(train):
            key[1] = (r_idx << 32) | i
            rng.bit_generator.state = start
            draws.append(gaussian_draw(rec.be_total, rec.be_err, rng))
    rows["energy"][n:] = draws
    return AugmentedTrainingSet(rows=rows, base_size=len(train),
                                technique="gaussian", k=k, noise_seed=noise_seed)


def apply(technique: str, k: int, train: list[NuclideRecord],
          noise_seed: int = 0) -> AugmentedTrainingSet:
    """Dispatch on technique name ("none", "error", "gaussian")."""
    if technique == "none":
        return identity_set(train)
    if technique == "error":
        return error_resample(train)
    if technique == "gaussian":
        return gaussian_resample(train, k, noise_seed)
    raise ConfigurationError(f"unknown augmentation technique {technique!r}")


AUGMENTED_CSV_COLUMNS = ["z", "n", "a", "be_total_mev", "be_err_mev", "estimated", "origin"]
# the AugmentedTrainingSet fields that the sidecar manifest holds
_SIDECAR_KEYS = ("base_size", "k", "noise_seed", "technique")


def write_augmented_csv(aug: AugmentedTrainingSet, source: list[NuclideRecord], path) -> None:
    """Canonical nuclide CSV extended with an `origin` column, plus a sidecar
    manifest (<path>.manifest.json) recording technique, k, base_size and seed."""
    err = {r.key: repr(r.be_err) for r in source}
    # tolist() yields Python scalars, whose repr is the plain number
    write_csv(path, AUGMENTED_CSV_COLUMNS,
              ((z, a - z, a, repr(energy), err[(z, a)], 0, origin)
               for z, a, energy, origin in aug.rows.tolist()))
    manifest = {key: getattr(aug, key) for key in _SIDECAR_KEYS}
    with open(str(path) + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_AUGMENTED_CSV_TYPES = (int, int, int, float, float, int, str)


def read_augmented_csv(path) -> AugmentedTrainingSet:
    """Read a write_augmented_csv file; a malformed row, or an energy that is
    not a finite number, raises MassTableParseError naming the line, and a
    sidecar that is not a JSON object with the four keys raises
    DataIntegrityError naming the sidecar."""
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
    except FileNotFoundError:
        return AugmentedTrainingSet(rows=rows, base_size=len(rows), technique="none")
    except ValueError as exc:  # not JSON, or not text
        raise DataIntegrityError(f"bad augmented-CSV sidecar {sidecar}: {exc}") from None
    if not (isinstance(manifest, dict) and manifest.keys() >= set(_SIDECAR_KEYS)):
        raise DataIntegrityError(f"bad augmented-CSV sidecar {sidecar}: expected a JSON "
                                 f"object with the keys {', '.join(_SIDECAR_KEYS)}")
    return AugmentedTrainingSet(rows=rows, **{key: manifest[key] for key in _SIDECAR_KEYS})
