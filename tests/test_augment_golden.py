"""The augmented CSVs and sidecars of `nucaug augment` against recorded digests.

The split-5 training set of the shipped AME2016 table (the split of every
persisted result) is written as a canonical CSV and augmented by the
command line for three levels: none, error, and gaussian with k = 5 and
noise seed 3. The sha256 of each written CSV and of its sidecar must equal
the recorded one, so a change to how rows are built, tagged or written that
moves one byte fails here. The digests depend only on Python's float repr
and on numpy's Philox stream, not on the BLAS build.

To re-record them, after a change that alters these files on purpose, run
from the repository root:

    PYTHONPATH=src python3 tests/test_augment_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from nucaug import ame, cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "augment_golden.json")
MASS16 = os.path.join(HERE, "..", "data", "mass16_synthetic.txt")
SPLIT_SEED = 5
LEVELS = {"none": ["--technique", "none"],
          "error": ["--technique", "error"],
          "gaussian5_noise3": ["--technique", "gaussian", "--k", "5", "--noise-seed", "3"]}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_train_csv(directory) -> str:
    with open(MASS16, "rb") as fh:
        records = ame.filter_experimental(ame.parse_mass_table(fh.read(), "AME2016"))
    path = os.path.join(directory, "train.csv")
    ame.write_records_csv(ame.split_dataset(records, 0.7, SPLIT_SEED).train, path)
    return path


def augment_digest(level: str, train_csv, directory) -> dict:
    """sha256 of the augmented CSV and of its sidecar that `nucaug augment` writes."""
    out = os.path.join(directory, f"{level}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["augment", train_csv, *LEVELS[level], "--out", out]) == cli.EXIT_OK
    return {"csv": _sha256(out), "sidecar": _sha256(out + ".manifest.json")}


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    return write_train_csv(tmp_path_factory.mktemp("augment_golden"))


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_augmented_csv_matches_golden_digest(level, train_csv, tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)[level]
    assert augment_digest(level, train_csv, tmp_path) == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        train = write_train_csv(tmp)
        digests = {level: augment_digest(level, train, tmp) for level in sorted(LEVELS)}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
