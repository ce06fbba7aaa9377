"""Bit-identity of `network.train` against digests recorded from a reference build.

Every architecture of the headline grid (with its own batch size) is trained
for a few epochs under every activation and optimizer, on a fixed slice of the
split-5 training set, and the parameters plus the loss history must hash to
the recorded digests. A change to the training arithmetic that moves a single
bit fails here, for the settings the benchmark does not check (it trains relu
with adam only).

The digests depend on the numpy and BLAS build, as criterion 11 does; the
file records the build they came from. To re-record them, after a change that
alters the results on purpose, run from the repository root:

    PYTHONPATH=src python3 tests/test_train_golden.py

The committed digests were recorded by the code from before `TrainConfig`
took one seed, with its weight and shuffle seeds both set to 3, so they show
that `seed=3` trains the same bits as that code did.
"""

import hashlib
import json
import os

import numpy as np

from nucaug import ame
from nucaug.augment import identity_set
from nucaug.experiment import ARCH_SETTINGS
from nucaug.network import ACTIVATIONS, NetworkSpec, TrainConfig, train
from nucaug.optimizers import ALGORITHMS, OptimizerConfig

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "train_golden.json")
ROWS = 289      # last batch: 1 row at batch size 32, 33 rows at 64
EPOCHS = 8


def build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def train_digests(train_records) -> dict[str, str]:
    """sha256 of params.flat bytes plus the loss history, per setting."""
    train_set = identity_set(train_records[:ROWS])
    out = {}
    for widths, _, batch in ARCH_SETTINGS:
        for activation in ACTIVATIONS:
            for algorithm in ALGORITHMS:
                model = train(NetworkSpec(widths, activation), train_set,
                              TrainConfig(EPOCHS, batch, seed=3),
                              OptimizerConfig(algorithm=algorithm))
                h = hashlib.sha256(model.params.flat.tobytes())
                h.update(np.asarray(model.loss_history, dtype=np.float64).tobytes())
                label = "-".join(map(str, widths))
                out[f"{label}/{activation}/{algorithm}"] = h.hexdigest()
    return out


def test_train_matches_golden_digests(split):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = train_digests(split.train)
    assert got.keys() == golden["digests"].keys()
    changed = sorted(k for k, v in got.items() if v != golden["digests"][k])
    assert not changed, (
        f"{len(changed)} of {len(got)} trainings differ from the recorded bits: "
        f"{changed[:5]}{' ...' if len(changed) > 5 else ''}. The digests were "
        f"recorded with {golden['build']}; this run uses {build()}. Another numpy "
        f"or BLAS build may round differently without any fault in the code.")


if __name__ == "__main__":
    root = os.path.join(os.path.dirname(GOLDEN), "..")
    with open(os.path.join(root, "data", "mass16_synthetic.txt"), "rb") as fh:
        records = ame.filter_experimental(ame.parse_mass_table(fh.read(), "AME2016"))
    training = ame.split_dataset(records, 0.7, 5).train
    with open(GOLDEN, "w") as fh:
        json.dump({"build": build(), "rows": ROWS, "epochs": EPOCHS,
                   "digests": train_digests(training)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
