import json
import os

import numpy as np
import pytest

from nucaug import ame

ROOT = os.path.join(os.path.dirname(__file__), "..")
MASS16 = os.path.join(ROOT, "data", "mass16_synthetic.txt")
MASS20 = os.path.join(ROOT, "data", "mass20_synthetic.txt")
RESULTS_DIR = os.path.join(ROOT, "results")

SPLIT_SEED = 5  # the split used for every persisted result in results/


@pytest.fixture(scope="session")
def mass16_text() -> bytes:
    with open(MASS16, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def mass20_text() -> bytes:
    with open(MASS20, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def records16(mass16_text):
    return ame.parse_mass_table(mass16_text, "AME2016")


@pytest.fixture(scope="session")
def records20(mass20_text):
    return ame.parse_mass_table(mass20_text, "AME2020")


@pytest.fixture(scope="session")
def experimental16(records16):
    return ame.filter_experimental(records16)


@pytest.fixture(scope="session")
def experimental20(records20):
    return ame.filter_experimental(records20)


@pytest.fixture(scope="session")
def split(experimental16):
    return ame.split_dataset(experimental16, 0.7, SPLIT_SEED)


@pytest.fixture(scope="session")
def extrapolation(experimental16, experimental20):
    return ame.diff_new_nuclei(experimental16, experimental20)


@pytest.fixture
def edit_model_meta():
    """Rewrite keys of a model file's metadata in place, as a file written by
    some other program might hold them."""
    def edit(path, **changes):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = {**json.loads(bytes(arrays["meta"]).decode()), **changes}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
    return edit
