"""The parsed shipped mass tables against digests recorded from a reference build.

Every record of each shipped table, estimated ones included, is written with
`write_records_csv`, and the sha256 of that file must equal the recorded
one. A change to the parser or to the CSV writer that moves one digit of one
record, or the estimated flag of one record, fails here. The digests depend
only on Python's float repr, not on the numpy or BLAS build.

To re-record them, after a change that alters the records on purpose, run
from the repository root:

    PYTHONPATH=src python3 tests/test_table_golden.py
"""

import hashlib
import json
import os

import pytest

from nucaug import ame

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "table_golden.json")
TABLES = {"AME2016": os.path.join(HERE, "..", "data", "mass16_synthetic.txt"),
          "AME2020": os.path.join(HERE, "..", "data", "mass20_synthetic.txt")}


def table_digest(edition: str, csv_path) -> dict:
    """Record count, estimated count and sha256 of the written canonical CSV."""
    with open(TABLES[edition], "rb") as fh:
        records = ame.parse_mass_table(fh.read(), edition)
    ame.write_records_csv(records, csv_path)
    with open(csv_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    return {"records": len(records), "estimated": sum(r.estimated for r in records),
            "sha256": sha}


@pytest.mark.parametrize("edition", sorted(TABLES))
def test_parsed_table_matches_golden_digest(edition, tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)[edition]
    assert table_digest(edition, tmp_path / "records.csv") == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {edition: table_digest(edition, os.path.join(tmp, "records.csv"))
                   for edition in sorted(TABLES)}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
