"""Record the reference digests that every benchmark run is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one unit of each workload for every seed class (``seed % SEED_CLASSES``)
and writes the digest of every operation's outputs to
``perfbench/reference.json``. Record on the commit whose outputs are the
reference; a later change must reproduce them byte for byte. Named
workloads are re-recorded and the others kept.
"""

from __future__ import annotations

import json
import os
import sys

import run


def record(name: str, workdir: str) -> dict:
    from workloads import SEED_CLASSES, fresh_dir, make
    digests = {}
    for c in range(SEED_CLASSES):
        wl = make(name, c)
        state = wl.setup(fresh_dir(os.path.join(workdir, "setup")))
        raw = wl.unit(state, wl.prepare(state, fresh_dir(os.path.join(workdir, "unit"))))
        out = wl.outcome(state, raw)
        if out.failed:
            raise SystemExit(f"{name} seed class {c}: failed {sorted(out.failed)}")
        digests[str(c)] = out.digests
        print(f"{name} seed class {c}: {len(out.digests)} operations", flush=True)
    return digests


def main(argv) -> int:
    run.prepare_import()
    names = argv or list(run.WORKLOADS)
    reference = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            reference = json.load(fh)
    with run.work_dir("record-") as workdir:
        for name in names:
            reference[name] = record(name, workdir)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
