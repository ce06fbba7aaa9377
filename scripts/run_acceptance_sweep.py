"""Run (or resume) the headline sweep backing the acceptance tests.

All ten architectures, baseline vs five-pass Gaussian resampling, ten seeds
each, scored on the held-out test set and the newly measured nuclei. Results
land in results/: one cached JSON per trial plus the aggregated results.csv
and manifest.json. Interrupt and re-run freely; finished trials are reused.
"""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nucaug import ame
from nucaug.experiment import ARCH_SETTINGS, sweep, write_manifest
from nucaug.optimizers import OptimizerConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
MASS16 = os.path.join(ROOT, "data", "mass16_synthetic.txt")
MASS20 = os.path.join(ROOT, "data", "mass20_synthetic.txt")
RESULTS = os.path.join(ROOT, "results")

SPLIT_SEED = 5
LEVELS = [("none", 0), ("gaussian", 5)]
SEEDS = list(range(10))


def main():
    recs16 = ame.filter_experimental(
        ame.parse_mass_table(open(MASS16, "rb").read(), "AME2016"))
    recs20 = ame.filter_experimental(
        ame.parse_mass_table(open(MASS20, "rb").read(), "AME2020"))
    split = ame.split_dataset(recs16, 0.7, SPLIT_SEED)
    extrapolation = ame.diff_new_nuclei(recs16, recs20)

    os.makedirs(RESULTS, exist_ok=True)
    opt = OptimizerConfig()
    start = time.time()
    done = [0]
    total = len(ARCH_SETTINGS) * len(LEVELS) * len(SEEDS)

    def progress(res, cached):
        done[0] += 1
        s = res.spec
        print(f"[{done[0]:3d}/{total}] {s.arch_label:12s} {s.level_label:9s} "
              f"seed {s.seed}  rms {res.rms_test:7.3f}  "
              f"{'cached' if cached else f'{res.wall_time:6.1f}s'}  "
              f"elapsed {time.time() - start:7.0f}s", flush=True)

    table = sweep(ARCH_SETTINGS, LEVELS, SEEDS, opt, "relu", split,
                  extrapolation=extrapolation,
                  cache_dir=os.path.join(RESULTS, "trials"),
                  progress=progress)
    table.write_csv(os.path.join(RESULTS, "results.csv"))
    checksums = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
                 for p in (MASS16, MASS20)}
    write_manifest(os.path.join(RESULTS, "manifest.json"),
                   split=split, extrapolation=extrapolation, seeds=SEEDS,
                   levels=LEVELS, architectures=ARCH_SETTINGS, optimizer=opt,
                   activation="relu", noise_seed=0, ame_checksums=checksums)
    print("sweep complete:", os.path.join(RESULTS, "results.csv"))


if __name__ == "__main__":
    main()
