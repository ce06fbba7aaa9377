"""The benchmark's workloads: set-up, one unit of work, and its outputs.

Each workload derives every input it chooses from the workload seed: the
trial seeds and the noise seed come from ``seed % SEED_CLASSES``, so that the
outputs of every seed can be checked against reference digests recorded
once (``reference.json``, written by ``record_reference.py``). Everything a
workload writes goes to the work directory it is given; the shipped
``results/`` directory is never opened.

* ``headline_cell``: one cell pair of the headline sweep, arch 128 (B=32)
  x {none, gaussian5} x 10 seeds, with the epochs cut to HEADLINE_EPOCHS so
  that training is still over 90 % of the wall time, as in the full sweep.
  Every cell holds ten same-shape seeds: training many seeds as one stack
  applies here.
* ``arch_sweep``: all ten architectures x {none, error} x 1 seed, each with
  its own batch size and its headline epochs divided by ARCH_EPOCH_DIVISOR.
  One seed per cell, so stacking seeds cannot help: per-step cost across
  widths, depths and batch sizes.
* ``prepare_resume``: one pass of the training-free command-line path:
  ingest both tables, augment the split training set, resume a fully
  cached 200-trial sweep and export every report its levels support.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import time

from nucaug import ame, cli, experiment
from nucaug.optimizers import OptimizerConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MASS16 = os.path.join(ROOT, "data", "mass16_synthetic.txt")
MASS20 = os.path.join(ROOT, "data", "mass20_synthetic.txt")

SPLIT_RATIO = 0.7
SPLIT_SEED = 5            # the split of the persisted headline sweep
SEED_CLASSES = 16
ACTIVATION = "relu"
OPTIMIZER = OptimizerConfig()

HEADLINE_EPOCHS = 80
ARCH_EPOCH_DIVISOR = 100
FILL_EPOCHS = 1
FILL_TICK = 10
QUICK_HEADLINE_EPOCHS = 2
QUICK_ARCH_EPOCH_DIVISOR = 500

# training rows per level on the shipped tables; set-up checks them
EXPECTED_ROWS = {"none": 1685, "error": 4995, "gaussian5": 10110}

# reports that a none + error sweep supports; fig4 and fig7 need the
# gaussian2 and gaussian5 levels and fig2 is exported from the records
RESUME_FIGURES = ("table1", "table2", "table3", "fig3", "fig5", "fig6", "fig8")
FIG2_NUCLIDE = "82,208"


def seed_class(seed: int) -> int:
    return seed % SEED_CLASSES


def level_label(technique: str, k: int) -> str:
    return f"gaussian{k}" if technique == "gaussian" else technique


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_data():
    """Parse, filter, split and diff the shipped tables, as a sweep does.

    Returns the split, the extrapolation set and the number of records parsed.
    """
    with open(MASS16, "rb") as fh:
        rec16 = ame.parse_mass_table(fh.read(), "AME2016")
    with open(MASS20, "rb") as fh:
        rec20 = ame.parse_mass_table(fh.read(), "AME2020")
    exp16 = ame.filter_experimental(rec16)
    exp20 = ame.filter_experimental(rec20)
    split = ame.split_dataset(exp16, SPLIT_RATIO, SPLIT_SEED)
    return split, ame.diff_new_nuclei(exp16, exp20), len(rec16) + len(rec20)


def level_rows(train, technique: str, k: int) -> int:
    """Training rows after augmentation, from the record counts alone."""
    n = len(train)
    if technique == "gaussian":
        return n * (1 + k)
    if technique == "error":
        return 3 * n - 2 * sum(1 for r in train if r.be_err == 0)
    return n


def sweep_steps(train, architectures, levels, seeds) -> int:
    """Optimizer steps of a sweep: epochs x ceil(rows / batch) per trial."""
    return len(seeds) * sum(
        epochs * math.ceil(level_rows(train, technique, k) / batch)
        for _, epochs, batch in architectures for technique, k in levels)


def check_rows(train, levels) -> None:
    for technique, k in levels:
        label = level_label(technique, k)
        got = level_rows(train, technique, k)
        if label in EXPECTED_ROWS and got != EXPECTED_ROWS[label]:
            raise RuntimeError(f"{label}: {got} training rows, expected "
                               f"{EXPECTED_ROWS[label]}; the shipped tables changed")


class UnitOutcome:
    """What one unit of work produced: a digest per operation, and the
    operations that reported failure themselves."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.failed: set[str] = set()


class SweepWorkload:
    """``experiment.sweep`` into an empty cache, then results CSV and manifest.

    `calibration` is None for raw times or "numpy" to scale them by the numpy
    part of a calibration slice (see calibration.Calibrator)."""

    def __init__(self, architectures, levels, n_seeds, seed, calibration):
        c = seed_class(seed)
        self.calibration = calibration
        self.architectures = architectures
        self.levels = levels
        self.seeds = list(range(n_seeds * c, n_seeds * c + n_seeds))
        self.noise_seed = c
        self.trials = len(architectures) * len(levels) * n_seeds
        self.steps = None
        self.fill_s = None

    def setup(self, workdir: str, tick=None) -> dict:
        split, extrapolation, _ = load_data()
        check_rows(split.train, self.levels)
        self.steps = sweep_steps(split.train, self.architectures, self.levels, self.seeds)
        return {"split": split, "extrapolation": extrapolation, "workdir": workdir}

    def expected_counts(self, state) -> dict[str, int]:
        train = state["split"].train
        rows = len(self.seeds) * len(self.architectures) * sum(
            level_rows(train, t, k) for t, k in self.levels)
        return {"optimizers.step_calls": self.steps, "network.fwd_bwd_calls": self.steps,
                "experiment.cache_misses": self.trials, "experiment.cache_hits": 0,
                "augment.rows_out": rows}

    def prepare(self, state: dict, unit_dir: str) -> str:
        return unit_dir

    def unit(self, state: dict, unit_dir: str, tick=None):
        """One sweep; `tick` is called after every trial."""
        progress = (lambda res, cached: tick()) if tick else None
        table = experiment.sweep(
            self.architectures, self.levels, self.seeds, OPTIMIZER, ACTIVATION,
            state["split"], state["extrapolation"], noise_seed=self.noise_seed,
            cache_dir=os.path.join(unit_dir, "trials"), jobs=1, progress=progress)
        table.write_csv(os.path.join(unit_dir, "results.csv"))
        experiment.write_manifest(
            os.path.join(unit_dir, "manifest.json"), split=state["split"],
            extrapolation=state["extrapolation"], seeds=self.seeds,
            levels=self.levels, architectures=self.architectures,
            optimizer=OPTIMIZER, activation=ACTIVATION,
            noise_seed=self.noise_seed, input_standardize=True)
        return table

    def outcome(self, state: dict, table) -> UnitOutcome:
        out = UnitOutcome()
        for res in table.sorted_trials():
            s = res.spec
            op = f"{s.arch_label}/{s.level_label}/seed={s.seed}"
            out.digests[op] = digest(",".join(map(str, experiment.result_row(res))).encode())
            if not res.ok:
                out.failed.add(op)
        return out


class ResumeWorkload:
    """Repeated passes of ingest, augment, cached sweep and report commands."""

    calibration = "numpy+python"    # a pass parses and writes CSV

    def __init__(self, seed):
        c = seed_class(seed)
        self.noise_seed = c
        self.seeds = list(range(10 * c, 10 * c + 10))
        self.architectures = [(w, FILL_EPOCHS, b) for w, _, b in experiment.ARCH_SETTINGS]
        self.levels = [("none", 0), ("error", 0)]
        self.trials = len(self.architectures) * len(self.levels) * len(self.seeds)
        self.steps = None
        self.fill_s = None

    def setup(self, workdir: str, tick=None) -> dict:
        """Write the split training CSV and the sweep config, then fill the
        trial cache with the program's own sweep at FILL_EPOCHS; `tick` is
        called after every FILL_TICK trials and its time left out of fill_s."""
        split, extrapolation, parsed = load_data()
        check_rows(split.train, self.levels + [("gaussian", 5)])
        train_csv = os.path.join(workdir, "train.csv")
        ame.write_records_csv(split.train, train_csv)
        config = os.path.join(workdir, "sweep.ini")
        archs = " ".join(f"{'-'.join(map(str, w))}:{e}:{b}" for w, e, b in self.architectures)
        with open(config, "w") as fh:
            fh.write(f"[data]\name2016 = {MASS16}\name2020 = {MASS20}\n\n"
                     f"[split]\nratio = {SPLIT_RATIO}\nseed = {SPLIT_SEED}\n\n"
                     f"[sweep]\narchitectures = {archs}\nlevels = none error\n"
                     f"seeds = {self.seeds[0]}..{self.seeds[-1]}\n"
                     f"noise_seed = {self.noise_seed}\n\n[optimizer]\nalgorithm = adam\n")
        sweep_dir = os.path.join(workdir, "sweep")
        done, ticked = [0], [0.0]

        def progress(res, cached):
            done[0] += 1
            if tick and done[0] % FILL_TICK == 0:
                ticked[0] += tick()

        start = time.perf_counter()
        table = experiment.sweep(self.architectures, self.levels, self.seeds, OPTIMIZER,
                                 ACTIVATION, split, extrapolation, noise_seed=self.noise_seed,
                                 cache_dir=os.path.join(sweep_dir, "trials"), jobs=1,
                                 progress=progress)
        self.fill_s = time.perf_counter() - start - ticked[0]
        failed = [r.spec for r in table.trials if not r.ok]
        if failed:
            raise RuntimeError(f"filling the trial cache: {len(failed)} trials failed")
        self.steps = sweep_steps(split.train, self.architectures, self.levels, self.seeds)
        return {"workdir": workdir, "train_csv": train_csv, "config": config,
                "sweep_dir": sweep_dir, "records_parsed": parsed}

    def expected_counts(self, state) -> dict[str, int]:
        return {"optimizers.step_calls": 0, "network.fwd_bwd_calls": 0,
                "experiment.cache_hits": self.trials, "experiment.cache_misses": 0,
                "augment.rows_out": EXPECTED_ROWS["error"] + EXPECTED_ROWS["gaussian5"],
                "ame.records_parsed": 2 * state["records_parsed"]}

    def commands(self, state: dict, unit_dir: str):
        """(operation, argv, output files) of one pass, in order."""
        ame16 = os.path.join(unit_dir, "ame2016.csv")
        new20 = os.path.join(unit_dir, "new2020.csv")
        report_dir = os.path.join(unit_dir, "report")
        sweep_dir = state["sweep_dir"]
        cmds = [
            ("ingest AME2016", ["ingest", MASS16, "--edition", "AME2016", "--out-csv", ame16],
             [ame16]),
            ("ingest AME2020", ["ingest", MASS20, "--edition", "AME2020", "--diff", ame16,
                                "--out-csv", new20], [new20]),
        ]
        for label, extra in (("error", ["--technique", "error"]),
                             ("gaussian5", ["--technique", "gaussian", "--k", "5",
                                            "--noise-seed", str(self.noise_seed)])):
            out = os.path.join(unit_dir, f"train_{label}.csv")
            cmds.append((f"augment {label}", ["augment", state["train_csv"], *extra, "--out", out],
                         [out, out + ".manifest.json"]))
        cmds.append(("sweep resume", ["sweep", "--config", state["config"], "--out", sweep_dir],
                     [os.path.join(sweep_dir, f) for f in
                      ("results.csv", "manifest.json", *(f"{x}.csv" for x in RESUME_FIGURES))]))
        results_csv = os.path.join(sweep_dir, "results.csv")
        for fig in RESUME_FIGURES:
            cmds.append((f"report {fig}", ["report", results_csv, "--figure", fig,
                                           "--out", report_dir],
                         [os.path.join(report_dir, f"{fig}.csv")]))
        cmds.append(("report fig2", ["report", "--figure", "fig2", "--records", ame16,
                                     "--nuclide", FIG2_NUCLIDE, "--k", "5",
                                     "--noise-seed", str(self.noise_seed), "--out", report_dir],
                     [os.path.join(report_dir, "fig2.csv")]))
        return cmds

    def prepare(self, state: dict, unit_dir: str) -> list:
        # every pass rewrites the sweep's outputs; clear them so that a pass
        # that stops writing one cannot pass on the previous copy
        for name in os.listdir(state["sweep_dir"]):
            if name != "trials":
                os.remove(os.path.join(state["sweep_dir"], name))
        return self.commands(state, unit_dir)

    def unit(self, state: dict, cmds: list, tick=None):
        """One pass of the commands; a pass is short, so `tick` is not called."""
        return [(op, *run_cli(argv), outputs) for op, argv, outputs in cmds]

    def outcome(self, state: dict, ran) -> UnitOutcome:
        out = UnitOutcome()
        for op, rc, stdout, outputs in ran:
            h = hashlib.sha256(f"exit={rc}".encode())
            for path in outputs:
                h.update(os.path.basename(path).encode() + b"\0")
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        h.update(fh.read())
                else:
                    h.update(b"<missing>")
            out.digests[op] = h.hexdigest()[:16]
            if rc != 0:
                out.failed.add(op)
            if op == "sweep resume" and stdout.count("(cached)") != self.trials:
                out.failed.add(op)
        return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``nucaug <argv>`` in this process; its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def make(name: str, seed: int, quick: bool = False):
    """The named workload for a workload seed. ``quick`` cuts the epochs
    further, for the benchmark's self-check; its outputs have no reference."""
    if name == "headline_cell":
        widths, _, batch = experiment.ARCH_SETTINGS[0]
        epochs = QUICK_HEADLINE_EPOCHS if quick else HEADLINE_EPOCHS
        # reported raw: a calibration slice gains up to 1.7x in a fast host
        # state where this sweep gains about 1.2x (its 10110-row permutations
        # and Philox resampling wait on memory), so scaling overcorrects
        return SweepWorkload([(widths, epochs, batch)],
                             [("none", 0), ("gaussian", 5)], 10, seed, None)
    if name == "arch_sweep":
        divisor = QUICK_ARCH_EPOCH_DIVISOR if quick else ARCH_EPOCH_DIVISOR
        archs = []
        for widths, epochs, batch in experiment.ARCH_SETTINGS:
            if epochs % divisor:
                raise RuntimeError(f"{widths}: {epochs} epochs do not divide by {divisor}")
            archs.append((widths, epochs // divisor, batch))
        return SweepWorkload(archs, [("none", 0), ("error", 0)], 1, seed, "numpy")
    if name == "prepare_resume":
        return ResumeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
