"""Command-line surface: ingest, augment, train, evaluate, sweep, report.

Commands compose through files only (canonical CSVs, model files, results
CSVs); every random choice is an explicit flag or config key. Exit codes:
0 success, 1 usage/config error, 2 data error, 3 sweep completed but some
trials failed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import math
import os
import sys

from . import __version__, ame, augment, experiment, network, report
from .errors import (ConfigurationError, DataIntegrityError, IncompleteDataError,
                     MassTableParseError, TrainingDivergedError)
from .optimizers import ALGORITHMS, OptimizerConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRIAL_FAILURES = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for token in text.replace(",", " ").split():
        if ".." in token:
            bounds = token.split("..")
            if len(bounds) != 2:
                raise ValueError(f"seed range {token!r} is not LO..HI")
            lo, hi = map(int, bounds)
            if lo > hi:
                raise ValueError(f"descending seed range {token!r}")
            try:
                seeds.extend(range(lo, hi + 1))
            except OverflowError:  # more seeds than a list can index
                raise ValueError(f"seed range {token!r} is too long") from None
        else:
            seeds.append(int(token))
    return seeds


def _parse_levels(text: str) -> list[tuple[str, int]]:
    return [augment.parse_level(token) for token in text.replace(",", " ").split()]


def _parse_architectures(text: str) -> list[tuple[tuple[int, ...], int, int]]:
    if text.strip() == "default":
        return list(experiment.ARCH_SETTINGS)
    archs = []
    for token in text.replace(",", " ").split():
        try:
            widths, epochs, batch = token.split(":")
            archs.append((network.parse_arch(widths), int(epochs), int(batch)))
        except ValueError:
            raise ConfigurationError(
                f"bad architecture token {token!r}; expected WIDTHS:EPOCHS:BATCH"
                " like 32-16-8:3500:64") from None
    return archs


# ---------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    with open(args.ame_file, "rb") as fh:
        records = ame.parse_mass_table(fh.read(), args.edition)
    filtered = ame.filter_experimental(records, args.z_min, args.n_min)
    print(f"parsed: {len(records)}")
    print(f"filtered: {len(filtered)}")
    if args.diff:
        old = ame.read_records_csv(args.diff)
        new = ame.diff_new_nuclei(old, filtered)
        print(f"new: {len(new)}")
        out_records = new
    else:
        out_records = filtered
    if args.out_csv:
        ame.write_records_csv(out_records, args.out_csv)
        print(f"wrote {args.out_csv}")
    return EXIT_OK


def _records(path) -> list[ame.NuclideRecord]:
    """The records of a canonical CSV that a command needs at least one of."""
    records = ame.read_records_csv(path)
    if not records:
        raise DataIntegrityError(f"{path} holds no records")
    return records


def cmd_augment(args) -> int:
    records = _records(args.records_csv)
    k = augment.LEVELS[args.technique].least_k if args.k is None else args.k
    aug = augment.apply(args.technique, k, records, args.noise_seed)
    augment.write_augmented_csv(aug, records, args.out)
    print(f"rows: {len(aug.rows)} (base {aug.base_size}, technique {aug.technique})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_training_rows(path) -> augment.AugmentedTrainingSet:
    # text that does not decode is reported by the reader this picks
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip().split(",")
    train_set = (augment.identity_set(ame.read_records_csv(path)) if header == ame.CSV_COLUMNS
                 else augment.read_augmented_csv(path))
    if not len(train_set.rows):
        raise DataIntegrityError(f"{path} holds no records")
    return train_set


def cmd_train(args) -> int:
    try:
        widths = network.parse_arch(args.arch)
    except ValueError:
        raise ConfigurationError(
            f"bad --arch {args.arch!r}; expected hyphenated widths like 32-16-8"
        ) from None
    spec = network.NetworkSpec(hidden_widths=widths, activation=args.activation)
    cfg = network.TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    opt = OptimizerConfig(algorithm=args.optimizer, learning_rate=args.lr,
                          beta1=args.beta1, beta2=args.beta2)
    model = network.train(spec, _load_training_rows(args.train_csv), cfg, opt)
    network.save_model(model, args.out)
    print(f"final train MSE: {model.loss_history[-1]:.6f} MeV^2")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = network.load_model(args.model)
    records = _records(args.records_csv)
    pred, rms = experiment.score(model, records)
    if not math.isfinite(rms):
        raise DataIntegrityError(f"rms over {len(records)} nuclei is not finite: {rms}")
    print(f"rms: {rms:.6f} MeV over {len(records)} nuclei")
    if args.out:
        ame.write_csv(args.out, ["z", "a", "be_exp_mev", "be_pred_mev"],
                      [[r.z, r.a, repr(r.be_total), repr(float(p))]
                       for r, p in zip(records, pred)])
        print(f"wrote {args.out}")
    return EXIT_OK


_REQUIRED = object()

# section -> key -> (converter, default) of every key a sweep config may set;
# anything else is rejected, and a key whose default is _REQUIRED must be set.
# The [sweep] keys are named as the parameters of experiment.sweep.
SWEEP_CONFIG_KEYS = {
    "data": {"ame2016": (str, _REQUIRED), "ame2020": (str, None),
             "z_min": (int, ame.Z_N_MIN), "n_min": (int, ame.Z_N_MIN)},
    "split": {"ratio": (float, 0.7), "seed": (int, 0)},
    "sweep": {"architectures": (_parse_architectures, _REQUIRED),
              "levels": (_parse_levels, _REQUIRED), "seeds": (_parse_seeds, _REQUIRED),
              "noise_seed": (int, 0), "activation": (str, network.NetworkSpec.activation)},
    "optimizer": {field.name: (type(field.default), field.default)
                  for field in dataclasses.fields(OptimizerConfig)},
}


def _load_sweep_config(path):
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())
        raise ConfigurationError(f"bad config file {path}: {message}") from None
    for section in cp.sections():
        unknown = sorted(set(cp.options(section)) - SWEEP_CONFIG_KEYS.get(section, {}).keys())
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s) in [{section}]: {', '.join(unknown)}")

    def get(section, key, convert, default):
        text = cp.get(section, key, fallback=None)
        if text is None:
            if default is _REQUIRED:
                raise ConfigurationError(f"config missing [{section}] {key}")
            return default
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigurationError(f"bad config [{section}] {key}: {exc}") from None

    config = {section: {key: get(section, key, *spec) for key, spec in keys.items()}
              for section, keys in SWEEP_CONFIG_KEYS.items()}
    try:
        opt = OptimizerConfig(**config["optimizer"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad config [optimizer]: {exc}") from None
    try:  # every trial's settings, before a mass table is read or an output written
        experiment.build_trial_specs(optimizer=opt, **config["sweep"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad config [sweep]: {exc}") from None
    return config["data"], config["split"], config["sweep"], opt


def cmd_sweep(args) -> int:
    data, split_cfg, sweep_cfg, opt = _load_sweep_config(args.config)

    checksums, experimental = {}, {}
    for key in ("ame2016", "ame2020"):  # the config key is the edition, in lower case
        if data[key]:
            with open(data[key], "rb") as fh:
                content = fh.read()
            checksums[key] = hashlib.sha256(content).hexdigest()
            experimental[key] = ame.filter_experimental(
                ame.parse_mass_table(content, key.upper()), data["z_min"], data["n_min"])
    split = ame.split_dataset(experimental["ame2016"], split_cfg["ratio"], split_cfg["seed"])
    if not split.train:
        raise ConfigurationError(f"split ratio {split_cfg['ratio']} leaves no training records "
                                 f"of {len(experimental['ame2016'])}")
    extrapolation = (ame.diff_new_nuclei(experimental["ame2016"], experimental["ame2020"])
                     if "ame2020" in experimental else None)

    total = (len(sweep_cfg["architectures"]) * len(sweep_cfg["levels"])
             * len(sweep_cfg["seeds"]))
    done = [0]

    def progress(res, cached):
        done[0] += 1
        tag = "cached" if cached else f"{res.wall_time:.1f}s"
        print(f"[{done[0]}/{total}] {res.spec.arch_label} {res.spec.level_label} "
              f"seed={res.spec.seed} {res.status} ({tag})", flush=True)

    table = experiment.sweep(optimizer=opt, split=split, extrapolation=extrapolation,
                             cache_dir=os.path.join(args.out, "trials"), jobs=_usable_cpus(),
                             progress=progress, **sweep_cfg)

    table.write_csv(os.path.join(args.out, "results.csv"))
    experiment.write_manifest(os.path.join(args.out, "manifest.json"), split=split,
                              extrapolation=extrapolation, optimizer=opt,
                              ame_checksums=checksums, **sweep_cfg)
    _export_figures(os.path.join(args.out, "results.csv"), args.out)

    n_failed = sum(1 for t in table.trials if not t.ok)
    print(f"completed {len(table.trials)} trials, {n_failed} failed")
    return EXIT_TRIAL_FAILURES if n_failed else EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on; all of the host's where the OS cannot say."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):  # Linux and some other Unix systems
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _export_figures(results_csv, out_dir):
    """Write every figure CSV the results support; remove any earlier CSV of a
    figure they do not, so no figure outlives the results it was drawn from."""
    rows = experiment.read_results_csv(results_csv)
    for fig_id, build in report.FIGURES.items():
        path = os.path.join(out_dir, f"{fig_id}.csv")
        try:
            header, data_rows = build(rows)
        except IncompleteDataError:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            continue
        ame.write_csv(path, header, data_rows)


def cmd_report(args) -> int:
    if args.figure == "fig2":
        if not (args.records and args.nuclide):
            raise ConfigurationError("fig2 needs --records and --nuclide Z,A")
        try:
            z, a = (int(x) for x in args.nuclide.split(","))
        except ValueError:
            raise ConfigurationError(
                f"bad --nuclide {args.nuclide!r}; expected Z,A like 82,208"
            ) from None
        records = ame.read_records_csv(args.records)
        match = [r for r in records if r.z == z and r.a == a]
        if not match:
            raise DataIntegrityError(f"nuclide Z={z} A={a} not found in {args.records}")
        header, rows = report.gaussian_illustration(match[0], args.k, args.noise_seed)
    else:
        if not args.results_csv:
            raise ConfigurationError(f"figure {args.figure!r} needs a results CSV")
        results = experiment.read_results_csv(args.results_csv)
        if not results:
            raise DataIntegrityError(f"{args.results_csv} holds no results")
        header, rows = report.FIGURES[args.figure](results)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.figure}.csv")
    ame.write_csv(path, header, rows)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nucaug",
                     description="Nuclear binding-energy MLPs with data augmentation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse an AME mass file to the canonical CSV")
    p.add_argument("ame_file")
    p.add_argument("--edition", required=True, choices=sorted(ame.LAYOUTS))
    p.add_argument("--out-csv", help="write filtered records here")
    p.add_argument("--diff", metavar="OLD_CSV",
                   help="emit only nuclei absent from this earlier canonical CSV")
    p.add_argument("--z-min", type=int, default=ame.Z_N_MIN)
    p.add_argument("--n-min", type=int, default=ame.Z_N_MIN)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("augment", help="augment a canonical CSV of training records")
    p.add_argument("records_csv")
    p.add_argument("--technique", required=True, choices=augment.TECHNIQUES)
    p.add_argument("--k", type=int, help="resample count in the technique's range (default 1)")
    p.add_argument("--noise-seed", type=int, default=0, help="seed of the technique's draws")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train one network on a training CSV")
    p.add_argument("train_csv", help="canonical or augmented CSV")
    p.add_argument("--arch", required=True, help="hidden widths, e.g. 32-16-8")
    p.add_argument("--activation", default=network.NetworkSpec.activation,
                   choices=network.ACTIVATIONS)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--optimizer", default=OptimizerConfig.algorithm, choices=ALGORITHMS)
    p.add_argument("--lr", type=float, default=OptimizerConfig.learning_rate)
    p.add_argument("--beta1", type=float, default=OptimizerConfig.beta1)
    p.add_argument("--beta2", type=float, default=OptimizerConfig.beta2)
    p.add_argument("--out", required=True, help="model file (.npz)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rms of a model on a canonical CSV")
    p.add_argument("model")
    p.add_argument("records_csv")
    p.add_argument("--out", help="write per-nuclide predictions here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run (or resume) a configured sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="figure/table CSVs from sweep results")
    p.add_argument("results_csv", nargs="?",
                   help="sweep results CSV (not needed for fig2)")
    p.add_argument("--figure", required=True, choices=["fig2", *report.FIGURES])
    p.add_argument("--out", default=".")
    p.add_argument("--records", help="canonical CSV, for fig2")
    p.add_argument("--nuclide", help="Z,A for fig2, e.g. 82,208")
    p.add_argument("--k", type=int, default=5, help="resample count for fig2")
    p.add_argument("--noise-seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MassTableParseError, DataIntegrityError, IncompleteDataError,
            TrainingDivergedError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = str(exc) and f": {exc}"
        print(f"data error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
