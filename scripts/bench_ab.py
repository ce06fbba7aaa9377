#!/usr/bin/env python3
"""A/B ledger: the benchmark on a parent revision and on this checkout, alternating.

    python3 scripts/bench_ab.py --parent HEAD~1 --tag ingest [--pairs 10]
        [--workload headline_cell ...] [--seed 0] [--trace]

Both sides run from temporary extracts, removed on exit: the parent
revision's ``git archive``, and HEAD's with the checkout's own BENCHED_PATHS
laid over it (checkout_tree). So the checkout's caches and work files, such
as ``__pycache__`` or ``.perfbench_work/``, and its path do not differ
between the sides. Each pair runs ``perfbench/run.py --seconds S --trace 0``
once in each tree, the parent first in odd pairs, where S is
BENCHMARK.json's ``run_seconds``. For every end-to-end metric of
BENCHMARK.json, the ledger holds each pair's raw values, both sides' medians
and quartiles, the change/parent ratio of the medians, the pairs won and a
verdict: ``gain`` when at least 10 pairs ran, the change won at least nine
in ten and its median beats the parent's by more than the parent's
interquartile range; ``regression`` when its median is worse than the
parent's by more than the metric's bound; ``unresolved`` when the parent's
own spread is wider than the bound and not every change run beats every
parent run; ``within_bound`` otherwise. With ``--trace``, one traced run per
side adds every per-layer metric, the layers it found absent and the
problems its ``# run`` line names, such as a traced count that differs from
the computed one.

Results go to ``BENCH_<TAG>.json`` at the root of the checkout. Each group
of runs names the parent commit and the checkout it ran against: HEAD, a
dirty flag and a SHA-256 of what the benchmark runs (checkout_identity). A
group replaces the group of the same parent, workload and seed in that
file, and other groups are kept, so one file can collect several
invocations.
A run takes about 25 s: ten ``headline_cell`` pairs take about 8 min, and
five pairs of all three workloads 12-15 min.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CLAIM_PAIRS = 10
WIN_SHARE = 0.9


class BenchError(Exception):
    """A run that printed no result, or a revision git cannot extract."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def extract(rev: str, dest: str, root: str = ROOT) -> str:
    """Write the tree of `rev` of the checkout at `root` into `dest`; returns
    the full commit id."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                                cwd=root, capture_output=True, text=True, check=True)
        archive = subprocess.run(["git", "archive", "--format=tar", commit.stdout.strip()],
                                 cwd=root, capture_output=True, check=True)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"git cannot extract {rev!r}: {exc.stderr.strip()}") from None
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            # the "data" filter came in Python 3.10.12 and 3.11.4
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(dest, **safe)
    return commit.stdout.strip()


# what a benchmark run reads of a checkout: its package and the harness
BENCHED_PATHS = ("src", "perfbench", "BENCHMARK.json")


def checkout_identity(root: str = ROOT) -> dict:
    """What the change side runs: HEAD of the checkout at `root`, whether
    BENCHED_PATHS differ from it (tracked edits and untracked files alike),
    and, when they do, one SHA-256 of their ``git diff HEAD`` and of the
    name and bytes of each untracked file among them. Edits elsewhere, such
    as to the README or the ledger being written, leave it as it is."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=root, capture_output=True,
                              check=True).stdout
    try:
        head = git("rev-parse", "HEAD").decode().strip()
        diff = git("diff", "HEAD", "--binary", "--", *BENCHED_PATHS)
        untracked = git("ls-files", "--others", "--exclude-standard", "-z", "--",
                        *BENCHED_PATHS).split(b"\0")[:-1]
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"git cannot describe {root}: {exc.stderr.decode().strip()}") from None
    h = hashlib.sha256(diff)
    for name in untracked:
        with open(os.path.join(root, os.fsdecode(name)), "rb") as fh:
            h.update(b"\0" + name + b"\0" + fh.read())
    dirty = bool(diff or untracked)
    return {"head": head, "dirty": dirty, "diff_sha256": h.hexdigest() if dirty else None}


def checkout_tree(dest: str, root: str = ROOT) -> None:
    """Write into `dest` what the change side runs: HEAD's tree of the
    checkout at `root`, with BENCHED_PATHS replaced by the checkout's own
    files there, tracked or untracked, that git does not ignore. A tracked
    file deleted in the checkout is left out, and nothing outside
    BENCHED_PATHS is taken from it."""
    extract("HEAD", dest, root)
    try:
        names = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard",
                                "-z", "--", *BENCHED_PATHS], cwd=root, capture_output=True,
                               check=True).stdout.split(b"\0")[:-1]
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"git cannot list {root}: {exc.stderr.decode().strip()}") from None
    for path in BENCHED_PATHS:
        target = os.path.join(dest, path)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.lexists(target):
            os.remove(target)
    for name in map(os.fsdecode, names):
        source, target = os.path.join(root, name), os.path.join(dest, name)
        if os.path.isfile(source):  # else a tracked file deleted in the checkout
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy(source, target)


def run_perfbench(tree: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the benchmark in `tree`: its result object, with the
    ``# env`` and ``# run`` lines under "env" and "run"."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        for key in ("env", "run"):
            if line.startswith(f"# {key} "):
                result[key] = json.loads(line[len(key) + 3:])
    return result


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, ratio, wins and verdict of one metric over pairs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p2, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, c2, c3 = statistics.quantiles(change, n=4, method="inclusive")
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    iqr = p3 - p1
    gap = sign * (c2 - p2)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(gains) >= MIN_CLAIM_PAIRS and wins >= WIN_SHARE * len(gains) and gap > iqr:
        verdict = "gain"
    elif -gap > bound * abs(p2):
        verdict = "regression"
    elif iqr > bound * abs(p2) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {"better": better, "bound": bound,
            "parent_median": p2, "parent_q1": p1, "parent_q3": p3, "parent_iqr": iqr,
            "change_median": c2, "change_q1": c1, "change_q3": c3,
            "ratio": c2 / p2 if p2 else None,
            "wins": wins, "losses": losses, "ties": len(gains) - wins - losses,
            "verdict": verdict}


def measure(trees: dict, workload: str, seed: int, pairs: int, trace: bool,
            benchmark: dict, runner=run_perfbench) -> dict:
    """One group of the ledger: `pairs` alternating pairs of `workload`, and
    with `trace` one traced run per side."""
    seconds = benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]
    runs = []
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            result = runner(trees[side], workload, seed, seconds, False)
            pair[side] = {"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {m["name"]: result["metrics"][m["name"]]["value"]
                                      for m in metrics if m["name"] in result["metrics"]}}
            if i == 1:
                pair[side]["env"] = result.get("env")
        runs.append(pair)
        print(f"{workload} seed {seed} pair {i}/{pairs}: " + ", ".join(
            f"{side} wall_s {pair[side]['metrics'].get('wall_s', float('nan')):.4g}"
            for side in order), file=sys.stderr, flush=True)
    summary = {}
    for m in metrics:
        name = m["name"]
        if all(name in run[side]["metrics"] for run in runs for side in ("parent", "change")):
            summary[name] = summarize([run["parent"]["metrics"][name] for run in runs],
                                      [run["change"]["metrics"][name] for run in runs],
                                      m["better"], m["bound"])
    group = {"workload": workload, "seed": seed, "seconds": seconds, "pairs": runs,
             "correct": all(run[side]["correct"] for run in runs
                            for side in ("parent", "change")),
             "summary": summary}
    if trace:
        group["traced"] = {}
        for side in ("parent", "change"):
            result = runner(trees[side], workload, seed, seconds, True)
            run = result.get("run", {})
            group["traced"][side] = {
                "correct": result["correct"],
                "metrics": {name: v["value"] for name, v in result["metrics"].items()},
                "absent": run.get("absent", {}), "problems": run.get("problems", [])}
            group["correct"] = group["correct"] and result["correct"]
    return group


def write_ledger(path: str, parent: dict, change: dict, groups: list[dict]) -> dict:
    """Merge `groups`, each labelled with the `parent` and `change` trees,
    into the ledger at `path`, replacing groups of the same parent commit,
    workload and seed; returns the ledger written."""
    ledger = {"groups": []}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    def key(group):
        return group["parent"]["commit"], group["workload"], group["seed"]

    new = [{"parent": parent, "change": change, **g} for g in groups]
    fresh = {key(g) for g in new}
    ledger["groups"] = [g for g in ledger["groups"] if key(g) not in fresh] + new
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    return ledger


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--tag", required=True, help="writes BENCH_<TAG>.json")
    p.add_argument("--pairs", type=int, default=MIN_CLAIM_PAIRS)
    p.add_argument("--workload", action="append", choices=workloads,
                   help="repeat for several; default: every workload")
    p.add_argument("--seed", type=int, default=0, help="the benchmark's workload seed")
    p.add_argument("--trace", action="store_true",
                   help="add one traced run per side and workload")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, to give quartiles")
    if not args.tag.replace("_", "").replace("-", "").isalnum():
        p.error("--tag takes letters, digits, '-' and '_'")
    return args


def main(argv=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench_ab_parent_") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench_ab_change_") as change_tree:
        try:
            commit = extract(args.parent, parent_tree)
            change = checkout_identity()
            checkout_tree(change_tree)
            groups = [measure({"parent": parent_tree, "change": change_tree}, w, args.seed,
                              args.pairs, args.trace, benchmark)
                      for w in workloads]
        except BenchError as exc:
            print(f"bench_ab: {exc}", file=sys.stderr)
            return 1
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    write_ledger(path, {"rev": args.parent, "commit": commit}, change, groups)
    for g in groups:
        for name, s in g["summary"].items():
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
            print(f"{g['workload']:>15} {name:>13}: parent {s['parent_median']:.4g} "
                  f"change {s['change_median']:.4g} ratio {ratio} "
                  f"wins {s['wins']}/{len(g['pairs'])} {s['verdict']}")
        print(f"{g['workload']:>15} correct: {g['correct']}")
    print(f"wrote {os.path.relpath(path)}")
    return 0 if all(g["correct"] for g in groups) else 1


if __name__ == "__main__":
    sys.exit(main())
