"""Run one workload of the nucaug benchmark and print its metrics.

    python3 perfbench/run.py --workload headline_cell --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` and
driven in this one process with ``jobs=1``. Set-up is repeated (see
SETUP_REPEATS), then units of work (one sweep, or one pass of commands)
repeat until ``--seconds`` have passed; the unit in progress is finished.
Every output is checked against the reference digests recorded for the
workload seed, and with ``--trace 1`` the per-layer counts are checked
against the counts the workload computes from its own specs.

Standard output ends with lines ``# env {...}`` (machine and software),
``# run {...}`` (samples and checks) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced units and
reports the per-layer metrics of the traced ones, per unit of work, with the
trace overhead. All files are written under ``.perfbench_work/`` in the
checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REQUIRED = [os.path.join(SRC, "nucaug", "__init__.py"),
            os.path.join(ROOT, "data", "mass16_synthetic.txt"),
            os.path.join(ROOT, "data", "mass20_synthetic.txt")]
WORKLOADS = ("headline_cell", "arch_sweep", "prepare_resume")
# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that a set-up of a few milliseconds still gives a steady
# median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

JOBS_NOTE = ("--jobs scaling is not measured: on two shared cores the wall-clock "
             "scaling of worker processes measures the scheduler")


def prepare_import() -> None:
    """Pin BLAS to one thread (one process, jobs=1) and import from src/.

    Must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Threads OpenBLAS actually uses, asked of the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nucaug")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    from workloads import seed_class
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
        "seed_class": seed_class(seed),
        "jobs": 1,
        "jobs_scaling": JOBS_NOTE,
    }


# ---------------------------------------------------------------- running

def load_reference(name: str, seed: int):
    from workloads import seed_class
    with open(REFERENCE) as fh:
        return json.load(fh)[name].get(str(seed_class(seed)))


def run_setups(wl, workdir: str, repeats: int, seconds: float, cal=None):
    """Set the workload up at least `repeats` times and for at least
    `seconds`; the last state is kept. Returns the state and the set-up and
    cache-fill times, each scaled by the calibration slices timed right
    before and after it when `cal` is given."""
    from workloads import fresh_dir
    times, fills, state = [], [], None
    raw = 0.0
    if cal:
        cal.sample()
    while len(times) < repeats or raw < seconds:
        if state is not None:
            shutil.rmtree(state["workdir"])
        d = fresh_dir(os.path.join(workdir, f"setup{len(times)}"))
        first_sample = len(cal.samples) if cal else 0
        start = time.perf_counter()
        state = wl.setup(d, cal.sample if cal else None)
        elapsed = time.perf_counter() - start
        scale = 1.0
        if cal:
            elapsed -= sum(cal.samples[first_sample:])
            cal.sample()
            scale = cal.scale(cal.samples[first_sample - 1:])
        raw += elapsed
        times.append(elapsed * scale)
        if wl.fill_s is not None:
            fills.append(wl.fill_s * scale)
    return state, times, fills


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 quick: bool = False) -> dict:
    """Set up and measure one workload; everything the caller reports."""
    import tracing
    from calibration import Calibrator
    from workloads import fresh_dir, make

    wl = make(name, seed, quick)
    # the end-to-end times of a calibrated workload are scaled to the usual
    # machine speed; the traced run reports raw times and runs no slices
    cal = None
    if wl.calibration and not trace:
        cal = Calibrator(python=wl.calibration == "numpy+python")
    if trace or quick:
        state, setup_times, fill_times = run_setups(wl, workdir, 1, 0.0, cal)
    else:
        state, setup_times, fill_times = run_setups(wl, workdir, SETUP_REPEATS,
                                                    SETUP_SECONDS, cal)
    reference = None if quick else load_reference(name, seed)
    problems = [] if quick or reference else [f"no reference digests for seed {seed}"]
    tracer = tracing.Tracer() if trace else None
    expected_counts = wl.expected_counts(state)

    walls, raw_walls, traced_walls = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        arg = wl.prepare(state, fresh_dir(os.path.join(workdir, "unit")))
        if traced:
            tracer.begin_unit()
        # a unit is scaled by the slice before it, those inside it and the one after
        first_sample = len(cal.samples) if cal else 0
        try:
            t0 = time.perf_counter()
            raw = wl.unit(state, arg, cal.sample if cal else None)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.end_unit()
        if cal:
            wall -= sum(cal.samples[first_sample:])
            cal.sample()
            raw_walls.append(wall)
            wall *= cal.scale(cal.samples[first_sample - 1:])
        (traced_walls if traced else walls).append(wall)
        out = wl.outcome(state, raw)
        first = first or out.digests
        expected = reference or first
        ops = expected.keys() | out.digests.keys()
        bad = out.failed | {op for op in ops if out.digests.get(op) != expected.get(op)}
        attempted += len(ops)
        failed += len(bad)
        if bad:
            problems.append(f"unit {i}: failed {sorted(bad)[:5]}")
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or traced_walls):
            break

    result = {"walls": walls, "raw_walls": raw_walls, "traced_walls": traced_walls,
              "setup_times": setup_times, "fill_times": fill_times,
              "calibration": cal.samples if cal else [], "attempted": attempted,
              "failed": failed, "problems": problems, "workload": wl,
              "expected_counts": expected_counts}
    if tracer is None:
        wall = statistics.median(walls)
        steps_time = statistics.median(fill_times) if fill_times else wall
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "passes_per_s": (1.0 / wall, "1/s"),
            "trials_per_s": (wl.trials / wall, "1/s"),
            "steps_per_s": (wl.steps / steps_time, "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        return result

    summary = tracer.summary()
    result["absent"] = tracer.absent
    problems += check_counts(summary, expected_counts, tracer.absent)
    metrics = tracing.per_layer_metrics(summary, tracer.absent)
    # the per-layer self times add up to the mean traced unit; the overhead
    # compares medians, so that the first, cold unit does not weigh in
    untraced_wall = statistics.median(walls)
    metrics["trace.wall_s"] = (statistics.fmean(summary["wall_s"]), "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(summary["wall_s"]) / untraced_wall - 1.0, "frac")
    result["metrics"] = metrics
    return result


def check_counts(summary: dict, expected: dict, absent: dict) -> list[str]:
    """Per traced unit, each checked count must equal the computed one."""
    problems = []
    for name, want in expected.items():
        layer = name.rsplit("_", 1)[0] if name.endswith("_calls") else None
        if (layer or name) in absent:
            continue
        for u, (calls, counts) in enumerate(zip(summary["unit_calls"],
                                                summary["unit_counts"])):
            got = calls[layer] if layer else counts[name]
            if got != want:
                problems.append(f"traced unit {u}: {name} = {got}, computed {want}")
    return problems


def result_line(result: dict) -> str:
    correct = result["failed"] == 0 and not result["problems"]
    return json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def run_line(result: dict) -> str:
    cal = result["calibration"]
    info = {"unit_walls_s": result["walls"], "raw_unit_walls_s": result["raw_walls"],
            "traced_unit_walls_s": result["traced_walls"],
            "setup_s": result["setup_times"], "fill_s": result["fill_times"],
            "calibration_slices": len(cal),
            "calibration_median_s": statistics.median(cal) if cal else None,
            "trials_per_unit": result["workload"].trials,
            "steps_per_unit": result["workload"].steps,
            "problems": result["problems"][:20]}
    if "absent" in result:
        info["absent"] = result["absent"]
        info["checked_counts"] = result["expected_counts"]
    return json.dumps(info)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under .perfbench_work/, removed with it on exit."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def parse_args(argv):
    p = argparse.ArgumentParser(description="nucaug benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [os.path.relpath(p, ROOT) for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a nucaug checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    prepare_import()
    with work_dir(f"{args.workload}-") as workdir:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir)
    env = environment(args.workload, args.seed)
    print("# env " + json.dumps(env))
    print("# run " + run_line(result))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
