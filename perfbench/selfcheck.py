"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload in quick mode (a few epochs, one set-up, a one-second
budget), untraced and traced, in this process, and checks that

* every metric BENCHMARK.json names is emitted with its unit: end-to-end
  metrics untraced, per-layer metrics traced, and nothing else;
* every run is correct: outputs repeat between units and traced counts
  equal the counts computed from the workload's specs;
* per-layer self times are non-negative and sum to the traced wall time;
* a layer whose function is gone is reported absent, not as zero;
* nothing under results/ is opened, listed, removed or written;
* outside a checkout the benchmark fails without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
RESULTS = os.path.join(run.ROOT, "results")
PATH_EVENTS = {"open", "os.listdir", "os.scandir", "os.remove", "os.rename",
               "os.replace", "os.mkdir", "os.rmdir", "shutil.rmtree", "shutil.copyfile",
               "os.chmod", "os.utime", "os.truncate"}

touched: list[tuple[str, str]] = []


def _audit(event, args):
    if event not in PATH_EVENTS:
        return
    for arg in args:
        if isinstance(arg, (str, bytes, os.PathLike)):
            path = os.fsdecode(arg)
            if os.path.abspath(path).startswith(RESULTS + os.sep) or \
                    os.path.abspath(path) == RESULTS:
                touched.append((event, path))


def _snapshot(path):
    """(relative path, mtime) of every file under `path`."""
    files = [os.path.join(d, f) for d, _, names in os.walk(path) for f in names]
    return sorted((os.path.relpath(f, path), os.stat(f).st_mtime_ns) for f in files)


def check_run(name: str, trace: bool, declared: dict, workdir: str) -> list[str]:
    result = run.run_workload(name, 1, 1.0, trace, workdir, quick=True)
    errors = [f"{name}: {p}" for p in result["problems"]]
    line = json.loads(run.result_line(result))
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        errors.append(f"{name}: run not correct: {line['attempted']} attempted, "
                      f"{line['failed']} failed")
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    if got != declared:
        errors.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(declared.keys() - got.keys())}, "
                      f"extra {sorted(got.keys() - declared.keys())}, units "
                      f"{sorted(k for k in got.keys() & declared.keys() if got[k] != declared[k])}")
    if trace:
        metrics = line["metrics"]
        times = {k: v["value"] for k, v in metrics.items()
                 if v["unit"] == "s" and not k.startswith("trace.")}
        negative = [k for k, v in times.items() if v < -1e-12]
        if negative:
            errors.append(f"{name}: negative self times {negative}")
        wall = metrics["trace.wall_s"]["value"]
        if abs(sum(times.values()) - wall) > 1e-9 * max(wall, 1.0):
            errors.append(f"{name}: self times sum to {sum(times.values())}, traced wall {wall}")
    return errors


def check_absent() -> list[str]:
    """Remove one layer's function and check its metrics are left out."""
    import tracing
    from nucaug import network
    original = network._forward_backward
    del network._forward_backward
    try:
        tracer = tracing.Tracer()
    finally:
        network._forward_backward = original
    metrics = tracing.per_layer_metrics(tracer.summary() | {"wall_s": [1.0]},
                                        tracer.absent)
    if "network.fwd_bwd" not in tracer.absent or any(
            k.startswith("network.fwd_bwd") for k in metrics):
        return ["a missing layer function is not reported as absent"]
    return []


def check_outside_checkout(workdir: str) -> list[str]:
    """The benchmark alone, without the package, must fail and print no result."""
    bare = os.path.join(workdir, "bare")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arch_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.prepare_import()
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    before = _snapshot(RESULTS)
    sys.addaudithook(_audit)
    errors = []
    with run.work_dir("selfcheck-") as workdir:
        for name in run.WORKLOADS:
            for trace, declared in ((False, end_to_end), (True, per_layer)):
                errors += check_run(name, trace, declared, os.path.join(workdir, name))
        errors += check_absent()
        errors += check_outside_checkout(workdir)
    seen = list(touched)
    if seen:
        errors.append(f"results/ was touched: {seen[:5]}")
    if _snapshot(RESULTS) != before:
        errors.append("results/ changed")
    for e in errors:
        print("FAIL", e)
    print("selfcheck:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
