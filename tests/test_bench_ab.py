"""scripts/bench_ab.py, driven by a stub runner instead of the benchmark."""

import importlib.util
import json
import os
import statistics
import subprocess

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_ab", os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_ab.py"))
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

BENCHMARK = bench_ab.load_benchmark()
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


class StubRunner:
    """Results of the benchmark from fixed value lists: the i-th run of a
    side reads the i-th value of that side's list for every metric."""

    def __init__(self, parent, change, correct=True, traced_problems=()):
        self.values = {"parent": list(parent), "change": list(change)}
        self.correct = correct
        self.traced_problems = list(traced_problems)
        self.calls = []

    def __call__(self, tree, workload, seed, seconds, trace):
        self.calls.append((tree, workload, seed, seconds, trace))
        if trace:
            problems = self.traced_problems if tree == "change" else []
            return {"correct": not problems, "attempted": 1, "failed": 0,
                    "metrics": {"ame.parse_s": {"value": 0.01, "unit": "s"}},
                    "run": {"absent": {}, "problems": problems}}
        value = self.values[tree].pop(0)
        return {"correct": self.correct, "attempted": 4, "failed": 0,
                "metrics": {name: {"value": value, "unit": m["unit"]}
                            for name, m in METRICS.items()},
                "env": {"python": "3", "workload": workload}}


def measure(runner, pairs, trace=False):
    return bench_ab.measure({"parent": "parent", "change": "change"}, "headline_cell", 3,
                            pairs, trace, BENCHMARK, runner)


class TestMeasure:
    def test_sides_alternate_and_raw_values_are_kept(self):
        parent, change = [5.0, 6.0, 7.0, 8.0], [4.0, 4.5, 9.0, 3.0]
        runner = StubRunner(parent, change)
        group = measure(runner, 4)
        order = [call[0] for call in runner.calls]
        assert order == ["parent", "change", "change", "parent"] * 2
        assert all(call[1:] == ("headline_cell", 3, BENCHMARK["run_seconds"], False)
                   for call in runner.calls)
        assert [p["first"] for p in group["pairs"]] == ["parent", "change"] * 2
        assert [p["parent"]["metrics"]["setup_s"] for p in group["pairs"]] == parent
        assert [p["change"]["metrics"]["setup_s"] for p in group["pairs"]] == change
        assert set(group["pairs"][0]["parent"]["metrics"]) == set(METRICS)
        assert group["pairs"][0]["change"]["env"]["workload"] == "headline_cell"
        assert group["correct"] and group["seed"] == 3 and "traced" not in group

    def test_summary_arithmetic(self):
        parent, change = [5.0, 6.0, 7.0, 8.0], [4.0, 4.5, 9.0, 3.0]
        s = measure(StubRunner(parent, change), 4)["summary"]
        lower, higher = s["setup_s"], s["passes_per_s"]
        q1, q2, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        assert (lower["parent_q1"], lower["parent_median"], lower["parent_q3"]) == (q1, q2, q3)
        assert lower["parent_iqr"] == q3 - q1 == 1.5
        assert lower["change_median"] == statistics.median(change) == 4.25
        assert lower["ratio"] == 4.25 / 6.5
        # lower is better for setup_s, higher for passes_per_s
        assert (lower["wins"], lower["losses"], lower["ties"]) == (3, 1, 0)
        assert (higher["wins"], higher["losses"], higher["ties"]) == (1, 3, 0)
        assert set(s) == set(METRICS)

    def test_gain_needs_ten_pairs_nine_wins_and_a_gap_over_the_iqr(self):
        parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
        faster = [0.8] * 9 + [1.5]
        assert measure(StubRunner(parent, faster), 10)["summary"]["setup_s"]["verdict"] \
            == "gain"
        # too few pairs
        assert measure(StubRunner(parent[:9], faster[:9]), 9)["summary"]["setup_s"][
            "verdict"] == "within_bound"
        # eight wins of ten
        eight = [0.8] * 8 + [1.5, 1.5]
        assert measure(StubRunner(parent, eight), 10)["summary"]["setup_s"]["verdict"] \
            != "gain"
        # every pair won, by less than the parent's spread
        wide = [1.0, 1.2, 0.8, 1.3, 0.7, 1.0, 1.2, 0.8, 1.0, 1.0]
        close = [v - 0.01 for v in wide]
        summary = measure(StubRunner(wide, close), 10)["summary"]["setup_s"]
        assert summary["wins"] == 10 and summary["verdict"] != "gain"

    @pytest.mark.parametrize("change, verdict", [
        ([1.3] * 5, "regression"),          # worse by more than the 25 % bound
        ([1.1] * 5, "within_bound"),
    ])
    def test_bound(self, change, verdict):
        parent = [1.0, 1.01, 0.99, 1.0, 1.0]
        assert measure(StubRunner(parent, change), 5)["summary"]["wall_s"]["verdict"] \
            == verdict

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.6, 0.6, 1.0, 1.0, 1.6, 0.6]
        assert measure(StubRunner(parent, [1.1] * 7), 7)["summary"]["wall_s"]["verdict"] \
            == "unresolved"
        # unless every change run beats every parent run
        assert measure(StubRunner(parent, [0.5] * 7), 7)["summary"]["wall_s"]["verdict"] \
            == "within_bound"

    def test_traced_runs_and_correctness(self):
        runner = StubRunner([1.0, 1.0], [1.0, 1.0], correct=False)
        group = measure(runner, 2, trace=True)
        assert not group["correct"]
        assert [call[0] for call in runner.calls if call[4]] == ["parent", "change"]
        assert group["traced"]["change"] == {"correct": True, "metrics": {"ame.parse_s": 0.01},
                                             "absent": {}, "problems": []}

    def test_traced_count_mismatch_says_why(self):
        problem = "traced unit 0: augment.rows_out = 15104, computed 15105"
        group = measure(StubRunner([1.0, 1.0], [1.0, 1.0], traced_problems=[problem]), 2,
                        trace=True)
        assert not group["correct"]
        assert group["traced"]["change"]["problems"] == [problem]
        assert group["traced"]["parent"] == {"correct": True,
                                             "metrics": {"ame.parse_s": 0.01},
                                             "absent": {}, "problems": []}


class TestLedger:
    def test_groups_replace_only_their_own(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")

        def group(workload, seed, value):
            return {"workload": workload, "seed": seed, "value": value}

        parent = {"rev": "HEAD", "commit": "abc"}
        change = {"head": "abc", "dirty": True, "diff_sha256": "0f"}
        bench_ab.write_ledger(path, parent, change, [group("a", 0, 1), group("b", 0, 1)])
        bench_ab.write_ledger(path, parent, change, [group("a", 0, 2), group("a", 7, 3)])
        bench_ab.write_ledger(path, {"rev": "HEAD~1", "commit": "def"}, change,
                              [group("a", 0, 4)])
        with open(path) as fh:
            groups = json.load(fh)["groups"]
        assert [(g["parent"]["commit"], g["workload"], g["seed"], g["value"])
                for g in groups] == [("abc", "b", 0, 1), ("abc", "a", 0, 2),
                                     ("abc", "a", 7, 3), ("def", "a", 0, 4)]
        assert all(g["change"] == change for g in groups)

    def test_checkout_identity_tells_trees_apart(self, tmp_path):
        def git(*argv):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
                           cwd=tmp_path, capture_output=True, check=True)

        git("init", "-q")
        (tmp_path / "src").mkdir()
        for name in ("src/a.py", "README.md"):
            (tmp_path / name).write_text("x = 1\n")
        git("add", "src/a.py", "README.md")
        git("commit", "-q", "-m", "a")
        clean = bench_ab.checkout_identity(str(tmp_path))
        assert len(clean["head"]) == 40 and not clean["dirty"] and clean["diff_sha256"] is None
        (tmp_path / "README.md").write_text("edited\n")  # not run by the benchmark
        assert bench_ab.checkout_identity(str(tmp_path)) == clean
        (tmp_path / "src/a.py").write_text("x = 2\n")
        edited = bench_ab.checkout_identity(str(tmp_path))
        (tmp_path / "README.md").write_text("edited again\n")
        assert bench_ab.checkout_identity(str(tmp_path)) == edited
        (tmp_path / "src/a.py").write_text("x = 3\n")
        other = bench_ab.checkout_identity(str(tmp_path))
        assert edited["head"] == other["head"] == clean["head"] and edited["dirty"]
        assert len({edited["diff_sha256"], other["diff_sha256"]}) == 2
        # an untracked file under src/ counts, by its name and bytes
        (tmp_path / "src/a.py").write_text("x = 1\n")
        untracked = []
        for text in ("", "y = 1\n"):
            (tmp_path / "src/b.py").write_text(text)
            untracked.append(bench_ab.checkout_identity(str(tmp_path)))
        assert all(u["dirty"] for u in untracked)
        assert len({u["diff_sha256"] for u in untracked}) == 2

    def test_checkout_tree_is_head_with_the_benched_paths_laid_over(self, tmp_path):
        repo, tree = tmp_path / "repo", tmp_path / "tree"
        repo.mkdir()

        def git(*argv):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
                           cwd=repo, capture_output=True, check=True)

        git("init", "-q")
        (repo / "src").mkdir()
        for name in ("src/a.py", "src/c.py", "README.md"):
            (repo / name).write_text("x = 1\n")
        (repo / ".gitignore").write_text("__pycache__/\n")
        git("add", ".")
        git("commit", "-q", "-m", "a")
        (repo / "src/a.py").write_text("x = 2\n")     # edited
        (repo / "src/b.py").write_text("y = 1\n")     # untracked
        (repo / "src/c.py").unlink()                  # deleted
        (repo / "src/__pycache__").mkdir()
        (repo / "src/__pycache__/x.pyc").write_bytes(b"\0")  # ignored
        (repo / "README.md").write_text("edited\n")   # not run by the benchmark
        bench_ab.checkout_tree(str(tree), str(repo))
        assert sorted(str(p.relative_to(tree)) for p in tree.rglob("*")) == [
            ".gitignore", "README.md", "src", "src/a.py", "src/b.py"]
        assert (tree / "src/a.py").read_text() == "x = 2\n"
        assert (tree / "src/b.py").read_text() == "y = 1\n"
        assert (tree / "README.md").read_text() == "x = 1\n"

    def test_checkout_identity_needs_git(self, tmp_path):
        with pytest.raises(bench_ab.BenchError, match="git cannot describe"):
            bench_ab.checkout_identity(str(tmp_path))

    @pytest.mark.parametrize("argv, message", [
        (["--parent", "HEAD", "--tag", "x", "--pairs", "1"], "at least 2"),
        (["--parent", "HEAD", "--tag", "../x"], "--tag takes"),
        (["--parent", "HEAD", "--tag", "x", "--workload", "nope"], "invalid choice"),
    ])
    def test_bad_arguments(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            bench_ab.parse_args(argv, [w["name"] for w in BENCHMARK["workloads"]])
        assert exc.value.code == 2 and message in capsys.readouterr().err

    def test_defaults(self):
        args = bench_ab.parse_args(["--parent", "HEAD", "--tag", "x"], ["w"])
        assert (args.pairs, args.workload, args.seed, args.trace) == (10, None, 0, False)
