import pytest
from helpers import load_tool

bench_pairs = load_tool("bench_pairs")

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _run(seed, side, wall, ops):
    metrics = {"wall_s": {"value": wall}, "ops_per_s": {"value": ops}}
    return {"workload": "sweep", "seed": seed, "side": side, "output_drift": 1e-12,
            "result": {"correct": True, "failed": 0, "metrics": metrics}}


def test_parse_pairs():
    assert bench_pairs.parse_pairs("sweep:1-3,7") == ("sweep", [1, 2, 3, 7])
    with pytest.raises(Exception):
        bench_pairs.parse_pairs("sweep")


def test_src_lines_counts_the_package_modules(tmp_path):
    package = tmp_path / "src" / "stepopt"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("x = 1\ny = 2")  # no final newline: wc -l counts 1
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_summary_counts_wins_by_direction():
    runs = []
    for seed, (wall, ops) in enumerate([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)], 1):
        runs += [_run(seed, "parent", wall, ops), _run(seed, "change", wall * 0.5, ops)]
    runs.append(_run(5, "parent", 9.0, 9.0))  # no change run: not a pair
    (line,) = bench_pairs.summarize(runs, END_TO_END)
    assert line.startswith("sweep (4 pairs, ")
    assert "wall_s 2.5 [1.75, 3.25] -> 1.25 [0.875, 1.625] (-50.0 %), change better in 4 of 4" in line
    assert "ops_per_s 25 [17.5, 32.5] -> 25 [17.5, 32.5] (+0.0 %), change better in 0 of 4 " \
           "pairs, equal in 4" in line
    assert "8 of 8 runs correct, 0 operations failed" in line


def test_summary_counts_incorrect_runs_and_failed_operations_apart():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 1.0, 1.0),
            _run(2, "parent", 1.0, 1.0), _run(2, "change", 1.0, 1.0)]
    runs[1]["result"].update(correct=False, failed=3)
    runs[2]["result"].update(failed=2)
    (line,) = bench_pairs.summarize(runs, END_TO_END)
    assert "3 of 4 runs correct, 5 operations failed" in line


def test_summary_splits_setup_by_run_order():
    runs = []
    # parent first on odd seeds: the side that runs second gets the faster set-up
    for seed, (parent, change) in enumerate([(1.0, 0.5), (2.0, 4.0), (3.0, 1.5), (4.0, 8.0)], 1):
        for side, value in (("parent", parent), ("change", change)):
            run = _run(seed, side, 1.0, 1.0)
            run["result"]["metrics"]["setup_s"] = {"value": value}
            runs.append(run)
    end_to_end = [{"name": "setup_s", "better": "lower", "bound": 0.25}, *END_TO_END]
    (line,) = bench_pairs.summarize(runs, end_to_end)
    assert "setup_s 2.5 [1.75, 3.25] -> 2.75 [1.25, 5] (+10.0 %), change better in 2 of 4" in line
    assert "setup_s with the parent first 2 -> 1 (2 pairs)" in line
    assert "setup_s with the change first 3 -> 6 (2 pairs)" in line
    # runs without a set-up metric get no split
    plain = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 1.0, 1.0)]
    assert "with the parent first" not in bench_pairs.summarize(plain, END_TO_END)[0]


def _verdicts(parent_walls, change_walls):
    """The summary's wall_s and ops_per_s parts; ops_per_s is equal in every pair."""
    runs = []
    for seed, (parent, change) in enumerate(zip(parent_walls, change_walls), 1):
        runs += [_run(seed, "parent", parent, 10.0), _run(seed, "change", change, 10.0)]
    (line,) = bench_pairs.summarize(runs, END_TO_END)
    return line.split("): ", 1)[1].split("; ")[:2]


def test_regression_rule_clean():
    wall, ops = _verdicts([1.0, 1.02, 0.98, 1.0], [1.1, 1.12, 1.08, 1.1])
    assert wall.endswith("change better in 0 of 4 pairs")
    assert ops.endswith("equal in 4")


def test_regression_rule_over_bound():
    # 30 % slower against a bound of 25 %; a higher-is-better metric counts the other way
    wall, ops = _verdicts([1.0, 1.02, 0.98, 1.0], [1.3, 1.32, 1.28, 1.3])
    assert wall.endswith("change better in 0 of 4 pairs, over bound")
    assert ops.endswith("equal in 4")
    assert bench_pairs.verdict({"better": "higher", "bound": 0.1}, [[10.0, 8.9]] * 3) == "over bound"
    assert bench_pairs.verdict({"better": "higher", "bound": 0.1}, [[10.0, 9.1]] * 3) == ""


def test_regression_rule_unresolved():
    # parent quartiles [1.75, 3.25] are wider than 0.25 * 2.5: the change cannot be told apart
    # unless every change run beats every parent run
    wall, _ = _verdicts([1.0, 2.0, 3.0, 4.0], [2.4, 2.5, 2.6, 2.5])
    assert wall.endswith("change better in 2 of 4 pairs, unresolved")
    wall, _ = _verdicts([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8])
    assert wall.endswith("change better in 4 of 4 pairs, gain")
    # every change run beats every parent run, by less than the parent's quartile spread
    wall, _ = _verdicts([1.0, 2.0, 2.1, 10.0], [0.9, 0.9, 0.9, 0.9])
    assert wall.endswith("change better in 4 of 4 pairs")


def test_gain_rule():
    # parent quartiles [1.0, 1.2] over 10 pairs: a gain needs 9 wins (ties count for neither)
    # and a median better by more than 0.2
    parent = [1.0, 1.0, 1.0, 1.0, 1.1, 1.1, 1.2, 1.2, 1.2, 1.3]
    faster = [p - 0.3 for p in parent]
    wall, ops = _verdicts(parent, faster[:9] + [parent[9]])
    assert wall.endswith("change better in 9 of 10 pairs, equal in 1, gain")
    assert ops.endswith("equal in 10")
    wall, _ = _verdicts(parent, faster[:8] + parent[8:])
    assert wall.endswith("change better in 8 of 10 pairs, equal in 2")
    wall, _ = _verdicts(parent, [p - 0.15 for p in parent])
    assert wall.endswith("change better in 10 of 10 pairs")
    # a higher-is-better metric gains the other way
    higher = {"better": "higher", "bound": 0.25}
    assert bench_pairs.verdict(higher, [[p, p + 0.3] for p in parent]) == "gain"
    assert bench_pairs.verdict(higher, [[p, p - 0.3] for p in parent]) == "over bound"
