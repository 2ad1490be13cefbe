import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def _run(seed, side, wall, ops):
    metrics = {"wall_s": {"value": wall}, "ops_per_s": {"value": ops}}
    return {"workload": "sweep", "seed": seed, "side": side, "output_drift": 1e-12,
            "result": {"correct": True, "failed": 0, "metrics": metrics}}


def test_parse_pairs():
    assert bench_pairs.parse_pairs("sweep:1-3,7") == ("sweep", [1, 2, 3, 7])
    with pytest.raises(Exception):
        bench_pairs.parse_pairs("sweep")


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
