import json
import shutil

from helpers import ROOT, load_tool

same_outputs = load_tool("same_outputs")


def _slice():
    """The edm baseline, its dump-weights and an N = 2 best-of-3 optimize."""
    commands = same_outputs.battery()
    return [next(c for c in commands if name in c)
            for name in ("edm.json", "edm-dumped.json", "edge-n2.json")]


def test_same_tree_has_no_difference(tmp_path):
    trees = {"parent": ROOT, "change": ROOT}
    assert same_outputs.compare(trees, _slice(), tmp_path) == []
    written = {p.name for p in (tmp_path / "change-outputs").iterdir()}
    assert {"edm.json", "edm-weights.json", "edm-dumped.json", "edge-n2.json",
            "edge-n2-weights.json"} <= written


def test_mixture_run_near_the_end_of_the_domain_has_no_difference(tmp_path):
    # the vp-linear baselines at eps 1e-300 and the 256-draw mixture run over them
    commands = [c for c in same_outputs.battery() if any(a.startswith("eps-1e-300-") for a in c)]
    assert [c[0] for c in commands] == ["baseline"] * 3 + ["simulate"]
    assert same_outputs.compare({"parent": ROOT, "change": ROOT}, commands, tmp_path) == []
    assert (tmp_path / "change-outputs" / "mixture-eps-1e-300-report.json").exists()


def test_malformed_inputs_and_outputs_naming_an_input_exit_2(tmp_path):
    # the edm baseline the simulate runs read, then every read of a malformed
    # input and every output naming an input; the inputs keep their bytes
    commands = [_slice()[0], *same_outputs._input_commands()]
    results = same_outputs.run_battery(ROOT, tmp_path / "w", commands)
    assert [r["code"] for r in results] == [0, 2, 2, 2, 2, 2, 0, 2, 2]
    assert all(r["stderr"].startswith("error: ") for r in results if r["code"])
    assert json.loads((tmp_path / "w" / "overwrite.json").read_text())["N"] == 4
    assert json.loads((tmp_path / "w" / "overwrite-model.json").read_text()) == (
        same_outputs.INPUTS["overwrite-model.json"])


def test_changed_output_is_reported(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "src" / "stepopt" / "cli.py"
    source = cli.read_text()
    assert source.count('print(f"wrote {args.out}")') == 1
    cli.write_text(source.replace('print(f"wrote {args.out}")', 'print(f"wrote {args.out} ")'))
    diffs = same_outputs.compare({"parent": ROOT, "change": changed}, _slice()[:2], tmp_path)
    assert len(diffs) == 1
    assert diffs[0].startswith(
        "stepopt dump-weights --steps edm.json --out edm-dumped.json: stdout ")


def test_numbers_only_difference_is_measured():
    parent = '{"label": "schedule-0", "mean_l2": 0.13142277262098745, "seeds": 256}\n'
    change = parent.replace("0.13142277262098745", "0.13142277262098742")
    worst = same_outputs.largest_relative_difference(parent, change)
    assert worst == abs(0.13142277262098745 - 0.13142277262098742) / 0.13142277262098745
    assert 1e-16 < worst < 3e-16
    assert same_outputs.file_difference("r.json", parent.encode(), change.encode()) == (
        f"r.json: contents differ in numbers only, by up to {worst:.3g} relative")
    csv_parent = "label,mean_l2\nedm,1.5e-3\nuniform-t,inf\n"
    assert same_outputs.largest_relative_difference(csv_parent, csv_parent) == 0.0
    assert same_outputs.largest_relative_difference(
        csv_parent, csv_parent.replace("1.5e-3", "1.5e-4")) == 0.9
    assert same_outputs.largest_relative_difference(
        csv_parent, csv_parent.replace("inf", "2.0")) == float("inf")
    # a zero that changes sign is a change of value; a respelt number is not
    zero = '{"drift": 0.0, "mean_l2": 0.001}\n'
    assert same_outputs.largest_relative_difference(zero, zero.replace("0.0,", "-0.0,")) == 2.0
    assert same_outputs.file_difference("r.json", zero.encode(), zero.replace(
        "0.0,", "-0.0,").encode()) == "r.json: contents differ in numbers only, by up to 2 relative"
    respelt = zero.replace("0.001", "1e-3")
    assert same_outputs.largest_relative_difference(zero, respelt) == 0.0
    assert same_outputs.file_difference("r.json", zero.encode(), respelt.encode()) == (
        "r.json: contents differ in how numbers are written, not in their values")


def test_other_differences_are_not_measured():
    parent = '{"label": "schedule-0", "mean_l2": 0.5}\n'
    for change in ('{"label": "schedule-1", "mean_l2": 0.5}\n', '{"label": "schedule-0"}\n',
                   '{"label": "schedule-0", "mean_l2": 0.5, "x": 1}\n'):
        assert same_outputs.largest_relative_difference(parent, change) is None
        assert same_outputs.file_difference("r.json", parent.encode(), change.encode()) == (
            "r.json: contents differ")
    assert same_outputs.file_difference("w.txt", b"0.5", b"0.6") == "w.txt: contents differ"
    assert same_outputs.file_difference("w.json", b"0.5", None) == (
        "w.json: written on one side only")
