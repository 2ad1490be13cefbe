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

