"""Alternating parent/change benchmark pairs, written as ``BENCH_<n>.json``.

Run from the repository root:

    python3 tools/bench_pairs.py --parent <ref> --pairs sweep:1-8 \\
        --pairs optimize:1-4 --pairs simulate:1-4 --seconds 20 \\
        --change "what the change does" --out BENCH_<n>.json

The parent tree is ``git archive <ref>``.  The change tree is the same
archive with its ``src/`` replaced by the working tree's ``src/``, so
both sides run the same harness from the same layout.  Before the first
pair, each side runs one untimed ``perfbench/run.py --setup-only``
process per workload, so that neither side's first timed set-up is the
one that loads a cold tree.  Per seed, each side runs ``perfbench/run.py
--trace 0`` once, the parent first on odd seeds and the change first on
even seeds.  Both trees live in a
temporary directory that is removed on exit, so nothing is written
under the working tree's ``perfbench/``.  The output file is rewritten
after every pair; the summary, printed at the end and kept as the
file's ``notes``, gives per workload and end-to-end metric each side's
median and quartiles and the number of pairs the change won, and the
``setup_s`` medians of parent-first and change-first pairs apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0"


def parse_pairs(text: str) -> tuple[str, list[int]]:
    """``workload:1-8`` or ``workload:1,3,5`` as the workload and its seeds."""
    workload, _, seeds = text.partition(":")
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected workload:seeds, got {text!r}")
    out = []
    for part in seeds.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return workload, out


def build_trees(ref: str, tmp: Path) -> dict[str, Path]:
    """The parent archive of ``ref`` and the same archive with the working tree's ``src/``."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    trees = {side: tmp / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    shutil.rmtree(trees["change"] / "src")
    shutil.copytree(ROOT / "src", trees["change"] / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return trees


def _run_harness(tree: Path, workload: str, *flags: str, timeout: float, what: str):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, *flags]
    child = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                           timeout=timeout, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} {what} in {tree.name} failed: {child.stderr[-800:]}")
    return child


def warm_up(tree: Path, workload: str) -> None:
    """One untimed ``--setup-only`` process of ``workload`` in ``tree``; its output is dropped."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-warm-up-") as d:
        _run_harness(tree, workload, "--setup-only", d, timeout=600, what="warm-up")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``: its final JSON line and its output drift."""
    child = _run_harness(tree, workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                         "--trace", "0", timeout=10 * seconds + 600, what=f"seed {seed}")
    drift = re.search(r"^output_drift = (\S+)", child.stdout, re.MULTILINE)
    return {"result": json.loads(child.stdout.strip().splitlines()[-1]),
            "output_drift": float(drift.group(1)) if drift else None}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _pair_values(pairs: list[dict], name: str) -> list[list[float]]:
    """``[parent, change]`` values of metric ``name`` in every pair that reports it."""
    return [[p[s]["result"]["metrics"][name]["value"] for s in SIDES] for p in pairs
            if all(name in p[s]["result"]["metrics"] for s in SIDES)]


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Per workload and metric: median [q1, q3] per side and the pairs the change won.

    ``setup_s`` is also given per run order: its medians over the pairs
    where the parent ran first (odd seeds) and where the change did (even).
    """
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            continue
        parts = []
        for m in end_to_end:
            name = m["name"]
            both = _pair_values(pairs, name)
            if not both:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            won = sum(sign * (c - p) > 0 for p, c in both)
            equal = sum(c == p for p, c in both)
            (pq1, pmed, pq3), (cq1, cmed, cq3) = (_quartiles(list(side)) for side in zip(*both))
            change = 100.0 * (cmed - pmed) / pmed if pmed else float("nan")
            parts.append(
                f"{name} {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] -> {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] "
                f"({change:+.1f} %), change better in {won} of {len(pairs)} pairs"
                + (f", equal in {equal}" if equal else ""))
        for first, odd in (("parent", 1), ("change", 0)):
            both = _pair_values([p for seed, p in by_seed.items()
                                 if len(p) == 2 and seed % 2 == odd], "setup_s")
            if both:
                pmed, cmed = (statistics.median(side) for side in zip(*both))
                parts.append(f"setup_s with the {first} first {pmed:.6g} -> {cmed:.6g} "
                             f"({len(both)} pairs)")
        results = [p[s]["result"] for p in pairs for s in SIDES]
        correct = sum(bool(r["correct"]) for r in results)
        failed = sum(r["failed"] for r in results)
        drift = {s: sorted({p[s]["output_drift"] for p in pairs} - {None}) for s in SIDES}
        lines.append(f"{workload} ({len(pairs)} pairs, median [q1, q3] parent -> change): "
                     + "; ".join(parts)
                     + f"; {correct} of {len(results)} runs correct, {failed} operations failed"
                     + (f"; output_drift parent {drift['parent']} change {drift['change']}"
                        if drift["parent"] or drift["change"] else ""))
    return lines


def machine() -> str:
    versions = ", ".join(f"{name} {metadata.version(name)}" for name in ("numpy", "scipy"))
    return (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, Python "
            f"{platform.python_version()}, {versions}; end-to-end times are scaled to the "
            "harness's reference host speed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        help="workload:seeds, e.g. sweep:1-8 (repeatable, run in order)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--change", required=True, help="one sentence on what the change does")
    parser.add_argument("--note", action="append", default=[], help="extra note (repeatable)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    order = ", ".join(f"{w} seeds {s[0]}-{s[-1]}" if s == list(range(s[0], s[-1] + 1))
                      else f"{w} seeds {s}" for w, s in args.pairs)
    record = {
        "change": args.change,
        "parent": parent,
        "command": COMMAND.format(seconds=args.seconds),
        "protocol": (
            "one untimed --setup-only process per side and workload first; then per workload, "
            "parent and change back to back per seed, parent first on odd seeds "
            f"and change first on even seeds, in this order: {order}; parent from a git archive "
            "of the parent commit, change from the same archive with src/ replaced by this "
            "change's src/, so both sides have the same layout; result is the final JSON line "
            "of each run (tools/bench_pairs.py)"),
        "machine": machine(),
        "notes": list(args.note),
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = build_trees(args.parent, Path(tmp))
        for workload in dict.fromkeys(w for w, _ in args.pairs):
            for side in SIDES:
                warm_up(trees[side], workload)
        for workload, seeds in args.pairs:
            for seed in seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    run = run_side(trees[side], workload, seed, args.seconds)
                    record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                           "trace": 0, **run})
                    metrics = run["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{k} {v['value']:.6g}" for k, v in metrics.items()), flush=True)
                record["notes"] = list(args.note) + summarize(record["runs"], end_to_end)
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(record["notes"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
