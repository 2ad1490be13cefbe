"""Check that a change leaves every CLI output byte-identical to a parent commit's.

Run from the repository root:

    python3 tools/same_outputs.py --parent <ref>

Both trees are built as ``tools/bench_pairs.py`` builds them: the parent
is ``git archive <ref>``, the change the same archive with the working
tree's ``src/``.  Each tree runs the same fixed battery of ``stepopt``
commands, one subprocess each, in a fresh directory of its own:

* ``baseline --dump-weights`` of every scheme, ``dump-weights`` of one
  of those files, and ``simulate`` with JSON and CSV output of the three
  baselines on a single Gaussian and on the standard two-component
  mixture;
* best-of-3 ``optimize --dump-weights`` over 3 families x N 5, 10, 15,
  20 x (Lagrange p 1, Taylor p 2);
* edge cases: N 1 and 2, order caps 1 and 4, a mixed order list, Taylor
  p 3, eps 1e-300, ve-edm at N 30, and a time outside the domain, which
  exits 1;
* the help and usage-error lines of ``USAGE``, which write no file.

Every output file, exit code and stderr is compared, and stdout too
once the wall time ``optimize`` prints is masked.  Each tree's own path
is masked in both streams.  Differences are printed one a line; the
exit status is 1 if there is any.  Both trees live in a temporary
directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import build_trees  # noqa: E402

FAMILIES = ("vp-linear", "vp-cosine", "ve-edm")
SCHEMES = ("uniform-t", "uniform-lambda", "edm")
MODELS = {
    "gaussian": {"dim": 2, "components": [{"pi": 1.0, "mu": [1.0, -0.5], "s": 0.7}]},
    "mixture": {"dim": 2, "components": [{"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
                                         {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5}]},
}
# help and usage errors: no command, a top-level flag, an unknown command or
# flag, an abbreviated flag, a flag=value and leftover arguments, which the
# full parser and a command's own subparser must print alike
USAGE = [
    [], ["-h"], ["--version"], ["bogus", "--N", "4"],
    *([command, "-h"] for command in ("baseline", "optimize", "simulate", "dump-weights")),
    ["baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4", "--out", "u.json",
     "--bogus", "1"],
    ["baseline", "--version"],
    ["baseline", "--sched", "vp-linear", "--N", "4", "--out", "u.json"],
    ["optimize", "--schedule", "vp-linear", "--N=0", "--out", "u.json"],
    ["optimize", "--schedule", "vp-linear", "--N", "4", "--out", "u.json", "--=x"],
    ["simulate", "--model", "m.json", "--out", "u.json"],
    ["dump-weights", "--steps", "edm.json", "--out", "u.json", "extra"],
    ["dump-weights", "--steps", "edm.json", "--out", "u.json", "--"],
]
# the wall time in optimize's "... in 12 iterations, 0.123 s" line
_WALL_TIME = re.compile(r"( in \d+ iterations), \d+\.\d+ s$", re.MULTILINE)


def _optimize(name: str, *flags: str) -> list[str]:
    return ["optimize", "--init", "best-of-3", *flags,
            "--out", f"{name}.json", "--dump-weights", f"{name}-weights.json"]


def battery() -> list[list[str]]:
    """The commands each tree runs, in order; later ones read files earlier ones wrote."""
    commands = [["baseline", "--scheme", scheme, "--schedule", "vp-linear", "--N", "10",
                 "--out", f"{scheme}.json", "--dump-weights", f"{scheme}-weights.json"]
                for scheme in SCHEMES]
    commands.append(["dump-weights", "--steps", "edm.json", "--out", "edm-dumped.json"])
    commands += [["simulate", "--model", f"{model}-model.json",
                  *(arg for scheme in SCHEMES for arg in ("--steps", f"{scheme}.json")),
                  "--seeds", "256", "--rng-seed", "3", "--out", f"{model}-report.json",
                  "--csv", f"{model}-report.csv"] for model in MODELS]
    for family in FAMILIES:
        for N in (5, 10, 15, 20):
            for kind, p in (("lagrange", "1"), ("taylor", "2")):
                commands.append(_optimize(f"{family}-{N}-{kind}", "--schedule", family,
                                          "--N", str(N), "--kind", kind, "--p", p))
    edges = {
        "n1": ("--N", "1"),
        "n2": ("--N", "2"),
        "cap1": ("--N", "7", "--order", "1"),
        "cap4": ("--N", "7", "--order", "4"),
        "mixed": ("--N", "6", "--order", "1,2,1,3,2,3"),
        "taylor-p3": ("--N", "7", "--kind", "taylor", "--p", "3"),
        "eps-1e-300": ("--N", "7", "--eps", "1e-300"),
        "domain-error": ("--N", "5", "--T", "2"),
    }
    commands += [_optimize(f"edge-{name}", "--schedule", "vp-linear", *flags)
                 for name, flags in edges.items()]
    commands.append(_optimize("edge-ve-edm-30", "--schedule", "ve-edm", "--N", "30"))
    return commands + USAGE


def run_battery(tree: Path, work: Path, commands: list[list[str]]) -> list[dict]:
    """Run ``commands`` with ``tree``'s ``src/`` in the new directory ``work``.

    Returns each command's exit code, stdout (wall time masked) and
    stderr, with the tree's path masked in both.
    """
    work.mkdir()
    for name, model in MODELS.items():
        (work / f"{name}-model.json").write_text(json.dumps(model))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = []
    for argv in commands:
        child = subprocess.run([sys.executable, "-m", "stepopt.cli", *argv], cwd=work, env=env,
                               capture_output=True, text=True, timeout=600, check=False)
        stdout, stderr = (text.replace(str(tree), "<tree>")
                          for text in (child.stdout, child.stderr))
        results.append({"code": child.returncode, "stderr": stderr,
                        "stdout": _WALL_TIME.sub(r"\1, <time> s", stdout)})
    return results


def compare(trees: dict[str, Path], commands: list[list[str]], tmp: Path) -> list[str]:
    """Run ``commands`` in the ``parent`` and ``change`` trees; one line per difference."""
    runs = {side: run_battery(tree, tmp / f"{side}-outputs", commands)
            for side, tree in trees.items()}
    files = {side: {p.name: p.read_bytes() for p in (tmp / f"{side}-outputs").iterdir()}
             for side in trees}
    diffs = []
    for argv, parent, change in zip(commands, runs["parent"], runs["change"]):
        diffs += [f"stepopt {' '.join(argv)}: {key} {parent[key]!r} -> {change[key]!r}"
                  for key in ("code", "stdout", "stderr") if parent[key] != change[key]]
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        parent, change = files["parent"].get(name), files["change"].get(name)
        if parent != change:
            diffs.append(f"{name}: " + ("written on one side only" if None in (parent, change)
                                        else "contents differ"))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    args = parser.parse_args(argv)
    commands = battery()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as d:
        tmp = Path(d)
        diffs = compare(build_trees(args.parent, tmp), commands, tmp)
        files = len(list((tmp / "change-outputs").iterdir()))
    for line in diffs:
        print(line)
    print(f"{len(commands)} commands, {files} files: "
          + (f"{len(diffs)} differences" if diffs else "no difference"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
