"""Check that a change leaves every CLI output byte-identical to a parent commit's.

Run from the repository root:

    python3 tools/same_outputs.py --parent <ref>

Both trees are built as ``tools/bench_pairs.py`` builds them: the parent
is ``git archive <ref>``, the change the same archive with the working
tree's ``src/``.  Each tree runs the same fixed battery of ``stepopt``
commands, one subprocess each, in a fresh directory of its own:

* ``baseline --dump-weights`` of every scheme, ``dump-weights`` of one
  of those files, and ``simulate`` with JSON and CSV output of the three
  baselines at 256 draws on a single Gaussian in two dimensions and in
  one, and on the standard two-component mixture;
* the same ``simulate`` on the mixture at 4096 draws, where a rounding
  change in the errors shows in the reported statistics more often than
  at 256;
* 256-draw ``simulate`` runs that check the mixture reference's bytes on
  every family, at large K x dim and at log-SNR about 346: on the mixture
  over vp-cosine and over ve-edm baselines of the three schemes, on a
  narrow 8-component 8-D mixture (standard deviations down to 0.05) over
  the vp-linear baselines, and on the mixture over vp-linear baselines
  at ``--eps 1e-300``;
* best-of-3 ``optimize --dump-weights`` over 3 families x N 5, 10, 15,
  20 x (Lagrange p 1, Taylor p 2);
* edge cases: N 1 and 2, order caps 1 and 4, a mixed order list, Taylor
  p 3, eps 1e-300, ve-edm at N 30, and a time outside the domain, which
  exits 1;
* ``optimize --max-iters 3``, which stops on the iteration cap, and
  single-start ``optimize --init edm`` and ``--init uniform-t``;
* family parameters: ``baseline --dump-weights`` and ``dump-weights`` on
  vp-linear with ``--beta-min 0.2 --beta-max 10`` and on vp-cosine with
  ``--cosine-shift 0.02``, a second vp-linear baseline with those
  parameters and a ``simulate`` over the two vp-linear files, a
  vp-cosine uniform-t baseline at ``--T 0.5``, and a baseline given a
  parameter of another family at its default (``--beta-min 0.1`` on
  ve-edm, ``--cosine-shift 0.008`` on vp-linear), which exits 2;
* malformed inputs, each read once: schedule files that are a JSON list,
  lack ``N`` or hold ``"orders": 3``, and models with a 400-digit
  ``pi`` or a component without ``s``; then ``dump-weights`` and
  ``simulate`` each given an input file as an output;
* the help and usage-error lines of ``USAGE``, which write no file.

Every output file, exit code and stderr is compared, and stdout too
once the wall time ``optimize`` prints is masked.  Each tree's own path
is masked in both streams.  Differences are printed one a line; a JSON
or CSV file that differs only in its numbers is reported with the
largest relative difference between them, so that a move by rounding
can be told from a wrong result, or as differing only in how its numbers
are written.  The exit status is 1 if there is any
difference.  Both trees live in a temporary
directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
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
    "gaussian-1d": {"dim": 1, "components": [{"pi": 1.0, "mu": [0.5], "s": 0.7}]},
    "mixture": {"dim": 2, "components": [{"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
                                         {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5}]},
    "narrow-mixture": {"dim": 8, "components": [
        {"pi": 0.125, "mu": [float((3 * k + 5 * d) % 11 - 5) for d in range(8)],
         "s": 0.05 * (k + 1)} for k in range(8)]},
}
# baselines of the three schemes beside the vp-linear ones, and the mixture
# run over each set: (file prefix, baseline flags)
MIXTURE_BASELINES = (("vp-cosine", ("--schedule", "vp-cosine")),
                     ("ve-edm", ("--schedule", "ve-edm")),
                     ("eps-1e-300", ("--schedule", "vp-linear", "--eps", "1e-300")))
# a valid N = 1 schedule file, the base of the malformed ones below
_SCHEDULE = {"schema_version": 1, "schedule_family": "vp-linear", "T": 1.0, "eps": 0.001, "N": 1,
             "lambda": [-5.024978406659204, 4.557714932729898], "t": [1.0, 0.001], "orders": [1],
             "polynomial_kind": "lagrange", "p": 1, "objective": 152.15648429115976,
             "init": "uniform-lambda", "tool_version": "0.1.0"}
# input files beside the models: malformed ones, and a model that an output names
INPUTS = {
    "list-steps.json": [],
    "no-n-steps.json": {key: value for key, value in _SCHEDULE.items() if key != "N"},
    "int-orders-steps.json": {**_SCHEDULE, "orders": 3},
    "huge-pi-model.json": {"dim": 1, "components": [{"pi": 10**399, "mu": [0.5], "s": 0.7}]},
    "no-s-model.json": {"dim": 1, "components": [{"pi": 1.0, "mu": [0.5]}]},
    "overwrite-model.json": MODELS["gaussian-1d"],
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
# a number in a JSON or CSV file, not the digits inside a word such as "schedule-0"
_NUMBER = re.compile(r"(?<![\w.-])(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan)(?![\w.])")


def _optimize(name: str, *flags: str, init: str = "best-of-3") -> list[str]:
    return ["optimize", "--init", init, *flags,
            "--out", f"{name}.json", "--dump-weights", f"{name}-weights.json"]


def battery() -> list[list[str]]:
    """The commands each tree runs, in order; later ones read files earlier ones wrote."""
    commands = [["baseline", "--scheme", scheme, "--schedule", "vp-linear", "--N", "10",
                 "--out", f"{scheme}.json", "--dump-weights", f"{scheme}-weights.json"]
                for scheme in SCHEMES]
    commands.append(["dump-weights", "--steps", "edm.json", "--out", "edm-dumped.json"])
    steps = [arg for scheme in SCHEMES for arg in ("--steps", f"{scheme}.json")]
    runs = [(model, 256, model) for model in MODELS] + [("mixture", 4096, "mixture-4096")]
    commands += [["simulate", "--model", f"{model}-model.json", *steps, "--seeds", str(seeds),
                  "--rng-seed", "3", "--out", f"{name}-report.json", "--csv", f"{name}-report.csv"]
                 for model, seeds, name in runs]
    for prefix, flags in MIXTURE_BASELINES:
        commands += [["baseline", "--scheme", scheme, *flags, "--N", "10",
                      "--out", f"{prefix}-{scheme}.json"] for scheme in SCHEMES]
        files = [arg for scheme in SCHEMES for arg in ("--steps", f"{prefix}-{scheme}.json")]
        commands.append(["simulate", "--model", "mixture-model.json", *files, "--seeds", "256",
                         "--rng-seed", "3", "--out", f"mixture-{prefix}-report.json"])
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
    # a run the iteration cap stops, and runs from a single start
    commands.append(_optimize("edge-max-iters-3", "--schedule", "vp-linear", "--N", "10",
                              "--max-iters", "3"))
    commands += [_optimize(f"init-{init}", "--schedule", "vp-cosine", "--N", "10", init=init)
                 for init in ("edm", "uniform-t")]
    return commands + _parameter_commands() + _input_commands() + USAGE


def _parameter_commands() -> list[list[str]]:
    """Commands whose files record family parameters, read back later, and two refusals."""
    linear = ("--schedule", "vp-linear", "--beta-min", "0.2", "--beta-max", "10")
    cosine = ("--schedule", "vp-cosine", "--cosine-shift", "0.02")
    commands = []
    for name, flags in (("linear-params", linear), ("cosine-params", cosine)):
        commands += [["baseline", "--scheme", "uniform-lambda", *flags, "--N", "8",
                      "--out", f"{name}.json", "--dump-weights", f"{name}-weights.json"],
                     ["dump-weights", "--steps", f"{name}.json", "--out", f"{name}-dumped.json"]]
    return commands + [
        ["baseline", "--scheme", "edm", *linear, "--N", "8", "--out", "linear-params-edm.json"],
        ["simulate", "--model", "mixture-model.json", "--steps", "linear-params.json",
         "--steps", "linear-params-edm.json", "--seeds", "64", "--rng-seed", "5",
         "--out", "params-report.json"],
        ["baseline", "--scheme", "uniform-t", "--schedule", "vp-cosine", "--N", "8",
         "--T", "0.5", "--out", "cosine-t-half.json"],
        # a parameter of another family at its default value, which exits 2
        ["baseline", "--scheme", "edm", "--schedule", "ve-edm", "--beta-min", "0.1", "--N", "4",
         "--out", "edm-foreign.json"],
        ["baseline", "--scheme", "edm", "--schedule", "vp-linear", "--cosine-shift", "0.008",
         "--N", "4", "--out", "linear-foreign.json"],
    ]


def _input_commands() -> list[list[str]]:
    """Reads of the malformed ``INPUTS``, and commands given an input as an output."""
    commands = [["dump-weights", "--steps", name, "--out", "malformed-weights.json"]
                for name in INPUTS if name.endswith("-steps.json")]
    commands += [["simulate", "--model", name, "--steps", "edm.json", "--seeds", "4",
                  "--out", "malformed-report.json"]
                 for name in ("huge-pi-model.json", "no-s-model.json")]
    return commands + [
        ["baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4",
         "--out", "overwrite.json"],
        ["dump-weights", "--steps", "overwrite.json", "--out", "overwrite.json"],
        ["simulate", "--model", "overwrite-model.json", "--steps", "edm.json", "--seeds", "4",
         "--out", "overwrite-model.json"],
    ]


def run_battery(tree: Path, work: Path, commands: list[list[str]]) -> list[dict]:
    """Run ``commands`` with ``tree``'s ``src/`` in the new directory ``work``.

    Returns each command's exit code, stdout (wall time masked) and
    stderr, with the tree's path masked in both.
    """
    work.mkdir()
    for name, model in MODELS.items():
        (work / f"{name}-model.json").write_text(json.dumps(model))
    for name, payload in INPUTS.items():
        (work / name).write_text(json.dumps(payload))
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


def largest_relative_difference(parent: str, change: str) -> float | None:
    """Largest ``|a - b| / max(|a|, |b|)`` over the numbers of two texts.

    None if the texts differ anywhere outside their numbers; inf where a
    number is not finite on one side only; 2, as for any other number
    whose sign flips, where a zero changes sign.  0 if the numbers differ
    only in how they are written, such as ``1e-3`` and ``0.001``.
    """
    a, b = _NUMBER.split(parent), _NUMBER.split(change)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    worst = 0.0
    for x, y in zip(map(float, a[1::2]), map(float, b[1::2])):
        if x == y == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, y):
            worst = max(worst, 2.0)
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, d if d == d else math.inf)  # inf / inf: one side not finite
    return worst


def file_difference(name: str, parent: bytes | None, change: bytes | None) -> str:
    """How output file ``name`` differs between the two trees."""
    if None in (parent, change):
        return f"{name}: written on one side only"
    if name.endswith((".json", ".csv")):
        worst = largest_relative_difference(parent.decode(), change.decode())
        if worst == 0.0:
            return f"{name}: contents differ in how numbers are written, not in their values"
        if worst is not None:
            return f"{name}: contents differ in numbers only, by up to {worst:.3g} relative"
    return f"{name}: contents differ"


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
            diffs.append(file_difference(name, parent, change))
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
