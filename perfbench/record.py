"""Record the outputs that the drift check compares against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record.py

It writes perfbench/seed_record.json: for the simulate and sweep
workloads, every number of the schedule files, weight tables and
fixed-seed simulation reports that one pass produces.
"""

from __future__ import annotations

import json
import shutil

import run


def main() -> int:
    run.prepare()
    import workloads

    record = {}
    for name, wl in workloads.WORKLOADS.items():
        if wl.drift_values is None:
            continue
        d = run.RUN_DIR / f"record-{name}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        cmds = workloads.Commands()
        wl.setup(cmds, d)
        record[name] = wl.drift_values(cmds, d)
        if cmds.failures:
            raise SystemExit("\n".join(cmds.failures.values()))
        shutil.rmtree(d)
    with open(run.HERE / "seed_record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
