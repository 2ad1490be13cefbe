"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from stepopt import objective_value, uniform_lambda_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written(capsys):
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    result, spec, reports = namespace["result"], namespace["spec"], namespace["reports"]
    assert capsys.readouterr().out.startswith(f"{result.objective} [")
    uniform = uniform_lambda_grid(spec.schedule, 5, 1.0, 1e-3)
    assert result.objective < objective_value(spec, uniform.lam[1:-1])
    assert [r.schedule_label for r in reports] == ["optimized", "uniform-lambda"]
    assert all(r.per_seed_errors.shape == (1024,) for r in reports)
    assert all(np.isfinite(r.mean_l2_error) for r in reports)
    # at N = 5 the bound's optimum beats uniform-lambda on the standard mixture
    assert reports[0].mean_l2_error < reports[1].mean_l2_error
