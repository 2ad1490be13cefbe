"""The benchmark's tracer (``perfbench/tracing.py``) wraps stepopt functions by
name.  A renamed or removed function would silently drop its spans, so each
traced ``(owner, attribute)`` pair must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_stepopt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in traced
        if attr not in vars(owner)
    ]
    assert missing == []
