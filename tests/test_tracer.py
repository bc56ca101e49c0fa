"""The benchmark's tracer (`perfbench/spans.py`) wraps qcirc functions by
name, so each name it lists must still exist for `perfbench/run.py --trace 1`
to run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"qcirc.{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qcirc.{layer}"), name, None))
    ]
    assert missing == []
