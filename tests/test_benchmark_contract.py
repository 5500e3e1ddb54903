"""The names the benchmark's tracer wraps exist in the program.

perfbench/tracer.py wraps each function in its WRAPPED table by name, with
getattr on patternforge.<module>, when a traced pass starts.  A name that
goes from the program breaks every traced pass, so it fails here first.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_tracer_wraps_is_a_function_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wrapped = importlib.import_module("tracer").WRAPPED
    missing = [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"patternforge.{module}"), name, None))
    ]
    assert missing == []
