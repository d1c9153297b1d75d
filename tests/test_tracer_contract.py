"""The benchmark tracer in perfbench/tracing.py wraps vconway module
attributes by name; a name that moves breaks every traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = list(tracing.WRAPPED) + [("verify", name) for name in tracing.CAMPAIGN_CHECKS]
    missing = [(mod, attr) for mod, attr in targets
               if not hasattr(importlib.import_module(f"vconway.{mod}"), attr)]
    assert missing == []
