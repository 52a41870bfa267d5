"""The benchmark tracer's targets exist in the library.

``perfbench/tracing.py`` looks up each (module, attribute path) in its
``TARGETS`` with ``getattr`` when it installs, so a renamed or deleted name
in ``cutoff_lab`` would crash every traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves(monkeypatch):
    # Loaded without writing bytecode next to the benchmark's sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    targets = load_targets()
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"cutoff_lab.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert targets and missing == []
