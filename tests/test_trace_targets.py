"""The benchmark tracer's targets exist in the library, and a traced CLI run
records what the benchmark's metrics read.

``perfbench/tracing.py`` looks up each (module, attribute path) in its
``TARGETS`` with ``getattr`` when it installs, so a renamed or deleted name
in ``cutoff_lab`` would crash every traced benchmark run; its call hooks
also read the arguments of some targets, so a changed call shape would
crash them as well.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # Loaded without writing bytecode next to the benchmark's sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, path):
    owner = importlib.import_module(f"cutoff_lab.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_target_resolves(tracing):
    targets = tracing.TARGETS
    missing = [f"{module}.{path}" for module, path in targets
               if not callable(resolve(module, path))]
    assert targets and missing == []


def library_names():
    """Every callable in the namespace of a loaded cutoff_lab module."""
    return {(name, key): value for name, module in list(sys.modules.items())
            if name == "cutoff_lab" or name.startswith("cutoff_lab.")
            for key, value in vars(module).items() if callable(value)}


def test_traced_analyze_cold_then_warm(tracing, tmp_path):
    # analyze twice into one --out on a 4-state birth-death chain: every
    # point of the 25-point auto grid is looked up twice and hit the second
    # time, and the chain's kernels are full kernels.
    from cutoff_lab import cli

    names = library_names()
    originals = {(m, p): resolve(m, p) for m, p in tracing.TARGETS}
    commands = dict(cli.COMMANDS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            assert cli.main(["analyze", "--spec", "bd:p=0.3,0.3,0.3;"
                             "q=0.2,0.2,0.2", "--eps", "0.25",
                             "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["cache.lookups"] == 2 * 25
    assert m["cache.hits"] == 25
    assert m["chain.kernel_full_calls"] > 0
    assert all(resolve(m_, p) is fn for (m_, p), fn in originals.items())
    after = library_names()
    assert all(after[key] is fn for key, fn in names.items())
    assert all(cli.COMMANDS[k] is fn for k, fn in commands.items())
