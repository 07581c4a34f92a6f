"""The public names and the benchmark's hooks resolve.

`perfbench/tracing.py` wraps functions by module attribute name and the
workloads call `spinhodo.cli` with fixed arguments, so a deleted or renamed
name breaks the benchmark; these tests catch that without running it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import spinhodo
from spinhodo import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ["cli", "elliptic", "geometry", "integrator", "presets", "qubit", "qutrit"]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    missing = [name for name in spinhodo.__all__ if not hasattr(spinhodo, name)]
    assert missing == []
    namespace = {}
    exec("from spinhodo import *", namespace)
    assert set(spinhodo.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"spinhodo.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_tracer_targets_resolve():
    tracing = _load_perfbench("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # the loop counter reads these arguments of detect_loops by name
    assert {"p", "max_segments", "guard"} <= set(tracing._LOOPS_SIGNATURE.parameters)


def test_workload_calls_bind_to_the_cli(monkeypatch, tmp_path):
    # each operation calls cli.<function>; a stub with the real signature
    # binds the arguments it passes, without running anything
    workloads = _load_perfbench("workloads")
    bound = []
    for name in ("run_preset", "simulate", "closure_search"):
        signature = inspect.signature(getattr(cli, name))

        def stub(*args, _name=name, _signature=signature, **kwargs):
            bound.append((_name, _signature.bind(*args, **kwargs)))

        monkeypatch.setattr(cli, name, stub)
    for workload in workloads.NAMES:
        for op in workloads.build(workload, seed=1):
            op.run(tmp_path)
    called = {name for name, _ in bound}
    assert called == {"run_preset", "simulate", "closure_search"}
    closure = [b for name, b in bound if name == "closure_search"]
    assert all(b.arguments["points_per_period"] == workloads.CLOSURE_POINTS_PER_PERIOD
               for b in closure)
