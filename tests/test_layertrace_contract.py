"""The benchmark's layer tracer can still find every name it wraps."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner():
    # Tracer.installed() reads owner.__dict__[attr]; a name that moved or was
    # renamed would make `perfbench/run.py --trace 1` fail with a KeyError.
    plan = _load_layertrace().Tracer()._plan()
    assert plan
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in plan if attr not in owner.__dict__]
    assert missing == []
