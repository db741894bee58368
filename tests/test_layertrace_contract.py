"""The benchmark's harness still runs against the package: its layer tracer
finds every name it wraps, every workload's command line builds its config,
and its own self-tests pass."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    """The module ``perfbench/<name>.py``, loaded without putting perfbench on the path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner():
    # Tracer.installed() reads owner.__dict__[attr]; a name that moved or was
    # renamed would make `perfbench/run.py --trace 1` fail with a KeyError.
    plan = _load("layertrace").Tracer()._plan()
    assert plan
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in plan if attr not in owner.__dict__]
    assert missing == []


def test_cnn_trajectory_reaches_the_traced_cnn_names():
    # step_cnn works tile by tile; its maps and averaging must still go
    # through the wrapped names, or a traced CNN run would report no
    # activation or apply_A work without saying so.
    from ntkphase import Hyperparams, analyze
    from ntkphase.data import cnn_inputs
    from ntkphase.sweep import _trajectory

    h = Hyperparams(1.5, 0.5, "erf", architecture="cnn_p", spatial_size=6)
    qstar = analyze(h).qstar
    tracer = _load("layertrace").Tracer()
    with tracer.installed():
        pairs = _trajectory(h, qstar, cnn_inputs(4, 3, 6, seed=0), [1, 3], 1)
    assert [kp.depth for kp in pairs] == [1, 3]
    calls = {name: tracer.stats[name].calls for name in (
        "propagation.apply_A", "ActivationKernel.t_map", "ActivationKernel.t_dot",
        "sweep.propagate_cnn", "sweep.readout", "propagation.step_cnn",
    )}
    assert calls == {
        "propagation.apply_A": 6, "ActivationKernel.t_map": 3, "ActivationKernel.t_dot": 3,
        "sweep.propagate_cnn": 1, "sweep.readout": 2, "propagation.step_cnn": 3,
    }
    state_entries = 10 * 6 * 6  # 4 samples -> 10 pairs, 6 offsets x 6 positions
    assert tracer.metrics()["activations.entries"] == 2 * 3 * state_entries


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_every_workload_argv_builds_its_config(seed, tmp_path):
    from ntkphase.cli import _build_config, build_parser

    for workload in _load("workloads").WORKLOADS.values():
        args = build_parser().parse_args(workload.argv(seed, str(tmp_path)))
        cfg = _build_config(args)
        assert (cfg.seed, [o.value for o in cfg.outputs]) == (seed, list(workload.outputs))


def test_benchmark_selftests_pass():
    # the harness's checks recompute rows through the public API (quadrature
    # oracle included), so a package change can break them without a trace
    proc = subprocess.run([sys.executable, "perfbench/selftests.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
