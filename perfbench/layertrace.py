"""Layer tracing for the ntkphase benchmark, from outside the package.

Wrappers replace public functions in the namespace their caller looks them
up in (``ntkphase.sweep.analyze``, ``ntkphase.propagation.step_cnn``,
``ActivationKernel.t_map`` ...).  Every wrapped call pushes a frame on one
stack, so a layer's self time is its calls' time minus the time of wrapped
calls they made.  Coarse calls also record a span (name, start, end, parent)
kept in memory; hot calls are only aggregated into count, entries and time.
``diag_second_moment`` (about 10^6 calls on the ReLU transition solve) is
only counted, so its time stays in the phase layer that calls it and the
wrapper costs little.

The sweep runs on one thread (``--threads 1``), which the single stack
relies on.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Every per-layer metric, with its unit.  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "activations.calls": "count",
    "activations.entries": "count",
    "activations.self_s": "s",
    "activations.ns_per_entry": "ns",
    "phase.analyze_calls": "count",
    "phase.transition_calls": "count",
    "phase.transition_s": "s",
    "phase.qstar_solves": "count",
    "phase.qstar_nonconverged": "count",
    "phase.diag_evals_per_solve": "ratio",
    "phase.self_s": "s",
    "propagation.steps": "count",
    "propagation.self_s": "s",
    "propagation.apply_A_s": "s",
    "propagation.readout_s": "s",
    "propagation.state_bytes": "B",
    "propagation.computed_bytes": "B",
    "spectra.calls": "count",
    "spectra.max_n": "count",
    "spectra.self_s": "s",
    "predictor.solves": "count",
    "predictor.cholesky_per_solve": "ratio",
    "predictor.singular": "count",
    "predictor.self_s": "s",
    "predictor.dynamics_s": "s",
    "data.self_s": "s",
    "sweep.grid_points": "count",
    "sweep.rows": "count",
    "sweep.output_bytes": "B",
    "sweep.self_s": "s",
    "trace.overhead_s": "s",
}


class _Stat:
    __slots__ = ("calls", "entries", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = defaultdict(int)


def _state_bytes(state) -> int:
    return state.nngp.nbytes + state.ntk.nbytes


class Tracer:
    """Installs timing wrappers; ``installed()`` restores the originals."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.layer_of = {}
        self.spans = []  # (name, start, end, parent span index or -1)
        self._stack = []  # frames: [child time, span index or -1]
        self.grid_points = 0
        self.max_n = 0
        self.state_bytes = 0
        self.computed_bytes = 0

    # -- wrappers -------------------------------------------------------

    def _timed(self, fn, name, layer, coarse, entries=None, after=None):
        stat = self.stats[name]
        self.layer_of[name] = layer
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
            span = -1
            if coarse:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if coarse:
                    spans[span][1:3] = [t0, t1]
            if entries is not None:
                stat.entries += entries(args)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, fn, name, layer):
        stat = self.stats[name]
        self.layer_of[name] = layer

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_run_sweep(self, args, out):
        cfg = args[0]
        self.grid_points += len(cfg.sigma_w2_grid) * len(cfg.sigma_b2_grid)

    def _after_step(self, args, out):
        size = _state_bytes(out)
        self.state_bytes = max(self.state_bytes, size)
        self.computed_bytes += _state_bytes(args[0]) + size  # read + written

    def _after_spectrum(self, args, out):
        self.max_n = max(self.max_n, int(np.shape(args[0])[0]))

    def _plan(self):
        """(owner, attribute, layer, kind, extras) for every wrapped name."""
        import ntkphase.cli as cli
        import ntkphase.phase as phase
        import ntkphase.predictor as predictor
        import ntkphase.propagation as propagation
        import ntkphase.sweep as sweep
        from ntkphase.activations import ActivationKernel

        def q_size(args):
            return int(np.size(args[1]))

        return [
            (cli, "run_sweep", "sweep", "coarse", {"after": self._after_run_sweep}),
            (sweep, "generate_data", "data", "coarse", {}),
            (sweep, "cnn_inputs", "data", "coarse", {}),
            (sweep, "analyze", "phase", "coarse", {}),
            (sweep, "critical_sigma_w2", "phase", "coarse", {}),
            (sweep, "predict_spectrum", "phase", "hot", {}),
            (phase, "solve_qstar", "phase", "hot", {}),
            (phase, "diag_second_moment", "phase", "count", {}),
            (ActivationKernel, "t_map", "activations", "hot", {"entries": q_size}),
            (ActivationKernel, "t_dot", "activations", "hot", {"entries": q_size}),
            (ActivationKernel, "t_ddot", "activations", "hot", {"entries": q_size}),
            (sweep, "normalize_inputs", "propagation", "hot", {}),
            (sweep, "normalize_inputs_cnn", "propagation", "hot", {}),
            (sweep, "init_kernels", "propagation", "hot", {}),
            (sweep, "init_cnn_kernels", "propagation", "hot", {}),
            (sweep, "propagate_fcn", "propagation", "coarse", {}),
            (sweep, "propagate_cnn", "propagation", "coarse", {}),
            (propagation, "step_fcn", "propagation", "hot", {"after": self._after_step}),
            (propagation, "step_cnn", "propagation", "hot", {"after": self._after_step}),
            (propagation, "apply_A", "propagation", "hot", {}),
            (sweep, "readout", "propagation", "hot", {}),
            (sweep, "spectrum", "spectra", "hot", {"after": self._after_spectrum}),
            (sweep, "mean_predict", "predictor", "hot", {}),
            (predictor, "cho_factor", "predictor", "hot", {}),
            (sweep, "dynamics", "predictor", "hot", {}),
        ]

    @contextmanager
    def installed(self):
        """Patch every planned name for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, kind, extras in self._plan():
                original = owner.__dict__[attr]
                name = f"{owner.__name__}.{attr}".replace("ntkphase.", "")
                if kind == "count":
                    wrapped = self._counted(original, name, layer)
                else:
                    wrapped = self._timed(original, name, layer, kind == "coarse", **extras)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root(self, fn, *args):
        """Call ``fn`` as the root span (the CLI entry, sweep layer)."""
        return self._timed(fn, "cli.main", "sweep", True)(*args)

    # -- results --------------------------------------------------------

    def _layer_self(self, layer):
        return sum(s.self_time for n, s in self.stats.items() if self.layer_of[n] == layer)

    def metrics(self) -> dict:
        """Per-layer values measured by this tracer (rows/bytes come from outputs)."""
        st = self.stats
        act = [st[n] for n in ("ActivationKernel.t_map", "ActivationKernel.t_dot",
                               "ActivationKernel.t_ddot")]
        act_entries = sum(s.entries for s in act)
        act_self = self._layer_self("activations")
        solves = st["phase.solve_qstar"].calls
        pred_solves = st["sweep.mean_predict"].calls
        return {
            "activations.calls": sum(s.calls for s in act),
            "activations.entries": act_entries,
            "activations.self_s": act_self,
            "activations.ns_per_entry": 1e9 * act_self / act_entries if act_entries else 0.0,
            "phase.analyze_calls": st["sweep.analyze"].calls,
            "phase.transition_calls": st["sweep.critical_sigma_w2"].calls,
            "phase.transition_s": st["sweep.critical_sigma_w2"].total,
            "phase.qstar_solves": solves,
            "phase.qstar_nonconverged": st["phase.solve_qstar"].errors["NonConvergenceError"],
            "phase.diag_evals_per_solve": (
                st["phase.diag_second_moment"].calls / solves if solves else 0.0
            ),
            "phase.self_s": self._layer_self("phase"),
            "propagation.steps": (st["propagation.step_fcn"].calls
                                  + st["propagation.step_cnn"].calls),
            "propagation.self_s": self._layer_self("propagation"),
            "propagation.apply_A_s": st["propagation.apply_A"].total,
            "propagation.readout_s": st["sweep.readout"].total,
            "propagation.state_bytes": self.state_bytes,
            "propagation.computed_bytes": self.computed_bytes,
            "spectra.calls": st["sweep.spectrum"].calls,
            "spectra.max_n": self.max_n,
            "spectra.self_s": self._layer_self("spectra"),
            "predictor.solves": pred_solves,
            "predictor.cholesky_per_solve": (
                st["predictor.cho_factor"].calls / pred_solves if pred_solves else 0.0
            ),
            "predictor.singular": st["sweep.mean_predict"].errors["SingularKernelError"],
            "predictor.self_s": self._layer_self("predictor"),
            "predictor.dynamics_s": st["sweep.dynamics"].total,
            "data.self_s": self._layer_self("data"),
            "sweep.grid_points": self.grid_points,
            "sweep.self_s": self._layer_self("sweep"),
        }
