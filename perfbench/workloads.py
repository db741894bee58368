"""The benchmark's workloads: one ``ntkphase`` CLI call each.

Each workload puts most of its time in one package module, so a gain in one
module cannot hide inside another module's time:

* ``fcn_erf_sweep``: dense closed-form path with all five tables; time
  splits across propagation, spectra, predictor and CSV emission.
* ``relu_phase_diagram``: nearly all ``phase`` (the bisection transition
  solve re-runs a damped fixed point that hits its 10 000-iteration cap
  near sigma_w2 = 2); no propagation, spectra or predictor work.
* ``tanh_cnn_flatten``: nearly all ``activations`` quadrature, on CNN
  flatten blocks.
* ``erf_cnn_pool``: the CNN propagation path with the largest state.

Sizes are cut from a 8-12 s single call to about 3 s (except the ReLU
transition solve, whose cost is fixed by the solver) so that a run holds
several calls; what each workload stresses is unchanged.  Every call runs
at ``--threads 1``: two pool threads on top of OpenBLAS's own threads would
oversubscribe a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

KINDS = ("ntk", "nngp")
DYNAMICS_TIMES = 9  # the sweep samples gradient flow at logspace(-2, 2, 9)

# Table columns as the CLI emits them (stored reference, not read from the package).
COLUMNS: Dict[str, List[str]] = {
    "phase_diagram": [
        "sigma_w2", "sigma_b2", "qstar", "cstar", "chi1", "chi_c",
        "phase", "xi1", "xi_c", "xi_star", "error",
    ],
    "kappa": [
        "sigma_w2", "sigma_b2", "depth", "kind", "lambda_max", "lambda_bulk",
        "lambda_min", "kappa", "kappa_bulk", "kappa_pred", "kappa_residual", "error",
    ],
    "spectrum": [
        "sigma_w2", "sigma_b2", "depth", "kind", "eigenvalue_index", "eigenvalue", "error",
    ],
    "predictor_decay": ["sigma_w2", "sigma_b2", "depth", "kind", "pred_norm", "error"],
    "dynamics": [
        "sigma_w2", "sigma_b2", "time", "eta", "train_residual", "test_norm", "error",
    ],
}

# CLI output name -> table file stem
_TABLE_OF = {
    "phase_diagram": "phase_diagram",
    "kappa": "kappa",
    "spectrum": "spectrum",
    "predictor_decay": "predictor_decay",
    "dynamics_trace": "dynamics",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    activation: str
    sigma_w2: Tuple[float, ...]
    sigma_b2: Tuple[float, ...]
    architecture: str = "fcn"
    depths: Tuple[int, ...] = ()
    m: int = 12
    n: int = 8
    spatial_size: int = 6
    n_features: int = 32
    outputs: Tuple[str, ...] = ("phase_diagram",)
    # (table, row key) -> error type the row must carry; every other row has none
    expected_errors: Dict[tuple, str] = field(default_factory=dict)

    def argv(self, seed: int, out_dir: str) -> List[str]:
        argv = [
            self.subcommand,
            "--activation", self.activation,
            "--sigma-w2-grid", ",".join(f"{v:g}" for v in self.sigma_w2),
            "--sigma-b2-grid", ",".join(f"{v:g}" for v in self.sigma_b2),
            "--seed", str(seed),
            "--threads", "1",
            "--out", out_dir,
        ]
        if self.subcommand == "sweep":
            argv += [
                "--architecture", self.architecture,
                "--depths", ",".join(str(d) for d in self.depths),
                "--m", str(self.m),
                "--n", str(self.n),
                "--spatial-size", str(self.spatial_size),
                "--n-features", str(self.n_features),
                "--outputs", ",".join(self.outputs),
            ]
        return argv

    @property
    def grid(self) -> List[Tuple[float, float]]:
        """Grid points in the order the sweep emits them."""
        return [(w, b) for b in self.sigma_b2 for w in self.sigma_w2]

    @property
    def tables(self) -> List[str]:
        return [_TABLE_OF[o] for o in self.outputs]

    def expected_keys(self) -> Dict[str, list]:
        """Row keys of every table, in emission order."""
        keys: Dict[str, list] = {}
        for table in self.tables:
            rows = []
            if table == "phase_diagram":
                rows = [(w, b) for w, b in self.grid]
                rows += [("transition", b) for b in self.sigma_b2]
            elif table in ("kappa", "predictor_decay"):
                rows = [(w, b, d, k) for w, b in self.grid for d in self.depths for k in KINDS]
            elif table == "spectrum":
                rows = [(w, b, d, k, i) for w, b in self.grid for d in self.depths
                        for k in KINDS for i in range(self.m)]
            elif table == "dynamics":
                rows = [(w, b, i) for w, b in self.grid for i in range(DYNAMICS_TIMES)]
            keys[table] = rows
        return keys

    @property
    def expected_exit_code(self) -> int:
        return 2 if self.expected_errors else 0

    def units(self) -> int:
        """Attempted units: grid points plus transition rows."""
        transition = len(self.sigma_b2) if "phase_diagram" in self.tables else 0
        return len(self.grid) + transition


_DEPTHS_512 = tuple(2**i for i in range(10))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fcn_erf_sweep",
            why="Dense closed-form path, all five tables over ordered, near-critical and "
                "chaotic points: propagation, spectra (eigvalsh), predictor solves, CSV emission",
            subcommand="sweep",
            activation="erf",
            sigma_w2=(0.5, 1.5, 4.0),
            sigma_b2=(0.05,),
            depths=_DEPTHS_512,
            m=128,
            n=32,
            outputs=("phase_diagram", "kappa", "spectrum", "predictor_decay", "dynamics_trace"),
        ),
        Workload(
            name="relu_phase_diagram",
            why="Nearly all phase: the bisection transition solve re-runs a damped fixed point "
                "that hits its iteration cap near sigma_w2=2; bypasses propagation and quadrature",
            subcommand="phase-diagram",
            activation="relu",
            sigma_w2=(0.5, 1.0, 1.5, 1.9, 1.99),
            sigma_b2=(0.5,),
            expected_errors={("phase_diagram", ("transition", 0.5)): "NonConvergenceError"},
        ),
        Workload(
            name="tanh_cnn_flatten",
            why="Nearly all activations quadrature (tanh has no closed form) on CNN flatten "
                "blocks; the path a tabulated map or a diagonal-only flatten would speed up",
            subcommand="sweep",
            activation="tanh",
            architecture="cnn_f",
            sigma_w2=(1.5, 4.0),
            sigma_b2=(0.5,),
            depths=(1, 2),
            m=6,
            n=2,
            spatial_size=8,
            n_features=8,
            outputs=("phase_diagram", "kappa", "predictor_decay"),
        ),
        Workload(
            name="erf_cnn_pool",
            why="CNN propagation (step_cnn, apply_A) with the largest state; pooling needs every "
                "pixel offset, so it bypasses a flatten-only shortcut",
            subcommand="sweep",
            activation="erf",
            architecture="cnn_p",
            sigma_w2=(1.0, 4.0),
            sigma_b2=(0.5,),
            depths=_DEPTHS_512[:7],
            m=24,
            n=8,
            spatial_size=32,
            n_features=16,
            outputs=("kappa", "predictor_decay"),
        ),
    )
}
