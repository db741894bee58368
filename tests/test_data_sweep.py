"""Synthetic data determinism, sweep outputs, schema and CLI behavior."""

import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ntkphase import Hyperparams, kappa_trajectory, normalize_inputs, predictor_decay
from ntkphase.cli import main as cli_main
from ntkphase.data import DataGenerator, cnn_inputs, generate_data, normals
from ntkphase.sweep import SweepConfig, SweepOutput, run_sweep

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src/ntkphase/schemas/output_schema.json"


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class TestSyntheticData:
    def test_normals_deterministic(self):
        np.testing.assert_array_equal(normals(42, (5, 7)), normals(42, (5, 7)))
        assert not np.array_equal(normals(42, (5, 7)), normals(43, (5, 7)))

    def test_generate_data_deterministic(self):
        a = generate_data(8, 4, 16, DataGenerator.TWO_CLUSTERS, seed=5)
        b = generate_data(8, 4, 16, DataGenerator.TWO_CLUSTERS, seed=5)
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.X_test, b.X_test)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_two_clusters_balanced_labels(self):
        data = generate_data(8, 4, 16, DataGenerator.TWO_CLUSTERS, seed=1)
        assert int((data.Y > 0).sum()) == 4 and int((data.Y < 0).sum()) == 4
        np.testing.assert_allclose(data.Y.sum(), 0.0, atol=1e-15)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            generate_data(7, 4, 16, DataGenerator.TWO_CLUSTERS, seed=1)

    def test_rows_normalizable_to_target(self):
        data = generate_data(8, 4, 16, DataGenerator.GAUSSIAN_IID, seed=2)
        Xn = normalize_inputs(data.X_train, 1.3)
        np.testing.assert_allclose(np.mean(Xn**2, axis=1), 1.3, atol=1e-12)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(sigma_w2_grid=())
        with pytest.raises(ValueError):
            SweepConfig(depths=(4, 2))
        with pytest.raises(ValueError):
            SweepConfig(m=7)
        for bad in (dict(sigma_w2_grid=(float("nan"),)), dict(sigma_w2_grid=(1.0, math.inf)),
                    dict(sigma_b2_grid=(-0.5,)), dict(ridge=float("nan")),
                    dict(ridge=math.inf), dict(ridge=-1e-3)):
            with pytest.raises(ValueError):
                SweepConfig(**bad)

    def test_json_roundtrip(self, tmp_path):
        cfg = SweepConfig(sigma_w2_grid=(1.0, 2.0), depths=(1, 3), outputs=("kappa",))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_jsonable()))
        assert SweepConfig.from_json(path) == cfg


SMALL = dict(
    sigma_w2_grid=(1.0, 4.0),
    sigma_b2_grid=(0.5,),
    depths=(1, 2),
    m=4,
    n=2,
    n_features=12,
    outputs=(SweepOutput.PHASE_DIAGRAM, SweepOutput.KAPPA,
             SweepOutput.PREDICTOR_DECAY, SweepOutput.DYNAMICS_TRACE,
             SweepOutput.SPECTRUM),
)


class TestRunSweep:
    def test_row_cardinality(self, tmp_path):
        res = run_sweep(SweepConfig(**SMALL), tmp_path, formats=("csv",))
        kappa = (tmp_path / "kappa.csv").read_text().splitlines()
        # header + points(2) * depths(2) * kinds(2)
        assert len(kappa) == 1 + 2 * 2 * 2
        decay = (tmp_path / "predictor_decay.csv").read_text().splitlines()
        assert len(decay) == 1 + 2 * 2 * 2
        assert res.n_point_errors == 0

    def test_two_by_two_grid_gives_four_rows_per_slice(self, tmp_path):
        cfg = SweepConfig(
            sigma_w2_grid=(1.0, 4.0), sigma_b2_grid=(0.3, 0.9), depths=(1, 2),
            m=4, n=2, n_features=12,
            outputs=(SweepOutput.PHASE_DIAGRAM, SweepOutput.KAPPA),
        )
        run_sweep(cfg, tmp_path, formats=("csv",))
        phase_rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
        grid_rows = [r for r in phase_rows if r.split(",")[6] != "critical"]
        assert len(grid_rows) == 4  # one per grid point
        kappa_rows = (tmp_path / "kappa.csv").read_text().splitlines()[1:]
        per_slice = [r for r in kappa_rows if r.split(",")[2] == "1" and r.split(",")[3] == "ntk"]
        assert len(per_slice) == 4

    def test_byte_determinism_across_runs_and_threads(self, tmp_path):
        cfg = SweepConfig(**SMALL)
        h1 = file_hashes(run_sweep(cfg, tmp_path / "a", formats=("csv", "json")).paths)
        h2 = file_hashes(run_sweep(cfg, tmp_path / "b", formats=("csv", "json")).paths)
        h3 = file_hashes(run_sweep(cfg, tmp_path / "c", threads=4, formats=("csv", "json")).paths)
        assert h1 == h2 == h3

    def test_json_mirrors_validate_against_schema(self, tmp_path):
        run_sweep(SweepConfig(**SMALL), tmp_path, formats=("json",))
        schema = json.loads(SCHEMA_PATH.read_text())
        for path in tmp_path.glob("*.json"):
            jsonschema.validate(json.loads(path.read_text()), schema)

    def test_csv_headers_are_stable(self, tmp_path):
        run_sweep(SweepConfig(**SMALL), tmp_path, formats=("csv",))
        assert (tmp_path / "phase_diagram.csv").read_text().splitlines()[0] == (
            "sigma_w2,sigma_b2,qstar,cstar,chi1,chi_c,phase,xi1,xi_c,xi_star,error"
        )
        assert (tmp_path / "kappa.csv").read_text().splitlines()[0] == (
            "sigma_w2,sigma_b2,depth,kind,lambda_max,lambda_bulk,lambda_min,"
            "kappa,kappa_bulk,kappa_pred,kappa_residual,error"
        )

    def test_seventeen_digit_roundtrip(self, tmp_path):
        run_sweep(SweepConfig(**SMALL), tmp_path, formats=("csv",))
        rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
        qstar_cell = rows[0].split(",")[2]
        value = float(qstar_cell)
        assert f"{value:.17g}" == qstar_cell

    def test_crash_isolation(self, tmp_path):
        # relu at (4.0, 0.0) has no variance fixed point; the healthy point
        # must still produce complete rows
        cfg = SweepConfig(
            activation="relu",
            sigma_w2_grid=(1.0, 4.0),
            sigma_b2_grid=(0.0,),
            depths=(1, 2),
            m=4,
            n=2,
            n_features=12,
            outputs=(SweepOutput.KAPPA,),
        )
        res = run_sweep(cfg, tmp_path, formats=("csv",))
        assert res.n_point_errors >= 1
        lines = (tmp_path / "kappa.csv").read_text().splitlines()
        good = [l for l in lines[1:] if l.startswith("1,")]
        bad = [l for l in lines[1:] if l.startswith("4,")]
        assert len(good) == 4 and all(l.endswith(",") for l in good)
        assert len(bad) == 1 and "NonConvergenceError" in bad[0]

    def test_cnn_pool_sweep_smoke(self, tmp_path):
        cfg = SweepConfig(
            architecture="cnn_p",
            sigma_w2_grid=(1.5,),
            sigma_b2_grid=(0.5,),
            depths=(1, 3),
            m=4,
            n=2,
            n_features=8,
            spatial_size=4,
            filter_halfwidth=1,
            outputs=(SweepOutput.KAPPA,),
        )
        res = run_sweep(cfg, tmp_path, formats=("csv",))
        assert res.n_point_errors == 0
        assert len((tmp_path / "kappa.csv").read_text().splitlines()) == 1 + 1 * 2 * 2


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _in_row_order(series):
    """(kind, item) pairs in the sweep's row order: by depth, ntk before nngp."""
    return [(kind, item) for pair in zip(series["ntk"], series["nngp"])
            for kind, item in zip(("ntk", "nngp"), pair)]


class TestSinglePipeline:
    """The sweep's kernels come from the same pipeline as the library calls."""

    @pytest.mark.parametrize("architecture", ["fcn", "cnn_p"])
    def test_sweep_rows_equal_library_trajectories(self, tmp_path, architecture):
        d, m, n, n_features, seed, depths = 4, 6, 2, 8, 3, (1, 3, 6)
        cfg = SweepConfig(
            architecture=architecture, sigma_w2_grid=(1.5,), sigma_b2_grid=(0.5,),
            depths=depths, m=m, n=n, n_features=n_features, spatial_size=d, seed=seed,
            outputs=(SweepOutput.KAPPA, SweepOutput.PREDICTOR_DECAY),
        )
        assert run_sweep(cfg, tmp_path).n_point_errors == 0
        if architecture == "fcn":
            data = generate_data(m, n, n_features, DataGenerator.GAUSSIAN_IID, seed)
            X_train, X_test, Y = data.X_train, data.X_test, data.Y
            h = Hyperparams(1.5, 0.5, "erf")
        else:
            X = cnn_inputs(m + n, n_features, d, seed)
            X_train, X_test = X[:m], X[m:]
            Y = np.array([[1.0]] * (m // 2) + [[-1.0]] * (m // 2))
            h = Hyperparams(1.5, 0.5, "erf", architecture=architecture, spatial_size=d)

        cols = ("lambda_max", "lambda_bulk", "lambda_min", "kappa", "kappa_bulk")
        rows = _read_rows(tmp_path / "kappa.csv")
        assert [(int(r["depth"]), r["kind"], *(float(r[c]) for c in cols)) for r in rows] == [
            (s.depth, kind, *(getattr(s, c) for c in cols))
            for kind, s in _in_row_order(kappa_trajectory(h, X_train, depths))
        ]
        rows = _read_rows(tmp_path / "predictor_decay.csv")
        assert [(int(r["depth"]), r["kind"], float(r["pred_norm"])) for r in rows] == [
            (depth, kind, norm)
            for kind, (depth, norm) in _in_row_order(predictor_decay(h, X_train, X_test, Y, depths))
        ]


class TestPhaseDiagramOutput:
    def test_relu_transition_at_two(self, tmp_path):
        cfg = SweepConfig(
            activation="relu",
            sigma_w2_grid=(1.0,),
            sigma_b2_grid=(0.0,),
            depths=(1,),
            m=4,
            n=2,
            outputs=(SweepOutput.PHASE_DIAGRAM,),
        )
        run_sweep(cfg, tmp_path, formats=("csv",))
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        transition = [l for l in lines[1:] if l.split(",")[6] == "critical"]
        assert len(transition) == 1
        assert float(transition[0].split(",")[0]) == pytest.approx(2.0, abs=1e-6)

    def test_every_ordered_row_has_chi1_below_one(self, tmp_path):
        cfg = SweepConfig(
            sigma_w2_grid=(0.5, 1.0, 2.0, 4.0),
            sigma_b2_grid=(0.2, 1.0),
            depths=(1,),
            m=4,
            n=2,
            outputs=(SweepOutput.PHASE_DIAGRAM,),
        )
        run_sweep(cfg, tmp_path, formats=("csv",))
        for line in (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[6] == "ordered":
                assert float(cells[4]) < 1.0

    def test_erf_transition_curve_vs_independent_bisection(self, tmp_path):
        from scipy.optimize import bisect

        def chi1_minus_one(sw2, sb2):
            # independent oracle: direct formulas, scipy bisect for qstar
            def q_resid(q):
                return q - (sw2 * (2 / math.pi) * math.asin(2 * q / (1 + 2 * q)) + sb2)

            q = bisect(q_resid, 1e-9, 60.0, xtol=1e-13)
            return sw2 * (4 / math.pi) / math.sqrt((1 + 2 * q) ** 2 - 4 * q * q) - 1.0

        sb2_values = (0.11, 0.42, 0.77, 1.23, 1.9)
        cfg = SweepConfig(
            sigma_w2_grid=(1.0,),
            sigma_b2_grid=sb2_values,
            depths=(1,),
            m=4,
            n=2,
            outputs=(SweepOutput.PHASE_DIAGRAM,),
        )
        run_sweep(cfg, tmp_path, formats=("csv",))
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
        transitions = {float(l.split(",")[1]): float(l.split(",")[0])
                       for l in lines if l.split(",")[6] == "critical"}
        for sb2 in sb2_values:
            oracle = bisect(lambda s: chi1_minus_one(s, sb2), 1e-3, 20.0, xtol=1e-12)
            assert transitions[sb2] == pytest.approx(oracle, abs=1e-6)


class TestCli:
    def test_success_exit_code(self, tmp_path, capsys):
        rc = cli_main([
            "trajectory", "--sigma-w2-grid", "1.0", "--sigma-b2-grid", "0.5",
            "--depths", "1,2", "--m", "4", "--n", "2", "--n-features", "8",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "kappa.csv").exists() and (tmp_path / "spectrum.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main(["sweep", "--m", "7", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        ["--sigma-w2-grid", "nan"],
        ["--sigma-w2-grid", "inf"],
        ["--sigma-b2-grid", "-0.5"],
        ["--format", "xml"],
        ["--dropout-keep", "0.5"],
    ])
    def test_bad_value_or_usage_exit_code(self, tmp_path, flags):
        assert cli_main(["sweep", *flags, "--out", str(tmp_path)]) == 1

    def test_partial_failure_exit_code(self, tmp_path):
        rc = cli_main([
            "trajectory", "--activation", "relu", "--sigma-w2-grid", "4.0",
            "--sigma-b2-grid", "0.0", "--depths", "1", "--m", "4", "--n", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_w2_grid": [1.0], "dropout_keep": 0.5}))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--help"])
        assert exc.value.code == 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sigma_w2_grid": [1.0], "sigma_b2_grid": [0.5], "depths": [1],
            "m": 4, "n": 2, "n_features": 8, "outputs": ["phase_diagram"],
        }))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--seed", "9",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "phase_diagram.json").read_text())
        assert doc["table"] == "phase_diagram"
        assert not (out / "phase_diagram.csv").exists()
