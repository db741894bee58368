"""Synthetic data determinism, sweep outputs, schema and CLI behavior."""

import argparse
import csv
import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ntkphase import (
    ActivationKernel,
    DiagonalDriftError,
    Hyperparams,
    SingularKernelError,
    WindowError,
    analyze,
    kappa_trajectory,
    normalize_inputs,
    predictor_decay,
)
from ntkphase.cli import _SUBCOMMAND_OUTPUTS, _build_config, build_parser, main as cli_main
from ntkphase.data import DataGenerator, cnn_inputs, generate_data, normals
from ntkphase.phase import Phase
from ntkphase.sweep import SweepConfig, SweepOutput, _fmt, _trajectory, _write_csv, run_sweep

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src/ntkphase/schemas/output_schema.json"


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def cli_file_hashes(cfg, out_dir, threads):
    """Hashes of the CSV and JSON tables the CLI writes for ``cfg`` at ``--threads threads``."""
    cfg_path = out_dir.with_name(out_dir.name + "_cfg.json")
    cfg_path.write_text(json.dumps(cfg.to_jsonable()))
    for fmt in ("csv", "json"):
        assert cli_main(["sweep", "--config", str(cfg_path), "--threads", str(threads),
                         "--format", fmt, "--out", str(out_dir)]) == 0
    return file_hashes(out_dir.iterdir())


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


# a valid value other than the default for every SweepConfig field but architecture and outputs
NON_DEFAULT = dict(
    activation="tanh", sigma_w2_grid=(2.0,), sigma_b2_grid=(0.1,), depths=(3,), m=4, n=3,
    spatial_size=9, filter_halfwidth=2, ridge=1e-3, seed=5, n_features=5, generator="two_clusters",
)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(sigma_w2_grid=())
        with pytest.raises(ValueError):
            SweepConfig(depths=(4, 2))
        with pytest.raises(ValueError):
            SweepConfig(m=7)
        for bad in (dict(sigma_w2_grid=(float("nan"),)), dict(sigma_w2_grid=(1.0, math.inf)),
                    dict(sigma_b2_grid=(-0.5,)), dict(outputs=()), dict(ridge=float("nan")),
                    dict(ridge=math.inf), dict(ridge=-1e-3), dict(depths=()),
                    dict(n_features=0), dict(spatial_size=0), dict(filter_halfwidth=-1),
                    dict(architecture="cnn_f", spatial_size=2), dict(seed=-1),
                    dict(seed=2**64)):
            with pytest.raises(ValueError):
                SweepConfig(**bad)
        # integers are taken by operator.index, so a float is an error, not a truncation
        for bad in (dict(m=12.0), dict(depths=(1.5, 3)), dict(seed=1.0), dict(sigma_w2_grid="14")):
            with pytest.raises(TypeError):
                SweepConfig(**bad)
        # an fcn run reads no spatial size, so it may not be set, whatever the window
        with pytest.raises(ValueError, match="spatial_size"):
            SweepConfig(spatial_size=2, filter_halfwidth=1)
        assert SweepConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("bad", [dict(n=True), dict(ridge=True), dict(seed=False),
                                     dict(depths=(True, 2)), dict(sigma_b2_grid=(False,))])
    def test_rejects_a_bool_for_a_number(self, bad):
        # a bool is an int to Python: n=True ran with n = 1, depths (True, 2) as (1, 2)
        with pytest.raises(TypeError, match="not a number"):
            SweepConfig(**bad)

    @pytest.mark.parametrize("architecture", ["cnn_f", "cnn_p"])
    def test_cnn_rejects_a_generator_it_would_ignore(self, architecture):
        # CNN inputs always come from cnn_inputs, so no other generator may be asked for
        with pytest.raises(ValueError, match="generator"):
            SweepConfig(architecture=architecture, generator="two_clusters")
        assert SweepConfig(architecture=architecture).generator is DataGenerator.GAUSSIAN_IID
        assert SweepConfig(generator="two_clusters").generator is DataGenerator.TWO_CLUSTERS

    def test_json_roundtrip(self, tmp_path):
        # the CLI reads the config file that to_jsonable writes into the same sweep
        cfg = SweepConfig(sigma_w2_grid=(1.0, 2.0), depths=(1, 3), outputs=("kappa",))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_jsonable()))
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert file_hashes((tmp_path / "cli").iterdir()) == file_hashes(
            run_sweep(cfg, tmp_path / "lib").paths)

    @pytest.mark.parametrize("output", [o.value for o in SweepOutput])
    @pytest.mark.parametrize("architecture", ["fcn", "cnn_f"])
    def test_a_field_may_leave_its_default_only_if_the_run_reads_it(self, architecture, output):
        # the read sets, written out apart from sweep.py's statement of them
        assert set(NON_DEFAULT) == {f.name for f in fields(SweepConfig)} - {"architecture",
                                                                            "outputs"}
        run = {"activation", "sigma_w2_grid", "sigma_b2_grid", "outputs", "seed"}
        kernel = run | {"architecture", "depths", "m", "n_features"} | {
            "fcn": {"generator"}, "cnn_f": {"spatial_size", "filter_halfwidth"}}[architecture]
        reads = {"phase_diagram": run, "kappa": kernel, "spectrum": kernel,
                 "predictor_decay": kernel | {"n", "ridge"},
                 "dynamics_trace": kernel | {"n"}}[output]
        base = dict(outputs=(output,))
        if architecture != "fcn":
            base["architecture"] = architecture
        for name, value in NON_DEFAULT.items():
            changed = {**base, name: value}
            if set(changed) <= reads:
                assert SweepConfig(**changed) != SweepConfig(**base)
                continue
            with pytest.raises(ValueError, match="does not read") as exc:
                SweepConfig(**changed)
            named = str(exc.value).split("does not read ")[1].split(";")[0].split(", ")
            assert set(named) == set(changed) - reads, name


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

    @pytest.mark.parametrize("formats", [("CSV",), (), ("csv", "xml")])
    def test_unknown_or_no_formats_fail_before_any_work(self, tmp_path, monkeypatch, formats):
        import ntkphase.sweep as sweep

        def no_work(*args):
            raise AssertionError("evaluated a grid point")

        monkeypatch.setattr(sweep, "_point_rows", no_work)
        with pytest.raises(ValueError, match="formats"):
            run_sweep(SweepConfig(**SMALL), tmp_path / "out", formats=formats)
        assert not (tmp_path / "out").exists()

    def test_two_by_two_grid_gives_four_rows_per_slice(self, tmp_path):
        cfg = SweepConfig(
            sigma_w2_grid=(1.0, 4.0), sigma_b2_grid=(0.3, 0.9), depths=(1, 2),
            m=4, n_features=12,
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
        h3 = cli_file_hashes(cfg, tmp_path / "c", threads=1)
        h4 = cli_file_hashes(cfg, tmp_path / "d", threads=4)
        assert h1 == h2 == h3 == h4

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

    def test_csv_cells_of_every_type_are_fmt_bytes(self, tmp_path):
        # _write_csv formats the common cell types by exact type; every cell must keep _fmt's bytes
        row = [0.1, -0.0, math.nan, -math.inf, np.float64(1 / 3), np.float32(0.1), 7, -2,
               np.int64(5), True, np.bool_(False), "kappa", Phase.CRITICAL, None]
        columns = [f"c{i}" for i in range(len(row))]
        _write_csv(tmp_path / "t.csv", columns, [row, row[::-1]])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows(
                [columns] + [[_fmt(v) for v in r] for r in (row, row[::-1])])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_crash_isolation(self, tmp_path):
        # relu at (4.0, 0.5) has no finite variance fixed point; the healthy
        # point must still produce complete rows
        cfg = SweepConfig(
            activation="relu",
            sigma_w2_grid=(1.0, 4.0),
            sigma_b2_grid=(0.5,),
            depths=(1, 2),
            m=4,
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

    def test_kernel_stage_error_keeps_one_phase_row_per_point(self, tmp_path, monkeypatch):
        import ntkphase.sweep as sweep

        def drifting(*args):
            raise DiagonalDriftError("drifted")

        monkeypatch.setattr(sweep, "propagate_fcn", drifting)
        small = {name: value for name, value in SMALL.items() if name != "n"}  # no test rows read
        cfg = SweepConfig(**{**small, "outputs": (SweepOutput.PHASE_DIAGRAM, SweepOutput.KAPPA)})
        res = run_sweep(cfg, tmp_path)
        phase = [r for r in _read_rows(tmp_path / "phase_diagram.csv") if r["phase"] != "critical"]
        assert [(r["sigma_w2"], r["error"]) for r in phase] == [("1", ""), ("4", "")]
        kappa = _read_rows(tmp_path / "kappa.csv")
        assert [(r["sigma_w2"], r["error"]) for r in kappa] == [
            ("1", "DiagonalDriftError: drifted"), ("4", "DiagonalDriftError: drifted")]
        assert res.n_point_errors == 2

    def test_singular_kernel_fills_one_predictor_decay_row_per_depth(self, tmp_path,
                                                                      monkeypatch):
        import ntkphase.sweep as sweep

        def singular(task):
            raise SingularKernelError("train-train kernel is not positive definite", -1e-17)

        monkeypatch.setattr(sweep, "mean_predict", singular)
        cfg = SweepConfig(**{**SMALL, "sigma_w2_grid": (1.0,), "outputs": ("predictor_decay",)})
        res = run_sweep(cfg, tmp_path)
        rows = _read_rows(tmp_path / "predictor_decay.csv")
        assert [(r["depth"], r["kind"], r["pred_norm"]) for r in rows] == [
            ("1", "ntk", ""), ("1", "nngp", ""), ("2", "ntk", ""), ("2", "nngp", "")]
        assert {r["error"] for r in rows} == {
            "SingularKernelError: train-train kernel is not positive definite "
            "(min eigenvalue: -1.000e-17)"}
        assert res.n_point_errors == 4

    def test_cnn_pool_sweep_smoke(self, tmp_path):
        cfg = SweepConfig(
            architecture="cnn_p",
            sigma_w2_grid=(1.5,),
            sigma_b2_grid=(0.5,),
            depths=(1, 3),
            m=4,
            n_features=8,
            spatial_size=4,
            filter_halfwidth=1,
            outputs=(SweepOutput.KAPPA,),
        )
        res = run_sweep(cfg, tmp_path, formats=("csv",))
        assert res.n_point_errors == 0
        assert len((tmp_path / "kappa.csv").read_text().splitlines()) == 1 + 1 * 2 * 2


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))  # an error cell with a comma comes quoted


def _in_row_order(series):
    """(kind, item) pairs in the sweep's row order: by depth, ntk before nngp."""
    return [(kind, item) for pair in zip(series["ntk"], series["nngp"])
            for kind, item in zip(("ntk", "nngp"), pair)]


class TestSinglePipeline:
    """The sweep's kernels come from the same pipeline as the library calls."""

    @pytest.mark.parametrize("architecture", ["fcn", "cnn_p", "cnn_f"])
    def test_sweep_rows_equal_library_trajectories(self, tmp_path, architecture):
        d, m, n, n_features, seed, depths = 4, 6, 2, 8, 3, (1, 3, 6)
        cfg = SweepConfig(
            architecture=architecture, sigma_w2_grid=(1.5,), sigma_b2_grid=(0.5,),
            depths=depths, m=m, n=n, n_features=n_features, seed=seed,
            outputs=(SweepOutput.KAPPA, SweepOutput.PREDICTOR_DECAY),
            **({} if architecture == "fcn" else dict(spatial_size=d)),
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

    @pytest.mark.parametrize("call", [kappa_trajectory, predictor_decay])
    def test_fcn_library_calls_reject_a_filter_halfwidth(self, call):
        # an FCN reads no filter; a value it ignored would return the default's rows
        h = Hyperparams(1.0, 0.5, "erf")
        X = normals(1, (6, 8))
        data = (X[:4],) if call is kappa_trajectory else (X[:4], X[4:], [[1.0], [-1.0]] * 2)
        with pytest.raises(ValueError, match="filter_halfwidth"):
            call(h, *data, (1, 2), filter_halfwidth=7)
        call(h, *data, (1, 2), filter_halfwidth=1)  # the default, given explicitly

    def test_cnn_library_call_rejects_a_negative_filter_halfwidth(self):
        # it ran on until a misleading DiagonalDriftError (drift 1.5 from q* = 1.26)
        h = Hyperparams(1.0, 0.5, "erf", architecture="cnn_p", spatial_size=6)
        with pytest.raises(WindowError, match="negative"):
            kappa_trajectory(h, cnn_inputs(4, 8, 6, seed=0), (1, 2, 4), filter_halfwidth=-1)

    @pytest.mark.parametrize("call", [kappa_trajectory, predictor_decay])
    def test_cnn_library_calls_reject_a_spatial_size_the_inputs_lack(self, call):
        # the walk takes its pixels from X, but predict_spectrum pools by h.spatial_size
        h = Hyperparams(1.0, 0.5, "erf", architecture="cnn_p", spatial_size=5)
        X = cnn_inputs(6, 8, 6, seed=0)
        data = (X[:4],) if call is kappa_trajectory else (X[:4], X[4:], [[1.0], [-1.0]] * 2)
        with pytest.raises(ValueError, match="spatial_size 5 is not the 6 pixels of X"):
            call(h, *data, (1, 2))
        call(Hyperparams(1.0, 0.5, "erf", architecture="cnn_p", spatial_size=6), *data, (1, 2))


def _count_array_entries(monkeypatch):
    """Array entries mapped by ``t_map`` and ``t_dot`` from now on, counted in the returned dict."""
    entries = {"t_map": 0, "t_dot": 0}
    for name in entries:
        def counted(self, q_ab, _name=name, _map=getattr(ActivationKernel, name)):
            if np.ndim(q_ab):  # the phase analysis maps scalars
                entries[_name] += np.size(q_ab)
            return _map(self, q_ab)

        monkeypatch.setattr(ActivationKernel, name, counted)
    return entries


class TestTrainRowsOnly:
    """A run whose tables read no test row propagates the m train samples alone; a CNN run
    that reads test rows propagates every pair but the test-test ones."""

    @pytest.mark.parametrize("architecture, entries_per_pair", [("fcn", 1), ("cnn_f", 4),
                                                                ("cnn_p", 16)])
    def test_kappa_only_run_maps_each_train_pair_once_per_step(self, tmp_path, monkeypatch,
                                                               architecture, entries_per_pair):
        m, depths = 4, (1, 3)
        entries = _count_array_entries(monkeypatch)
        cfg = SweepConfig(architecture=architecture, sigma_w2_grid=(1.5,), depths=depths, m=m,
                          outputs=(SweepOutput.KAPPA,),
                          **({} if architecture == "fcn" else dict(spatial_size=4)))
        assert run_sweep(cfg, tmp_path).n_point_errors == 0
        per_map = depths[-1] * m * (m + 1) // 2 * entries_per_pair
        assert entries == {"t_map": per_map, "t_dot": per_map}

    @pytest.mark.parametrize("architecture, entries_per_pair", [("cnn_f", 4), ("cnn_p", 16)])
    def test_a_run_reading_test_rows_maps_no_test_test_pair(self, tmp_path, monkeypatch,
                                                            architecture, entries_per_pair):
        m, n, depths = 4, 3, (1, 3)
        entries = _count_array_entries(monkeypatch)
        cfg = SweepConfig(architecture=architecture, sigma_w2_grid=(1.5,), depths=depths, m=m,
                          n=n, spatial_size=4, outputs=(SweepOutput.PREDICTOR_DECAY,
                                                        SweepOutput.DYNAMICS_TRACE))
        assert run_sweep(cfg, tmp_path).n_point_errors == 0
        pairs = (m + n) * (m + n + 1) // 2 - n * (n + 1) // 2  # 28 pairs less the 6 test-test
        per_map = depths[-1] * pairs * entries_per_pair
        assert entries == {"t_map": per_map, "t_dot": per_map}

    @pytest.mark.parametrize("architecture", ["cnn_f", "cnn_p"])
    def test_train_row_pairs_keep_the_bits_of_every_pair(self, architecture):
        h = Hyperparams(1.5, 0.5, "erf", architecture=architecture, spatial_size=4)
        qstar = analyze(h).qstar
        X, m, depths = cnn_inputs(7, 8, 4, seed=3), 4, (1, 3, 40)
        rows = _trajectory(h, qstar, X, depths, 1, m, test_rows=True)
        full = _trajectory(h, qstar, X, depths, 1)
        for a, b in zip(rows, full, strict=True):
            assert a.depth == b.depth
            for K, ref in ((a.nngp, b.nngp), (a.ntk, b.ntk)):
                np.testing.assert_array_equal(K[:, :m], ref[:, :m])  # K_dd and K_td
                np.testing.assert_array_equal(K[:m], ref[:m])  # K_dd and K_td transposed
                assert np.isnan(K[m:, m:]).all()  # K_tt

    @pytest.mark.parametrize("activation", ["erf", "tanh"])
    @pytest.mark.parametrize("architecture", ["fcn", "cnn_f", "cnn_p"])
    def test_kappa_and_spectrum_bytes_match_a_run_that_reads_test_rows(self, tmp_path,
                                                                       activation, architecture):
        kw = dict(activation=activation, architecture=architecture, sigma_w2_grid=(1.0, 4.0),
                  depths=(1, 2, 8), m=6,
                  **({} if architecture == "fcn" else dict(spatial_size=4)))
        tables = (SweepOutput.KAPPA, SweepOutput.SPECTRUM)
        alone = run_sweep(SweepConfig(outputs=tables, **kw), tmp_path / "alone",
                          formats=("csv", "json"))
        joint = run_sweep(SweepConfig(outputs=tables + (SweepOutput.PREDICTOR_DECAY,), **kw),
                          tmp_path / "joint", formats=("csv", "json"))
        expected = {name: digest for name, digest in file_hashes(joint.paths).items()
                    if not name.startswith("predictor_decay")}
        assert file_hashes(alone.paths) == expected and len(expected) == 4


class TestOneBlasThread:
    """The kernel path runs with numpy's OpenBLAS at one thread; a phase-only run never looks."""

    def test_numpy_openblas_reports_one_thread_inside_the_kernel_path(self, tmp_path,
                                                                      monkeypatch):
        import ntkphase.sweep as sweep

        controls = sweep._numpy_openblas_threads()
        if controls is None:
            pytest.skip("numpy links no OpenBLAS")
        get, _ = controls
        seen = []
        for name in ("spectrum", "mean_predict", "dynamics"):
            def recording(*args, _original=getattr(sweep, name), **kwargs):
                seen.append(get())
                return _original(*args, **kwargs)

            monkeypatch.setattr(sweep, name, recording)
        before = get()
        assert run_sweep(SweepConfig(**SMALL), tmp_path).n_point_errors == 0
        h = Hyperparams(1.0, 0.5, "erf")
        X = normals(1, (6, 8))
        kappa_trajectory(h, X[:4], (1, 2))
        predictor_decay(h, X[:4], X[4:], [[1.0], [-1.0], [1.0], [-1.0]], (1, 2))
        assert len(seen) > 3 and seen == [1] * len(seen)
        assert get() == before

    def test_counts_are_restored_after_a_return_and_after_an_exception(self, monkeypatch):
        import ntkphase.sweep as sweep

        count = [3]  # a stand-in for numpy's OpenBLAS keeps its thread count here

        def put(n):
            count[0] = n

        monkeypatch.setattr(sweep, "_numpy_openblas_threads", lambda: ((lambda: count[0]), put))
        with sweep._one_blas_thread():
            assert count == [1]
        assert count == [3]
        with pytest.raises(KeyError):
            with sweep._one_blas_thread():
                assert count == [1]
                raise KeyError("boom")
        assert count == [3]

    def test_real_library_is_restored_after_an_exception(self):
        import ntkphase.sweep as sweep

        controls = sweep._numpy_openblas_threads()
        if controls is None:
            pytest.skip("numpy links no OpenBLAS")
        get, put = controls
        original = get()
        try:
            put(2)
            with pytest.raises(KeyError):
                with sweep._one_blas_thread():
                    assert get() == 1
                    raise KeyError("boom")
            assert get() == 2
        finally:
            put(original)

    @pytest.mark.parametrize("handle", ["without_symbols", "unopenable"])
    def test_no_library_found_changes_nothing(self, tmp_path, monkeypatch, handle):
        # another BLAS exports no OpenBLAS symbol; another numpy layout may not open at all
        import ctypes
        import types

        import ntkphase.sweep as sweep

        def cdll(path):
            if handle == "unopenable":
                raise OSError(path)
            return types.SimpleNamespace()

        expected = file_hashes(run_sweep(SweepConfig(**SMALL), tmp_path / "a").paths)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(sweep, "_numpy_openblas_threads",
                            sweep._numpy_openblas_threads.__wrapped__)  # uncached
        assert sweep._numpy_openblas_threads() is None
        assert file_hashes(run_sweep(SweepConfig(**SMALL), tmp_path / "b").paths) == expected

    def test_the_lookup_finds_numpy_openblas_alone(self, run_python):
        # scipy links an OpenBLAS of its own, which no pinned call reaches
        run_python(
            "import os\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "import numpy, scipy.linalg\n"
            "from ntkphase import sweep\n"
            "controls = sweep._numpy_openblas_threads()\n"
            "assert controls is not None and len(controls) == 2, controls\n"
            "get, _ = controls\n"
            "assert get() == 2, get()\n"
            "with sweep._one_blas_thread():\n"
            "    assert get() == 1, get()\n"
            "assert get() == 2, get()\n"
        )

    def test_the_pinned_library_calls_need_no_scipy(self, run_python):
        # the pin covers numpy's OpenBLAS alone, so no pinned call may reach scipy's
        run_python(
            "import sys\n"
            "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
            "from ntkphase import Hyperparams, kappa_trajectory, predictor_decay\n"
            "from ntkphase.data import cnn_inputs, normals\n"
            "Y = [[1.0], [-1.0], [1.0], [-1.0]]\n"
            "for act in ('erf', 'relu', 'tanh'):\n"
            "    for arch, X in (('fcn', normals(1, (6, 8))), ('cnn_f', cnn_inputs(6, 4, 4, 1)),\n"
            "                    ('cnn_p', cnn_inputs(6, 4, 4, 1))):\n"
            "        h = Hyperparams(1.5, 0.5, act, architecture=arch,\n"
            "                        spatial_size=1 if arch == 'fcn' else 4)\n"
            "        kappa_trajectory(h, X[:4], (1, 2))\n"
            "        predictor_decay(h, X[:4], X[4:], Y, (1, 2))\n"
            "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
        )

    def test_a_phase_only_run_does_no_lookup(self, tmp_path, monkeypatch):
        import ntkphase.sweep as sweep

        def no_lookup():
            raise AssertionError("looked up the BLAS libraries")

        monkeypatch.setattr(sweep, "_numpy_openblas_threads", no_lookup)
        cfg = SweepConfig(sigma_w2_grid=(1.0, 4.0), outputs=(SweepOutput.PHASE_DIAGRAM,))
        assert run_sweep(cfg, tmp_path).n_point_errors == 0

    def test_predictor_decay_is_independent_of_the_blas_thread_count(self, tmp_path,
                                                                     run_python):
        # a threaded Cholesky rounds with the thread count, so at m = 128 an
        # unpinned run on two or more cores moves these rows.  A fresh interpreter
        # per leg, since OpenBLAS reads its thread count at load: numpy loaded
        # first starts at the host's count, the CLI alone loads it at one thread
        outputs = []
        for leg, preload in (("host", "import numpy\n"), ("one", "")):
            argv = ["decay", "--sigma-w2-grid", "1.5", "--sigma-b2-grid", "0.05",
                    "--depths", "1,2", "--m", "128", "--seed", "1", "--out", str(tmp_path / leg)]
            run_python(f"{preload}from ntkphase.cli import main\nassert main({argv!r}) == 0\n")
            outputs.append((tmp_path / leg / "predictor_decay.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_the_cli_loads_numpy_at_one_thread(self, run_python):
        # an idle OpenBLAS worker spins; at one thread the library starts none
        run_python(
            "import os\n"
            "import ntkphase.cli\n"
            "from ntkphase.sweep import _numpy_openblas_threads\n"
            "assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n"
            "get, _ = _numpy_openblas_threads()\n"
            "assert get() == 1, get()\n"
        )

    def test_the_cli_import_leaves_the_environment_as_it_found_it(self, run_python):
        # OpenBLAS has read the variable once numpy has loaded; a process the
        # CLI starts afterwards must not inherit it
        run_python(
            "import os, subprocess, sys\n"
            "import ntkphase.cli\n"
            "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
            "child = subprocess.run([sys.executable, '-c', 'import os; "
            "print(os.environ.get(\"OPENBLAS_NUM_THREADS\"))'], capture_output=True, text=True)\n"
            "assert child.stdout == 'None\\n', child.stdout\n"
        )

    def test_the_cli_keeps_a_preset_thread_count(self, run_python):
        run_python(
            "import os\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "import ntkphase.cli\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
        )

    def test_the_cli_leaves_the_environment_alone_once_numpy_is_loaded(self, run_python):
        # the variable would pin nothing then, and a child process would inherit it
        run_python(
            "import os\n"
            "import numpy\n"
            "import ntkphase.cli\n"
            "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
        )


class TestDynamicsStepSize:
    @pytest.mark.parametrize(
        "outputs",
        [
            (SweepOutput.KAPPA, SweepOutput.DYNAMICS_TRACE),
            (SweepOutput.SPECTRUM, SweepOutput.DYNAMICS_TRACE),
            (SweepOutput.DYNAMICS_TRACE,),
        ],
    )
    def test_eta_is_one_over_the_last_ntk_lambda_max(self, tmp_path, monkeypatch, outputs):
        import ntkphase.sweep as sweep

        calls = []
        original = sweep.spectrum

        def counting(M, depth=0):
            calls.append(depth)
            return original(M, depth)

        monkeypatch.setattr(sweep, "spectrum", counting)
        depths = (1, 2, 5)
        cfg = SweepConfig(**{**SMALL, "depths": depths, "outputs": outputs})
        assert run_sweep(cfg, tmp_path).n_point_errors == 0
        points = len(cfg.sigma_w2_grid)
        tables = [] if len(outputs) == 1 else [d for d in depths for _kind in ("ntk", "nngp")]
        assert calls == (tables + [depths[-1]]) * points  # eta's own solve at the last depth

        X, _ = sweep._dataset(cfg)
        rows = _read_rows(tmp_path / "dynamics.csv")
        for sw2 in cfg.sigma_w2_grid:
            h = sweep._hyperparams(cfg, sw2, cfg.sigma_b2_grid[0])
            summ = kappa_trajectory(h, X[: cfg.m], depths)["ntk"][-1]
            etas = {float(r["eta"]) for r in rows if float(r["sigma_w2"]) == sw2}
            assert etas == {1.0 / summ.lambda_max}


class TestPhaseDiagramOutput:
    # with a bias the line sigma_w2 = 2 has no finite variance fixed point, so the
    # row keeps the solved location and the phase and carries the error
    @pytest.mark.parametrize("sb2, error", [(0.0, ""), (0.5, "NonConvergenceError:")])
    def test_relu_transition_at_two(self, tmp_path, sb2, error):
        cfg = SweepConfig(
            activation="relu",
            sigma_w2_grid=(1.0,),
            sigma_b2_grid=(sb2,),
            outputs=(SweepOutput.PHASE_DIAGRAM,),
        )
        run_sweep(cfg, tmp_path, formats=("csv",))
        transition = [r for r in _read_rows(tmp_path / "phase_diagram.csv")
                      if r["phase"] == "critical"]
        assert len(transition) == 1
        assert float(transition[0]["sigma_w2"]) == 2.0
        assert transition[0]["error"].startswith(error)
        assert bool(transition[0]["error"]) == bool(error)

    def test_every_ordered_row_has_chi1_below_one(self, tmp_path):
        cfg = SweepConfig(
            sigma_w2_grid=(0.5, 1.0, 2.0, 4.0),
            sigma_b2_grid=(0.2, 1.0),
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
            "--depths", "1,2", "--m", "4", "--n-features", "8",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "kappa.csv").exists() and (tmp_path / "spectrum.csv").exists()

    def test_zero_weight_variance_predicts_infinite_kappa(self, tmp_path):
        # chi1 = 0 there; the ordered NNGP law once raised ZeroDivisionError
        rc = cli_main(["trajectory", "--sigma-w2-grid", "0", "--sigma-b2-grid", "0.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "kappa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["kappa_pred"] == "inf" and r["error"] == "" for r in rows)
        # the measured kappa is inf too, and inf - inf is no residual: the cell stays empty
        assert all(r["kappa"] == "inf" and r["kappa_residual"] == "" for r in rows)

    def test_cli_imports_no_scipy_and_its_runs_import_nothing(self, tmp_path, run_python):
        # scipy.special and scipy.linalg cost ~0.35 s of start-up and a second
        # OpenBLAS, and a module that a run imports lands in its sweep time
        runs = [
            (["phase-diagram", "--activation", "relu", "--sigma-w2-grid", "0.5,1.9",
              "--sigma-b2-grid", "0.5"], 2),  # the transition row at (2, 0.5) has no fixed point
            (["sweep", "--activation", "tanh", "--architecture", "cnn_f",
              "--sigma-w2-grid", "1.5", "--depths", "1,2", "--m", "4", "--n", "2",
              "--spatial-size", "4", "--n-features", "4", "--outputs", "kappa,predictor_decay"], 0),
            (["sweep", "--activation", "erf", "--sigma-w2-grid", "1.5", "--depths", "1,2",
              "--m", "4", "--n", "2", "--outputs", ",".join(o.value for o in SweepOutput)], 0),
        ]
        run_python(
            "import sys\n"
            "from ntkphase.cli import main\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded\n"
            f"for i, (argv, code) in enumerate({runs!r}):\n"
            "    before = set(sys.modules)\n"
            f"    assert main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == code, argv\n"
            "    assert set(sys.modules) == before, (argv, sorted(set(sys.modules) - before))\n"
        )

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main(["sweep", "--m", "7", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        ["--sigma-w2-grid", "nan"],
        ["--sigma-w2-grid", "inf"],
        ["--sigma-b2-grid", "-0.5"],
        ["--format", "xml"],
        ["--dropout-keep", "0.5"],
        ["--architecture", "cnn_p", "--generator", "two_clusters"],
        ["--n-features", "0"],
        ["--spatial-size", "0"],
        ["--filter-halfwidth", "-1"],
        ["--architecture", "cnn_f", "--spatial-size", "2", "--filter-halfwidth", "1"],
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--depths", ","],
        # above MAX_VARIANCE = 100: erf at 1e16 and 1e160 died with ZeroDivisionError and
        # OverflowError tracebacks, tanh at 1e12 ran for minutes
        ["--sigma-w2-grid", "100.5"],
        ["--sigma-b2-grid", "1e16"],
        ["--sigma-b2-grid", "1e160"],
        ["--activation", "tanh", "--sigma-b2-grid", "1e12"],
    ])
    def test_bad_value_or_usage_exit_code(self, tmp_path, flags):
        assert cli_main(["sweep", *flags, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad", [{"m": 12.0}, {"depths": [1.5, 3]}, {"seed": -1},
                                     {"sigma_w2_grid": "14"}])
    def test_config_file_type_or_range_error_exits_one(self, tmp_path, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_w2_grid": [1.0], "m": 4, "n": 2, **bad}))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad", [{"n": True}, {"ridge": True}, {"seed": False},
                                     {"depths": [True, 2]}])
    def test_config_file_bool_for_a_number_exits_one(self, tmp_path, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_w2_grid": [1.0], "m": 4, "n": 2, **bad}))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_flags_are_exactly_the_config_fields(self):
        # only sweep takes --outputs; every other subcommand fixes its outputs
        every = {f.name for f in fields(SweepConfig)} | {"config", "out", "threads", "format"}
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {"sweep", "phase-diagram", "trajectory", "decay", "dynamics"}
        for name, parser in sub.choices.items():
            expected = every if name == "sweep" else every - {"outputs"}
            actions = [a for a in parser._actions if a.dest != "help"]
            assert {a.dest for a in actions} == expected, name
            assert {s for a in actions for s in a.option_strings} == {
                "--" + dest.replace("_", "-") for dest in expected}, name

    def test_each_forced_subcommand_parses_to_its_own_outputs(self):
        # the subcommands share their flags' actions, so a default set on one must not
        # reach another: parse every subcommand with one parser
        parser = build_parser()
        for name, forced in _SUBCOMMAND_OUTPUTS.items():
            assert parser.parse_args([name]).outputs == forced, name
        assert parser.parse_args(["sweep", "--outputs", "kappa"]).outputs == ["kappa"]
        assert [f.value for f in _build_config(parser.parse_args(["decay"])).outputs] == [
            "predictor_decay"]

    @pytest.mark.parametrize("exclusive", [
        dict(architecture="cnn_p", spatial_size=9, filter_halfwidth=2),
        dict(generator="two_clusters"),
    ])
    def test_config_survives_a_round_trip_through_flag_text(self, exclusive):
        # an fcn run reads the generator and a CNN run the spatial size and window, so
        # those fields change in turn
        cfg = SweepConfig(
            activation="tanh", sigma_w2_grid=(0.25, 3.5), sigma_b2_grid=(0.1, 2.0),
            depths=(3, 7), m=6, n=3, ridge=1e-3, seed=2**64 - 1, n_features=5,
            outputs=("spectrum", "predictor_decay"), **exclusive,
        )
        unchanged = {f.name for f in fields(SweepConfig) if getattr(cfg, f.name) == f.default}
        assert unchanged == {"architecture", "generator", "spatial_size",
                             "filter_halfwidth"} - set(exclusive)
        argv = ["sweep"]
        for name, value in cfg.to_jsonable().items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += ["--" + name.replace("_", "-"), text]
        assert _build_config(build_parser().parse_args(argv)) == cfg

    def test_partial_failure_exit_code(self, tmp_path):
        rc = cli_main([
            "trajectory", "--activation", "relu", "--sigma-w2-grid", "4.0",
            "--sigma-b2-grid", "0.0", "--depths", "1", "--m", "4",
            "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--depths", "1,2"],
        ["dynamics", "--ridge", "0.1"],
        ["sweep", "--architecture", "fcn", "--filter-halfwidth", "3"],
        ["decay", "--outputs", "kappa"],
    ])
    def test_a_flag_the_run_would_not_read_exits_one(self, tmp_path, argv, capsys):
        assert cli_main([*argv, "--out", str(tmp_path)]) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_outputs_exit_one(self, tmp_path, source, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"outputs": []}))
        argv = ["--outputs", ","] if source == "flag" else ["--config", str(cfg_path)]
        out = tmp_path / "out"
        assert cli_main(["sweep", *argv, "--out", str(out)]) == 1
        assert "outputs must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_subcommand_rejects_outputs_in_its_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"outputs": ["predictor_decay"]}))
        assert cli_main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_w2_grid": [1.0], "keep_rate": 0.5}))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--help"])
        assert exc.value.code == 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sigma_w2_grid": [1.0], "sigma_b2_grid": [0.5], "outputs": ["phase_diagram"],
        }))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--seed", "9",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "phase_diagram.json").read_text())
        assert doc["table"] == "phase_diagram"
        assert not (out / "phase_diagram.csv").exists()
