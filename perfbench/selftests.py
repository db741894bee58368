"""Self-tests of the benchmark's checks, tracer and metric names.

    python3 perfbench/selftests.py        (from the repository root)

They run a small erf sweep in-process, so they take a few seconds.  The
file name keeps them out of the package's own pytest collection.
"""

import contextlib
import dataclasses
import io
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from layertrace import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5

TINY = Workload(
    name="tiny",
    why="small erf sweep with every table",
    subcommand="sweep",
    activation="erf",
    sigma_w2=(0.5, 4.0),
    sigma_b2=(0.5,),
    depths=(1, 2),
    m=8,
    n=4,
    n_features=8,
    outputs=("phase_diagram", "kappa", "spectrum", "predictor_decay", "dynamics_trace"),
)


def _sweep(workload, out_dir, tracer=None):
    import ntkphase.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            return ntkphase.cli.main(workload.argv(SEED, str(out_dir)))
        with tracer.installed():
            return tracer.root(ntkphase.cli.main, workload.argv(SEED, str(out_dir)))


def _all_checks(workload, tables, exit_code=0):
    fails = checks.check_structure(workload, tables, exit_code)
    return fails or checks.check_values(workload, tables) + checks.recompute(
        workload, tables, SEED)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.exit_code = _sweep(TINY, cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def tables(self):
        return checks.read_tables(Path(self.tmp.name))

    def set_cell(self, tables, table, row, column, value):
        header, rows = tables[table]
        rows[row][header.index(column)] = value

    def test_genuine_output_passes(self):
        self.assertEqual(self.exit_code, 0)
        self.assertEqual(_all_checks(TINY, self.tables()), [])

    def test_rejects_perturbed_values(self):
        for table, column in (("kappa", "lambda_min"), ("predictor_decay", "pred_norm"),
                              ("phase_diagram", "chi1")):
            tables = self.tables()
            for i, row in enumerate(tables[table][1]):
                old = float(row[tables[table][0].index(column)])
                self.set_cell(tables, table, i, column, repr(old * (1 + 1e-6)))
            self.assertTrue(_all_checks(TINY, tables), f"{table}.{column}")

    def test_rejects_missing_table(self):
        tables = self.tables()
        del tables["spectrum"]
        self.assertIn("spectrum: table missing", _all_checks(TINY, tables))

    def test_rejects_wrong_exit_code(self):
        self.assertTrue(checks.check_structure(TINY, self.tables(), 2))

    def test_compares_error_type_not_message(self):
        key = (0.5, 0.5, 1, "ntk")
        expecting = dataclasses.replace(
            TINY, expected_errors={("kappa", key): "NonConvergenceError"})
        tables = self.tables()
        self.set_cell(tables, "kappa", 0, "error", "NonConvergenceError: gave up (last: 1.0)")
        self.assertEqual(checks.check_structure(expecting, tables, 2), [])
        self.set_cell(tables, "kappa", 0, "error", "NonConvergenceError: other text")
        self.assertEqual(checks.check_structure(expecting, tables, 2), [])
        self.set_cell(tables, "kappa", 0, "error", "BracketError: gave up")
        self.assertTrue(checks.check_structure(expecting, tables, 2))
        self.assertTrue(checks.check_structure(TINY, tables, 0))

    def test_failed_units_counts_points_and_transition_rows(self):
        tables = self.tables()
        self.assertEqual(checks.failed_units(TINY, tables), 0)
        self.set_cell(tables, "kappa", 0, "error", "X: y")
        self.set_cell(tables, "predictor_decay", 0, "error", "X: y")
        self.set_cell(tables, "phase_diagram", 2, "error", "X: y")  # the transition row
        self.assertEqual(checks.failed_units(TINY, tables), 2)
        self.assertEqual(TINY.units(), 3)


class Tracing(unittest.TestCase):
    def originals(self):
        return [owner.__dict__[attr] for owner, attr, *_ in Tracer()._plan()]

    def test_wrappers_restore_originals(self):
        before = self.originals()
        tracer = Tracer()
        with tracer.installed():
            self.assertTrue(all(a is not b for a, b in zip(before, self.originals())))
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))
        with self.assertRaises(KeyError):
            with Tracer().installed():
                raise KeyError("boom")
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))

    def test_traced_sweep_matches_untraced_and_reports_layers(self):
        tracer = Tracer()
        with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as traced:
            self.assertEqual(_sweep(TINY, plain), _sweep(TINY, traced, tracer))
            self.assertEqual(run._hash_dir(Path(plain)), run._hash_dir(Path(traced)))
        metrics = tracer.metrics()
        self.assertLessEqual(set(metrics), set(LAYER_METRICS))
        for name in ("activations.calls", "phase.analyze_calls", "phase.qstar_solves",
                     "propagation.steps", "spectra.calls", "predictor.solves",
                     "sweep.grid_points"):
            self.assertGreater(metrics[name], 0, name)
        self.assertEqual(metrics["propagation.steps"], 2 * max(TINY.depths))
        self.assertEqual(metrics["spectra.max_n"], TINY.m)
        self.assertEqual(tracer.spans[0][0], "cli.main")
        self.assertTrue(all(parent < i for i, (*_, parent) in enumerate(tracer.spans)))


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            self.spec = json.load(fh)

    def test_names_and_units_are_well_formed_and_unique(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        for metric in metrics:
            self.assertIsNotNone(UNIT.fullmatch(metric["unit"]), metric)
        self.assertEqual(len(set(names)), len(names))

    def test_spec_matches_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, LAYER_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})


if __name__ == "__main__":
    unittest.main()
