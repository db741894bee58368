"""Mean predictor, training dynamics, learning-rate threshold and the
ordered-phase infinite-depth predictor."""

import math

import numpy as np
import pytest

from ntkphase import (
    ActivationKernel,
    Activation,
    Hyperparams,
    RegressionTask,
    IllConditionedError,
    SingularKernelError,
    analyze,
    center_labels,
    dynamics,
    init_kernels,
    max_learning_rate,
    mean_predict,
    normalize_inputs,
    ordered_limit_predictor,
    predictor_decay,
    propagate_fcn,
    spectrum,
)
from ntkphase.data import normals
from ntkphase.predictor import _spd_solve

import reference


def adjugate_inverse(A):
    """Explicit inverse by cofactor expansion (independent of any solver)."""
    n = A.shape[0]
    cof = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T / np.linalg.det(A)


def random_task(seed, m=4, n=3, c=2, ridge=0.0):
    A = normals(seed, (m, m + 2))
    K_dd = A @ A.T + 0.5 * np.eye(m)
    K_td = normals(seed + 100, (n, m))
    Y = center_labels(normals(seed + 200, (m, c)))
    return RegressionTask(K_dd=K_dd, K_td=K_td, Y=Y, ridge=ridge)


class TestCenterLabels:
    def test_balanced_pair_unchanged(self):
        Y = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        np.testing.assert_array_equal(center_labels(Y), Y)

    def test_constant_column_zeroed(self):
        np.testing.assert_array_equal(center_labels(np.ones((5, 1))), np.zeros((5, 1)))

    def test_random_columns_sum_to_zero(self):
        Y = center_labels(normals(0, (6, 3)))
        np.testing.assert_allclose(Y.sum(axis=0), 0.0, atol=1e-12)


class TestMeanPredict:
    def test_identity_task_returns_labels(self):
        task = random_task(1)
        task = RegressionTask(K_dd=task.K_dd, K_td=task.K_dd, Y=task.Y)
        np.testing.assert_allclose(mean_predict(task), task.Y, atol=1e-10)

    def test_scalar_case(self):
        task = RegressionTask(K_dd=np.array([[2.0]]), K_td=np.array([[3.0]]),
                              Y=np.array([[0.0]]))
        # linearity makes the zero label trivial; use an uncentered-free probe
        P = mean_predict(RegressionTask(K_dd=np.array([[2.0]]), K_td=np.array([[3.0]]),
                                        Y=np.zeros((1, 1))))
        np.testing.assert_array_equal(P, np.zeros((1, 1)))
        assert mean_predict(task).shape == (1, 1)

    def test_against_adjugate_oracle(self):
        task = random_task(2)
        expected = task.K_td @ adjugate_inverse(task.K_dd) @ task.Y
        np.testing.assert_allclose(mean_predict(task), expected, atol=1e-10)

    def test_linearity_in_labels(self):
        task = random_task(3)
        doubled = RegressionTask(K_dd=task.K_dd, K_td=task.K_td, Y=2.0 * task.Y)
        np.testing.assert_allclose(mean_predict(doubled), 2.0 * mean_predict(task), rtol=1e-14)

    def test_ridge_shrinks_prediction_norm(self):
        base = random_task(4)
        norms = []
        for ridge in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            task = RegressionTask(K_dd=base.K_dd, K_td=base.K_dd, Y=base.Y, ridge=ridge)
            norms.append(np.linalg.norm(mean_predict(task)))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_singular_kernel_error_carries_eigenvalue(self):
        K = np.diag([1.0, -0.5])
        Y = center_labels(np.array([[1.0], [-1.0]]))
        with pytest.raises(SingularKernelError) as exc:
            mean_predict(RegressionTask(K_dd=K, K_td=np.ones((1, 2)), Y=Y))
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)

    def test_singular_fallback_runs_without_scipy_linalg(self, run_python):
        # the factorization and the eigenvalue fallback are numpy's, so a run loads one LAPACK
        run_python(
            "import sys\n"
            "sys.modules['scipy.linalg'] = None  # importing it now raises ImportError\n"
            "import numpy as np\n"
            "from ntkphase import RegressionTask, SingularKernelError, mean_predict\n"
            "task = RegressionTask(K_dd=np.diag([1.0, -0.5]), K_td=np.ones((1, 2)),\n"
            "                      Y=np.array([[1.0], [-1.0]]))\n"
            "try:\n"
            "    mean_predict(task)\n"
            "except SingularKernelError as exc:\n"
            "    assert exc.min_eigenvalue == -0.5, exc.min_eigenvalue\n"
            "else:\n"
            "    raise AssertionError('no SingularKernelError')\n"
        )

    @pytest.mark.parametrize("where, value", [
        ("off-diagonal", math.nan), ("diagonal", math.nan), ("diagonal", math.inf),
        ("label", math.nan),
    ])
    def test_non_finite_input_raises(self, where, value):
        # numpy's Cholesky passes a NaN through to the prediction, and turns an
        # inf diagonal into a finite one
        task = random_task(5)
        K, Y = task.K_dd.copy(), task.Y.copy()
        if where == "label":
            Y[0, 0] = value
        else:
            i, j = (0, 1) if where == "off-diagonal" else (1, 1)
            K[i, j] = K[j, i] = value
        with pytest.raises(ValueError, match="NaN or inf"):
            mean_predict(RegressionTask(K_dd=K, K_td=task.K_td, Y=Y))

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 70, 128])
    def test_block_substitution_matches_a_dense_solve(self, m):
        # the substitution runs in blocks of 32 rows; sizes on and around the edges
        X = normals(m, (m, m + 3))
        A = X @ X.T / m + 0.1 * np.eye(m)
        B = normals(m + 1, (m, 3))
        ref = np.linalg.solve(A, B)
        np.testing.assert_allclose(_spd_solve(A, B), ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))

    def test_uncentered_labels_rejected(self):
        with pytest.raises(ValueError):
            RegressionTask(K_dd=np.eye(2), K_td=np.eye(2), Y=np.array([[1.0], [0.5]]))

    def test_one_dimensional_labels_become_a_column(self):
        task = RegressionTask(K_dd=np.eye(2), K_td=np.eye(2), Y=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(task.Y, [[1.0], [-1.0]])

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            RegressionTask(K_dd=np.eye(2), K_td=np.eye(2), Y=np.array([1.0, -1.0]), ridge=-1e-3)

    def test_balanced_labels_annihilated_at_fixed_point(self):
        m, pstar = 8, 2.3
        K_dd = pstar * np.ones((m, m)) + 1e-8 * np.eye(m)
        K_td = pstar * np.ones((3, m))
        Y = center_labels(np.array([1.0, -1.0] * 4).reshape(-1, 1))
        task = RegressionTask(K_dd=K_dd, K_td=K_td, Y=Y)
        assert np.linalg.norm(mean_predict(task)) < 1e-5


class TestDynamics:
    def test_scalar_exponential_approach(self):
        theta, y, eta = 2.0, 0.0, 0.3
        # one balanced pair keeps labels centered; block-diagonal kernel makes
        # each coordinate an independent scalar flow
        K = np.diag([theta, theta])
        Y = np.array([[1.0], [-1.0]])
        trace = dynamics(RegressionTask(K_dd=K, K_td=np.eye(2), Y=Y), eta, [0.7, 2.0])
        for t, mu in zip(trace.times, trace.mu_train):
            np.testing.assert_allclose(mu, (1 - math.exp(-eta * theta * t)) * Y, rtol=1e-12)

    def test_zero_time_is_zero_output(self):
        task = random_task(5)
        trace = dynamics(task, 0.5, [0.0])
        np.testing.assert_array_equal(trace.mu_train[0], np.zeros_like(task.Y))
        np.testing.assert_array_equal(trace.mu_test[0], np.zeros((3, 2)))

    def test_long_time_limit_is_mean_predictor(self):
        task = random_task(6)
        lam_min = np.linalg.eigvalsh(task.K_dd).min()
        t_inf = 50.0 / lam_min
        trace = dynamics(task, 1.0, [t_inf])
        np.testing.assert_allclose(trace.mu_test[0], mean_predict(task), atol=1e-12)
        np.testing.assert_allclose(trace.mu_train[0], task.Y, atol=1e-12)


class TestMaxLearningRate:
    def test_direct_value(self):
        s = spectrum(np.diag([4.0, 1.0]))
        assert max_learning_rate(s) == 0.5

    def test_needs_positive_lambda_max(self):
        with pytest.raises(ValueError, match="lambda_max"):
            max_learning_rate(spectrum(np.diag([0.0, -1.0])))

    def test_ordered_phase_scale(self):
        h = Hyperparams(1.5, 0.3, "erf")
        rep = analyze(h)
        k = ActivationKernel(Activation.ERF, rep.qstar)
        X = normalize_inputs(normals(0, (10, 24)), rep.qstar)
        kp = propagate_fcn(init_kernels(X), h, k, [round(10 * rep.xi1)])[0]
        s = spectrum(kp.ntk, kp.depth)
        assert max_learning_rate(s) == pytest.approx(2.0 / (10 * rep.pstar), rel=0.02)

    @staticmethod
    def gd_iterate(K, Y, eta, steps=400):
        mu = np.zeros_like(Y)
        sup = 0.0
        for _ in range(steps):
            mu = mu + eta * K @ (Y - mu)
            sup = max(sup, float(np.max(np.abs(mu))))
        return mu, sup

    def test_discrete_threshold(self):
        for seed in range(10):
            A = normals(seed, (6, 6))
            K = A @ A.T + 0.5 * np.eye(6)
            Y = center_labels(normals(seed + 50, (6, 1)))
            lam_max = spectrum(K).lambda_max
            mu, sup = self.gd_iterate(K, Y, 1.9 / lam_max)
            assert np.linalg.norm(Y - mu) < 1e-6 * np.linalg.norm(Y) + 1e-9
            _, sup_div = self.gd_iterate(K, Y, 2.1 / lam_max)
            assert sup_div > 1e6 * max(1.0, float(np.max(np.abs(Y))))


class TestPredictorDecay:
    @pytest.mark.parametrize("depths", [[4, 2], [2, 2]])
    @pytest.mark.parametrize("architecture", ["fcn", "cnn_f"])
    def test_depths_must_strictly_increase(self, architecture, depths):
        Y = np.array([1.0, -1.0] * 2).reshape(-1, 1)
        if architecture == "fcn":
            h, X = Hyperparams(4.0, 0.5, "erf"), normals(0, (6, 8))
        else:
            h = Hyperparams(4.0, 0.5, "erf", architecture=architecture, spatial_size=4)
            X = normals(0, (6, 3, 4))
        with pytest.raises(ValueError, match="strictly increasing"):
            predictor_decay(h, X[:4], X[4:], Y, depths)

    def test_chaotic_series_decays(self):
        h = Hyperparams(4.0, 0.5, "erf")
        Y = np.array([1.0, -1.0] * 4).reshape(-1, 1)
        series = predictor_decay(h, normals(0, (8, 20)), normals(1, (4, 20)), Y, [10, 20, 30])
        ntk_vals = [v for _, v in series["ntk"]]
        assert all(b < a for a, b in zip(ntk_vals, ntk_vals[1:]))
        # NNGP decays strictly slower: ratio of successive values is larger
        nngp_vals = [v for _, v in series["nngp"]]
        assert nngp_vals[-1] / nngp_vals[0] > ntk_vals[-1] / ntk_vals[0]

    def test_pooling_boosts_chaotic_prediction_norm_by_spatial_factor(self):
        from ntkphase.data import cnn_inputs

        d = 6
        Y = np.array([1.0, -1.0] * 4).reshape(-1, 1)
        Xtr, Xte = cnn_inputs(8, 20, d, seed=6), cnn_inputs(4, 20, d, seed=7)
        norms = {}
        for arch in ("cnn_f", "cnn_p"):
            h = Hyperparams(4.0, 0.5, "erf", architecture=arch, spatial_size=d)
            norms[arch] = dict(predictor_decay(h, Xtr, Xte, Y, [15, 25, 35])["ntk"])
        for depth in (15, 25, 35):
            ratio = norms["cnn_p"][depth] / norms["cnn_f"][depth]
            assert d / 2 < ratio < 2 * d


class TestOrderedLimitPredictor:
    def setup_method(self):
        self.h = Hyperparams(2.0, 0.5, "erf")
        self.rep = analyze(self.h)
        self.k = ActivationKernel(Activation.ERF, self.rep.qstar)
        X = normalize_inputs(normals(7, (10, 24)), self.rep.qstar)
        self.kp0 = init_kernels(X)

    def test_matches_direct_solve(self):
        # at 6 depth scales the direct solve still holds ~14 digits
        depth = round(6 * self.rep.xi1)
        kp = propagate_fcn(self.kp0, self.h, self.k, [depth])[0]
        P = ordered_limit_predictor(kp, self.rep, 6)
        direct = _spd_solve(kp.ntk[:6, :6], kp.ntk[6:, :6].T).T
        assert P.shape == (4, 6)
        assert np.max(np.abs(P - direct)) <= 1e-6 * np.max(np.abs(direct))

    @pytest.mark.parametrize("scales", [6, 12, 20, 33, 40])
    def test_matches_a_high_precision_solve(self, scales):
        # measured at most 3.7e-15 over these depths, where kappa(K_dd) reaches 1.2e14
        kp = propagate_fcn(self.kp0, self.h, self.k, [round(scales * self.rep.xi1)])[0]
        ref = reference.mean_predictor(kp.ntk[:6, :6], kp.ntk[6:, :6])
        P = ordered_limit_predictor(kp, self.rep, 6)
        assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_direct_solve_is_condition_limited_deep_in_the_phase(self):
        # why the predictor is not checked against a direct solve: at 33 depth
        # scales that solve is ~1.4e-3 off, the rank-one form ~1e-15
        kp = propagate_fcn(self.kp0, self.h, self.k, [round(33 * self.rep.xi1)])[0]
        ref = reference.mean_predictor(kp.ntk[:6, :6], kp.ntk[6:, :6])
        direct = _spd_solve(kp.ntk[:6, :6], kp.ntk[6:, :6].T).T
        assert np.max(np.abs(direct - ref)) > 1e-6 * np.max(np.abs(ref))

    def test_one_eigendecomposition_and_no_other_factorization(self, monkeypatch):
        kp = propagate_fcn(self.kp0, self.h, self.k, [round(6 * self.rep.xi1)])[0]
        calls = []

        def counted(name):
            f = getattr(np.linalg, name)
            return lambda *a, **kw: calls.append(name) or f(*a, **kw)

        for name in ("eigh", "eigvalsh", "cond", "solve", "cholesky", "svd", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        ordered_limit_predictor(kp, self.rep, 6)
        assert calls == ["eigh"]

    def test_relabeling_scales_exactly(self):
        depth = round(6 * self.rep.xi1)
        kp = propagate_fcn(self.kp0, self.h, self.k, [depth])[0]
        P = ordered_limit_predictor(kp, self.rep, 6)
        Y = center_labels(np.array([1.0, -1.0] * 3).reshape(-1, 1))
        np.testing.assert_array_equal(P @ (2.0 * Y), 2.0 * (P @ Y))

    def test_deep_limit_stabilizes(self):
        l0 = round(12 * self.rep.xi1)
        kps = propagate_fcn(self.kp0, self.h, self.k, [l0, l0 + 20])
        Y = center_labels(np.array([1.0, -1.0] * 3).reshape(-1, 1))
        P1 = ordered_limit_predictor(kps[0], self.rep, 6)
        P2 = ordered_limit_predictor(kps[1], self.rep, 6)
        change = np.linalg.norm(P1 @ Y - P2 @ Y) / np.linalg.norm(P1 @ Y)
        assert change < 0.01

    def test_requires_ordered_phase(self):
        rep_chaotic = analyze(Hyperparams(4.0, 0.5, "erf"))
        kp = propagate_fcn(self.kp0, self.h, self.k, [5])[0]
        with pytest.raises(ValueError):
            ordered_limit_predictor(kp, rep_chaotic, 6)

    @pytest.mark.parametrize("n_train", [0, 10])
    def test_needs_train_and_test_rows(self, n_train):
        kp = propagate_fcn(self.kp0, self.h, self.k, [5])[0]
        with pytest.raises(ValueError, match="train and test"):
            ordered_limit_predictor(kp, self.rep, n_train)

    def test_repeated_train_input_is_ill_conditioned(self):
        X = normalize_inputs(normals(7, (10, 24)), self.rep.qstar)
        X[1] = X[0]  # two train inputs coincide
        kp = propagate_fcn(init_kernels(X), self.h, self.k, [25])[0]
        with pytest.raises(IllConditionedError, match="deviation block"):
            ordered_limit_predictor(kp, self.rep, 6)
