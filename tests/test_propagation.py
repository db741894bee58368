"""Depth recursions: dense, scalar, convolutional, dropout and residual flows."""

import math

import numpy as np
import pytest

from ntkphase import (
    Activation,
    ActivationKernel,
    DiagonalDriftError,
    Hyperparams,
    OdeKernelState,
    ReadoutMode,
    ResidualVariant,
    ScalarKernelState,
    StepSizeError,
    WindowError,
    ZeroRowError,
    analyze,
    apply_A,
    apply_dropout,
    dropout_kappa_limit,
    fourier_eigs,
    init_cnn_kernels,
    init_kernels,
    integrate_residual,
    normalize_inputs,
    normalize_inputs_cnn,
    paper_layer,
    propagate_cnn,
    propagate_fcn,
    propagate_scalar,
    readout,
    step_cnn,
    step_fcn,
    step_scalar,
)
from ntkphase.data import cnn_inputs, normals, shift_register_inputs
from ntkphase.propagation import CnnKernel
from ntkphase.spectra import fit_rate


def erf_setup(sw2, sb2):
    h = Hyperparams(sw2, sb2, "erf")
    rep = analyze(h)
    return h, rep, ActivationKernel(Activation.ERF, rep.qstar)


class TestNormalizeAndInit:
    def test_constant_row_unchanged(self):
        X = np.ones((1, 4))
        np.testing.assert_array_equal(normalize_inputs(X, 1.0), X)

    def test_single_spike_row_unchanged(self):
        X = np.array([[2.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(normalize_inputs(X, 1.0), X)

    def test_random_rows_hit_target_mean_square(self):
        X = normals(0, (8, 10))
        Xn = normalize_inputs(X, 1.7)
        np.testing.assert_allclose(np.mean(Xn**2, axis=1), 1.7, atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowError):
            normalize_inputs(np.zeros((2, 4)), 1.0)

    def test_orthogonal_rows_give_identity(self):
        X = np.eye(4) * 2.0  # mean-square 1 per row
        kp = init_kernels(X)
        np.testing.assert_allclose(kp.nngp, np.eye(4), atol=1e-15)
        assert kp.depth == 0

    def test_duplicate_rows_give_qstar_offdiagonal(self):
        X = normalize_inputs(np.vstack([np.ones(6), np.ones(6), normals(1, (2, 6))]), 1.3)
        kp = init_kernels(X)
        assert kp.nngp[0, 1] == pytest.approx(1.3, abs=1e-12)

    def test_init_kernel_psd(self):
        X = normalize_inputs(normals(2, (10, 12)), 1.0)
        kp = init_kernels(X)
        assert np.linalg.eigvalsh(kp.nngp).min() >= -1e-10
        np.testing.assert_array_equal(kp.nngp, kp.ntk)


class TestStepFcn:
    def test_zero_weight_variance_degenerates(self):
        h = Hyperparams(0.0, 0.7, "erf")
        k = ActivationKernel(Activation.ERF, 0.7)
        X = normalize_inputs(normals(0, (4, 8)), 0.7)
        kp = step_fcn(init_kernels(X), h, k)
        np.testing.assert_allclose(kp.nngp, 0.7, atol=1e-14)
        np.testing.assert_allclose(kp.ntk, 0.7, atol=1e-14)

    def test_against_scalar_loop_oracle(self):
        # independently coded per-entry loop using math.asin
        h, rep, k = erf_setup(1.7, 0.4)
        X = normalize_inputs(normals(3, (3, 10)), rep.qstar)
        kp0 = init_kernels(X)
        kp1 = step_fcn(kp0, h, k)

        q = rep.qstar
        m = 3
        nngp_ref = np.empty((m, m))
        ntk_ref = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                t = (2 / math.pi) * math.asin(2 * kp0.nngp[i, j] / (1 + 2 * q))
                td = (4 / math.pi) / math.sqrt((1 + 2 * q) ** 2 - 4 * kp0.nngp[i, j] ** 2)
                nngp_ref[i, j] = 1.7 * t + 0.4
                ntk_ref[i, j] = nngp_ref[i, j] + 1.7 * td * kp0.ntk[i, j]
        for i in range(m):
            ntk_ref[i, i] = q + 1.7 * ((4 / math.pi) / math.sqrt((1 + 2 * q) ** 2 - 4 * q * q)) * kp0.ntk[i, i]
            nngp_ref[i, i] = q
        np.testing.assert_allclose(kp1.nngp, nngp_ref, atol=1e-14)
        np.testing.assert_allclose(kp1.ntk, ntk_ref, atol=1e-14)

    def test_chaotic_diagonal_matches_closed_form(self):
        h, rep, k = erf_setup(4.0, 0.5)
        X = normalize_inputs(normals(0, (2, 12)), rep.qstar)
        kp = init_kernels(X)
        for _ in range(200):
            kp = step_fcn(kp, h, k)
        lp = paper_layer(kp.depth)
        closed = rep.qstar * (rep.chi1**lp - 1.0) / (rep.chi1 - 1.0)
        assert kp.ntk[0, 0] == pytest.approx(closed, rel=1e-8)

    def test_diagonal_drift_guard(self):
        h = Hyperparams(1.7, 0.4, "erf")
        k = ActivationKernel(Activation.ERF, 2.0)  # wrong fixed point on purpose
        X = normalize_inputs(normals(0, (3, 8)), 2.0)
        with pytest.raises(DiagonalDriftError):
            step_fcn(init_kernels(X), h, k)

    def test_ntk_dominates_nngp(self):
        # the NTK accumulates nonnegative terms onto the NNGP, so their
        # difference stays PSD along the trajectory
        h, rep, k = erf_setup(1.8, 0.4)
        X = normalize_inputs(normals(6, (8, 20)), rep.qstar)
        kp = init_kernels(X)
        for _ in range(12):
            kp = step_fcn(kp, h, k)
            assert np.linalg.eigvalsh(kp.ntk - kp.nngp).min() >= -1e-10

    def test_psd_preserved_along_depth(self):
        points = [
            (Activation.ERF, "closed", 1.2, 0.3),
            (Activation.ERF, "closed", 4.0, 0.5),
            (Activation.ERF, "closed", 0.6, 0.9),
            (Activation.RELU, "closed", 2.0, 0.0),
            (Activation.RELU, "closed", 1.2, 0.4),
            (Activation.RELU, "closed", 1.8, 0.1),
            (Activation.TANH, "quadrature", 1.5, 0.3),
            (Activation.TANH, "quadrature", 3.0, 0.5),
            (Activation.TANH, "quadrature", 0.8, 0.6),
            (Activation.TANH, "quadrature", 2.2, 0.05),
        ]
        for idx, (act, backend, sw2, sb2) in enumerate(points):
            h = Hyperparams(sw2, sb2, act)
            rep = analyze(h, backend=backend, nodes=64)
            k = ActivationKernel(act, rep.qstar, backend, nodes=64)
            X = normalize_inputs(normals(idx, (6, 16)), rep.qstar)
            kp = init_kernels(X)
            for _ in range(6):
                kp = step_fcn(kp, h, k)
                assert np.linalg.eigvalsh(kp.nngp).min() >= -1e-9
                assert np.linalg.eigvalsh(kp.ntk).min() >= -1e-9


def _fcn_start(rep):
    return init_kernels(normalize_inputs(normals(2, (3, 8)), rep.qstar))


def _cnn_start(rep):
    return init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(3, 6, 4, seed=2), rep.qstar), 1)


def _scalar_start(rep):
    return ScalarKernelState(rep.qstar, 0.2 * rep.qstar, rep.qstar, 0.2 * rep.qstar, 0)


@pytest.mark.parametrize(
    "propagate, start",
    [(propagate_fcn, _fcn_start), (propagate_cnn, _cnn_start), (propagate_scalar, _scalar_start)],
    ids=["fcn", "cnn", "scalar"],
)
def test_propagate_rejects_depth_before_state(propagate, start):
    h, rep, k = erf_setup(2.0, 0.5)
    state = propagate(start(rep), h, k, [3])[0]
    assert state.depth == 3
    with pytest.raises(ValueError):
        propagate(state, h, k, [2, 5])
    assert [s.depth for s in propagate(state, h, k, [3, 5])] == [3, 5]


class TestStepScalar:
    def test_critical_relu_diag_exact(self):
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        s = ScalarKernelState(1.0, 0.3, 0.0, 0.3, 0)
        s = propagate_scalar(s, h, k, [157])[0]
        assert s.p_diag == 157.0

    def test_matches_matrix_path_on_pair(self):
        h, rep, k = erf_setup(4.0, 0.5)
        X = normalize_inputs(normals(4, (2, 16)), rep.qstar)
        kp = init_kernels(X)
        s = ScalarKernelState(rep.qstar, kp.nngp[0, 1], rep.qstar, kp.ntk[0, 1], 0)
        for _ in range(40):
            kp = step_fcn(kp, h, k)
            s = step_scalar(s, h, k)
        assert s.q_ab == kp.nngp[0, 1]
        assert s.p_ab == kp.ntk[0, 1]
        assert s.p_diag == kp.ntk[0, 0]

    def test_ordered_offdiagonal_reaches_fixed_point(self):
        h, rep, k = erf_setup(0.5, 0.5)
        s = ScalarKernelState(rep.qstar, 0.1 * rep.qstar, 0.0, 0.1 * rep.qstar, 0)
        l_deep = round(20 * rep.xi1)
        s = propagate_scalar(s, h, k, [l_deep])[0]
        assert s.p_ab == pytest.approx(rep.pstar, rel=1e-6)

    def test_ordered_normalized_ntk_deviation_stabilizes(self):
        # chi1^{-l} l^{-1} (p_ab - pstar) has a limit: relative change under
        # 1% from l to l+10 once deep
        h, rep, k = erf_setup(1.5, 0.3)
        s = ScalarKernelState(rep.qstar, 0.2 * rep.qstar, 0.0, 0.2 * rep.qstar, 0)
        val = {}
        for l in (60, 70):
            s = propagate_scalar(s, h, k, [l])[0]
            val[l] = rep.chi1**-l / l * (s.p_ab - rep.pstar)
        assert abs(val[70] / val[60] - 1.0) < 0.01

    def test_critical_relu_gap_growth(self):
        # (p_diag - p_ab)/l approaches 3/4 on the ReLU critical line
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        s = ScalarKernelState(1.0, 0.3, 0.0, 0.3, 0)
        s = propagate_scalar(s, h, k, [2000])[0]
        assert (s.p_diag - s.p_ab) / 2000 == pytest.approx(0.75, rel=0.02)


class TestConvolutionOperator:
    def test_halfwidth_zero_is_identity(self):
        B = normals(0, (5, 5))
        np.testing.assert_array_equal(apply_A(B, 0), B)

    def test_constant_block_unchanged(self):
        B = np.full((6, 6), 2.5)
        np.testing.assert_allclose(apply_A(B, 2), B, atol=1e-15)

    def test_hand_unrolled_basis_block(self):
        B = np.zeros((4, 4))
        B[0, 0] = 1.0
        A = apply_A(B, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[3, 3] = 1 / 3
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_window_too_large(self):
        with pytest.raises(WindowError):
            apply_A(np.zeros((3, 3)), 2)

    def test_symmetry_preserved(self):
        B = normals(1, (6, 6))
        B = B + B.T
        A = apply_A(B, 1)
        np.testing.assert_allclose(A, A.T, atol=1e-15)

    def test_fourier_eigs_hand_values(self):
        np.testing.assert_allclose(fourier_eigs(4, 1), [1.0, 1 / 3, -1 / 3, 1 / 3], atol=1e-14)

    def test_fourier_eigs_trivial_window(self):
        np.testing.assert_allclose(fourier_eigs(7, 0), np.ones(7), atol=0)

    def test_fourier_leading_eigenvalue(self):
        # hw = 0 is the identity operator (every eigenvalue 1); any real
        # window strictly damps the nonzero modes
        for d in range(1, 33):
            for hw in range((d - 1) // 2 + 1):
                rho = fourier_eigs(d, hw)
                assert rho[0] == pytest.approx(1.0, abs=1e-12)
                if d > 1 and hw >= 1:
                    assert np.max(np.abs(rho[1:])) < 1.0
                elif d > 1:
                    np.testing.assert_allclose(rho, 1.0, atol=1e-12)


class TestStepCnn:
    def test_single_pixel_reduces_to_fcn(self):
        h, rep, k = erf_setup(4.0, 0.5)
        X = normalize_inputs(normals(5, (6, 20)), rep.qstar)
        kp = init_kernels(X)
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=1)
        ck = init_cnn_kernels(X[:, :, None], 0)
        for _ in range(20):
            kp = step_fcn(kp, h, k)
            ck = step_cnn(ck, hc, k)
        out = readout(ck, ReadoutMode.FLATTEN)
        np.testing.assert_allclose(out.ntk, kp.ntk, rtol=1e-12)
        np.testing.assert_allclose(out.nngp, kp.nngp, rtol=1e-12)

    def test_translation_invariant_inputs_stay_circulant(self):
        h, rep, k = erf_setup(4.0, 0.5)
        d = 6
        X = normalize_inputs_cnn(shift_register_inputs(3, d, seed=3), rep.qstar)
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=d)
        ck = init_cnn_kernels(X, 1)
        for _ in range(10):
            ck = step_cnn(ck, hc, k)
        B = ck.block(0, 1, "ntk")
        for offset in range(d):
            diag = [B[a, (a + offset) % d] for a in range(d)]
            assert np.ptp(diag) < 1e-10 * max(1.0, abs(diag[0]))

    def test_circulant_inputs_make_flatten_exactly_fcn(self):
        # the averaging operator is the identity on circulant blocks, so the
        # flattened trajectory coincides with the dense one
        h, rep, k = erf_setup(4.0, 0.5)
        d = 6
        X = normalize_inputs_cnn(shift_register_inputs(4, d, seed=3), rep.qstar)
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=d)
        ck = init_cnn_kernels(X, 1)
        kp = readout(ck, ReadoutMode.FLATTEN)
        for _ in range(10):
            ck = step_cnn(ck, hc, k)
            kp = step_fcn(kp, h, k)
        diff = np.max(np.abs(readout(ck, ReadoutMode.FLATTEN).ntk - kp.ntk))
        assert diff < 1e-13 * np.max(np.abs(kp.ntk))

    def test_subdominant_mode_decay_rate(self):
        # mode q of the entries along a diagonal offset decays per layer by
        # rho_q * chi_c in the chaotic phase
        h, rep, k = erf_setup(4.0, 0.5)
        d, hw = 6, 1
        rho1 = abs(fourier_eigs(d, hw)[1])
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=d)
        X = normalize_inputs_cnn(cnn_inputs(4, 20, d, seed=5), rep.qstar)
        ck = init_cnn_kernels(X, hw)
        amps = []
        for l in range(1, 46):
            ck = step_cnn(ck, hc, k)
            if l >= 30:
                B = ck.block(0, 1, "nngp")
                v = np.array([B[a, (a + 0) % d] for a in range(d)])
                amps.append((l, np.abs(np.fft.fft(v))[1]))
        fit = fit_rate(amps, "log_linear")
        assert math.exp(fit.slope) == pytest.approx(rho1 * rep.chi_c, rel=0.05)


class TestReadout:
    def make_idealized(self, p, p_ab, d):
        m = 2
        blocks = np.empty((3, d, d))
        diag_block = np.full((d, d), p_ab)
        np.fill_diagonal(diag_block, p)
        blocks[0] = diag_block       # pair (0, 0)
        blocks[1] = np.full((d, d), p_ab)  # pair (0, 1)
        blocks[2] = diag_block       # pair (1, 1)
        return CnnKernel(nngp=blocks.copy(), ntk=blocks.copy(), m=m,
                         spatial_size=d, filter_halfwidth=1, depth=7)

    def test_pool_formula_on_idealized_blocks(self):
        p, p_ab, d = 5.0, 2.0, 4
        ck = self.make_idealized(p, p_ab, d)
        pooled = readout(ck, ReadoutMode.POOL)
        assert pooled.ntk[0, 0] == pytest.approx((p - p_ab) / d + p_ab, rel=1e-14)
        assert pooled.ntk[0, 1] == pytest.approx(p_ab, rel=1e-14)
        assert pooled.depth == 7

    def test_flatten_keeps_diagonal_scale(self):
        p, p_ab, d = 5.0, 2.0, 4
        flat = readout(self.make_idealized(p, p_ab, d), ReadoutMode.FLATTEN)
        assert flat.ntk[0, 0] == pytest.approx(p, rel=1e-14)
        assert flat.ntk[0, 1] == pytest.approx(p_ab, rel=1e-14)

    def test_uniform_blocks_make_flatten_equal_pool(self):
        ck = self.make_idealized(3.0, 3.0, 5)
        flat = readout(ck, ReadoutMode.FLATTEN)
        pool = readout(ck, ReadoutMode.POOL)
        np.testing.assert_allclose(flat.ntk, pool.ntk, atol=1e-14)


class TestDropout:
    def setup_method(self):
        self.h, self.rep, self.k = erf_setup(2.0, 0.5)
        X = normalize_inputs(normals(3, (8, 20)), self.rep.qstar)
        self.kp = propagate_fcn(init_kernels(X), self.h, self.k, [30])[0]

    def test_keep_rate_one_is_plain_step(self):
        plain = step_fcn(self.kp, self.h, self.k)
        dropped = apply_dropout(self.kp, self.h, self.k)
        np.testing.assert_array_equal(plain.ntk, dropped.ntk)
        np.testing.assert_array_equal(plain.nngp, dropped.nngp)

    def test_offdiagonals_bit_identical(self):
        h_drop = Hyperparams(2.0, 0.5, "erf", dropout_keep=0.8)
        plain = step_fcn(self.kp, self.h, self.k)
        dropped = apply_dropout(self.kp, h_drop, self.k)
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_array_equal(dropped.ntk[off], plain.ntk[off])
        np.testing.assert_array_equal(dropped.nngp[off], plain.nngp[off])
        assert np.all(dropped.ntk[np.eye(8, dtype=bool)] > plain.ntk[np.eye(8, dtype=bool)])

    def test_diagonal_formula(self):
        rho = 0.6
        h_drop = Hyperparams(2.0, 0.5, "erf", dropout_keep=rho)
        plain = step_fcn(self.kp, self.h, self.k)
        dropped = apply_dropout(self.kp, h_drop, self.k)
        expected = plain.ntk[0, 0] / rho + (1 - 1 / rho) * 0.5
        assert dropped.ntk[0, 0] == pytest.approx(expected, rel=1e-14)
        expected_nngp = (plain.nngp[0, 0] - 0.5) / rho + 0.5
        assert dropped.nngp[0, 0] == pytest.approx(expected_nngp, rel=1e-14)

    def test_kappa_limit_formula(self):
        assert dropout_kappa_limit(10, 2.0, 0.0, 0.5) == pytest.approx(11.0)
        with pytest.raises(ValueError):
            dropout_kappa_limit(10, 2.0, 0.0, 1.0)


class TestResidualFlows:
    def test_plain_residual_exponential_laws(self):
        s0 = OdeKernelState(0.0, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU)
        st = integrate_residual(s0, 5.0, 1e-3)[-1]
        assert st.q_diag == pytest.approx(math.e**5, rel=1e-6)
        assert st.p_diag == pytest.approx(5 * math.e**5, rel=1e-6)

    def test_layernorm_unit_variance_and_linear_ntk(self):
        s0 = OdeKernelState(0.0, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        st = integrate_residual(s0, 20.0, 1e-3)[-1]
        assert st.q_diag == pytest.approx(1.0, abs=1e-10)
        assert st.p_diag == pytest.approx(20.0, rel=1e-10)

    def test_layernorm_offdiagonal_power_law(self):
        s0 = OdeKernelState(0.0, 1.0, -0.5, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        traj = integrate_residual(s0, 100.0, 2e-3, sample_every=25000)
        by_t = {round(s.t): s for s in traj}
        f = lambda t: (1 - by_t[t].q_ab) * t * t
        # cancel the 1/t approach term with two sampling times
        limit = 2 * f(100) - f(50)
        assert limit == pytest.approx(4.5 * math.pi**2, rel=0.05)
        g = lambda t: by_t[t].p_ab / t
        assert 2 * g(100) - g(50) == pytest.approx(0.25, rel=0.05)

    def test_step_size_guard(self):
        s0 = OdeKernelState(0.0, 1.0 + 5e-6, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        with pytest.raises(StepSizeError):
            integrate_residual(s0, 1.0, 0.1)


class TestCnnInit:
    def test_pixel_normalization(self):
        X = normalize_inputs_cnn(cnn_inputs(5, 12, 7, seed=9), 1.4)
        np.testing.assert_allclose(np.mean(X**2, axis=1), 1.4, atol=1e-12)

    def test_zero_pixel_raises(self):
        X = np.zeros((2, 3, 4))
        with pytest.raises(ZeroRowError):
            normalize_inputs_cnn(X, 1.0)

    def test_block_symmetry_convention(self):
        X = normalize_inputs_cnn(cnn_inputs(3, 10, 5, seed=1), 1.0)
        ck = init_cnn_kernels(X, 1)
        np.testing.assert_allclose(ck.block(0, 1), ck.block(1, 0).T, atol=0)
        np.testing.assert_allclose(np.diagonal(ck.block(2, 2)), 1.0, atol=1e-12)

    def test_blocks_and_readout_match_pair_loop(self):
        h, rep, k = erf_setup(4.0, 0.5)
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_p", spatial_size=5)
        X = normalize_inputs_cnn(cnn_inputs(4, 6, 5, seed=3), rep.qstar)
        ck = init_cnn_kernels(X, 1)
        for i in range(4):
            for j in range(i, 4):
                assert np.array_equal(ck.nngp[ck.pair_index(i, j)], X[i].T @ X[j] / 6)
        ck = step_cnn(step_cnn(ck, hc, k), hc, k)
        for mode, reduce in ((ReadoutMode.FLATTEN, lambda b: np.trace(b) / 5),
                             (ReadoutMode.POOL, np.mean)):
            out = readout(ck, mode)
            for i in range(4):
                for j in range(4):
                    assert out.nngp[i, j] == reduce(ck.nngp[ck.pair_index(i, j)])
                    assert out.ntk[i, j] == reduce(ck.ntk[ck.pair_index(i, j)])

    def test_window_validation(self):
        X = cnn_inputs(2, 4, 3, seed=0)
        with pytest.raises(WindowError):
            init_cnn_kernels(X, 2)
