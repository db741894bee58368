"""Depth recursions: dense (and its two-point pair), convolutional, dropout and residual flows."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntkphase import (
    Activation,
    ActivationKernel,
    CovarianceDomainError,
    DiagonalDriftError,
    Hyperparams,
    NonConvergenceError,
    NtkPhaseError,
    OdeKernelState,
    ReadoutMode,
    ResidualVariant,
    SweepConfig,
    SweepOutput,
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
    predict_scalar_corrections,
    predict_spectrum,
    propagate_cnn,
    propagate_fcn,
    readout,
    run_sweep,
    step_cnn,
    step_fcn,
)
from ntkphase import propagation, sweep
from ntkphase.data import cnn_inputs, normals, shift_register_inputs
from ntkphase.propagation import CnnKernel, KernelPair, blocks_to_offsets, offsets_to_blocks
from ntkphase.spectra import fit_rate
from ntkphase.sweep import _dataset, _trajectory


# a pooled readout against the block mean, which sums the same entries in another order:
# at most this times the entries' mean magnitude
FEW_ULPS = 4 * np.finfo(float).eps


def two_point(q, q_ab, p, p_ab):
    """One input pair as a 2 x 2 state of the dense recursion."""
    return KernelPair(
        nngp=np.array([[q, q_ab], [q_ab, q]]), ntk=np.array([[p, p_ab], [p_ab, p]]), depth=0
    )


def erf_setup(sw2, sb2):
    h = Hyperparams(sw2, sb2, "erf")
    rep = analyze(h)
    return h, rep, ActivationKernel(Activation.ERF, rep.qstar)


def _count_map_entries(monkeypatch):
    """Entries mapped by ``t_map`` and ``t_dot`` from now on, counted in the returned dict."""
    entries = {"t_map": 0, "t_dot": 0}
    for name in entries:
        def counted(self, q_ab, out=None, _name=name, _map=getattr(ActivationKernel, name)):
            entries[_name] += np.size(q_ab)
            return _map(self, q_ab, out)

        monkeypatch.setattr(ActivationKernel, name, counted)
    return entries


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

    @pytest.mark.parametrize("qstar", [-1.0, 0.0, math.nan, math.inf])
    def test_qstar_must_be_positive_and_finite(self, qstar):
        # -1 gave NaN rows and a RuntimeWarning
        with pytest.raises(ValueError, match="qstar must be positive and finite"):
            normalize_inputs(normals(0, (3, 4)), qstar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_raises(self, bad):
        X = normals(0, (3, 4))
        X[1, 2] = bad
        with pytest.raises(ZeroRowError):
            normalize_inputs(X, 1.0)

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
        with pytest.raises(DiagonalDriftError, match="NNGP diagonal drifted"):
            step_fcn(init_kernels(X), h, k)

    def test_nan_on_the_diagonal_is_not_pinned_to_qstar(self):
        h, rep, k = erf_setup(1.5, 0.3)
        kp = two_point(rep.qstar, 0.5 * rep.qstar, rep.qstar, 0.5 * rep.qstar)
        kp.nngp[0, 0] = math.nan
        with pytest.raises(DiagonalDriftError, match="drifted nan"):
            step_fcn(kp, h, k)

    def test_step_rejects_a_kernel_of_another_activation(self):
        # the maps come from k alone, so a relu h with an erf k stepped erf layers
        h, rep, k = erf_setup(1.5, 0.5)
        kp = init_kernels(normalize_inputs(normals(4, (3, 10)), rep.qstar))
        with pytest.raises(ValueError, match="h steps relu layers but k maps erf"):
            step_fcn(kp, Hyperparams(1.5, 0.5, "relu"), k)

    def test_step_maps_each_sample_pair_once(self, monkeypatch):
        # the dense pair is stepped by its upper triangle: m(m+1)/2 entries per map
        h, rep, k = erf_setup(1.7, 0.4)
        m = 5
        kp = init_kernels(normalize_inputs(normals(4, (m, 10)), rep.qstar))
        entries = _count_map_entries(monkeypatch)
        step_fcn(kp, h, k)
        assert entries == {"t_map": m * (m + 1) // 2, "t_dot": m * (m + 1) // 2}

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    def test_step_and_propagate_are_exactly_symmetric(self, activation):
        h = Hyperparams(1.5, 0.3, activation)
        k = ActivationKernel(activation, analyze(h).qstar)
        kp0 = init_kernels(normalize_inputs(normals(7, (6, 9)), k.qstar))
        for kp in [step_fcn(kp0, h, k), *propagate_fcn(kp0, h, k, [1, 4])]:
            np.testing.assert_array_equal(kp.nngp, kp.nngp.T)
            np.testing.assert_array_equal(kp.ntk, kp.ntk.T)

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


def _pair_start(rep):
    return two_point(rep.qstar, 0.2 * rep.qstar, rep.qstar, 0.2 * rep.qstar)


@pytest.mark.parametrize(
    "propagate, start",
    [(propagate_fcn, _fcn_start), (propagate_cnn, _cnn_start), (propagate_fcn, _pair_start)],
    ids=["fcn", "cnn", "scalar"],
)
def test_propagate_rejects_depth_before_state(propagate, start):
    h, rep, k = erf_setup(2.0, 0.5)
    state = next(iter(propagate(start(rep), h, k, [3])))
    assert state.depth == 3
    with pytest.raises(ValueError):
        propagate(state, h, k, [2, 5])
    assert [s.depth for s in propagate(state, h, k, [3, 5])] == [3, 5]


@pytest.mark.parametrize("depths", [[4, 2], [2, 2]])
@pytest.mark.parametrize(
    "propagate, start", [(propagate_fcn, _fcn_start), (propagate_cnn, _cnn_start)],
    ids=["fcn", "cnn"],
)
def test_propagate_rejects_depths_that_do_not_strictly_increase(propagate, start, depths):
    # the depths are taken in the order given, never sorted or deduplicated
    h, rep, k = erf_setup(2.0, 0.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        propagate(start(rep), h, k, depths)


class TestStepScalar:
    """The two-point recursion: entry [0, 0] is the diagonal, [0, 1] the pair."""

    def test_critical_relu_diag_exact(self):
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        s = propagate_fcn(two_point(1.0, 0.3, 0.0, 0.3), h, k, [157])[0]
        assert s.ntk[0, 0] == 157.0

    def test_ordered_offdiagonal_reaches_fixed_point(self):
        h, rep, k = erf_setup(0.5, 0.5)
        s = two_point(rep.qstar, 0.1 * rep.qstar, 0.0, 0.1 * rep.qstar)
        l_deep = round(20 * rep.xi1)
        s = propagate_fcn(s, h, k, [l_deep])[0]
        assert s.ntk[0, 1] == pytest.approx(rep.pstar, rel=1e-6)

    def test_ordered_normalized_ntk_deviation_stabilizes(self):
        # Ordered phase: p_ab - pstar = chi1^l (delta0 + l*A) + O(chi1^{2l}),
        # so val[l] = chi1^{-l} l^{-1} (p_ab - pstar) = A + delta0/l tends to
        # A only at rate 1/l.  For this start A = -1.834149, delta0 = +9.758:
        # the 60 -> 70 change is 1.378%, and a change under 1% from l to
        # l+10 holds only from l = 71 on.  So the test removes the 1/l term,
        # (70 val[70] - 60 val[60]) / 10 = A, and checks that limit against
        # the ordered-phase law of predict_scalar_corrections,
        # A = zeta (1 + chi1_2 pstar / chi1), zeta = lim chi1^{-l} (q_ab - q*)
        # (c* = 1, so the off-diagonal NNGP fixed point is q*).
        h, rep, k = erf_setup(1.5, 0.3)
        s = two_point(rep.qstar, 0.2 * rep.qstar, 0.0, 0.2 * rep.qstar)
        val = {}
        for l in (60, 70):
            s = propagate_fcn(s, h, k, [l])[0]
            val[l] = rep.chi1**-l / l * (s.ntk[0, 1] - rep.pstar)
        # frozen values of an independent 80-digit recursion (closed-form
        # erf arcsine maps T(q) = (2/pi) asin(2q/(1+2q*)) and its derivative,
        # q* the root of q = 1.5 (2/pi) asin(2q/(1+2q)) + 0.3 at the same
        # precision)
        assert val[60] == pytest.approx(-1.67175458104620, rel=1e-6)
        assert val[70] == pytest.approx(-1.69479636322573, rel=1e-6)
        zeta = rep.chi1**-70 * (s.nngp[0, 1] - rep.qstar)
        _, delta_ab, _ = predict_scalar_corrections(rep, 70, eps0=zeta, delta0=0.0)
        a_pred = delta_ab / (70 * rep.chi1**70)
        a_limit = (70 * val[70] - 60 * val[60]) / 10
        assert a_limit == pytest.approx(a_pred, rel=0.01)

    def test_critical_relu_gap_growth(self):
        # (p_diag - p_ab)/l approaches 3/4 on the ReLU critical line
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        s = propagate_fcn(two_point(1.0, 0.3, 0.0, 0.3), h, k, [2000])[0]
        assert (s.ntk[0, 0] - s.ntk[0, 1]) / 2000 == pytest.approx(0.75, rel=0.02)

    def test_critical_relu_laws_match_the_recursion(self):
        # the report alone selects the kinked correction law (chi1_2 = inf):
        # the smooth law would give eps = 0 and p_ab = l q*/3 = 667 against 504
        h = Hyperparams(2.0, 0.0, "relu")
        rep = analyze(h)
        k = ActivationKernel(Activation.RELU, rep.qstar)
        s = propagate_fcn(two_point(1.0, 0.3, 1.0, 0.3), h, k, [2000])[0]
        l = paper_layer(2000)
        eps, delta, p = predict_scalar_corrections(rep, l)
        assert s.nngp[0, 1] - rep.qstar == pytest.approx(eps, rel=0.03)  # measured 0.984
        assert s.ntk[0, 1] == pytest.approx(p + delta, rel=0.02)  # measured 1.008
        # m inputs with every pair at correlation c: two NNGP eigenvalues,
        # kappa = (1 + (m-1)c) / (1 - c)
        m, c = 12, s.nngp[0, 1] / rep.qstar
        kappa = predict_spectrum(rep, h, m, l, "nngp").kappa
        assert (1 + (m - 1) * c) / (1 - c) == pytest.approx(kappa, rel=0.03)  # measured 1.016

    def test_chaotic_corrections_match_the_recursion(self):
        # chaotic law: eps_l = zeta chi_c^l, chi_c^{-l} delta_l = delta0 + l A,
        # A = zeta (1 + chi_c_2 pab* / chi_c); zeta read off the recursion at depth 40
        h, rep, k = erf_setup(4.0, 0.5)
        s0 = two_point(rep.qstar, 0.2 * rep.qstar, rep.qstar, 0.2 * rep.qstar)
        states = {s.depth: s for s in propagate_fcn(s0, h, k, [30, 40, 50])}
        eps = {l: s.nngp[0, 1] - rep.cstar * rep.qstar for l, s in states.items()}
        zeta = rep.chi_c**-40 * eps[40]
        for l in (30, 50):  # measured 6.6e-4 and 8e-5
            assert predict_scalar_corrections(rep, l, eps0=zeta)[0] == pytest.approx(
                eps[l], rel=2e-3)
        scaled = {l: rep.chi_c**-l * (states[l].ntk[0, 1] - rep.pabstar) for l in (30, 40)}
        _, delta, _ = predict_scalar_corrections(rep, 40, eps0=zeta, delta0=0.0)
        a_pred = delta / (40 * rep.chi_c**40)
        assert (scaled[40] - scaled[30]) / 10 == pytest.approx(a_pred, rel=0.02)  # off 0.43%


def apply_A_block(B, halfwidth):
    """The diagonal-averaging operator on d x d blocks, through the offset layout."""
    return offsets_to_blocks(apply_A(blocks_to_offsets(B), halfwidth))


class TestConvolutionOperator:
    def test_halfwidth_zero_is_identity(self):
        B = normals(0, (5, 5))
        np.testing.assert_array_equal(apply_A_block(B, 0), B)

    def test_halfwidth_zero_is_a_copy(self):
        K = normals(3, (4, 5, 5))
        out = np.full_like(K, np.nan)
        assert apply_A(K, 0, out=out) is out
        fresh = apply_A(K, 0)
        for res in (out, fresh):
            np.testing.assert_array_equal(res, K)
            assert not np.shares_memory(res, K)

    def test_constant_block_unchanged(self):
        B = np.full((6, 6), 2.5)
        np.testing.assert_allclose(apply_A_block(B, 2), B, atol=1e-15)

    def test_hand_unrolled_basis_block(self):
        B = np.zeros((4, 4))
        B[0, 0] = 1.0
        A = apply_A_block(B, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[3, 3] = 1 / 3
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_window_too_large(self):
        with pytest.raises(WindowError):
            apply_A(blocks_to_offsets(np.zeros((3, 3))), 2)

    def test_negative_halfwidth_raises(self):
        # a window of 2k + 1 = -1 pixels would divide the sum by -1: apply_A returned -K
        with pytest.raises(WindowError, match="negative"):
            apply_A(blocks_to_offsets(normals(1, (6, 6))), -1)

    def test_symmetry_preserved(self):
        B = normals(1, (6, 6))
        B = B + B.T
        A = apply_A_block(B, 1)
        np.testing.assert_allclose(A, A.T, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 3, 5, 8, 32])
    @pytest.mark.parametrize("layout", ["every_offset", "offset_0"])
    def test_matches_roll_reference_bit_for_bit(self, d, layout):
        K = normals(d, (4, d if layout == "every_offset" else 1, d))
        for hw in range((d - 1) // 2 + 1):
            ref = K.copy()
            for beta in range(1, hw + 1):  # same summation order: each +-beta pair, then the sum
                ref = ref + (np.roll(K, -beta, axis=-1) + np.roll(K, beta, axis=-1))
            ref = ref * (1.0 / (2 * hw + 1))
            np.testing.assert_array_equal(apply_A(K, hw), ref)
            out = np.full_like(K, np.nan)
            assert apply_A(K, hw, out=out) is out
            np.testing.assert_array_equal(out, ref)

    def test_out_must_be_contiguous_and_shaped(self):
        K = normals(2, (3, 6, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_A(K, 1, out=np.empty((3, 6, 12))[..., ::2])
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_A(K, 1, out=np.empty((3, 6, 5)))

    def test_out_must_hold_floats(self):
        # a float32 out took the window sums rounded to single precision, up to 1.1e-7 off
        K = normals(2, (3, 6, 6))
        out = np.zeros(K.shape, dtype=np.float32)
        with pytest.raises(ValueError, match="float array"):
            apply_A(K, 1, out=out)
        assert not out.any()

    @pytest.mark.parametrize("overlap", ["same", "shifted_view"])
    def test_out_must_not_overlap_K(self, overlap):
        buf = normals(2, (4, 4, 8))
        before = buf.copy()
        K, out = (buf, buf) if overlap == "same" else (buf[:3], buf[1:])
        with pytest.raises(ValueError, match="not overlapping K"):
            apply_A(K, 2, out=out)
        np.testing.assert_array_equal(buf, before)

    def test_fourier_eigs_hand_values(self):
        np.testing.assert_allclose(fourier_eigs(4, 1), [1.0, 1 / 3, -1 / 3, 1 / 3], atol=1e-14)

    def test_fourier_eigs_trivial_window(self):
        np.testing.assert_allclose(fourier_eigs(7, 0), np.ones(7), atol=0)

    def test_fourier_eigs_rejects_a_negative_halfwidth(self):
        with pytest.raises(WindowError, match="negative"):  # was all zeros
            fourier_eigs(6, -1)

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


class TestOnePassStep:
    """``step_cnn`` makes one pass over the state it is handed; the runs of a trajectory are
    planned once, by ``_pair_runs``."""

    @staticmethod
    def state(activation, architecture, m=5, d=6, hw=1):
        h = Hyperparams(1.5, 0.5, activation, architecture=architecture, spatial_size=d)
        k = ActivationKernel(h.activation, analyze(h).qstar)
        ck = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(m, 4, d, seed=m + d), k.qstar), hw)
        if architecture == "cnn_f":
            ck = replace(ck, nngp=ck.nngp[:, :1].copy(), ntk=ck.ntk[:, :1].copy())
        return h, k, ck

    def test_runs_cover_whole_pairs(self, monkeypatch):
        for tile_entries in (1, 2, 7, 36, 2**16):
            monkeypatch.setattr(propagation, "_TILE_ENTRIES", tile_entries)
            for n_pairs in (1, 2, 15, 21):
                for pair_size in (1, 2, 6, 36):
                    runs = propagation._pair_runs(n_pairs, pair_size)
                    assert [r.start for r in runs] == [0] + [r.stop for r in runs[:-1]]
                    assert runs[-1].stop == n_pairs
                    sizes = [(r.stop - r.start) * pair_size for r in runs]
                    assert min(sizes) >= 1
                    assert max(sizes) <= max(tile_entries, pair_size)

    def test_a_run_s_pixel_variance_rows_count_from_its_first_pair(self):
        # runs that start past pair 0, within and across rows: the rows of the
        # (i, i) pairs are counted from the run's first pair
        for m in (1, 2, 5, 6):
            i, j = np.triu_indices(m)
            for first in range(len(i)):
                for stop in range(first, len(i) + 1):
                    rows = propagation._diagonal_rows(m, first, stop - first)
                    assert list(rows) == [p - first for p in range(first, stop) if i[p] == j[p]]
                    with pytest.raises(ValueError, match="read-only"):  # shared by every step
                        rows[...] = 0

    def test_the_cached_pair_order_is_read_only(self):
        # every step and readout of m samples shares one table: a write to it would
        # move later pins and readouts
        for table in propagation._pair_order(4):
            assert table.size
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_the_runs_follow_the_tile_size(self, monkeypatch):
        # a trajectory maps each run once per step, so the map calls count the runs
        h = Hyperparams(1.5, 0.5, "erf", architecture="cnn_p", spatial_size=6)
        k = ActivationKernel(Activation.ERF, analyze(h).qstar)
        X = cnn_inputs(5, 4, 6, seed=11)  # 15 pairs of 36 entries
        calls = []
        t_map = ActivationKernel.t_map

        def counted(self, q_ab, out=None):
            calls.append(len(q_ab))
            return t_map(self, q_ab, out)

        monkeypatch.setattr(ActivationKernel, "t_map", counted)
        for tile_entries, runs in ((2**16, 1), (1, 15), (4 * 36, 4), (2**16, 1)):
            monkeypatch.setattr(propagation, "_TILE_ENTRIES", tile_entries)
            calls.clear()
            _trajectory(h, k.qstar, X, [1], 1)
            assert len(calls) == runs and sum(calls) == 15  # runs of whole pairs, every pair once

    def test_step_leaves_its_input_unchanged(self):
        h, k, ck = self.state("erf", "cnn_p")
        before = (ck.nngp.copy(), ck.ntk.copy())
        step_cnn(ck, h, k)
        np.testing.assert_array_equal(ck.nngp, before[0])
        np.testing.assert_array_equal(ck.ntk, before[1])

    def test_overshoot_quotes_the_state_s_maximum(self):
        h, k, ck = self.state("erf", "cnn_p")
        nngp = ck.nngp.copy()
        nngp[0, 1, 0] = 1.1 * k.qstar
        nngp[-1, 1, 0] = 1.3 * k.qstar  # the larger one in the last pair
        with pytest.raises(CovarianceDomainError, match=f"up to {1.3 * k.qstar:.6g} "):
            step_cnn(replace(ck, nngp=nngp), h, k)

    def test_drift_quotes_the_largest_drift(self):
        h, k, ck = self.state("erf", "cnn_p")
        nngp = ck.nngp.copy()
        nngp[0, 0] *= 0.999  # pair (0, 0), the first pair
        nngp[-1, 0] *= 0.99  # pair (m-1, m-1), the last pair, drifts further
        drifted = replace(ck, nngp=nngp)
        ref = h.sigma_w2 * apply_A(k.t_map(nngp), ck.filter_halfwidth) + h.sigma_b2
        first, last = (np.max(np.abs(ref[p, 0] - k.qstar)) for p in (0, -1))
        assert last > first > 1e-8
        with pytest.raises(DiagonalDriftError, match=f"drifted {last:.3e} from"):
            step_cnn(drifted, h, k)

    @pytest.mark.parametrize("failure", ["domain", "drift"])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_a_failing_step_writes_nothing(self, failure, in_place):
        h, k, ck = self.state("erf", "cnn_p")
        ck = step_cnn(ck, h, k)  # an NTK apart from the NNGP
        if failure == "domain":
            ck.nngp[-1, 1, 0] = 1.3 * k.qstar
        else:
            ck.nngp[-1, 0] *= 0.99
        out = (ck.nngp, ck.ntk) if in_place else (np.full_like(ck.nngp, 7.0),
                                                   np.full_like(ck.nngp, 7.0))
        before = [a.copy() for a in (ck.nngp, ck.ntk, *out)]
        with pytest.raises((CovarianceDomainError, DiagonalDriftError)):
            step_cnn(ck, h, k, out=out)
        for a, b in zip((ck.nngp, ck.ntk, *out), before):
            np.testing.assert_array_equal(a, b)


def _full_steps(ck, h, k, depth):
    """The states at depths 0..depth of a plain ``step_cnn`` loop from ``ck`` at depth 0."""
    states = [ck]
    while states[-1].depth < depth:
        states.append(step_cnn(states[-1], h, k))
    return states


def _freeze_depth(states):
    """The first depth whose NNGP equals the one before it, bit for bit."""
    return next(d for d in range(1, len(states)) if np.array_equal(states[d].nngp, states[d - 1].nngp))


def _never_fixed(monkeypatch):
    """From now on every step reports a moved NNGP, so the walk takes full steps only."""
    step = propagation.step_cnn
    monkeypatch.setattr(propagation, "step_cnn",
                        lambda *args, **kwargs: replace(step(*args, **kwargs), nngp_fixed=False))


class TestFrozenWalk:
    """Once a step returns the NNGP bit for bit, the walk steps the NTK alone."""

    @pytest.mark.parametrize("changed", [None, 0, -1])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_the_step_flags_a_one_ulp_change_in_any_pair(self, changed, in_place):
        h, k, ck0, _ = TestReusedBuffers.case("frozen")
        loop = _full_steps(ck0, h, k, 200)
        freeze = _freeze_depth(loop)
        assert [ck.nngp_fixed for ck in loop] == [d >= freeze for d in range(201)]
        nngp = loop[freeze].nngp.copy()  # a step returns it bit for bit
        assert len(nngp) == 6
        if changed is not None:  # one entry of the first or the last pair, by one ulp
            nngp[changed, 1, 2] = np.nextafter(nngp[changed, 1, 2], np.inf)
        ck = replace(loop[freeze], nngp=nngp.copy(), ntk=loop[freeze].ntk.copy())
        new = step_cnn(ck, h, k, out=(ck.nngp, ck.ntk) if in_place else None)
        assert new.nngp_fixed is (changed is None)
        assert new.nngp_fixed == np.array_equal(new.nngp, nngp)

    def test_no_map_runs_after_the_freeze(self, monkeypatch):
        h, rep, k = erf_setup(0.5, 0.05)
        m = 5
        pairs = m * (m + 1) // 2
        kp0 = init_kernels(normalize_inputs(normals(4, (m, 10)), rep.qstar))
        loop = _full_steps(propagation._as_pairs(kp0), h, k, 512)
        freeze = _freeze_depth(loop)
        assert 1 < freeze < 500
        assert not np.array_equal(loop[freeze + 1].ntk, loop[freeze].ntk)  # the NTK still moves
        entries = _count_map_entries(monkeypatch)
        depths = [freeze - 1, freeze, freeze + 1, 512]
        states = propagate_fcn(kp0, h, k, depths)
        # full steps to the freeze, then one T_dot of the whole fixed NNGP
        assert entries == {"t_map": freeze * pairs, "t_dot": (freeze + 1) * pairs}
        for kp, depth in zip(states, depths):
            ref = readout(loop[depth], ReadoutMode.FLATTEN)
            assert kp.depth == depth
            np.testing.assert_array_equal(kp.nngp, ref.nngp)
            np.testing.assert_array_equal(kp.ntk, ref.ntk)

    def test_frozen_pool_steps_match_full_steps_pair_by_pair(self):
        # every offset, window 3; the chaotic fixed point holds q* on the pixel
        # diagonal and a smaller covariance elsewhere, so an entry stepped with
        # another entry's T_dot would show
        h = Hyperparams(4.0, 0.5, "erf", architecture="cnn_p", spatial_size=6)
        k = ActivationKernel(Activation.ERF, analyze(h).qstar)
        ck0 = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(3, 4, 6, seed=1), k.qstar), 1)
        loop = _full_steps(ck0, h, k, 200)
        freeze = _freeze_depth(loop)
        assert freeze < 190
        assert np.ptp(loop[freeze].nngp) > 0.1 * k.qstar
        depths = [freeze, freeze + 1, 200]
        for ck, depth in zip(propagate_cnn(ck0, h, k, depths), depths):
            assert ck.depth == depth
            np.testing.assert_array_equal(ck.nngp, loop[depth].nngp)
            np.testing.assert_array_equal(ck.ntk, loop[depth].ntk)

    def test_a_cnn_trajectory_finds_the_freeze_once(self, monkeypatch):
        # one walk over every depth: after the freeze each further depth costs
        # frozen steps only, however many requested depths lie past it
        h = Hyperparams(4.0, 0.5, "erf", architecture="cnn_p", spatial_size=6)
        k = ActivationKernel(Activation.ERF, analyze(h).qstar)
        X = cnn_inputs(3, 4, 6, seed=1)
        freeze = _freeze_depth(_full_steps(init_cnn_kernels(normalize_inputs_cnn(X, k.qstar), 1),
                                           h, k, 200))
        assert 1 < freeze < 190
        depths = [freeze - 1, freeze + 2, freeze + 5, 200]
        stepped = []

        def counted(ck, *args, **kwargs):
            stepped.append(ck.depth)
            return step_cnn(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", counted)
        pairs = _trajectory(h, k.qstar, X, depths, 1)
        assert stepped == list(range(freeze))  # the step to `freeze` returns the NNGP unchanged
        _never_fixed(monkeypatch)
        full = _trajectory(h, k.qstar, X, depths, 1)
        assert len(stepped) == freeze + 200
        for a, b in zip(pairs, full, strict=True):
            assert a.depth == b.depth
            np.testing.assert_array_equal(a.nngp, b.nngp)
            np.testing.assert_array_equal(a.ntk, b.ntk)

    def test_propagate_cnn_steps_only_when_asked(self, monkeypatch):
        # the depths are still checked at the call, before any state is asked
        # for: see the two test_propagate_rejects_* tests
        h, rep, k = erf_setup(2.0, 0.5)

        def first_step_only(ck, *args, **kwargs):
            assert ck.depth == 0, f"stepped on from depth {ck.depth}"
            return step_cnn(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", first_step_only)
        assert next(propagate_cnn(_cnn_start(rep), h, k, [1, 10**6])).depth == 1

    def test_a_longer_cnn_trajectory_holds_no_further_state(self):
        # the walk holds its own state and the consumer none, so stepping on to
        # further depths does not raise the one-depth run's peak by a state
        h = Hyperparams(1.0, 0.5, "erf", architecture="cnn_p", spatial_size=16)
        qstar = analyze(h).qstar
        X = cnn_inputs(16, 4, 16, seed=0)
        start = init_cnn_kernels(normalize_inputs_cnn(X, qstar), 1)
        state_bytes = start.nngp.nbytes + start.ntk.nbytes  # 136 pairs x 16 x 16, twice
        del start
        peaks = {}
        for depths in [(1,), (1, 2, 4, 8)]:
            _trajectory(h, qstar, X, depths, 1)  # first-call allocations out of the way
            tracemalloc.start()
            try:
                _trajectory(h, qstar, X, depths, 1)
                peaks[depths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[(1, 2, 4, 8)] - peaks[(1,)] < state_bytes / 4, (peaks, state_bytes)

    @pytest.mark.parametrize("samples", [24, 40])
    def test_a_multi_run_cnn_trajectory_peaks_at_a_few_runs(self, samples):
        # the trajectory walks one run of pairs through every depth before it
        # forms the next: the run's NNGP and NTK and the step's two run-sized
        # buffers, whatever the number of pairs (300 and 820 here)
        h = Hyperparams(1.0, 0.5, "erf", architecture="cnn_p", spatial_size=32)
        qstar = analyze(h).qstar
        X = cnn_inputs(samples, 4, 32, seed=0)
        runs = propagation._pair_runs(samples * (samples + 1) // 2, 32 * 32)
        assert len(runs) >= 5
        run_bytes = (runs[0].stop - runs[0].start) * 32 * 32 * 8  # 64 pairs x 32 x 32
        depths = (1, 2, 4, 8)
        _trajectory(h, qstar, X, depths, 1)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            _trajectory(h, qstar, X, depths, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * run_bytes, (peak, run_bytes)

    def test_the_walk_stops_at_a_repeated_state(self, monkeypatch):
        # the ordered point of the fcn_erf_sweep benchmark at seed 1: the NNGP
        # comes back bit for bit from depth 59 and the whole state from 66
        X, _ = _dataset(SweepConfig(activation="erf", m=128, n=32, n_features=32, seed=1))
        h = Hyperparams(0.5, 0.05, "erf")
        qstar = analyze(h).qstar
        depths = [2**i for i in range(10)]
        steps = []
        step, frozen_step = propagation.step_cnn, propagation._frozen_step

        def spy(ck, *args, **kwargs):
            steps.append(("full", ck.depth))
            return step(ck, *args, **kwargs)

        def frozen_spy(ck, *args, **kwargs):
            steps.append(("frozen", ck.depth))
            return frozen_step(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", spy)
        monkeypatch.setattr(propagation, "_frozen_step", frozen_spy)
        pairs = _trajectory(h, qstar, X, depths, 1, 128, test_rows=True)
        assert steps == [("full", d) for d in range(59)] + [("frozen", d) for d in range(59, 66)]
        steps.clear()
        _never_fixed(monkeypatch)
        full = _trajectory(h, qstar, X, depths, 1, 128, test_rows=True)
        assert steps == [("full", d) for d in range(512)]
        for a, b in zip(pairs, full, strict=True):
            assert a.depth == b.depth
            np.testing.assert_array_equal(a.nngp, b.nngp)
            np.testing.assert_array_equal(a.ntk, b.ntk)

    def test_a_repeated_state_is_emitted_at_each_deeper_depth(self):
        h, rep, k = erf_setup(0.5, 0.05)
        kp0 = init_kernels(normalize_inputs(normals(4, (5, 10)), rep.qstar))
        loop = _full_steps(propagation._as_pairs(kp0), h, k, 300)
        repeat = next(d for d in range(1, 300) if np.array_equal(loop[d].ntk, loop[d - 1].ntk)
                      and np.array_equal(loop[d].nngp, loop[d - 1].nngp))
        depths = [repeat - 1, repeat, repeat + 1, repeat + 7, 300]
        # emit keeps the walk's own state, which a further step would overwrite
        emitted = list(propagate_cnn(propagation._as_pairs(kp0), h, k, depths, emit=lambda ck: ck))
        assert [ck.depth for ck in emitted] == depths
        assert emitted[-1].ntk is emitted[2].ntk  # handed out again, not stepped
        for ck in emitted[1:]:
            np.testing.assert_array_equal(ck.nngp, loop[ck.depth].nngp)
            np.testing.assert_array_equal(ck.ntk, loop[ck.depth].ntk)

    @pytest.mark.parametrize("architecture, activation, run_pairs", [
        *(pytest.param(arch, act, None, id=f"{arch}-{act}")
          for arch in ("fcn", "cnn_f") for act in ("erf", "relu", "tanh")),
        pytest.param("cnn_p", "erf", 32, id="cnn_p-erf-runs"),  # 174 kept pairs in 6 runs
    ])
    def test_forced_full_steps_write_the_same_bytes(
        self, monkeypatch, tmp_path, architecture, activation, run_pairs
    ):
        cfg = SweepConfig(activation=activation, architecture=architecture,
                          outputs=tuple(SweepOutput))
        if run_pairs:
            monkeypatch.setattr(propagation, "_TILE_ENTRIES", run_pairs * cfg.spatial_size**2)
        steps = []  # (kind, depth stepped from)
        step, frozen_step = propagation.step_cnn, propagation._frozen_step

        def counted(ck, *args, **kwargs):
            steps.append(("full", ck.depth))
            return step(ck, *args, **kwargs)

        def frozen_counted(ck, *args):
            steps.append(("frozen", ck.depth))
            return frozen_step(ck, *args)

        monkeypatch.setattr(propagation, "step_cnn", counted)
        monkeypatch.setattr(propagation, "_frozen_step", frozen_counted)
        frozen = run_sweep(cfg, tmp_path / "frozen", formats=("csv", "json"))
        stopped = len(steps)
        # the default depths reach past the freeze; each walk freezes where a
        # full step is followed by a frozen one
        freezes = {d for (a, _), (b, d) in zip(steps, steps[1:]) if (a, b) == ("full", "frozen")}
        assert freezes
        if run_pairs:  # the runs of some grid point freeze at different depths
            assert len(freezes) > len(cfg.sigma_w2_grid)
        steps.clear()
        _never_fixed(monkeypatch)
        full = run_sweep(cfg, tmp_path / "full", formats=("csv", "json"))
        assert all(kind == "full" for kind, _ in steps)
        assert stopped < len(steps)  # and past the repeat, where the walk stops stepping
        assert frozen.n_point_errors == full.n_point_errors
        assert [p.name for p in frozen.paths] == [p.name for p in full.paths]
        for a, b in zip(frozen.paths, full.paths):
            assert a.read_bytes() == b.read_bytes(), a.name


# the kernel trajectories of the benchmark workloads (perfbench/workloads.py) at seed 1, one
# grid point each: (SweepConfig fields, sigma_w2, sigma_b2, test_rows)
_POOL = dict(activation="erf", architecture="cnn_p", depths=(1, 2, 4, 8, 16, 32, 64), m=24, n=8,
             spatial_size=32, n_features=16)
_WORKLOAD_TRAJECTORIES = {
    "fcn_erf_sweep": (dict(activation="erf", m=128, n=32), 1.5, 0.05, True),
    "tanh_cnn_flatten": (dict(activation="tanh", architecture="cnn_f", depths=(1, 2), m=6, n=2,
                              spatial_size=8, n_features=8), 4.0, 0.5, True),
    "erf_cnn_pool": (_POOL, 1.0, 0.5, True),
    "erf_cnn_pool-train_rows": (_POOL, 4.0, 0.5, False),
}


class TestRunWalk:
    """A trajectory walks one run of pairs through every depth before it forms the next."""

    @staticmethod
    def failing_start(architecture, qstar):
        """(raw inputs, whole depth-0 state) of 7 samples: 28 pairs, (i, i) at 0, 7, 13, 18, 22,
        25 and 27."""
        if architecture == "fcn":
            X = normals(3, (7, 5))
            nngp = init_kernels(normalize_inputs(X, qstar)).nngp
            np.fill_diagonal(nngp, qstar)
            return X, propagation._as_pairs(KernelPair(nngp, nngp, 0))
        X = cnn_inputs(7, 5, 6, seed=3)
        nngp = TestCnnInit.whole_start(X, qstar, None, False, True)
        return X, CnnKernel(nngp, nngp, 7, 1, 0)

    @pytest.mark.parametrize("failure", ["domain", "drift"])
    @pytest.mark.parametrize("architecture", ["fcn", "cnn_p"])
    def test_a_failing_run_raises_the_whole_state_walk_s_error(
        self, monkeypatch, architecture, failure
    ):
        # run 0 fails at depth 5 and runs 1 and 3 at depth 3: the runs meet
        # run 0's failure first, yet the error is the whole state's, from
        # depth 3, quoting the larger of runs 1 and 3 (the state's maximum)
        d = 1 if architecture == "fcn" else 6
        h = Hyperparams(1.5, 0.5, "erf", architecture=architecture, spatial_size=d)
        k = ActivationKernel(Activation.ERF, analyze(h).qstar)
        X, start = self.failing_start(architecture, k.qstar)
        monkeypatch.setattr(propagation, "_TILE_ENTRIES", 4 * d * d)  # runs of 4 pairs
        # pair -> (depth, entry set to factor * q* before the step from it): an
        # off-diagonal pair's offset 1 (an FCN pair's one entry) past the
        # domain, or a pixel variance moved
        faults = {"domain": {1: (5, 1.1), 5: (3, 1.2), 14: (3, 1.3)},
                  "drift": {0: (5, 0.999), 7: (3, 0.998), 13: (3, 0.99)}}[failure]
        offset = 1 if failure == "domain" and d > 1 else 0
        faulted = []  # (first pair of the walk's state, depth)
        step = propagation.step_cnn

        def faulty(ck, *args, **kwargs):
            for pair, (depth, factor) in faults.items():
                row = pair - ck.first_pair
                if ck.depth == depth and 0 <= row < len(ck.nngp):
                    ck.nngp[row, offset, 0] = factor * k.qstar
                    faulted.append((ck.first_pair, depth))
            return step(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", faulty)
        with pytest.raises(NtkPhaseError) as whole:  # one walk of the whole state
            list(propagate_cnn(start, h, k, [1, 8], own_start=True))
        assert faulted == [(0, 3), (0, 3)]
        faulted.clear()
        with pytest.raises(NtkPhaseError) as runs:
            _trajectory(h, k.qstar, X, [1, 8], 1)
        assert faulted == [(0, 5), (0, 3), (0, 3)]  # run 0 failed, then the whole state
        assert type(runs.value) is type(whole.value)
        assert str(runs.value) == str(whole.value)
        if failure == "domain":
            assert f"up to {1.3 * k.qstar:.6g} " in str(whole.value)

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    @pytest.mark.parametrize("architecture", ["fcn", "cnn_f", "cnn_p"])
    def test_one_pair_per_run_writes_the_same_bytes(
        self, monkeypatch, tmp_path, activation, architecture
    ):
        # the default grid and depths: runs that freeze and repeat at an ordered
        # point, near-critical and chaotic points, relu's error rows; on 4
        # samples (7 kept CNN pairs, 10 FCN pairs), so that one pair per run
        # makes few walks
        cfg = SweepConfig(activation=activation, architecture=architecture, m=2, n=2,
                          outputs=tuple(SweepOutput))
        whole = run_sweep(cfg, tmp_path / "whole", formats=("csv", "json"))
        monkeypatch.setattr(propagation, "_TILE_ENTRIES", 1)
        runs = run_sweep(cfg, tmp_path / "runs", formats=("csv", "json"))
        assert whole.n_point_errors == runs.n_point_errors
        assert [p.name for p in whole.paths] == [p.name for p in runs.paths]
        for a, b in zip(whole.paths, runs.paths):
            assert a.read_bytes() == b.read_bytes(), a.name

    @pytest.mark.parametrize("activation, sigma_w2, sigma_b2", [
        ("erf", 0.5, 0.05), ("relu", 1.0, 0.5), ("tanh", 0.5, 0.05),
    ])
    def test_propagate_fcn_writes_the_same_bits_at_one_pair_per_run(
        self, monkeypatch, activation, sigma_w2, sigma_b2
    ):
        # ordered points, where the state freezes and then repeats before depth 90
        h = Hyperparams(sigma_w2, sigma_b2, activation)
        k = ActivationKernel(h.activation, analyze(h).qstar)
        start = init_kernels(normalize_inputs(normals(4, (6, 10)), k.qstar)).nngp  # 21 pairs
        np.fill_diagonal(start, k.qstar)
        depths = [1, 2, 30, 60, 90, 128]
        repeats = []  # what each frozen step returned
        frozen_step = propagation._frozen_step
        monkeypatch.setattr(propagation, "_frozen_step",
                            lambda *args: repeats.append(frozen_step(*args)) or repeats[-1])
        whole = propagate_fcn(KernelPair(start, start, 0), h, k, depths)
        assert repeats.count(True) == 1  # one walk, which froze and repeated
        repeats.clear()
        monkeypatch.setattr(propagation, "_TILE_ENTRIES", 1)
        runs = propagate_fcn(KernelPair(start, start, 0), h, k, depths)
        assert repeats.count(True) == 21  # every run froze and repeated on its own
        for a, b in zip(whole, runs, strict=True):
            assert a.depth == b.depth
            np.testing.assert_array_equal(a.nngp, b.nngp)
            np.testing.assert_array_equal(a.ntk, b.ntk)

    @pytest.mark.parametrize("trajectory", [
        *(f"default-{arch}-{act}" for arch in ("fcn", "cnn_f", "cnn_p")
          for act in ("erf", "relu", "tanh")),
        *_WORKLOAD_TRAJECTORIES,
        "propagate_fcn-m400",  # 80 200 pairs, two runs
    ])
    def test_no_library_step_holds_more_than_a_run(self, monkeypatch, tmp_path, trajectory):
        # only the whole-state walk after a failing run may, and none of these fails
        sizes = []
        step = propagation.step_cnn

        def spy(ck, *args, **kwargs):
            sizes.append(ck.nngp.size)
            return step(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", spy)
        if trajectory.startswith("default-"):
            _, arch, act = trajectory.split("-")
            run_sweep(SweepConfig(activation=act, architecture=arch, outputs=tuple(SweepOutput)),
                      tmp_path)
        elif trajectory == "propagate_fcn-m400":
            h, rep, k = erf_setup(1.5, 0.05)
            start = init_kernels(normalize_inputs(normals(5, (400, 16)), rep.qstar)).nngp
            np.fill_diagonal(start, rep.qstar)
            propagate_fcn(KernelPair(start, start, 0), h, k, [1, 2, 4])
        else:
            fields, sw2, sb2, test_rows = _WORKLOAD_TRAJECTORIES[trajectory]
            cfg = SweepConfig(**fields, sigma_w2_grid=(sw2,), sigma_b2_grid=(sb2,), seed=1)
            h = sweep._hyperparams(cfg, sw2, sb2)
            X, _ = _dataset(cfg)
            _trajectory(h, analyze(h).qstar, X, cfg.depths, cfg.filter_halfwidth, cfg.m, test_rows)
        assert sizes and max(sizes) <= propagation._TILE_ENTRIES


class TestReusedBuffers:
    """The walk steps its own state in place, never the caller's arrays or a yielded state,
    and lands on the bits of a plain ``step_cnn`` loop."""

    @staticmethod
    def case(name):
        """(h, k, start state at depth 0, depths) of one walk."""
        if name == "fcn":
            h, rep, k = erf_setup(1.5, 0.5)
            kp0 = init_kernels(normalize_inputs(normals(3, (5, 8)), rep.qstar))
            return h, k, propagation._as_pairs(kp0), [1, 2, 5, 9]
        if name == "frozen":
            h = Hyperparams(4.0, 0.5, "erf", architecture="cnn_p", spatial_size=6)
            k = ActivationKernel(Activation.ERF, analyze(h).qstar)
            ck0 = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(3, 4, 6, seed=1), k.qstar), 1)
            freeze = _freeze_depth(_full_steps(ck0, h, k, 200))
            assert 2 < freeze < 190
            return h, k, ck0, [1, 2, freeze, freeze + 5, 200]
        h, k, ck0 = TestOnePassStep.state("erf", name)
        return h, k, ck0, [1, 2, 5, 9]

    @pytest.mark.parametrize("name", ["cnn_p", "cnn_f", "fcn", "frozen"])
    def test_walk_matches_a_step_loop_and_never_writes_what_it_gave_out(self, name):
        h, k, ck0, depths = self.case(name)
        loop = _full_steps(ck0, h, k, depths[-1])
        start = (ck0.nngp.copy(), ck0.ntk.copy())
        yielded = []
        for ck in propagate_cnn(ck0, h, k, depths):
            np.testing.assert_array_equal(ck.nngp, loop[ck.depth].nngp)
            np.testing.assert_array_equal(ck.ntk, loop[ck.depth].ntk)
            yielded.append(ck)
        assert [ck.depth for ck in yielded] == depths
        for ck in yielded:  # still, after the walk went on past it
            np.testing.assert_array_equal(ck.nngp, loop[ck.depth].nngp)
            np.testing.assert_array_equal(ck.ntk, loop[ck.depth].ntk)
        np.testing.assert_array_equal(ck0.nngp, start[0])
        np.testing.assert_array_equal(ck0.ntk, start[1])

    def test_a_walk_from_one_start_array_leaves_it_unchanged(self):
        # the depth-0 NTK is the NNGP, so a start state may hold one array as both
        h, k, ck0, depths = self.case("cnn_p")
        one = replace(ck0, ntk=ck0.nngp)
        before = ck0.nngp.copy()
        for ck, ref in zip(propagate_cnn(one, h, k, depths), propagate_cnn(ck0, h, k, depths)):
            np.testing.assert_array_equal(ck.nngp, ref.nngp)
            np.testing.assert_array_equal(ck.ntk, ref.ntk)
        np.testing.assert_array_equal(one.nngp, before)

    def test_step_returns_the_arrays_it_is_given(self):
        h, k, ck = TestOnePassStep.state("erf", "cnn_p")
        out = (np.full_like(ck.nngp, np.nan), np.full_like(ck.ntk, np.nan))
        new = step_cnn(ck, h, k, out=out)
        assert new.nngp is out[0] and new.ntk is out[1]
        ref = step_cnn(ck, h, k)
        np.testing.assert_array_equal(new.nngp, ref.nngp)
        np.testing.assert_array_equal(new.ntk, ref.ntk)

    @pytest.mark.parametrize("name", ["cnn_p", "cnn_f", "fcn"])
    def test_step_writes_the_ntk_in_place_with_the_out_of_place_bits(self, name):
        h, k, ck, _ = self.case(name)
        ck = step_cnn(ck, h, k)  # an NTK that differs from the NNGP
        ref = step_cnn(ck, h, k)
        ntk = ck.ntk
        new = step_cnn(ck, h, k, out=(np.empty_like(ck.nngp), ntk))
        assert new.ntk is ntk
        np.testing.assert_array_equal(new.nngp, ref.nngp)
        np.testing.assert_array_equal(new.ntk, ref.ntk)

    @pytest.mark.parametrize("name", ["cnn_p", "cnn_f", "fcn"])
    @pytest.mark.parametrize("which", ["both", "nngp", "ntk"])
    def test_a_step_into_the_state_s_own_arrays_keeps_the_out_of_place_bits(self, name, which):
        # both kernels in place; or, on a state of one array as both kernels
        # (as at depth 0), either kernel into that array
        h, k, ck, _ = self.case(name)
        ck = replace(ck, nngp=ck.nngp.copy(), ntk=ck.nngp.copy())
        if which == "both":  # a state of two arrays, both stepped in place
            ck = step_cnn(ck, h, k)
        ref = step_cnn(ck, h, k)
        if which != "both":
            ck = replace(ck, ntk=ck.nngp)
        out = {"both": (ck.nngp, ck.ntk), "nngp": (ck.nngp, np.empty_like(ck.nngp)),
               "ntk": (np.empty_like(ck.nngp), ck.ntk)}[which]
        new = step_cnn(ck, h, k, out=out)
        assert new.nngp is out[0] and new.ntk is out[1]
        np.testing.assert_array_equal(new.nngp, ref.nngp)
        np.testing.assert_array_equal(new.ntk, ref.ntk)

    @pytest.mark.parametrize("bad", [
        "shape", "order", "dtype", "nngp_as_ntk", "ntk_as_nngp", "ntk_view", "one_array_twice",
        "view", "each_other",
    ])
    def test_step_rejects_arrays_it_cannot_write(self, bad):
        h, k, ck = TestOnePassStep.state("erf", "cnn_p")
        if bad != "one_array_twice":  # a state of two arrays
            ck = step_cnn(ck, h, k)
        shape = ck.nngp.shape
        fresh = np.empty(shape)
        out = {
            "shape": (np.empty(shape[:-1] + (shape[-1] + 1,)), fresh),
            "order": (np.empty(shape[::-1]).T, fresh),  # Fortran order
            "dtype": (np.empty(shape, dtype=np.float32), fresh),
            "nngp_as_ntk": (fresh, ck.nngp),  # in place means each kernel into its own array
            "ntk_as_nngp": (ck.ntk, fresh),
            "ntk_view": (fresh, ck.ntk[:]),  # ... the state's own array, not a view of it
            "one_array_twice": (ck.nngp, ck.ntk),  # one array cannot take both new kernels
            "view": (ck.nngp[:], fresh),
            "each_other": (fresh, fresh),
        }[bad]
        before = (ck.nngp.copy(), ck.ntk.copy())
        with pytest.raises(ValueError, match="out must be"):
            step_cnn(ck, h, k, out=out)
        np.testing.assert_array_equal(ck.nngp, before[0])
        np.testing.assert_array_equal(ck.ntk, before[1])

    @pytest.mark.parametrize("bad", ["shape", "dtype", "state", "out"])
    def test_step_rejects_a_buffer_it_cannot_use(self, bad):
        h, k, ck = TestOnePassStep.state("erf", "cnn_p")  # 15 pairs
        out = (np.full_like(ck.nngp, np.nan), np.full_like(ck.nngp, np.nan))
        before = ck.nngp.copy()
        scratch = {
            "shape": np.empty((2, 14, *ck.nngp.shape[1:])),  # a pair short of the state
            "dtype": np.empty((2, *ck.nngp.shape), dtype=np.float32),
            "state": ck.ntk,
            "out": out[1],
        }[bad]
        with pytest.raises(ValueError, match="must"):
            step_cnn(ck, h, k, out=out, scratch=scratch)
        np.testing.assert_array_equal(ck.nngp, before)
        assert np.isnan(out[0]).all() and np.isnan(out[1]).all()  # nothing written

    @pytest.mark.parametrize("name", ["cnn_p", "frozen"])
    @pytest.mark.parametrize("far", [True, False])
    @pytest.mark.parametrize("own_start", [False, True])
    def test_a_walk_steps_out_of_place_once_unless_it_owns_its_start(
        self, monkeypatch, name, far, own_start
    ):
        h, k, ck0, depths = self.case(name)
        depths = depths[-1:] if far else depths
        out_of_place = []
        step = propagation.step_cnn

        def spy(ck, *args, out=None, **kwargs):
            out_of_place.append(out is None)
            return step(ck, *args, out=out, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", spy)
        emitted = list(propagate_cnn(ck0, h, k, depths, emit=lambda ck: ck.depth,
                                     own_start=own_start))
        assert emitted == depths
        assert 0 < len(out_of_place) <= depths[-1]
        assert out_of_place[0] is not own_start and sum(out_of_place) == (not own_start)

    @pytest.mark.parametrize("own_start", [False, True])
    def test_a_walk_holds_two_state_sized_arrays_and_three_past_the_freeze(
        self, monkeypatch, own_start
    ):
        h, k, ck0, depths = self.case("frozen")
        freeze = depths[2]
        assert ck0.ntk is ck0.nngp  # a start of one array, as a trajectory's
        held = {}  # depth stepped from -> every array the step read or wrote, kept alive
        step, frozen_step = propagation.step_cnn, propagation._frozen_step

        def spy(ck, *args, **kwargs):
            new = step(ck, *args, **kwargs)
            held[ck.depth] = [ck.nngp, ck.ntk, new.nngp, new.ntk]
            return new

        def frozen_spy(ck, wtd, scratch):
            held[ck.depth] = [ck.nngp, ck.ntk, wtd]
            return frozen_step(ck, wtd, scratch)

        monkeypatch.setattr(propagation, "step_cnn", spy)
        monkeypatch.setattr(propagation, "_frozen_step", frozen_spy)
        list(propagate_cnn(ck0, h, k, depths, emit=lambda ck: None, own_start=own_start))
        assert sorted(held) == list(range(len(held))) and len(held) > freeze + 1

        def buffers(arrays):  # distinct state-sized buffers, other than the caller's start
            arrays = [a for a in arrays if a.shape == ck0.nngp.shape and a is not ck0.nngp]
            return len({a.__array_interface__["data"][0] for a in arrays})

        before = [a for d in range(freeze) for a in held[d]]
        assert buffers(before) == (1 if own_start else 2)  # with the start: two
        assert buffers([a for arrays in held.values() for a in arrays]) == buffers(before) + 1
        assert (held[freeze - 1][2] is ck0.nngp) is own_start  # the NNGP steps in the start


class TestOffsetStorage:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 9), lead=st.integers(1, 3), seed=st.integers(0, 10**6))
    def test_blocks_offsets_round_trip(self, d, lead, seed):
        B = normals(seed, (lead, d, d))
        offsets = blocks_to_offsets(B)
        a, o = seed % d, (seed // d) % d
        assert offsets[-1, o, a] == B[-1, a, (a + o) % d]
        back = offsets_to_blocks(offsets)
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, B)
        np.testing.assert_array_equal(blocks_to_offsets(offsets_to_blocks(B)), B)

    def test_offset_zero_kernel_has_no_pool_or_blocks(self):
        ck = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(3, 6, 5, seed=1), 1.0), 1)
        ck0 = replace(ck, nngp=ck.nngp[:, :1], ntk=ck.ntk[:, :1])
        assert (ck.nngp.shape[1], ck0.nngp.shape[1]) == (5, 1)
        flat = readout(ck, ReadoutMode.FLATTEN)
        np.testing.assert_array_equal(readout(ck0, ReadoutMode.FLATTEN).nngp, flat.nngp)
        with pytest.raises(ValueError, match="every pixel offset"):
            readout(ck0, ReadoutMode.POOL)
        with pytest.raises(ValueError, match="every pixel offset"):
            ck0.block(0, 1)

    @pytest.mark.parametrize("activation", ["erf", "tanh", "relu"])
    @pytest.mark.parametrize("d, hw", [(5, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 2)])
    def test_cnn_f_trajectory_matches_every_offset(self, monkeypatch, activation, d, hw):
        h = Hyperparams(1.5, 0.5, activation, architecture="cnn_f", spatial_size=d)
        k = ActivationKernel(h.activation, analyze(h).qstar)
        X = cnn_inputs(3, 6, d, seed=d + hw)
        depths = [1, 3]
        start = init_cnn_kernels(normalize_inputs_cnn(X, k.qstar), hw)
        start.nngp[[start.pair_index(i, i) for i in range(3)], 0] = k.qstar  # _trajectory's pin
        full = [readout(c, ReadoutMode.FLATTEN) for c in propagate_cnn(start, h, k, depths)]
        stepped = []

        def spy(ck, *args, **kwargs):
            stepped.append(ck.nngp.shape[1])  # offsets carried
            return step_cnn(ck, *args, **kwargs)

        monkeypatch.setattr(propagation, "step_cnn", spy)
        fast = _trajectory(h, k.qstar, X, depths, hw)
        assert stepped == [1, 1, 1]
        for a, b in zip(fast, full, strict=True):
            assert a.depth == b.depth
            np.testing.assert_array_equal(a.nngp, b.nngp)
            np.testing.assert_array_equal(a.ntk, b.ntk)


class TestReadout:
    def make_idealized(self, p, p_ab, d):
        m = 2
        blocks = np.empty((3, d, d))
        diag_block = np.full((d, d), p_ab)
        np.fill_diagonal(diag_block, p)
        blocks[0] = diag_block       # pair (0, 0)
        blocks[1] = np.full((d, d), p_ab)  # pair (0, 1)
        blocks[2] = diag_block       # pair (1, 1)
        offsets = blocks_to_offsets(blocks)
        return CnnKernel(nngp=offsets.copy(), ntk=offsets.copy(), m=m, filter_halfwidth=1, depth=7)

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

    @pytest.mark.parametrize("mode", list(ReadoutMode))
    def test_a_state_with_no_stored_pair_reads_nan(self, mode):
        ck = self.make_idealized(5.0, 2.0, 4)
        empty = replace(ck, nngp=ck.nngp[:0], ntk=ck.ntk[:0])
        kp = readout(empty, mode)
        assert kp.nngp.shape == kp.ntk.shape == (2, 2)
        assert np.isnan(kp.nngp).all() and np.isnan(kp.ntk).all()

    @pytest.mark.parametrize("mode", list(ReadoutMode))
    def test_runs_read_out_into_one_pair_of_matrices(self, mode):
        # 5 samples: the rows start at pairs 0, 5, 9, 12 and 14
        _, _, ck = TestOnePassStep.state("erf", "cnn_p")
        ck = replace(ck, ntk=2.0 * ck.nngp)
        whole = readout(ck, mode)
        i, j = np.triu_indices(5)
        out = KernelPair(np.full((5, 5), 7.0), np.full((5, 5), 7.0), ck.depth)
        for run in (slice(0, 4), slice(4, 5), slice(5, 11), slice(11, 15)):  # in and across rows
            part = replace(ck, nngp=ck.nngp[run], ntk=ck.ntk[run], first_pair=run.start)
            lone = readout(part, mode)
            assert readout(part, mode, out=out).nngp is out.nngp
            for kind in ("nngp", "ntk"):
                got, want = getattr(lone, kind), getattr(whole, kind)
                kept = np.zeros((5, 5), dtype=bool)
                kept[i[run], j[run]] = kept[j[run], i[run]] = True
                np.testing.assert_array_equal(got[kept], want[kept])
                assert np.isnan(got[~kept]).all()
                assert (getattr(out, kind)[j[run.stop:], i[run.stop:]] == 7.0).all()  # not yet read
        np.testing.assert_array_equal(out.nngp, whole.nngp)
        np.testing.assert_array_equal(out.ntk, whole.ntk)

    @pytest.mark.parametrize("bad", ["shape", "order"])
    def test_readout_rejects_matrices_it_cannot_write(self, bad):
        # a pair's entries are written through a flat view of each matrix
        _, _, ck = TestOnePassStep.state("erf", "cnn_p")  # 5 samples
        K = {"shape": np.zeros((5, 6)), "order": np.zeros((5, 10))[:, ::2]}[bad]
        with pytest.raises(ValueError, match="out must hold two C-contiguous 5 x 5 matrices"):
            readout(ck, ReadoutMode.FLATTEN, out=KernelPair(np.zeros((5, 5)), K, ck.depth))

    def test_pool_is_the_layout_mean(self):
        _, _, ck = TestOnePassStep.state("erf", "cnn_p")  # 15 pairs
        pooled = readout(ck, ReadoutMode.POOL)
        for kind in ("nngp", "ntk"):
            K, got = getattr(ck, kind), getattr(pooled, kind)
            i, j = np.triu_indices(ck.m)
            np.testing.assert_array_equal(got[i, j], K.mean(axis=(-2, -1)))  # the layout mean
            np.testing.assert_array_equal(got[j, i], got[i, j])
            block_mean = offsets_to_blocks(K).mean(axis=(-2, -1))  # sums in another order
            bound = FEW_ULPS * np.abs(K).mean(axis=(-2, -1))
            assert np.all(np.abs(got[i, j] - block_mean) <= bound)

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
        dropped = apply_dropout(self.kp, self.h, self.k, 1.0)
        np.testing.assert_array_equal(plain.ntk, dropped.ntk)
        np.testing.assert_array_equal(plain.nngp, dropped.nngp)

    @pytest.mark.parametrize("rho", [0.0, 1.5, math.nan])
    def test_rejects_a_keep_rate_outside_the_unit_interval(self, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\]"):
            apply_dropout(self.kp, self.h, self.k, rho)

    def test_offdiagonals_bit_identical(self):
        plain = step_fcn(self.kp, self.h, self.k)
        dropped = apply_dropout(self.kp, self.h, self.k, 0.8)
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_array_equal(dropped.ntk[off], plain.ntk[off])
        np.testing.assert_array_equal(dropped.nngp[off], plain.nngp[off])
        assert np.all(dropped.ntk[np.eye(8, dtype=bool)] > plain.ntk[np.eye(8, dtype=bool)])

    def test_diagonal_formula(self):
        rho = 0.6
        plain = step_fcn(self.kp, self.h, self.k)
        dropped = apply_dropout(self.kp, self.h, self.k, rho)
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
        st = integrate_residual(s0, [5.0])[-1]
        assert st.q_diag == pytest.approx(math.e**5, rel=1e-6)
        assert st.p_diag == pytest.approx(5 * math.e**5, rel=1e-6)

    def test_layernorm_unit_variance_and_linear_ntk(self):
        s0 = OdeKernelState(0.0, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        st = integrate_residual(s0, [20.0])[-1]
        assert st.q_diag == pytest.approx(1.0, abs=1e-10)
        assert st.p_diag == pytest.approx(20.0, rel=1e-10)

    def test_layernorm_offdiagonal_power_law(self):
        s0 = OdeKernelState(0.0, 1.0, -0.5, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        traj = integrate_residual(s0, [50.0, 100.0])
        by_t = {round(s.t): s for s in traj}
        f = lambda t: (1 - by_t[t].q_ab) * t * t
        # cancel the 1/t approach term with two sampling times
        limit = 2 * f(100) - f(50)
        assert limit == pytest.approx(4.5 * math.pi**2, rel=0.05)
        g = lambda t: by_t[t].p_ab / t
        assert 2 * g(100) - g(50) == pytest.approx(0.25, rel=0.05)

    def test_step_size_guard(self):
        # the layer-norm flow never moves q_diag, so an off-unit start is
        # rejected before the solver runs (t = t0 asks for no integration)
        s0 = OdeKernelState(0.0, 1.0 + 5e-6, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        for t_end in (0.0, 1.0):
            with pytest.raises(ValueError, match="unit diagonal"):
                integrate_residual(s0, [t_end])

    def test_sampled_times_land_exactly(self):
        s0 = OdeKernelState(0.5, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU)
        times = [0.5, 0.6, 0.8, 1.5]
        traj = integrate_residual(s0, times)
        assert [s.t for s in traj] == times
        assert traj[0] == s0
        assert [s.t for s in integrate_residual(s0, [0.6])] == [0.6]
        assert traj[-1].q_diag == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("times", [[], [0.4], [0.6, 0.6], [1.0, 0.7], [math.nan], [math.inf]])
    def test_bad_times_raise(self, times):
        s0 = OdeKernelState(0.5, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU)
        with pytest.raises(ValueError, match="times must be"):
            integrate_residual(s0, times)

    def test_solver_failure_raises(self, monkeypatch):
        import scipy.integrate

        class Failed:
            success = False
            message = "Required step size is less than spacing between numbers."

        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *args, **kwargs: Failed())
        s0 = OdeKernelState(0.0, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU)
        with pytest.raises(NonConvergenceError, match="step size"):
            integrate_residual(s0, [1.0])

    def test_plain_flow_past_the_float_range_raises_before_integrating(self, monkeypatch):
        # (p0 + q0 t) e^t passes 1e300 near t = 684; integrated to t = 700, the
        # solver's own sums overflow and numpy warns instead of a typed error
        import scipy.integrate

        def unreachable(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", unreachable)
        s0 = OdeKernelState(0.0, 1.0, 0.5, 1.0, 0.5, ResidualVariant.RESIDUAL_RELU)
        with pytest.raises(NonConvergenceError, match="passes 1e\\+300 before t=700"):
            integrate_residual(s0, [700.0])

    @pytest.mark.parametrize("c0", [0.3, -0.5, 0.9])
    def test_layernorm_correlation_is_the_plain_correlation(self, c0):
        # both flows give c' = f(c) - c for the correlation c = q_ab / q_diag
        times = [1.0, 5.0, 20.0]
        plain = integrate_residual(
            OdeKernelState(0.0, 1.0, c0, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU), times
        )
        normed = integrate_residual(
            OdeKernelState(0.0, 1.0, c0, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM), times
        )
        for a, b in zip(plain, normed):
            assert a.q_ab / a.q_diag == pytest.approx(b.q_ab, abs=1e-10)


class TestCnnInit:
    def test_pixel_normalization(self):
        X = normalize_inputs_cnn(cnn_inputs(5, 12, 7, seed=9), 1.4)
        np.testing.assert_allclose(np.mean(X**2, axis=1), 1.4, atol=1e-12)

    def test_zero_pixel_raises(self):
        X = np.zeros((2, 3, 4))
        with pytest.raises(ZeroRowError):
            normalize_inputs_cnn(X, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_pixel_raises(self, bad):
        X = cnn_inputs(2, 3, 4, seed=0)
        X[1, 0, 3] = bad
        with pytest.raises(ZeroRowError):
            normalize_inputs_cnn(X, 1.0)

    def test_block_symmetry_convention(self):
        X = normalize_inputs_cnn(cnn_inputs(3, 10, 5, seed=1), 1.0)
        ck = init_cnn_kernels(X, 1)
        np.testing.assert_allclose(ck.block(0, 1), ck.block(1, 0).T, atol=0)
        np.testing.assert_allclose(np.diagonal(ck.block(2, 2)), 1.0, atol=1e-12)

    def test_block_rejects_an_unknown_kind(self):
        ck = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(2, 4, 5, seed=1), 1.0), 1)
        with pytest.raises(ValueError, match="kind must be"):
            ck.block(0, 1, "bogus")

    @pytest.mark.parametrize("i, j", [(0, 4), (0, 5), (4, 0), (-1, 0), (2, -3)])
    def test_block_rejects_a_sample_outside_the_state(self, i, j):
        # on 4 samples, (0, 5) read the (1, 2) block and (-1, 0) pair -4
        ck = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(4, 4, 5, seed=1), 1.0), 1)
        with pytest.raises(IndexError, match="not stored"):
            ck.pair_index(i, j)
        with pytest.raises(IndexError, match="not stored"):
            ck.block(i, j)

    def test_pair_index_rejects_a_pair_past_the_stored_prefix(self):
        # the sweep's test-row state keeps the pairs (i, j) with i < 2 of 4 samples
        ck = init_cnn_kernels(normalize_inputs_cnn(cnn_inputs(4, 4, 5, seed=1), 1.0), 1)
        i, _ = np.triu_indices(4)
        ck = replace(ck, nngp=ck.nngp[i < 2], ntk=ck.ntk[i < 2])
        assert ck.pair_index(3, 1) == len(ck.nngp) - 1
        for pair in [(2, 2), (2, 3), (3, 3)]:
            with pytest.raises(IndexError, match="not stored"):
                ck.pair_index(*pair)

    def test_blocks_and_readout_match_pair_loop(self):
        h, rep, k = erf_setup(4.0, 0.5)
        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_p", spatial_size=5)
        X = normalize_inputs_cnn(cnn_inputs(4, 6, 5, seed=3), rep.qstar)
        ck = init_cnn_kernels(X, 1)
        for i in range(4):
            for j in range(i, 4):
                assert np.array_equal(ck.block(i, j), X[i].T @ X[j] / 6)
        ck = step_cnn(step_cnn(ck, hc, k), hc, k)
        for kind in ("nngp", "ntk"):
            flat, pool = (getattr(readout(ck, mode), kind) for mode in ReadoutMode)
            for i in range(4):
                for j in range(4):
                    lo, hi = min(i, j), max(i, j)  # the stored (upper-triangle) block
                    B, K = ck.block(lo, hi, kind), getattr(ck, kind)[ck.pair_index(lo, hi)]
                    assert flat[i, j] == np.trace(B) / 5
                    assert pool[i, j] == K.mean()  # the mean over the offset layout
                    assert abs(pool[i, j] - B.mean()) <= FEW_ULPS * np.abs(K).mean()

    def test_window_validation(self):
        X = cnn_inputs(2, 4, 3, seed=0)
        with pytest.raises(WindowError):
            init_cnn_kernels(X, 2)

    @pytest.mark.parametrize("pairs, n_offsets", [
        (slice(-1, 3), None), (slice(0, 4), None), (slice(2, 1), None), (slice(0, 3, 2), None),
        (None, 0), (None, 6),
    ])
    def test_init_rejects_pairs_or_offsets_it_does_not_have(self, pairs, n_offsets):
        X = cnn_inputs(2, 4, 5, seed=0)  # 3 pairs, 5 offsets
        with pytest.raises(ValueError, match="cannot store"):
            init_cnn_kernels(X, 1, pairs, n_offsets)

    @pytest.mark.parametrize("pairs, run", [
        (slice(3, None), slice(3, 10)), (slice(None, 5), slice(0, 5)), (slice(None), slice(0, 10)),
    ])
    def test_init_reads_an_open_end_as_the_first_or_the_last_pair(self, pairs, run):
        X = normalize_inputs_cnn(cnn_inputs(4, 4, 5, seed=1), 1.0)  # 10 pairs
        ck = init_cnn_kernels(X, 1, pairs)
        assert ck.first_pair == run.start
        np.testing.assert_array_equal(ck.nngp, init_cnn_kernels(X, 1).nngp[run])

    def test_a_run_of_pairs_holds_the_whole_start_s_rows(self):
        X = normalize_inputs_cnn(cnn_inputs(4, 4, 5, seed=1), 1.0)  # 10 pairs
        whole = init_cnn_kernels(X, 1)
        run = init_cnn_kernels(X, 1, slice(3, 8))
        assert run.first_pair == 3 and run.ntk is run.nngp
        np.testing.assert_array_equal(run.nngp, whole.nngp[3:8])
        i, j = np.triu_indices(4)
        for p in range(10):
            if 3 <= p < 8:
                assert run.pair_index(i[p], j[p]) == p - 3
                np.testing.assert_array_equal(run.block(j[p], i[p]), whole.block(j[p], i[p]))
            else:
                with pytest.raises(IndexError, match="not stored"):
                    run.pair_index(i[p], j[p])

    @staticmethod
    def whole_start(X, qstar, m, test_rows, pool):
        """A trajectory's start cut from the Gram of every pair, gathered to every offset."""
        X = normalize_inputs_cnn(X, qstar)
        i, j = np.triu_indices(len(X))
        blocks = np.matmul(X[i].transpose(0, 2, 1), X[j])
        blocks /= X.shape[1]
        keep = (i if test_rows else j) < (len(X) if m is None else m)
        nngp = blocks_to_offsets(blocks)[keep, :None if pool else 1]
        nngp[(i == j)[keep], 0] = qstar
        return nngp

    @pytest.mark.parametrize("architecture", ["cnn_f", "cnn_p"])
    @pytest.mark.parametrize("m, test_rows", [(None, False), (4, False), (4, True)])
    @pytest.mark.parametrize("run_pairs", [1, 4, None])
    def test_a_trajectory_starts_from_the_kept_pairs_bit_for_bit(
        self, monkeypatch, architecture, m, test_rows, run_pairs
    ):
        # the start forms only the kept pairs (and offset 0 alone for cnn_f),
        # run by run, yet holds the bits of the whole start cut down
        d = 6
        h = Hyperparams(1.5, 0.5, "erf", architecture=architecture, spatial_size=d)
        qstar = analyze(h).qstar
        X = cnn_inputs(7, 5, d, seed=3)  # 28 pairs
        if run_pairs:
            monkeypatch.setattr(propagation, "_TILE_ENTRIES", run_pairs * d * d)
        starts = []

        def spy(ck, *args, **kwargs):
            assert ck.ntk is ck.nngp and ck.depth == 0
            starts.append(ck)
            return iter(())

        monkeypatch.setattr(sweep, "propagate_cnn", spy)
        (kp,) = _trajectory(h, qstar, X, [1], 1, m, test_rows)
        assert kp.depth == 1 and np.isnan(kp.nngp).all()  # no run was walked
        for start in starts:  # one start per run, of at most _TILE_ENTRIES entries
            assert start.m == (7 if m is None or test_rows else m)
            assert start.nngp.size <= propagation._TILE_ENTRIES
        assert [s.first_pair for s in starts] == [0, *np.cumsum([len(s.nngp) for s in starts])[:-1]]
        ref = self.whole_start(X, qstar, m, test_rows, architecture == "cnn_p")
        np.testing.assert_array_equal(np.concatenate([s.nngp for s in starts]), ref)
