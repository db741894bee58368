"""Closed forms vs quadrature, derivative consistency and map properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntkphase import (
    Activation,
    ActivationKernel,
    CovarianceDomainError,
    Hyperparams,
    critical_sigma_w2,
    diag_second_moment,
    init_kernels,
    normalize_inputs,
    propagate_fcn,
    solve_qstar,
)
from ntkphase import propagation
from ntkphase.activations import _erf_t, _erf_tdot, _relu_t, _relu_tdot, _tanh_table
from ntkphase.sweep import SweepConfig, run_sweep

# frozen from the 200-node tensor Gauss-Hermite oracle (matches the arcsine
# closed form to machine precision)
ERF_TMAP_AT_HALF = 0.216346895938785


class TestClosedFormValues:
    def test_relu_boundary_is_half_variance(self):
        k = ActivationKernel(Activation.RELU, 1.0)
        assert k.t_map(1.0) == pytest.approx(0.5, abs=1e-15)
        assert k.t_dot(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_relu_boundary_scales_with_variance(self):
        k = ActivationKernel(Activation.RELU, 2.7)
        assert k.t_map(2.7) == pytest.approx(1.35, abs=1e-14)
        assert k.t_dot(2.7) == pytest.approx(0.5, abs=1e-15)

    def test_erf_frozen_quadrature_value(self):
        k = ActivationKernel(Activation.ERF, 1.0)
        assert k.t_map(0.5) == pytest.approx(ERF_TMAP_AT_HALF, abs=1e-8)

    def test_erf_second_derivative_odd_symmetry(self):
        k = ActivationKernel(Activation.ERF, 1.0)
        assert k.t_ddot(0.0) == 0.0

    def test_relu_fractional_expansion_near_boundary(self):
        # 2*T(1-eps) = 1 - eps + (2 sqrt(2) / 3 pi) eps^{3/2} + O(eps^{5/2})
        k = ActivationKernel(Activation.RELU, 1.0)
        for eps in (1e-4, 1e-6):
            series = 1.0 - eps + (2.0 * math.sqrt(2) / (3 * math.pi)) * eps**1.5
            assert 2.0 * k.t_map(1.0 - eps) == pytest.approx(series, abs=3.0 * eps**2.5)

    def test_relu_derivative_expansion_near_boundary(self):
        # 2*T_dot(1-eps) = 1 - (sqrt(2)/pi) eps^{1/2} + O(eps^{3/2})
        k = ActivationKernel(Activation.RELU, 1.0)
        for eps in (1e-4, 1e-6):
            series = 1.0 - (math.sqrt(2) / math.pi) * eps**0.5
            assert 2.0 * k.t_dot(1.0 - eps) == pytest.approx(series, abs=3.0 * eps**1.5)

    @pytest.mark.parametrize("qstar", [1.0, 2.7])
    def test_relu_float_path_matches_array_path(self, qstar):
        # the residual flows evaluate one float at a time; it must take the
        # array's bits, at c = +-1 and past it (clipped) too
        c = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1.0 - 1e-13, 1.0 - 1e-12, 1.0 + 1e-13]])
        q = c * qstar
        for fn in (_relu_t, _relu_tdot):
            one_by_one = np.array([fn(qstar, float(x)) for x in q])
            np.testing.assert_array_equal(one_by_one, fn(qstar, q))


class TestQuadratureBackend:
    @pytest.mark.parametrize("activation", [Activation.ERF, Activation.RELU])
    @pytest.mark.parametrize("qstar", [1.0, 1.3])
    def test_agrees_with_closed_form(self, activation, qstar):
        kc = ActivationKernel(activation, qstar, "closed")
        kq = ActivationKernel(activation, qstar, "quadrature", nodes=200)
        grid = np.linspace(-qstar + 1e-3, qstar - 1e-3, 40)
        for q in grid:
            assert kq.t_map(q) == pytest.approx(kc.t_map(q), abs=1e-6)
            assert kq.t_dot(q) == pytest.approx(kc.t_dot(q), abs=1e-6)
        # t_ddot away from the edge: Erf by quadrature of phi'', ReLU (phi'' a
        # delta) by the closed form on both backends
        inner = grid[np.abs(grid) <= 0.9 * qstar]
        if activation is Activation.ERF:
            np.testing.assert_allclose(kq.t_ddot(inner), kc.t_ddot(inner), rtol=1e-13, atol=1e-16)
        else:
            np.testing.assert_array_equal(kq.t_ddot(inner), kc.t_ddot(inner))

    def test_tanh_node_convergence(self):
        k64 = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=64)
        k128 = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=128)
        for q in np.linspace(-0.95, 0.95, 21):
            assert abs(k64.t_map(q) - k128.t_map(q)) < 1e-9

    @pytest.mark.parametrize("qstar", [1.0, 2.82, 5.0, 8.0])
    def test_tanh_closed_backend_matches_trapezoid_rule(self, qstar):
        # E[phi^(n)(u) phi^(n)(v)] by a step-0.02 tensor trapezoid rule in
        # whitened coordinates u = r x, v = r (c x + sqrt(1 - c^2) y), r = sqrt(qstar)
        z = np.linspace(-10.0, 10.0, 1001)
        w = 0.02 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        derivatives = (
            np.tanh,
            lambda t: 1.0 / np.cosh(t) ** 2,
            lambda t: -2.0 * np.tanh(t) / np.cosh(t) ** 2,
        )
        r = math.sqrt(qstar)
        k = ActivationKernel(Activation.TANH, qstar)
        for c in (-0.97, 0.1, 0.731, 0.999, 1.0):
            v = r * (c * z[:, None] + math.sqrt(1.0 - c * c) * z[None, :])
            for f, phi in zip((k.t_map, k.t_dot, k.t_ddot), derivatives):
                reference = (w * phi(r * z)) @ (phi(v) @ w)
                assert f(c * qstar) == pytest.approx(reference, rel=1e-12)

    def test_tanh_closed_backend_matches_quadrature_at_unit_variance(self):
        # 128-node Gauss-Hermite is off by about 1e-13, 1e-11 and 1e-9 in the
        # three maps at qstar = 1 (its error grows with the order)
        kc = ActivationKernel(Activation.TANH, 1.0)
        kq = ActivationKernel(Activation.TANH, 1.0, "quadrature")
        grid = np.linspace(-1.0, 1.0, 41)
        for name, atol in (("t_map", 1e-12), ("t_dot", 1e-10), ("t_ddot", 4e-9)):
            np.testing.assert_allclose(
                getattr(kc, name)(grid), getattr(kq, name)(grid), rtol=0.0, atol=atol
            )
        assert kc.t_map(1.0) == diag_second_moment(Activation.TANH, 1.0)

    def test_array_evaluation_matches_scalars(self):
        grid = np.linspace(-1.1, 1.1, 7)
        for activation, backend in (("erf", "closed"), ("relu", "closed"), ("relu", "quadrature"),
                                    ("tanh", "closed")):
            k = ActivationKernel(activation, 1.2, backend)
            for f in (k.t_map, k.t_dot, k.t_ddot):
                np.testing.assert_allclose(f(grid), [f(q) for q in grid], rtol=1e-15)

    @pytest.mark.parametrize("activation, backend, nodes", [
        ("tanh", "quadrature", 128), ("tanh", "quadrature", 200), ("tanh", "closed", 128),
        ("erf", "quadrature", 128),
    ], ids=["128", "200", "closed", "erf-128"])
    def test_array_entry_does_not_depend_on_its_position(self, activation, backend, nodes):
        # a CNN kernel holding fewer pixel offsets, or a tile holding one
        # entry, must map its entries to the same bits as the whole state
        k = ActivationKernel(activation, 1.0, backend, nodes)
        grid = np.concatenate([np.linspace(-0.95, 0.95, 11),
                               np.random.default_rng(3).uniform(-1.0, 1.0, 53)])
        for f in (k.t_map, k.t_dot, k.t_ddot):
            full = f(grid)
            for start in range(4):
                for stop in range(start + 1, 16):
                    np.testing.assert_array_equal(f(grid[start:stop]), full[start:stop])
            np.testing.assert_array_equal([f(v) for v in grid], full)


class TestDiagonalMap:
    """diag_second_moment is t_map at q_ab = qstar = q, through the same rule."""

    @pytest.mark.parametrize("q", [0.3, 1.0, 2.82, 8.0])
    @pytest.mark.parametrize("backend", ["closed", "quadrature"])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_equals_t_map_on_the_diagonal(self, activation, backend, q):
        k = ActivationKernel(activation, q, backend)
        assert diag_second_moment(activation, q, k.nodes, backend) == k.t_map(q)

    def test_relu_is_t_map_and_half_the_variance_to_one_ulp(self):
        for q in np.random.default_rng(4).uniform(0.01, 10.0, 305).tolist():
            diag = diag_second_moment(Activation.RELU, q)
            assert diag == ActivationKernel(Activation.RELU, q).t_map(q)
            assert abs(diag - q / 2.0) <= math.ulp(q / 2.0)

    def test_erf_quadrature_diagonal_is_gauss_hermite(self):
        # an oracle independent of the arcsine: visibly off it at 8 nodes,
        # on it to rounding once the rule resolves the integrand
        arcsine = diag_second_moment(Activation.ERF, 1.0)
        coarse = diag_second_moment(Activation.ERF, 1.0, 8, "quadrature")
        assert abs(coarse - arcsine) >= 1e-3 * arcsine
        for q in (0.05, 0.3, 0.7, 1.0):
            fine = diag_second_moment(Activation.ERF, q, 128, "quadrature")
            assert fine == pytest.approx(diag_second_moment(Activation.ERF, q), rel=1e-15, abs=0)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("backend", ["closed", "quadrature"])
    def test_zero_negative_and_nan_variance(self, activation, backend):
        assert diag_second_moment(activation, 0.0, 16, backend) == 0.0
        for bad in (-0.1, float("nan")):
            with pytest.raises(CovarianceDomainError, match="nonnegative"):
                diag_second_moment(activation, bad, 16, backend)


class TestTanhTableReuse:
    """One Tanh table per (qstar, order), shared by every caller; none on the diagonal."""

    def test_cnn_flatten_sweep_builds_each_table_once(self, tmp_path):
        _tanh_table.cache_clear()
        cfg = SweepConfig(
            activation="tanh", architecture="cnn_f", sigma_w2_grid=(1.5, 4.0),
            sigma_b2_grid=(0.5,), depths=(1, 2), m=6, n=2, spatial_size=8, n_features=8,
            outputs=("phase_diagram", "kappa", "predictor_decay"),
        )
        assert run_sweep(cfg, tmp_path).n_point_errors == 0
        info = _tanh_table.cache_info()
        # every miss stored a new key and none was evicted: no table was built twice
        assert info.misses == info.currsize <= 3 * len(cfg.sigma_w2_grid)
        assert info.hits > 0

    @pytest.mark.parametrize("sb2", [0.5, 2.0])
    def test_transition_line_builds_no_table(self, sb2):
        _tanh_table.cache_clear()
        critical_sigma_w2(sb2, ActivationKernel(Activation.TANH, 1.0))
        assert _tanh_table.cache_info().misses == 0

    def test_propagated_diagonal_stays_on_qstar(self, monkeypatch):
        # q* = 8 to rounding: the diagonal map E[tanh^2] and t_map at q_ab = q*
        # are one trapezoid rule, so each layer lands on q* to ~1e-15
        sb2 = 8.0 - 2.0 * diag_second_moment(Activation.TANH, 8.0)
        h = Hyperparams(2.0, sb2, "tanh")
        qstar = solve_qstar(h)
        assert qstar == pytest.approx(8.0, rel=1e-14)
        monkeypatch.setattr(propagation, "_DIAG_DRIFT_TOL", 1e-13)
        X = normalize_inputs(np.random.default_rng(0).standard_normal((6, 5)), qstar)
        k = ActivationKernel(Activation.TANH, qstar)
        assert len(propagate_fcn(init_kernels(X), h, k, range(1, 9))) == 8


def _erf_t_over_1_plus_2qstar(qstar, q):
    out = np.asarray(2.0 * q)
    out /= 1.0 + 2.0 * qstar
    np.arcsin(out, out=out)
    out *= 2.0 / math.pi
    return out


def _erf_tdot_over_1_plus_2qstar(qstar, q):
    out = np.asarray(4.0 * q)
    out *= q
    np.subtract((1.0 + 2.0 * qstar) ** 2, out, out=out)
    np.sqrt(out, out=out)
    np.divide(4.0 / math.pi, out, out=out)
    return out


class TestErfMapBits:
    """The Erf maps over 0.5 + qstar keep the bits of the textbook forms over 1 + 2 qstar."""

    QSTARS = np.concatenate([np.logspace(-300, 100, 401), np.linspace(0.01, 10.0, 100)])
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310]

    @pytest.mark.parametrize("new, old", [(_erf_t, _erf_t_over_1_plus_2qstar),
                                          (_erf_tdot, _erf_tdot_over_1_plus_2qstar)])
    def test_arrays_and_scalars_keep_their_bits(self, new, old):
        c = np.random.default_rng(0).uniform(-1.0, 1.0, 500)
        with np.errstate(divide="ignore"):  # past q* ~ 1e16 the 0.5 rounds away: T_dot(q*) = inf
            for qstar in self.QSTARS:
                q = np.concatenate([c * qstar, [qstar, -qstar, np.nextafter(qstar, 0.0)],
                                    self.EDGES])
                assert new(qstar, q).tobytes() == old(qstar, q).tobytes(), qstar
                for x in q[::50]:
                    assert new(qstar, float(x)).tobytes() == old(qstar, float(x)).tobytes(), x


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "activation,backend",
        [(Activation.ERF, "closed"), (Activation.RELU, "closed"), (Activation.TANH, "quadrature"),
         (Activation.TANH, "closed")],
    )
    def test_t_dot_is_derivative_of_t_map(self, activation, backend):
        k = ActivationKernel(activation, 1.0, backend)
        h = 1e-5
        for q in np.linspace(-0.9, 0.9, 50):
            fd = (k.t_map(q + h) - k.t_map(q - h)) / (2 * h)
            assert k.t_dot(q) == pytest.approx(fd, abs=1e-5)

    def test_erf_t_dot_finite_difference_spot(self):
        k = ActivationKernel(Activation.ERF, 1.0)
        h = 1e-5
        fd = (k.t_map(0.3 + h) - k.t_map(0.3 - h)) / (2 * h)
        assert k.t_dot(0.3) == pytest.approx(fd, abs=1e-6)

    def test_erf_t_ddot_vs_second_difference(self):
        k = ActivationKernel(Activation.ERF, 1.0)
        h = 1e-4
        fd = (k.t_map(0.5 + h) - 2 * k.t_map(0.5) + k.t_map(0.5 - h)) / h**2
        assert k.t_ddot(0.5) == pytest.approx(fd, abs=1e-5)

    def test_tanh_t_ddot_vs_second_difference(self):
        k = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=128)
        h = 5e-3
        fd = (k.t_map(0.4 + h) - 2 * k.t_map(0.4) + k.t_map(0.4 - h)) / h**2
        assert k.t_ddot(0.4) == pytest.approx(fd, abs=1e-4)

    def test_relu_t_ddot_matches_arc_cosine_derivative(self):
        # d/dq (pi - theta)/(2 pi) = 1 / (2 pi sqrt(qstar^2 - q^2)), out to the edge
        for qstar in (1.0, 1.3):
            k = ActivationKernel(Activation.RELU, qstar)
            for q in (0.3, -0.9 * qstar, 0.3 * qstar, qstar * (1.0 - 1e-9)):
                exact = 1 / (2 * math.pi * math.sqrt(qstar * qstar - q * q))
                assert k.t_ddot(q) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("c", [0.4, 0.9, 0.999, 1.0])
    def test_tanh_t_ddot_matches_trapezoid_rule(self, c):
        # E[phi''(u) phi''(v)] by a tensor trapezoid rule in whitened coordinates
        # u = x, v = c x + sqrt(1 - c^2) y at qstar = 1; the rule converges
        # exponentially for this smooth, Gaussian-decaying integrand
        z = np.linspace(-10.0, 10.0, 2001)  # step 0.01
        w = 0.01 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        def tanh2(t):
            return -2.0 * np.tanh(t) / np.cosh(t) ** 2

        inner = tanh2(c * z[:, None] + math.sqrt(1.0 - c * c) * z[None, :]) @ w
        reference = (w * tanh2(z)) @ inner
        k = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=128)
        assert k.t_ddot(c) == pytest.approx(reference, rel=1e-7)


class TestDomainsAndErrors:
    def test_t_map_rejects_out_of_range(self):
        k = ActivationKernel(Activation.ERF, 1.0)
        with pytest.raises(CovarianceDomainError):
            k.t_map(1.0 + 1e-6)

    def test_tolerates_tiny_overshoot(self):
        k = ActivationKernel(Activation.RELU, 1.0)
        assert k.t_map(1.0 + 1e-13) == pytest.approx(0.5, abs=1e-12)

    def test_relu_t_ddot_boundary_raises(self):
        k = ActivationKernel(Activation.RELU, 1.0)
        with pytest.raises(CovarianceDomainError):
            k.t_ddot(1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ActivationKernel(Activation.ERF, 0.0)
        with pytest.raises(ValueError):
            ActivationKernel(Activation.ERF, 1.0, backend="magic")

    @pytest.mark.parametrize("activation", [Activation.ERF, Activation.RELU, Activation.TANH])
    @pytest.mark.parametrize("qstar", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_qstar_outside_positive_reals(self, qstar, activation):
        misses = _tanh_table.cache_info().misses
        with pytest.raises(ValueError, match="qstar must be positive and finite"):
            ActivationKernel(activation, qstar).t_map(0.1)
        assert _tanh_table.cache_info().misses == misses

    @pytest.mark.parametrize("nodes", [371, 400])
    def test_node_count_past_hermgauss_range_raises(self, nodes):
        # numpy's hermgauss weights are all zero at 371 nodes and NaN from 372
        with pytest.raises(ValueError, match=f"{nodes} quadrature nodes"):
            ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=nodes)
        with pytest.raises(ValueError, match=f"{nodes} quadrature nodes"):
            diag_second_moment(Activation.TANH, 1.0, nodes)

    def test_largest_node_count_is_accurate(self):
        erf = ActivationKernel(Activation.ERF, 1.0, "quadrature", nodes=370)
        assert erf.t_map(0.5) == pytest.approx(ERF_TMAP_AT_HALF, abs=1e-8)
        tanh = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=370)
        ref = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes=200)
        assert tanh.t_dot(0.5) == pytest.approx(ref.t_dot(0.5), rel=1e-12)
        assert diag_second_moment(Activation.TANH, 1.0, 370, "quadrature") == pytest.approx(
            diag_second_moment(Activation.TANH, 1.0, 200, "quadrature"), rel=1e-12
        )


class TestDomainCheck:
    """Off-diagonals at, inside and past the [-q*, q*] domain and its slack."""

    QSTAR = 1.3

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    def test_entries_exactly_at_the_edges(self, activation):
        k = ActivationKernel(activation, self.QSTAR)
        q = np.array([-self.QSTAR, 0.4, self.QSTAR])
        np.testing.assert_allclose(k.t_map(q), [k.t_map(v) for v in q], rtol=1e-14)
        np.testing.assert_allclose(k.t_dot(q), [k.t_dot(v) for v in q], rtol=1e-14)
        if activation == "relu":
            assert k.t_map(self.QSTAR) == self.QSTAR / 2.0
            assert k.t_dot(self.QSTAR) == 0.5

    def test_in_range_array_is_not_copied(self):
        k = ActivationKernel(Activation.ERF, self.QSTAR)
        q = np.array([-self.QSTAR, 0.0, self.QSTAR])
        assert k._check_domain(q) is q

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    def test_overshoot_inside_slack_is_clipped(self, activation):
        k = ActivationKernel(activation, self.QSTAR)
        over = self.QSTAR * (1.0 + 5e-13)
        assert over > self.QSTAR
        q = np.array([-over, 0.4, over])
        np.testing.assert_array_equal(k._check_domain(q), [-self.QSTAR, 0.4, self.QSTAR])
        np.testing.assert_array_equal(k.t_map(q), k.t_map([-self.QSTAR, 0.4, self.QSTAR]))
        np.testing.assert_array_equal(k.t_dot(q), k.t_dot([-self.QSTAR, 0.4, self.QSTAR]))
        assert k.t_map(over) == k.t_map(self.QSTAR)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overshoot_past_slack_raises_with_reach(self, sign):
        k = ActivationKernel(Activation.ERF, self.QSTAR)
        q = np.array([0.2, sign * 1.30001, 0.1])
        message = r"^\|q_ab\| up to 1\.30001 exceeds qstar=1\.3$"
        with pytest.raises(CovarianceDomainError, match=message):
            k.t_map(q)
        with pytest.raises(CovarianceDomainError, match=r"up to 1\.30001 exceeds"):
            k.t_dot(sign * 1.30001)

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    def test_nan_passes_through(self, activation):
        k = ActivationKernel(activation, self.QSTAR)
        out = k.t_map(np.array([0.2, np.nan, -0.5]))
        assert np.isnan(out[1])
        np.testing.assert_array_equal(out[[0, 2]], k.t_map(np.array([0.2, -0.5])))
        assert math.isnan(k.t_dot(float("nan")))

    def test_nan_does_not_hide_an_overshoot(self):
        k = ActivationKernel(Activation.ERF, self.QSTAR)
        with pytest.raises(CovarianceDomainError, match="exceeds qstar"):
            k.t_map(np.array([np.nan, 2.0]))

    @pytest.mark.parametrize("activation", ["erf", "relu", "tanh"])
    def test_zero_dimensional_input_returns_float(self, activation):
        k = ActivationKernel(activation, self.QSTAR)
        for f in (k.t_map, k.t_dot, k.t_ddot):
            outs = [f(q) for q in (np.array(0.3), np.float64(0.3), 0.3)]
            assert all(type(out) is float for out in outs)
            assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_array(self, shape):
        for activation in Activation:
            for backend in ("closed", "quadrature"):
                k = ActivationKernel(activation, self.QSTAR, backend)
                for f in (k.t_map, k.t_dot, k.t_ddot):
                    out = f(np.empty(shape))
                    assert isinstance(out, np.ndarray) and out.shape == shape
                    assert out.dtype == float

    def test_relu_t_ddot_is_strict_at_the_edges(self):
        k = ActivationKernel(Activation.RELU, self.QSTAR)
        inside = self.QSTAR * (1.0 - 1e-9)
        assert k.t_ddot(inside) > 0.0 and k.t_ddot(-inside) > 0.0
        for q in (self.QSTAR, -self.QSTAR, self.QSTAR * (1.0 + 5e-13)):
            with pytest.raises(CovarianceDomainError, match="strictly inside"):
                k.t_ddot(q)
        with pytest.raises(CovarianceDomainError, match="exceeds qstar"):
            k.t_ddot(1.30001)
        # the smooth activations' t_ddot is defined at the edge itself
        erf = ActivationKernel(Activation.ERF, self.QSTAR)
        assert math.isfinite(erf.t_ddot(self.QSTAR))


class TestMapProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        activation=st.sampled_from([Activation.ERF, Activation.RELU, Activation.TANH]),
        frac=st.floats(min_value=0.01, max_value=1.0),
        qstar=st.floats(min_value=0.2, max_value=3.0),
    )
    def test_cauchy_schwarz_bound(self, activation, frac, qstar):
        # strictly positive on (0, qstar]; exactly 0 at q_ab = 0 for the odd
        # activations, so the open endpoint is excluded
        backend = "quadrature" if activation is Activation.TANH else "closed"
        k = ActivationKernel(activation, qstar, backend, nodes=64)
        value = k.t_map(frac * qstar)
        assert 0.0 < value <= k.t_map(qstar) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        activation=st.sampled_from([Activation.ERF, Activation.RELU, Activation.TANH]),
        a=st.floats(min_value=-1.0, max_value=1.0),
        b=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_monotone_in_covariance(self, activation, a, b):
        backend = "quadrature" if activation is Activation.TANH else "closed"
        k = ActivationKernel(activation, 1.0, backend, nodes=64)
        lo, hi = min(a, b), max(a, b)
        assert k.t_map(hi) - k.t_map(lo) >= -1e-12

    def test_diag_second_moment_fixed_point(self):
        # the Erf variance map has its fixed point where q = 2 * second moment
        q = 0.8807506303959786
        assert 2.0 * float(diag_second_moment(Activation.ERF, q)) == pytest.approx(q, abs=1e-12)


class TestMapIntoOut:
    """A map writes an array's values into a given ``out`` with the bits of a new array."""

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("backend", ["closed", "quadrature"])
    @pytest.mark.parametrize("name", ["t_map", "t_dot"])
    def test_out_holds_the_new_array_bits(self, activation, backend, name):
        qstar = 1.3
        k = ActivationKernel(activation, qstar, backend, nodes=32)
        q = np.linspace(-0.99, 0.99, 24).reshape(2, 3, 4) * qstar
        q[0, 0, 0] = qstar  # the edge, where a smooth map takes its 1-D rule
        out = np.full_like(q, np.nan)
        assert getattr(k, name)(q, out=out) is out
        np.testing.assert_array_equal(out, getattr(k, name)(q))

    @pytest.mark.parametrize("bad", ["shape", "dtype", "scalar"])
    def test_out_must_be_a_float_array_of_q_shape(self, bad):
        k = ActivationKernel(Activation.ERF, 1.0)
        q, out = {
            "shape": (np.zeros(4), np.empty(5)),
            "dtype": (np.zeros(4), np.zeros(4, dtype=np.float32)),  # would round to single
            "scalar": (0.5, np.empty(())),
        }[bad]
        with pytest.raises(ValueError, match="out must be"):
            k.t_map(q, out=out)
