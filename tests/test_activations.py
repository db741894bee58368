"""Closed forms vs quadrature, derivative consistency and map properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntkphase import Activation, ActivationKernel, CovarianceDomainError, diag_second_moment

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

    def test_tanh_closed_backend_falls_back_to_quadrature(self):
        ka = ActivationKernel(Activation.TANH, 1.0, "closed")
        kb = ActivationKernel(Activation.TANH, 1.0, "quadrature")
        assert ka.t_map(0.4) == kb.t_map(0.4)

    def test_array_evaluation_matches_scalars(self):
        grid = np.linspace(-1.1, 1.1, 7)
        for activation, backend in (("erf", "closed"), ("relu", "closed"), ("relu", "quadrature")):
            k = ActivationKernel(activation, 1.2, backend)
            for f in (k.t_map, k.t_dot, k.t_ddot):
                np.testing.assert_allclose(f(grid), [f(q) for q in grid], rtol=1e-15)

    @pytest.mark.parametrize("nodes", [128, 200])
    def test_array_entry_does_not_depend_on_its_position(self, nodes):
        # a CNN kernel holding fewer pixel offsets must map its entries to the same bits
        k = ActivationKernel(Activation.TANH, 1.0, "quadrature", nodes)
        grid = np.linspace(-0.95, 0.95, 11)
        full = k.t_dot(grid)
        for start in range(4):
            for stop in range(start + 2, grid.size + 1):
                np.testing.assert_array_equal(k.t_dot(grid[start:stop]), full[start:stop])


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "activation,backend",
        [(Activation.ERF, "closed"), (Activation.RELU, "closed"), (Activation.TANH, "quadrature")],
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
        assert diag_second_moment(Activation.TANH, 1.0, 370) == pytest.approx(
            diag_second_moment(Activation.TANH, 1.0, 200), rel=1e-12
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
