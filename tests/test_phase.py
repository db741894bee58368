"""Fixed points, slopes, phase classification and asymptotic predictions."""

import math

import mpmath as mp
import numpy as np
import pytest

from ntkphase import (
    Activation,
    ActivationKernel,
    Architecture,
    DegenerateFixedPointError,
    Hyperparams,
    KernelPair,
    NonConvergenceError,
    Phase,
    SweepConfig,
    analyze,
    critical_sigma_w2,
    depth_scales,
    diag_second_moment,
    fit_zeta,
    paper_layer,
    predict_scalar_corrections,
    predict_spectrum,
    run_sweep,
    slopes,
    solve_cstar,
    solve_qstar,
    step_fcn,
)
from ntkphase import phase as phase_module

# frozen oracle values (bisection / 1e4-step iteration, see module docstrings)
ERF_QSTAR_SW2_2 = 0.880750630396        # root of q = (4/pi) asin(2q/(1+2q))
ERF_CHAOTIC = dict(qstar=3.151735474908, cstar=0.591665730404,
                   chi1=1.380669861436, chi_c=0.811055034990)
ERF_CRITICAL_SW2_AT_HALF = 2.2336596345  # chi1 = 1 at sigma_b2 = 0.5


def erf_kernel(qstar):
    return ActivationKernel(Activation.ERF, qstar)


class TestHyperparams:
    @pytest.mark.parametrize("sw2, sb2", [(float("nan"), 0.5), (1.0, float("nan")), (-1.0, 0.5),
                                          (100.5, 0.5), (1.0, 1e16)])
    def test_rejects_nan_and_negative_variances(self, sw2, sb2):
        # and variances above MAX_VARIANCE = 100
        with pytest.raises(ValueError):
            Hyperparams(sw2, sb2, "erf")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(sigma_w2=0.0, sigma_b2=0.0), "both vanish"),
        (dict(spatial_size=4), "FCN requires spatial_size == 1"),
        (dict(architecture="cnn_f", spatial_size=0), "spatial_size must be positive"),
    ])
    def test_rejects_inconsistent_fields(self, kwargs, match):
        args = dict(sigma_w2=1.0, sigma_b2=0.5, activation="erf") | kwargs
        with pytest.raises(ValueError, match=match):
            Hyperparams(**args)


class TestQstar:
    def test_constant_map(self):
        assert solve_qstar(Hyperparams(0.0, 0.7, "erf")) == pytest.approx(0.7, abs=1e-12)

    def test_erf_frozen_bisection_value(self):
        q = solve_qstar(Hyperparams(2.0, 0.0, "erf"))
        assert q == pytest.approx(ERF_QSTAR_SW2_2, abs=1e-10)

    def test_relu_critical_preserves_input_variance(self):
        assert solve_qstar(Hyperparams(2.0, 0.0, "relu")) == pytest.approx(1.0, abs=1e-14)

    def test_fixed_point_residual_on_grid(self):
        for sw2 in np.linspace(0.2, 4.0, 5):
            for sb2 in np.linspace(0.05, 2.0, 5):
                h = Hyperparams(sw2, sb2, "erf")
                q = solve_qstar(h)
                k = erf_kernel(q)
                assert abs(q - sw2 * k.t_map(q) - sb2) < 1e-10

    def test_divergent_map_raises(self):
        with pytest.raises(NonConvergenceError) as exc:
            solve_qstar(Hyperparams(4.0, 0.0, "relu"))
        assert str(exc.value) == "no finite variance fixed point at (4.0, 0.0)"


class TestCstar:
    def test_ordered_point_returns_one(self):
        h = Hyperparams(0.5, 0.5, "erf")
        assert solve_cstar(h, erf_kernel(solve_qstar(h))) == 1.0

    def test_constant_map_returns_one(self):
        h = Hyperparams(0.0, 1.0, "erf")
        assert solve_cstar(h, erf_kernel(solve_qstar(h))) == 1.0

    def test_chaotic_frozen_iteration_value(self):
        h = Hyperparams(4.0, 0.5, "erf")
        q = solve_qstar(h)
        c = solve_cstar(h, erf_kernel(q))
        assert c == pytest.approx(ERF_CHAOTIC["cstar"], abs=1e-9)


class MapCounter:
    """Counts diagonal-map and off-diagonal-map evaluations made by the solvers."""

    def __init__(self, monkeypatch):
        self.diag = self.t_map = self.t_dot = 0
        for owner, attr, name in ((phase_module, "diag_second_moment", "diag"),
                                  (ActivationKernel, "t_map", "t_map"),
                                  (ActivationKernel, "t_dot", "t_dot")):
            monkeypatch.setattr(owner, attr, self._counted(name, getattr(owner, attr)))

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            setattr(self, name, getattr(self, name) + 1)
            return fn(*args, **kwargs)
        return wrapper

    @property
    def total(self):
        return self.diag + self.t_map + self.t_dot


def _mp_erf_qstar(sw2, sb2):
    """50-digit root of q = sw2 (2/pi) asin(2q/(1+2q)) + sb2."""
    sw2, sb2 = mp.mpf(sw2), mp.mpf(sb2)
    return mp.findroot(lambda q: sw2 * 2 / mp.pi * mp.asin(2 * q / (1 + 2 * q)) + sb2 - q,
                       sw2 + sb2)


class TestDirectSolves:
    """The fixed points are direct solves: exact where closed, full precision, fail-fast."""

    @pytest.mark.parametrize("activation, sw2", [
        ("relu", 1.0), ("relu", 1.99), ("erf", 0.5), ("erf", math.pi / 4),
        ("tanh", 0.5), ("tanh", 1.0),
    ])
    def test_zero_bias_below_bifurcation_is_degenerate(self, monkeypatch, activation, sw2):
        counter = MapCounter(monkeypatch)
        with pytest.raises(DegenerateFixedPointError):
            solve_qstar(Hyperparams(sw2, 0.0, activation))
        assert counter.total == 0

    @pytest.mark.parametrize("activation", ["erf", "tanh"])
    def test_zero_bias_transition_row_is_degenerate(self, monkeypatch, activation):
        sw2 = critical_sigma_w2(0.0, ActivationKernel(activation, 1.0))
        counter = MapCounter(monkeypatch)
        with pytest.raises(DegenerateFixedPointError):
            analyze(Hyperparams(sw2, 0.0, activation))
        assert counter.total == 0

    def test_degenerate_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            solve_qstar(Hyperparams(1.0, 0.0, "relu"))

    @pytest.mark.parametrize("sw2, sb2", [(2.0, 0.5), (4.0, 0.5), (2.5, 0.0), (4.0, 0.0)])
    def test_relu_without_finite_fixed_point_fails_at_once(self, monkeypatch, sw2, sb2):
        counter = MapCounter(monkeypatch)
        with pytest.raises(NonConvergenceError) as exc:
            analyze(Hyperparams(sw2, sb2, "relu"))
        assert str(exc.value) == f"no finite variance fixed point at ({sw2}, {sb2})"
        assert counter.total == 0

    @pytest.mark.parametrize("backend", ["closed", "quadrature"])
    def test_relu_qstar_is_the_closed_form(self, monkeypatch, backend):
        counter = MapCounter(monkeypatch)
        q = solve_qstar(Hyperparams(1.9, 0.5, "relu"), backend)
        assert q == 0.5 / (1.0 - 1.9 / 2.0)
        assert counter.diag == 0
        assert analyze(Hyperparams(1.9, 0.5, "relu")).qstar == 0.5 / (1.0 - 1.9 / 2.0)

    @pytest.mark.parametrize("activation", ["relu", "erf"])
    @pytest.mark.parametrize("backend, nodes, match", [
        ("bogus", 128, "unknown backend"), ("closed", 1, "quadrature nodes"),
    ])
    def test_bad_backend_or_nodes_raise_before_any_solve(self, monkeypatch, activation,
                                                         backend, nodes, match):
        # ReLU's closed form reads neither, and still checks both
        counter = MapCounter(monkeypatch)
        with pytest.raises(ValueError, match=match):
            solve_qstar(Hyperparams(1.9, 0.5, activation), backend, nodes)
        assert counter.total == 0

    def test_erf_qstar_to_full_precision(self):
        with mp.workdps(50):
            root = _mp_erf_qstar("1.5", "0.3")
            rep = analyze(Hyperparams(1.5, 0.3, "erf"))
            assert abs((rep.qstar - root) / root) <= 1e-14

    def test_erf_cstar_to_full_precision(self):
        with mp.workdps(50):
            q = _mp_erf_qstar(4, "0.5")
            c = mp.findroot(lambda c: (4 * 2 / mp.pi * mp.asin(2 * c * q / (1 + 2 * q))
                                       + mp.mpf("0.5")) / q - c, 0.6)
            rep = analyze(Hyperparams(4.0, 0.5, "erf"))
            assert abs((rep.cstar - c) / c) <= 1e-14

    @pytest.mark.parametrize("sw2, sb2", [(1.5, 0.3), (4.0, 0.5), (1.0, 0.05), (2.0, 2.0)])
    def test_tanh_qstar_residual_within_four_ulp(self, sw2, sb2):
        q = solve_qstar(Hyperparams(sw2, sb2, "tanh"))
        residual = sw2 * float(diag_second_moment(Activation.TANH, q)) + sb2 - q
        assert abs(residual) <= 4 * math.ulp(q)

    @pytest.mark.parametrize("activation", ["erf", "tanh"])
    def test_odd_activation_zero_bias_chaotic_cstar_is_exactly_zero(self, activation):
        rep = analyze(Hyperparams(2.0, 0.0, activation))
        assert rep.phase is Phase.CHAOTIC
        assert rep.cstar == 0.0

    @pytest.mark.parametrize("activation", ["erf", "tanh"])
    @pytest.mark.parametrize("sw2, sb2", [(1.5, 0.3), (4.0, 0.5), (0.5, 0.05), (1.0, 2.0)])
    def test_qstar_solve_takes_few_map_evaluations(self, monkeypatch, activation, sw2, sb2):
        counter = MapCounter(monkeypatch)
        solve_qstar(Hyperparams(sw2, sb2, activation))
        assert 0 < counter.diag <= 80

    @pytest.mark.parametrize("activation", ["erf", "tanh"])
    @pytest.mark.parametrize("sw2, sb2", [(4.0, 0.5), (2.0, 0.05)])
    def test_chaotic_cstar_solve_takes_few_map_evaluations(self, monkeypatch, activation,
                                                           sw2, sb2):
        h = Hyperparams(sw2, sb2, activation)
        k = ActivationKernel(activation, solve_qstar(h))
        counter = MapCounter(monkeypatch)
        c = solve_cstar(h, k)
        assert 0.0 < c < 1.0
        assert 0 < counter.t_map <= 80


class TestSlopes:
    def test_ordered_slopes_coincide(self):
        h = Hyperparams(0.5, 0.5, "erf")
        rep = analyze(h)
        assert rep.chi_c == rep.chi1

    def test_relu_critical_slope_is_exactly_one(self):
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        chi1, chi_c, chi1_2, chi_c_2 = slopes(h, k, 1.0)
        assert chi1 == 1.0 and chi_c == 1.0
        assert math.isinf(chi1_2)

    def test_chaotic_slopes_vs_finite_differences(self):
        h = Hyperparams(4.0, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        step = 1e-6
        fd1 = (k.t_map(rep.qstar) - k.t_map(rep.qstar - step)) / step
        assert rep.chi1 == pytest.approx(4.0 * fd1, abs=1e-5)
        qab = rep.cstar * rep.qstar
        fdc = (k.t_map(qab + step) - k.t_map(qab - step)) / (2 * step)
        assert rep.chi_c == pytest.approx(4.0 * fdc, abs=1e-5)
        fd2 = (k.t_map(qab + 1e-4) - 2 * k.t_map(qab) + k.t_map(qab - 1e-4)) / 1e-8
        assert rep.chi_c_2 == pytest.approx(4.0 * fd2, rel=1e-4)

    def test_frozen_chaotic_report(self):
        rep = analyze(Hyperparams(4.0, 0.5, "erf"))
        assert rep.phase is Phase.CHAOTIC
        assert rep.qstar == pytest.approx(ERF_CHAOTIC["qstar"], abs=1e-9)
        assert rep.chi1 == pytest.approx(ERF_CHAOTIC["chi1"], abs=1e-9)
        assert rep.chi_c == pytest.approx(ERF_CHAOTIC["chi_c"], abs=1e-9)
        assert rep.pabstar == pytest.approx(
            ERF_CHAOTIC["cstar"] * ERF_CHAOTIC["qstar"] / (1 - ERF_CHAOTIC["chi_c"]), rel=1e-8
        )


class TestCriticalLine:
    def test_relu_transition_at_two(self):
        k = ActivationKernel(Activation.RELU, 1.0)
        assert critical_sigma_w2(0.0, k) == pytest.approx(2.0, abs=1e-8)

    def test_erf_frozen_bisection_value(self):
        k = erf_kernel(1.0)
        assert critical_sigma_w2(0.5, k) == pytest.approx(ERF_CRITICAL_SW2_AT_HALF, abs=1e-6)

    def test_monotone_in_bias_variance(self):
        k = erf_kernel(1.0)
        assert critical_sigma_w2(0.0, k) <= critical_sigma_w2(2.0, k)

    @pytest.mark.parametrize("sb2", [0.0, 0.05, 0.5])
    def test_relu_line_is_exactly_two(self, sb2):
        assert critical_sigma_w2(sb2, ActivationKernel(Activation.RELU, 1.0)) == 2.0

    @pytest.mark.parametrize("activation, limit", [("erf", math.pi / 4), ("tanh", 1.0)],
                             ids=["erf", "tanh"])
    def test_zero_bias_limit_is_inverse_slope_at_origin(self, activation, limit):
        # sigma_b2 = 0 puts the fixed point at q = 0, where chi1 = sigma_w2 phi'(0)^2
        k = ActivationKernel(activation, 1.0)
        assert critical_sigma_w2(0.0, k) == pytest.approx(limit, rel=1e-12)

    # above MAX_VARIANCE too: at 1e16 erf divided by a slope that underflowed to 0
    @pytest.mark.parametrize("sb2", [float("nan"), math.inf, -0.5, 100.5, 1e16])
    def test_rejects_bad_bias_variance(self, sb2):
        with pytest.raises(ValueError):
            critical_sigma_w2(sb2, erf_kernel(1.0))

    @pytest.mark.parametrize("sb2", [0.05, 0.5, 2.0])
    def test_tanh_transition_is_critical(self, sb2):
        sw2 = critical_sigma_w2(sb2, ActivationKernel(Activation.TANH, 1.0))
        assert analyze(Hyperparams(sw2, sb2, "tanh")).phase is Phase.CRITICAL

    @pytest.mark.parametrize("sb2", [
        0.05,
        0.5,
        pytest.param(2.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the 160-node Gauss-Hermite oracle is 6.1e-5 off the line at q* = 4.8; "
            "it closes in to 1.0e-6 at 256 nodes and 1.8e-8 at 370"))),
    ])
    def test_tanh_transition_matches_160_node_quadrature(self, sb2):
        sw2 = critical_sigma_w2(sb2, ActivationKernel(Activation.TANH, 1.0))
        oracle = critical_sigma_w2(sb2, ActivationKernel("tanh", 1.0, "quadrature", 160))
        assert sw2 == pytest.approx(oracle, rel=1e-5)

    def test_tanh_transition_at_large_bias_matches_370_node_quadrature(self):
        sw2 = critical_sigma_w2(2.0, ActivationKernel(Activation.TANH, 1.0))
        oracle = critical_sigma_w2(2.0, ActivationKernel("tanh", 1.0, "quadrature", 370))
        assert sw2 == pytest.approx(oracle, rel=1e-7)

    def test_phase_changes_once_along_slice(self):
        phases = []
        for sw2 in np.linspace(0.5, 5.0, 25):
            phases.append(analyze(Hyperparams(sw2, 0.5, "erf")).phase)
        changes = sum(1 for a, b in zip(phases, phases[1:]) if a is not b)
        assert changes == 1
        chis = [analyze(Hyperparams(sw2, 0.5, "erf")).chi1 for sw2 in np.linspace(0.5, 5.0, 10)]
        assert all(b > a for a, b in zip(chis, chis[1:]))


class TestDepthScales:
    def test_direct_formula(self):
        xi1, _, _ = depth_scales(0.5, 0.5)
        assert xi1 == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_critical_is_infinite(self):
        xi1, _, _ = depth_scales(1.0, 1.0)
        assert math.isinf(xi1)

    def test_chaotic_joint_scale(self):
        _, _, xi_star = depth_scales(1.25, 0.8)
        assert xi_star == pytest.approx(-1.0 / math.log(0.64), rel=1e-12)

    def test_undefined_above_one(self):
        xi1, xi_c, xi_star = depth_scales(1.25, 0.8)
        assert xi1 is None and xi_c is not None and xi_star is not None


class TestSpectrumPredictions:
    def setup_method(self):
        self.h = Hyperparams(ERF_CRITICAL_SW2_AT_HALF, 0.5, "erf")
        self.rep = analyze(self.h)
        assert self.rep.phase is Phase.CRITICAL

    def test_critical_fcn_kappa(self):
        assert predict_spectrum(self.rep, self.h, 12, 512, "ntk").kappa == pytest.approx(7.0)

    def test_critical_pooled_kappa(self):
        hp = Hyperparams(
            ERF_CRITICAL_SW2_AT_HALF, 0.5, "erf",
            architecture=Architecture.CNN_P, spatial_size=36,
        )
        assert predict_spectrum(self.rep, hp, 12, 512, "ntk").kappa == pytest.approx(217.0)

    def test_critical_relu_kappa(self):
        h = Hyperparams(2.0, 0.0, "relu")
        rep = analyze(h)
        assert predict_spectrum(rep, h, 12, 2000, "ntk").kappa == pytest.approx(5.0)

    def test_kappa_at_least_one_everywhere(self):
        for sw2 in (0.5, ERF_CRITICAL_SW2_AT_HALF, 4.0):
            h = Hyperparams(sw2, 0.5, "erf")
            rep = analyze(h)
            for kind in ("ntk", "nngp"):
                assert predict_spectrum(rep, h, 8, 64, kind).kappa >= 1.0

    def test_ordered_nngp_kappa_saturates_to_inf(self):
        # chi1 = 0.5 exactly; 0.5 ** -2000 overflows, and _pow saturates instead of raising
        h = Hyperparams(1.0, 0.5, "relu")
        rep = analyze(h)
        assert rep.chi1 == 0.5
        assert predict_spectrum(rep, h, 12, 2000, "nngp").kappa == math.inf

    @pytest.mark.parametrize("kind", ["ntk", "nngp"])
    def test_zero_weight_variance_kappa_is_inf(self, kind):
        # chi1 = 0: the ordered NNGP law reads 0.0 ** -l, which saturates to inf
        h = Hyperparams(0.0, 0.5, "erf")
        rep = analyze(h)
        assert rep.chi1 == 0.0
        for l in (1, 3, 50):
            assert predict_spectrum(rep, h, 12, l, kind).kappa == math.inf

    @pytest.mark.parametrize("m, kind, match", [(1, "ntk", "m >= 2"), (12, "cntk", "kind")])
    def test_rejects_bad_arguments(self, m, kind, match):
        with pytest.raises(ValueError, match=match):
            predict_spectrum(self.rep, self.h, m, 64, kind)

    def test_relu_ordered_ntk_kappa_follows_the_half_rate(self, tmp_path):
        # the kink sets the NTK bulk rate to chi1^(l/2): measured kappa over its
        # unit-prefactor prediction stays constant (0.671 to 0.681) over depths 16-48;
        # the old l*chi1^l law drifted from 0.032 to 1.4e-6.  Depth 64 sits at the
        # precision floor of the measured kappa.
        cfg = SweepConfig(activation="relu", sigma_w2_grid=(1.0,), depths=(16, 24, 32, 48),
                          outputs=("kappa",))
        run_sweep(cfg, tmp_path)
        lines = (tmp_path / "kappa.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        ratios = [float(r["kappa"]) / float(r["kappa_pred"]) for r in rows if r["kind"] == "ntk"]
        assert len(ratios) == 4
        assert ratios[0] == pytest.approx(0.671, abs=1e-3)
        assert max(ratios) / min(ratios) < 1.03


class TestScalarCorrections:
    def test_critical_diag_is_linear(self):
        h = Hyperparams(ERF_CRITICAL_SW2_AT_HALF, 0.5, "erf")
        rep = analyze(h)
        _, _, p = predict_scalar_corrections(rep, 50)
        assert p == pytest.approx(50 * rep.qstar, rel=1e-9)

    def test_critical_offdiag_ratio(self):
        h = Hyperparams(ERF_CRITICAL_SW2_AT_HALF, 0.5, "erf")
        rep = analyze(h)
        _, delta, p = predict_scalar_corrections(rep, 300)
        # p_ab = p + delta -> l*q*/3
        assert (p + delta) / 300 == pytest.approx(rep.qstar / 3.0, rel=1e-9)

    @pytest.mark.parametrize("sw2, depth, rel", [(1.0, 30, 1e-3), (1.5, 60, 2e-3)])
    def test_relu_ordered_ntk_deviation_follows_sqrt_of_eps(self, sw2, depth, rel):
        # T_dot(1) - T_dot(c) ~ sqrt(2(1 - c))/(2 pi) at the kink, so
        # delta -> F sqrt(-eps), F = -chi1 pstar sqrt(2/qstar) / (pi (sqrt(chi1) - chi1))
        h = Hyperparams(sw2, 0.5, "relu")
        rep = analyze(h)
        q, chi = rep.qstar, rep.chi1
        K = np.array([[q, 0.2 * q], [0.2 * q, q]])
        s = KernelPair(nngp=K, ntk=K.copy(), depth=0)
        for _ in range(depth):
            s = step_fcn(s, h, ActivationKernel("relu", q))
        eps, delta = s.nngp[0, 1] - q, s.ntk[0, 1] - rep.pstar
        l = paper_layer(s.depth)
        eps_pred, delta_pred, _ = predict_scalar_corrections(rep, l, eps0=eps / chi**l)
        assert eps_pred == pytest.approx(eps, rel=1e-12)
        F = -chi * rep.pstar * math.sqrt(2.0 / q) / (math.pi * (math.sqrt(chi) - chi))
        assert delta_pred == pytest.approx(F * math.sqrt(-eps), rel=1e-12)
        assert delta == pytest.approx(delta_pred, rel=rel)

    def test_degenerate_zero_weight_variance(self):
        rep = analyze(Hyperparams(0.0, 1.3, "erf"))
        for l in (1, 7, 50):
            _, _, p = predict_scalar_corrections(rep, l)
            assert p == pytest.approx(1.3, rel=1e-12)


class TestZetaExtraction:
    def test_fit_recovers_planted_constant(self):
        chi = 0.8
        depths = np.arange(20, 61)
        eps = 0.37 * chi**depths
        assert fit_zeta(depths, eps, chi) == pytest.approx(0.37, rel=1e-12)

    def test_needs_two_depths(self):
        with pytest.raises(ValueError, match="two depths"):
            fit_zeta([20], [0.37 * 0.8**20], 0.8)

    def test_cauchy_property_of_normalized_sequence(self):
        # chi^{-l} eps_l from the real recursion: successive differences shrink
        # geometrically.  The ratio check stops at l=70, short of l ~ 78 where
        # the double-precision floor of eps_l, amplified by chi_c^{-l},
        # reaches the size of the genuine differences.
        h = Hyperparams(4.0, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        q_ab = 0.2 * rep.qstar
        s = KernelPair(
            nngp=np.array([[rep.qstar, q_ab], [q_ab, rep.qstar]]),
            ntk=np.array([[0.0, q_ab], [q_ab, 0.0]]),
            depth=0,
        )
        eps_by_depth = {}
        qab_star = rep.cstar * rep.qstar
        for l in range(1, 71):
            s = step_fcn(s, h, k)
            if l >= 20:
                eps_by_depth[l] = s.nngp[0, 1] - qab_star
        seq = [rep.chi_c**-l * eps_by_depth[l] for l in range(20, 71)]
        diffs = np.abs(np.diff(seq))
        ratios = diffs[1:] / diffs[:-1]
        assert np.all(ratios < 1.0)
        assert np.median(ratios) == pytest.approx(rep.chi_c, rel=0.15)
        # the fitted limit over the full window agrees with its first 26 depths
        depths_full = np.array(sorted(eps_by_depth))
        eps_full = np.array([eps_by_depth[l] for l in depths_full])
        zeta_full = fit_zeta(depths_full, eps_full, rep.chi_c)
        zeta_clean = fit_zeta(depths_full[:26], eps_full[:26], rep.chi_c)
        assert zeta_full == pytest.approx(zeta_clean, rel=1e-4)
