"""Acceptance suite: the quantitative large-depth claims at their stated
tolerances, one criterion per test, each printing a pass line with the
measured values and runtime (visible under ``pytest -s`` / ``-rP``).

Hyperparameter points are fixed and the data generator is counter-based, so
every number here is reproducible bit for bit.
"""

import hashlib
import json
import math
import time

import numpy as np

from ntkphase import (
    Activation,
    ActivationKernel,
    Hyperparams,
    KernelPair,
    OdeKernelState,
    ReadoutMode,
    ResidualVariant,
    analyze,
    apply_dropout,
    center_labels,
    dropout_kappa_limit,
    fit_rate,
    fourier_eigs,
    init_cnn_kernels,
    init_kernels,
    integrate_residual,
    normalize_inputs,
    normalize_inputs_cnn,
    ordered_limit_predictor,
    paper_layer,
    predictor_decay,
    propagate_cnn,
    propagate_fcn,
    readout,
    spectrum,
    step_cnn,
    step_fcn,
)
from ntkphase.cli import main as cli_main
from ntkphase.data import cnn_inputs, normals
from ntkphase.sweep import SweepConfig, SweepOutput, run_sweep

ERF_CRITICAL_SW2 = 2.2336596345  # chi1 = 1 for Erf at sigma_b2 = 0.5 (bisection oracle)


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, budget, sw, detail):
    print(f"PASS criterion {num}: {detail} [{sw.elapsed:.2f}s < {budget}s]")
    assert sw.elapsed < budget


def two_point(q, q_ab, p, p_ab):
    """One input pair as a 2 x 2 state of the dense recursion."""
    return KernelPair(
        nngp=np.array([[q, q_ab], [q_ab, q]]), ntk=np.array([[p, p_ab], [p_ab, p]]), depth=0
    )


def erf_kernel(qstar):
    return ActivationKernel(Activation.ERF, qstar)


def test_criterion_01_closed_form_vs_quadrature():
    budget = 1.0
    with Stopwatch() as sw:
        worst = 0.0
        for activation in (Activation.ERF, Activation.RELU):
            qstar = 1.3
            closed = ActivationKernel(activation, qstar, "closed")
            quad = ActivationKernel(activation, qstar, "quadrature", nodes=200)
            grid = np.linspace(-qstar + 1e-3, qstar - 1e-3, 100)
            for q in grid:
                worst = max(worst, abs(closed.t_map(q) - quad.t_map(q)))
                worst = max(worst, abs(closed.t_dot(q) - quad.t_dot(q)))
        assert worst < 1e-6
    report(1, budget, sw, f"closed vs 200-node quadrature, max |diff| = {worst:.2e} < 1e-6")


def test_criterion_02_chaotic_conditioning():
    budget = 5.0
    with Stopwatch() as sw:
        h = Hyperparams(4.0, 0.5, "erf")
        rep = analyze(h)
        assert rep.chi1 > 1
        xi = 1.0 / math.log(rep.chi1)
        depth_limit = round(10 * xi)
        k = erf_kernel(rep.qstar)
        X = normalize_inputs(normals(0, (12, 30)), rep.qstar)
        depths = list(range(max(1, depth_limit - 14), depth_limit + 1))
        series = []
        for kp in propagate_fcn(init_kernels(X), h, k, depths):
            series.append((kp.depth, spectrum(kp.ntk, kp.depth).kappa - 1.0))
        gap = series[-1][1]
        assert gap < 1e-3
        fit = fit_rate(series, "log_linear")
        rate_dev = abs(fit.slope + math.log(rep.chi1)) / math.log(rep.chi1)
        assert rate_dev < 0.10
    report(2, budget, sw,
           f"kappa-1 = {gap:.2e} < 1e-3 at depth {depth_limit} = 10*xi; "
           f"decay rate off chi1^-1 by {100 * rate_dev:.1f}% < 10%")


def test_criterion_03_ordered_conditioning():
    budget = 5.0
    with Stopwatch() as sw:
        h = Hyperparams(1.5, 0.3, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        X = normalize_inputs(normals(0, (12, 30)), rep.qstar)
        depths = list(range(round(4 * rep.xi1), round(8 * rep.xi1) + 1))
        vals = []
        for kp in propagate_fcn(init_kernels(X), h, k, depths):
            lp = paper_layer(kp.depth)
            vals.append(spectrum(kp.ntk, kp.depth).kappa * lp * rep.chi1**lp)
        variation = np.ptp(vals) / np.mean(vals)
        assert variation < 0.10
    report(3, budget, sw,
           f"kappa * l * chi1^l varies {100 * variation:.1f}% < 10% over [4,8]*xi1")


def test_criterion_04_critical_conditioning():
    budget = 60.0
    with Stopwatch() as sw:
        h = Hyperparams(ERF_CRITICAL_SW2, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        X = normalize_inputs(normals(0, (12, 30)), rep.qstar)
        kp = propagate_fcn(init_kernels(X), h, k, [512])[0]
        kappa_fcn = spectrum(kp.ntk, kp.depth).kappa
        fcn_dev = abs(kappa_fcn / 7.0 - 1.0)
        assert fcn_dev < 0.02

        d = 6
        Xc = normalize_inputs_cnn(cnn_inputs(12, 24, d, seed=0), rep.qstar)
        hp = Hyperparams(ERF_CRITICAL_SW2, 0.5, "erf", architecture="cnn_p", spatial_size=d)
        ck = next(iter(propagate_cnn(init_cnn_kernels(Xc, 1), hp, k, [512])))
        kappa_pool = spectrum(readout(ck, ReadoutMode.POOL).ntk, 512).kappa
        target = (12 * d + 2) / 2.0
        pool_dev = abs(kappa_pool / target - 1.0)
        assert pool_dev < 0.05
    report(4, budget, sw,
           f"FCN kappa(512) = {kappa_fcn:.3f} within {100 * fcn_dev:.2f}% of 7; "
           f"CNN-P kappa(512) = {kappa_pool:.2f} within {100 * pool_dev:.2f}% of {target}")


def test_criterion_05_critical_scalar_laws():
    budget = 2.0
    with Stopwatch() as sw:
        # exact linear growth: the ReLU critical point is the one whose slope
        # is exactly representable (chi1 = 2 * 1/2 = 1.0)
        h_relu = Hyperparams(2.0, 0.0, "relu")
        k_relu = ActivationKernel(Activation.RELU, 1.0)
        s = propagate_fcn(two_point(1.0, 0.3, 0.0, 0.3), h_relu, k_relu, [4096])[0]
        assert s.ntk[0, 0] == 4096.0

        h = Hyperparams(ERF_CRITICAL_SW2, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        se = two_point(rep.qstar, 0.3 * rep.qstar, 0.0, 0.3 * rep.qstar)
        se = propagate_fcn(se, h, k, [4096])[0]
        ratio_dev = abs(se.ntk[0, 1] / 4096 / (rep.qstar / 3.0) - 1.0)
        assert ratio_dev < 0.02
        eps = se.nngp[0, 1] - rep.qstar
        eps_dev = abs(4096 * eps / (-2.0 / rep.chi1_2) - 1.0)
        assert eps_dev < 0.05
    report(5, budget, sw,
           f"ReLU p(4096) = 4096 exactly; Erf p_ab/l off q*/3 by {100 * ratio_dev:.2f}% < 2%; "
           f"l*eps off -2/chi12 by {100 * eps_dev:.2f}% < 5%")


def test_criterion_06_predictor_decay_rates():
    budget = 10.0
    with Stopwatch() as sw:
        h = Hyperparams(6.0, 0.5, "erf")
        rep = analyze(h)
        Y = np.array([1.0, -1.0] * 6).reshape(-1, 1)
        series = predictor_decay(
            h, normals(11, (12, 24)), normals(12, (8, 24)), Y,
            list(range(20, 61, 4)),
        )
        ntk_fit = fit_rate(series["ntk"], "log_linear")
        ntk_target = math.log(rep.chi_c / rep.chi1)
        ntk_dev = abs(ntk_fit.slope / ntk_target - 1.0)
        assert ntk_dev < 0.05
        nngp_fit = fit_rate(series["nngp"], "log_linear")
        nngp_target = math.log(rep.chi_c)
        nngp_dev = abs(nngp_fit.slope / nngp_target - 1.0)
        assert nngp_dev < 0.05
        assert nngp_fit.slope > ntk_fit.slope  # NNGP decays strictly slower

        hc = Hyperparams(ERF_CRITICAL_SW2, 0.5, "erf")
        crit = predictor_decay(
            hc, normals(11, (12, 24)), normals(12, (8, 24)), Y, list(range(50, 401, 25))
        )
        crit_fit = fit_rate(crit["ntk"], "power_law")
        crit_dev = abs(crit_fit.slope + 1.0)
        assert crit_dev < 0.10
    report(6, budget, sw,
           f"chaotic NTK slope off log(chi_c/chi1) by {100 * ntk_dev:.1f}%, "
           f"NNGP off log(chi_c) by {100 * nngp_dev:.1f}% (both < 5%); "
           f"critical exponent {crit_fit.slope:.3f} within 10% of -1")


def test_criterion_07_ordered_predictor_limit():
    budget = 5.0
    with Stopwatch() as sw:
        h = Hyperparams(2.0, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        X = normalize_inputs(normals(7, (10, 24)), rep.qstar)
        kp0 = init_kernels(X)
        n_train = 6

        depth = round(6 * rep.xi1)
        kp = propagate_fcn(kp0, h, k, [depth])[0]
        P = ordered_limit_predictor(kp, rep, n_train, verify_tol=None)
        direct = kp.ntk[n_train:, :n_train] @ np.linalg.inv(kp.ntk[:n_train, :n_train])
        rel = np.max(np.abs(P - direct)) / np.max(np.abs(direct))
        assert rel < 1e-6

        Y = center_labels(np.array([1.0, -1.0] * 3).reshape(-1, 1))
        l0 = round(12 * rep.xi1)
        kps = propagate_fcn(kp0, h, k, [l0, l0 + 20])
        P1 = ordered_limit_predictor(kps[0], rep, n_train, verify_tol=None)
        P2 = ordered_limit_predictor(kps[1], rep, n_train, verify_tol=None)
        change = np.linalg.norm(P1 @ Y - P2 @ Y) / np.linalg.norm(P1 @ Y)
        assert change < 0.01
    report(7, budget, sw,
           f"rank-one form off direct solve by {rel:.2e} < 1e-6 at depth {depth}; "
           f"P(Theta)Y changes {100 * change:.2f}% < 1% between depths {l0} and {l0 + 20}")


def test_criterion_08_critical_relu():
    budget = 2.0
    with Stopwatch() as sw:
        m = 12
        h = Hyperparams(2.0, 0.0, "relu")
        k = ActivationKernel(Activation.RELU, 1.0)
        s = two_point(1.0, 0.3, 0.0, 0.3)
        nngp_kappas = []
        for target in (400, 800, 1200, 1600, 2000):
            s = propagate_fcn(s, h, k, [target])[0]
            c = s.nngp[0, 1]
            nngp_kappas.append((target, (1 + (m - 1) * c) / (1 - c)))
        # two-value structure: eigenvalues p + (m-1) p_ab and p - p_ab
        p, p_ab = s.ntk[0]
        kappa_ntk = (p + (m - 1) * p_ab) / (p - p_ab)
        ntk_dev = abs(kappa_ntk / ((m + 3) / 3.0) - 1.0)
        assert ntk_dev < 0.02
        eps_limit = 2000**2 * (1.0 - s.nngp[0, 1])
        eps_dev = abs(eps_limit / (4.5 * math.pi**2) - 1.0)
        assert eps_dev < 0.03
        power = fit_rate(nngp_kappas, "power_law")
        assert abs(power.slope - 2.0) < 0.1
    report(8, budget, sw,
           f"NTK kappa(2000) = {kappa_ntk:.4f} within {100 * ntk_dev:.2f}% of 5; "
           f"l^2 eps = {eps_limit:.2f} within {100 * eps_dev:.2f}% of 9pi^2/2; "
           f"NNGP kappa power {power.slope:.3f} = 2 +- 0.1")


def test_criterion_09_residual_flows():
    budget = 5.0
    with Stopwatch() as sw:
        s0 = OdeKernelState(0.0, 1.0, 0.3, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU)
        st = integrate_residual(s0, [5.0])[-1]
        q_dev = abs(st.q_diag / math.e**5 - 1.0)
        p_dev = abs(st.p_diag / (5 * math.e**5) - 1.0)
        assert q_dev < 1e-6 and p_dev < 1e-6

        s0 = OdeKernelState(0.0, 1.0, -0.5, 0.0, 0.0, ResidualVariant.RESIDUAL_RELU_LAYERNORM)
        traj = integrate_residual(s0, [50.0, 100.0])
        by_t = {round(s.t): s for s in traj}
        assert abs(by_t[100].q_diag - 1.0) < 1e-8
        assert abs(by_t[100].p_diag - 100.0) < 1e-8
        # the integrated value approaches its limit with a known 1/t term;
        # two sampling times cancel it (raw snapshots sit ~10% low at t=100
        # for every admissible starting correlation)
        f = lambda t: (1 - by_t[t].q_ab) * t * t
        y_limit = 2 * f(100) - f(50)
        y_dev = abs(y_limit / (4.5 * math.pi**2) - 1.0)
        assert y_dev < 0.05
        g = lambda t: by_t[t].p_ab / t
        p_ab_limit = 2 * g(100) - g(50)
        pab_dev = abs(p_ab_limit / 0.25 - 1.0)
        assert pab_dev < 0.05
    report(9, budget, sw,
           f"residual: q, p within 1e-6 at t=5; layer norm: q = 1, p = t, "
           f"(1-q_ab)t^2 -> {y_limit:.2f} ({100 * y_dev:.1f}% of 9pi^2/2), "
           f"p_ab/t -> {p_ab_limit:.4f} ({100 * pab_dev:.1f}% of 1/4)")


def test_criterion_10_dropout():
    budget = 5.0
    with Stopwatch() as sw:
        m = 10
        h = Hyperparams(2.0, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        base = normals(3, (24,))
        X = normalize_inputs(base[None, :] + 0.02 * normals(4, (m, 24)), rep.qstar)
        depth = round(8 * rep.xi1)
        kp = propagate_fcn(init_kernels(X), h, k, [depth - 1])[0]
        devs = {}
        for rho in (0.8, 0.95, 0.99):
            h_drop = Hyperparams(2.0, 0.5, "erf", dropout_keep=rho)
            kappa = spectrum(apply_dropout(kp, h_drop, k).ntk, depth).kappa
            limit = dropout_kappa_limit(m, rep.pstar, 0.5, rho)
            devs[rho] = abs(kappa / limit - 1.0)
            assert devs[rho] < 0.02
        plain = step_fcn(kp, h, k)
        same = apply_dropout(kp, h, k)
        assert np.array_equal(plain.ntk, same.ntk) and np.array_equal(plain.nngp, same.nngp)
    report(10, budget, sw,
           "kappa limit deviations at 8*xi1: "
           + ", ".join(f"rho={r}: {100 * d:.2f}%" for r, d in devs.items())
           + " (all < 2%); rho=1 bit-identical to the plain step")


def test_criterion_11_cnn_structure():
    budget = 60.0
    with Stopwatch() as sw:
        # (a) averaging-operator spectrum for every real window up to d = 32
        for d in range(1, 33):
            for hw in range(1, (d - 1) // 2 + 1):
                rho = fourier_eigs(d, hw)
                assert abs(rho[0] - 1.0) < 1e-12
                assert np.max(np.abs(rho[1:])) < 1.0

        # (b) single-pixel CNN path reproduces the dense path
        h = Hyperparams(4.0, 0.5, "erf")
        rep = analyze(h)
        k = erf_kernel(rep.qstar)
        X = normalize_inputs(normals(5, (6, 20)), rep.qstar)
        kp = init_kernels(X)
        ck = init_cnn_kernels(X[:, :, None], 0)
        h1 = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=1)
        for _ in range(20):
            kp = step_fcn(kp, h, k)
            ck = step_cnn(ck, h1, k)
        flat = readout(ck, ReadoutMode.FLATTEN)
        np.testing.assert_allclose(flat.ntk, kp.ntk, rtol=1e-12)
        np.testing.assert_allclose(flat.nngp, kp.nngp, rtol=1e-12)

        # (c) flatten readout converges to the dense kernel geometrically,
        # and the subdominant spatial mode decays at rho_1 * chi as the
        # linearized recursion predicts
        d, hw = 6, 1
        rho1 = abs(fourier_eigs(d, hw)[1])
        ho = Hyperparams(1.5, 0.3, "erf")
        repo = analyze(ho)
        ko = erf_kernel(repo.qstar)
        hof = Hyperparams(1.5, 0.3, "erf", architecture="cnn_f", spatial_size=d)
        Xc = normalize_inputs_cnn(cnn_inputs(6, 24, d, seed=4), repo.qstar)
        ck = init_cnn_kernels(Xc, hw)
        kpf = readout(ck, ReadoutMode.FLATTEN)
        diffs = []
        for l in range(1, 41):
            ck = step_cnn(ck, hof, ko)
            kpf = step_fcn(kpf, ho, ko)
            if l >= 10:
                diffs.append((l, np.max(np.abs(readout(ck, ReadoutMode.FLATTEN).ntk - kpf.ntk))))
        conv = fit_rate(diffs, "log_linear")
        assert math.exp(conv.slope) < 1.0 and conv.r2 > 0.95

        hc = Hyperparams(4.0, 0.5, "erf", architecture="cnn_f", spatial_size=d)
        Xg = normalize_inputs_cnn(cnn_inputs(4, 20, d, seed=5), rep.qstar)
        ckc = init_cnn_kernels(Xg, hw)
        amps = []
        for l in range(1, 46):
            ckc = step_cnn(ckc, hc, k)
            if l >= 30:
                B = ckc.block(0, 1, "nngp")
                v = np.array([B[a, a] for a in range(d)])
                amps.append((l, np.abs(np.fft.fft(v))[1]))
        mode = fit_rate(amps, "log_linear")
        mode_dev = abs(math.exp(mode.slope) / (rho1 * rep.chi_c) - 1.0)
        assert mode_dev < 0.15
    report(11, budget, sw,
           f"rho_0 = 1, |rho_q| < 1 for all d <= 32; d=1 path equals dense to 1e-12; "
           f"flatten->dense geometric (rate {math.exp(conv.slope):.3f}); subdominant mode "
           f"rate off rho1*chi_c by {100 * mode_dev:.1f}% < 15%")


def test_criterion_12_learning_rate_threshold():
    budget = 1.0
    with Stopwatch() as sw:
        for seed in range(10):
            A = normals(seed, (6, 6))
            K = A @ A.T + 0.5 * np.eye(6)
            Y = center_labels(normals(seed + 50, (6, 1)))
            lam_max = spectrum(K).lambda_max
            mu = np.zeros_like(Y)
            for _ in range(400):
                mu = mu + (1.9 / lam_max) * K @ (Y - mu)
            assert np.linalg.norm(Y - mu) < 1e-6 * max(np.linalg.norm(Y), 1.0)
            mu = np.zeros_like(Y)
            for _ in range(400):
                mu = mu + (2.1 / lam_max) * K @ (Y - mu)
            assert np.max(np.abs(mu)) > 1e6
    report(12, budget, sw,
           "discrete GD converges at 1.9/lambda_max and diverges at 2.1/lambda_max "
           "on 10 random PSD kernels")


def test_criterion_13_sweep_determinism(tmp_path):
    budget = 60.0
    cfg = SweepConfig(
        sigma_w2_grid=(1.0, ERF_CRITICAL_SW2, 4.0),
        sigma_b2_grid=(0.5,),
        depths=(1, 4, 16, 64),
        m=8,
        n=4,
        n_features=20,
        seed=123,
        outputs=(SweepOutput.PHASE_DIAGRAM, SweepOutput.KAPPA,
                 SweepOutput.PREDICTOR_DECAY, SweepOutput.SPECTRUM,
                 SweepOutput.DYNAMICS_TRACE),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_jsonable()))
    with Stopwatch() as sw:
        runs = []
        for name in ("a", "b"):
            res = run_sweep(cfg, tmp_path / name, formats=("csv", "json"))
            runs.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in res.paths})
        for threads in (1, 4):  # the CLI still accepts --threads; it must change nothing
            out = tmp_path / f"cli{threads}"
            for fmt in ("csv", "json"):
                rc = cli_main(["sweep", "--config", str(cfg_path), "--threads", str(threads),
                               "--format", fmt, "--out", str(out)])
                assert rc == (2 if res.n_point_errors else 0)
            runs.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in out.iterdir()})
        assert runs[0] == runs[1] == runs[2] == runs[3]
    report(13, budget, sw,
           f"two identical library runs and CLI runs at --threads 1 and 4 produce "
           f"byte-identical outputs ({len(runs[0])} files)")
