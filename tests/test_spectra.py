"""Eigen summaries, rate fits and depth trajectories."""

import math

import numpy as np
import pytest

from ntkphase import Hyperparams, analyze, fit_rate, kappa_trajectory, spectrum
from ntkphase.data import normals
from ntkphase.spectra import AsymmetryError


def charpoly_roots_3x3(M):
    """Eigenvalues of a symmetric 3x3 via its characteristic polynomial."""
    tr = np.trace(M)
    minors = (
        M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
        + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
    )
    det = np.linalg.det(M)
    # lambda^3 - tr lambda^2 + minors lambda - det
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]


class TestSpectrum:
    def test_two_eigenvalue_structured_matrix(self):
        m, c, q = 5, 0.5, 1.0
        M = q * (c * np.ones((m, m)) + (1 - c) * np.eye(m))
        s = spectrum(M)
        assert s.lambda_max == pytest.approx(q * (1 + (m - 1) * c), rel=1e-12)
        assert s.lambda_bulk == pytest.approx(q * (1 - c), rel=1e-12)
        # (m-1)-fold degenerate bulk
        np.testing.assert_allclose(s.eigenvalues[1:], q * (1 - c), atol=1e-10)

    def test_identity(self):
        s = spectrum(np.eye(4))
        assert s.kappa == 1.0
        np.testing.assert_array_equal(s.eigenvalues, np.ones(4))

    def test_random_3x3_vs_characteristic_polynomial(self):
        A = normals(0, (3, 3))
        M = A + A.T
        s = spectrum(M)
        np.testing.assert_allclose(s.eigenvalues, charpoly_roots_3x3(M), atol=1e-9)

    def test_trace_and_determinant_identities(self):
        for seed in range(3):
            A = normals(seed, (6, 6))
            M = A @ A.T + np.eye(6)
            s = spectrum(M)
            assert np.sum(s.eigenvalues) == pytest.approx(np.trace(M), rel=1e-9)
            assert np.prod(s.eigenvalues) == pytest.approx(np.linalg.det(M), rel=1e-9)

    def test_kappa_scaling_invariance(self):
        A = normals(1, (5, 5))
        M = A @ A.T + 0.3 * np.eye(5)
        k1 = spectrum(M).kappa
        k2 = spectrum(math.pi * M).kappa
        assert k2 == pytest.approx(k1, rel=1e-12)

    def test_asymmetry_rejected(self):
        M = np.eye(3)
        M[0, 1] = 1e-6
        with pytest.raises(AsymmetryError):
            spectrum(M)

    def test_kappa_ordering_invariant(self):
        A = normals(2, (6, 6))
        M = A @ A.T + 0.1 * np.eye(6)
        s = spectrum(M)
        assert s.kappa >= s.kappa_bulk >= 1.0


class TestSpectrumSolver:
    """``spectrum`` runs LAPACK through scipy; it must agree with numpy's solver."""

    @pytest.mark.parametrize("n", [1, 2, 17, 128])
    @pytest.mark.parametrize("definite", [True, False])
    def test_matches_numpy_eigvalsh(self, n, definite):
        A = normals(n, (n, n))
        M = A @ A.T + 0.1 * np.eye(n) if definite else A + A.T
        ref = np.linalg.eigvalsh(M)[::-1]
        s = spectrum(M, depth=3)
        np.testing.assert_allclose(s.eigenvalues, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        assert s.lambda_max == s.eigenvalues[0] and s.lambda_min == s.eigenvalues[-1]
        assert s.depth == 3
        if definite:
            assert s.lambda_min > 0 and s.kappa == s.lambda_max / s.lambda_min

    @pytest.mark.parametrize(
        "M",
        [
            [[2.0, math.nan], [math.nan, 2.0]],
            [[2.0, math.nan, 0.0], [math.nan, 2.0, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    def test_nan_entry_gives_nan_eigenvalues(self, M):
        s = spectrum(np.array(M))
        assert np.isnan(s.eigenvalues).sum() == 2
        ref = np.linalg.eigvalsh(M)[::-1]
        np.testing.assert_array_equal(np.isnan(s.eigenvalues), np.isnan(ref))

    def test_nan_diagonal_fails_like_numpy(self):
        # LAPACK cannot converge here; the error is numpy's LinAlgError type,
        # not the finite-input ValueError of a checked scipy call
        M = np.diag([1.0, math.nan, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(M)
        with pytest.raises(np.linalg.LinAlgError):
            spectrum(M)

    def test_does_not_call_numpy_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvalsh called")

        A = normals(4, (6, 6))
        M = A @ A.T + np.eye(6)
        ref = spectrum(M).eigenvalues
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        np.testing.assert_array_equal(spectrum(M).eigenvalues, ref)


class TestFitRate:
    def test_exact_geometric_series(self):
        fit = fit_rate([(l, 2.0**l) for l in range(3, 11)], "log_linear")
        assert fit.slope == pytest.approx(math.log(2.0), rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        fit = fit_rate([(l, 5.0 * l**-2.0) for l in range(3, 11)], "power_law")
        assert fit.slope == pytest.approx(-2.0, rel=1e-12)

    def test_window_recorded(self):
        fit = fit_rate([(l, math.exp(-0.3 * l)) for l in (4, 6, 8, 10)], "log_linear")
        assert fit.window == (4.0, 10.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([(1, 1.0), (2, 0.5), (3, 0.25)], "log_linear")

    def test_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_rate([(1, 1.0), (2, 0.5), (3, -0.25), (4, 0.1)], "log_linear")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_rate([(1, 1.0)] * 5, "spline")


class TestKappaTrajectory:
    def test_chaotic_ntk_conditioning_approaches_one(self):
        h = Hyperparams(4.0, 0.5, "erf")
        traj = kappa_trajectory(h, normals(0, (12, 30)), [2, 8, 20, 40])
        kappas = [s.kappa for s in traj["ntk"]]
        assert all(b < a for a, b in zip(kappas, kappas[1:]))
        assert kappas[-1] - 1.0 < 1e-3

    def test_critical_ntk_conditioning_limit(self):
        h = Hyperparams(2.2336596345, 0.5, "erf")  # chi1 = 1 at sigma_b2 = 0.5
        depths = [32, 64, 128, 256, 512]
        traj = kappa_trajectory(h, normals(0, (12, 30)), depths)
        gaps = [abs(s.kappa - 7.0) for s in traj["ntk"]]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert traj["ntk"][-1].kappa == pytest.approx(7.0, rel=0.02)

    def test_ordered_divergence_rate_stabilizes(self):
        h = Hyperparams(1.5, 0.3, "erf")
        rep = analyze(h)
        depths = list(range(round(4 * rep.xi1), round(8 * rep.xi1) + 1, 2))
        traj = kappa_trajectory(h, normals(0, (12, 30)), depths)
        vals = [s.kappa * (s.depth + 1) * rep.chi1 ** (s.depth + 1) for s in traj["ntk"]]
        assert np.ptp(vals) / np.mean(vals) < 0.10

    def test_depths_must_increase(self):
        with pytest.raises(ValueError):
            kappa_trajectory(Hyperparams(1.0, 0.5, "erf"), normals(0, (4, 8)), [4, 2])
