"""Gaussian KDE: bandwidth rule, covariance, log-density, and invariants."""

import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp
from scipy.stats import qmc

from helpers import naive_log_density
from iwre.errors import NumericalError, ValidationError
from iwre.kde import (
    RIDGE_EPS,
    BandwidthSpec,
    GaussianKde,
    fit_kde,
    log_mean_exp,
    sample_covariance,
    scott_bandwidth,
)

LOG_2PI = np.log(2 * np.pi)


def decimal_scott(scale_c: str, count: int, dim: int) -> float:
    """High-precision reference via the decimal module (30 digits)."""
    getcontext().prec = 30
    exponent = Decimal(-1) / Decimal(dim + 4)
    return float(Decimal(scale_c) * (exponent * Decimal(count).ln()).exp())


class TestScottBandwidth:
    def test_single_point_is_scale(self):
        assert scott_bandwidth(4.0, 1, 16) == 4.0

    def test_reference_value(self):
        got = scott_bandwidth(4.0, 100, 16)
        want = decimal_scott("4", 100, 16)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_halving_scale_halves_bandwidth_exactly(self):
        assert scott_bandwidth(2.0, 100, 16) == scott_bandwidth(4.0, 100, 16) / 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            scott_bandwidth(0.0, 10, 2)
        with pytest.raises(ValidationError):
            scott_bandwidth(1.0, 0, 2)

    def test_bandwidth_spec_positive(self):
        with pytest.raises(ValidationError):
            BandwidthSpec(-1.0)


class TestSampleCovariance:
    def test_square_corners(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(
            sample_covariance(pts), np.diag([4.0 / 3.0, 4.0 / 3.0]), atol=1e-15
        )

    def test_single_point_falls_back_to_identity(self):
        np.testing.assert_array_equal(sample_covariance([[5.0]]), [[1.0]])

    def test_large_sample_recovers_truth(self):
        rng = np.random.default_rng(3)
        truth = np.array([[2.0, 0.5], [0.5, 1.0]])
        x = rng.multivariate_normal([0.0, 0.0], truth, size=10_000)
        got = sample_covariance(x)
        assert np.all(np.abs(got - truth) <= 0.05 * np.abs(truth))


class TestFit:
    def test_single_point_unit_model(self):
        kde = GaussianKde(scale_c=1.0).fit(np.array([[0.0]]))
        assert kde.bandwidth_ == 1.0
        np.testing.assert_allclose(kde.covariance_, [[1.0]], rtol=1e-8)
        assert abs(kde.log_norm_ - (-0.5 * LOG_2PI)) < 1e-8

    def test_collinear_points_regularized(self):
        pts = np.column_stack([np.linspace(0.0, 1.0, 10), np.zeros(10)])
        kde = fit_kde(pts, BandwidthSpec(4.0))
        assert np.isfinite(kde.score_samples(pts)).all()
        assert np.all(np.diag(kde.covariance_) > 0)

    def test_identical_points_regularized(self):
        kde = fit_kde(np.zeros((5, 3)), BandwidthSpec(2.0))
        assert np.isfinite(kde.score_samples(np.zeros((1, 3)))).all()

    def test_large_fit_invariants(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5000, 32))
        kde = fit_kde(x, BandwidthSpec(4.0))
        scaled = kde.bandwidth_**2 * kde.covariance_
        recon = kde.chol_lower_ @ kde.chol_lower_.T
        rel = np.linalg.norm(recon - scaled) / np.linalg.norm(scaled)
        assert rel <= 1e-10
        want = -np.sum(np.log(np.diag(kde.chol_lower_))) - 16.0 * LOG_2PI
        assert kde.log_norm_ == want
        assert kde.bandwidth_ > 0
        assert kde.count_ == 5000

    def test_cholesky_exhaustion_raises(self):
        with pytest.raises(NumericalError) as exc:
            GaussianKde.from_parameters(np.zeros((2, 1)), 1.0, [[-1.0]])
        assert exc.value.code == "cholesky_exhausted"

    # A covariance is factorized once; each failure is the same refusal.
    @pytest.mark.parametrize("covariance", [
        [[1.0, 1.0], [1.0, 1.0]],  # singular: no ridge is added to it
        [[np.inf, 0.0], [0.0, 1.0]],  # a factor, but not a finite one
    ], ids=["singular", "infinite"])
    def test_given_covariance_without_finite_factor_refused(self, covariance):
        with pytest.raises(NumericalError) as exc:
            GaussianKde.from_parameters(np.zeros((2, 2)), 1.0, covariance)
        assert exc.value.code == "cholesky_exhausted"

    def test_overflowing_covariance_refused_without_warnings(self):
        x = np.random.default_rng(8).standard_normal((40, 3)) * 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as exc:
                fit_kde(x)
        assert exc.value.code == "cholesky_exhausted"

    def test_failed_inverse_refused(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalError) as exc:
            fit_kde(np.eye(3))
        assert exc.value.code == "cholesky_exhausted"

    def test_fit_adds_one_fixed_ridge(self):
        x = np.random.default_rng(9).standard_normal((6, 4))
        cov = sample_covariance(x)
        ridge = (RIDGE_EPS * (np.trace(cov) / 4)) * np.eye(4)
        np.testing.assert_array_equal(fit_kde(x).covariance_, cov + ridge)

    def test_from_parameters_dim_mismatch(self):
        with pytest.raises(ValidationError):
            GaussianKde.from_parameters(np.zeros((2, 2)), 1.0, [[1.0]])

    def test_from_parameters_keeps_exact_covariance(self):
        kde = GaussianKde.from_parameters(np.zeros((2, 1)), 1.0, [[1.0]])
        np.testing.assert_array_equal(kde.covariance_, [[1.0]])


class TestLogDensity:
    def test_unfitted_model_refused(self):
        with pytest.raises(ValidationError) as exc:
            GaussianKde().score_samples(np.zeros((2, 2)))
        assert exc.value.code == "not_fitted"

    def test_single_kernel_at_center(self):
        kde = GaussianKde.from_parameters([[0.0]], 1.0, [[1.0]])
        got = kde.score_samples([[0.0]])[0]
        assert abs(got - (-0.5 * LOG_2PI)) < 1e-12

    def test_two_symmetric_kernels(self):
        kde = GaussianKde.from_parameters([[-1.0], [1.0]], 1.0, [[1.0]])
        got = kde.score_samples([[0.0]])[0]
        want = np.log(np.exp(-0.5) / np.sqrt(2 * np.pi))
        assert abs(got - want) < 1e-12

    def test_matches_naive_extended_precision_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(2, 300))
            d = int(rng.integers(1, 9))
            x = rng.standard_normal((m, d)) * rng.uniform(0.5, 2.0)
            kde = fit_kde(x, BandwidthSpec(rng.uniform(0.5, 4.0)))
            q = rng.standard_normal((16, d)) * 1.5
            got = kde.score_samples(q)
            want = naive_log_density(kde, x, q)
            keep = np.abs(want) > 1e-3
            assert np.all(
                np.abs(got[keep] - want[keep]) <= 1e-10 * np.abs(want[keep])
            )

    def test_far_queries_stay_finite(self):
        kde = GaussianKde.from_parameters([[0.0]], 1.0, [[1.0]])
        got = kde.score_samples([[1e3]])
        assert np.isfinite(got).all()

    def test_dim_mismatch(self):
        kde = fit_kde(np.zeros((3, 2)) + np.eye(3, 2))
        with pytest.raises(ValidationError) as exc:
            kde.score_samples(np.zeros((1, 3)))
        assert exc.value.code == "dim_mismatch"

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((120, 4))
        q = rng.standard_normal((40, 4))
        shift = np.array([12.5, -3.25, 1e3, 0.125])
        a = fit_kde(x).score_samples(q)
        b = fit_kde(x + shift).score_samples(q + shift)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_monotone_bandwidth_at_mode(self):
        center = np.array([[0.7, -0.3]])
        values = [
            fit_kde(center, BandwidthSpec(c)).score_samples(center)[0]
            for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert np.all(np.diff(values) < 0)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((400, 8))
        q = rng.standard_normal((100, 8))
        kde = fit_kde(x)
        assert np.array_equal(kde.score_samples(q), kde.score_samples(q))

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        q = rng.standard_normal((30, 3))
        kde = fit_kde(x)
        whole = kde.score_samples(q)
        assert np.array_equal(whole[:7], kde.score_samples(q[:7]))

    def test_normalization_monte_carlo(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        kde = fit_kde(x, BandwidthSpec(2.0))
        sd = np.sqrt(np.diag(kde.covariance_)) * kde.bandwidth_
        lo = x.min(axis=0) - 8 * sd
        hi = x.max(axis=0) + 8 * sd
        pts = lo + qmc.Sobol(d=2, seed=0).random(2**18) * (hi - lo)
        integral = np.prod(hi - lo) * np.exp(kde.score_samples(pts)).mean()
        assert 0.98 <= integral <= 1.02


def mahalanobis_sq(kde, support, x, j):
    """Squared Mahalanobis distance from ``x`` to kernel ``j`` of ``kde``, fit
    on ``support``, read off a one-kernel model with that center and the same
    kernel covariance, whose log-density is ``log_norm_ - mahalanobis^2 / 2``."""
    one = GaussianKde.from_parameters(
        support[j : j + 1], kde.bandwidth_, kde.covariance_
    )
    assert one.log_norm_ == kde.log_norm_
    return 2.0 * (one.log_norm_ - one.score_samples(np.reshape(x, (1, -1)))[0])


class TestMahalanobis:
    def test_zero_at_center(self):
        support = np.array([[1.0, 2.0], [3.0, 4.0]])
        kde = fit_kde(support)
        assert mahalanobis_sq(kde, support, np.array([1.0, 2.0]), 0) == 0.0

    def test_scalar_case(self):
        kde = GaussianKde.from_parameters([[1.0]], 2.0, [[1.0]])
        assert kde.score_samples([[3.0]])[0] == pytest.approx(
            kde.log_norm_ - 0.5, abs=1e-14
        )

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((30, 4))
        kde = fit_kde(x, BandwidthSpec(1.5))
        inv = np.linalg.inv(kde.bandwidth_**2 * kde.covariance_)
        for _ in range(20):
            q = rng.standard_normal(4) * 2
            i = int(rng.integers(30))
            delta = q - x[i]
            want = float(delta @ inv @ delta)
            got = mahalanobis_sq(kde, x, q, i)
            assert abs(got - want) <= 1e-10 * max(want, 1.0)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3))
        kde = fit_kde(x)
        a = mahalanobis_sq(kde, x, x[3], 7)
        b = mahalanobis_sq(kde, x, x[7], 3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_index_out_of_range(self):
        kde = fit_kde(np.zeros((2, 2)) + np.eye(2))
        with pytest.raises(ValidationError) as exc:
            kde.score_samples(np.zeros((1, 2)), exclude=np.array([2]))
        assert exc.value.code == "index_out_of_range"


def _anisotropic_support(rng, n):
    """Rotated rows whose sample covariance has condition number about 1e8."""
    rotation, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    return (rng.standard_normal((n, 8)) * np.logspace(0, -4, 8)) @ rotation.T


class TestTriangularSolveReference:
    """The stored inverse Cholesky factor against whitening by triangular
    solves with the Cholesky factor itself, and direct differences."""

    CASES = {
        "well_conditioned": lambda rng: (
            rng.standard_normal((300, 8)), rng.standard_normal((200, 8)) * 1.5
        ),
        "ridge_20x64": lambda rng: (
            rng.standard_normal((20, 64)), rng.standard_normal((200, 64))
        ),
        "condition_1e8": lambda rng: (
            _anisotropic_support(rng, 300), _anisotropic_support(rng, 200) * 1.5
        ),
    }

    @staticmethod
    def _whiten(kde, support, x):
        center = support.mean(axis=0)
        return solve_triangular(kde.chol_lower_, (x - center).T, lower=True).T

    @staticmethod
    def _close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_score_samples(self, case):
        support, queries = self.CASES[case](np.random.default_rng(21))
        kde = fit_kde(support)
        w, s = self._whiten(kde, support, queries), self._whiten(kde, support, support)
        sq = np.square(w[:, None, :] - s[None, :, :]).sum(axis=2)
        want = kde.log_norm_ + logsumexp(-0.5 * sq, axis=1) - np.log(kde.count_)
        assert self._close(kde.score_samples(queries), want)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mahalanobis_sq(self, case):
        support, queries = self.CASES[case](np.random.default_rng(22))
        kde = fit_kde(support)
        for i, q in enumerate(queries[:50]):
            j = i % kde.count_
            y = solve_triangular(kde.chol_lower_, q - support[j], lower=True)
            assert self._close(mahalanobis_sq(kde, support, q, j), float(y @ y))


class TestLogMeanExp:
    def test_single_row_is_identity(self):
        values = np.array([[-1000.5, 3.25, 0.0]])
        np.testing.assert_array_equal(log_mean_exp(values, axis=0), values[0])

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((5, 7))
        want = np.log(np.exp(values).mean(axis=0))
        np.testing.assert_allclose(log_mean_exp(values, axis=0), want, rtol=1e-12)

    def test_extreme_values_stay_finite(self):
        values = np.array([[-2000.0], [-2010.0]])
        got = log_mean_exp(values, axis=0)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("values, axis", [
        (1.0, 0),
        (np.zeros((2, 3)), 2),
        (np.zeros((2, 3)), -3),
        (np.zeros((0, 3)), 0),
    ], ids=["scalar", "axis_beyond", "negative_axis_beyond", "empty_axis"])
    def test_refuses_a_missing_or_empty_axis(self, values, axis):
        with pytest.raises(ValidationError) as exc:
            log_mean_exp(values, axis=axis)
        assert exc.value.code == "bad_shape"

    def test_is_a_logaddexp_fold(self):
        # The fold ScoringConfig.score makes over its batches, in order.
        values = np.random.default_rng(3).standard_normal((4, 9)) * 50.0
        fold = values[0].copy()
        for row in values[1:]:
            np.logaddexp(fold, row, out=fold)
        assert np.array_equal(log_mean_exp(values, axis=0), fold - np.log(4))
        assert np.array_equal(log_mean_exp(values.T, axis=-1), fold - np.log(4))


class TestParamsProtocol:
    def test_get_set_params(self):
        kde = GaussianKde(scale_c=2.0)
        assert kde.get_params() == {"scale_c": 2.0}
        kde.set_params(scale_c=1.0)
        assert kde.scale_c == 1.0
        with pytest.raises(ValidationError):
            kde.set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        kde = GaussianKde(scale_c=3.0)
        clone = sklearn_base.clone(kde)
        assert clone.get_params() == kde.get_params()
