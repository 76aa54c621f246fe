"""Tests for the conditional-expectation regression layer."""

import itertools

import numpy as np
import pytest

from parabolica.errors import DimensionMismatch, NonFinite, RegressionFailure
from parabolica.regress import (
    BasisSpec,
    basis_size,
    design,
    fit,
    multi_indices,
    predict,
)


def reference_poly_fit(x, y, q):
    """Independent oracle: standardize, build the design by brute force,
    and solve the normal equations directly."""
    x = np.atleast_2d(np.asarray(x, dtype=float).T).T
    mean, std = x.mean(axis=0), x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    cols = []
    for idx in multi_indices(x.shape[1], q):
        col = np.ones(len(x))
        for i, e in enumerate(idx):
            col = col * z[:, i] ** e
        cols.append(col)
    phi = np.stack(cols, axis=1)
    coef = np.linalg.solve(phi.T @ phi, phi.T @ y)
    return coef, phi


class TestPolynomialFit:
    def test_constant_targets_reproduced_everywhere(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        reg = fit(design(x, BasisSpec(degree=2)), np.full(40, 3.25))
        query = rng.normal(size=(15, 2)) * 10
        np.testing.assert_allclose(predict(reg, query), 3.25, atol=1e-12)

    def test_exact_line_is_reproduced_at_fresh_points(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 5, size=50)
        y = 2 + 3 * x
        reg = fit(design(x, BasisSpec(degree=1)), y)
        fresh = rng.uniform(-10, 10, size=(20, 1))
        np.testing.assert_allclose(predict(reg, fresh), 2 + 3 * fresh[:, 0], atol=1e-10)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        reg = fit(design(x, BasisSpec(degree=2)), y)
        want, phi = reference_poly_fit(x, y, 2)
        np.testing.assert_allclose(reg.coefficients, want, atol=1e-8)
        np.testing.assert_allclose(predict(reg, x), phi @ want, atol=1e-8)

    def test_representable_target_interpolated_at_training_points(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(60, 1))
        y = 1.0 - 2.0 * x[:, 0] + 0.5 * x[:, 0] ** 2
        reg = fit(design(x, BasisSpec(degree=2)), y)
        np.testing.assert_allclose(predict(reg, x), y, atol=1e-10)

    def test_quadratic_on_grid(self):
        x = np.linspace(-1, 1, 101)
        reg = fit(design(x, BasisSpec(degree=2)), x**2)
        assert predict(reg, np.array([[0.5]]))[0] == pytest.approx(0.25, abs=1e-9)


class TestInvariants:
    def test_mean_preserved_without_ridge(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 1))
        y = rng.normal(size=200) + x[:, 0] ** 3
        reg = fit(design(x, BasisSpec(degree=2)), y)
        assert predict(reg, x).mean() == pytest.approx(y.mean(), abs=1e-10)

    def test_mean_preserved_with_heavy_ridge(self):
        # The intercept is never penalized, so shrinkage flattens the
        # surface without moving its average level.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 1))
        y = 4.0 + 3.0 * x[:, 0]
        reg = fit(design(x, BasisSpec(degree=1, ridge=100.0)), y)
        assert predict(reg, x).mean() == pytest.approx(y.mean(), abs=1e-9)
        slope = np.diff(predict(reg, np.array([[0.0], [1.0]])))[0]
        assert abs(slope) < 3.0  # slope shrunk

    def test_idempotent_refit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        reg1 = fit(design(x, BasisSpec(degree=2)), y)
        reg2 = fit(design(x, BasisSpec(degree=2)), predict(reg1, x))
        np.testing.assert_allclose(reg2.coefficients, reg1.coefficients, atol=1e-9)

    def test_residual_rms_nonincreasing_in_degree(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(120, 1))
        y = np.sin(2 * x[:, 0]) + 0.1 * rng.normal(size=120)
        rms = []
        for q in range(5):
            residual = predict(fit(design(x, BasisSpec(degree=q)), y), x) - y
            rms.append(np.sqrt(np.mean(residual**2)))
        for lo, hi in zip(rms[1:], rms[:-1]):
            assert lo <= hi + 1e-12

    def test_vector_targets_match_columnwise_fits(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 1))
        Y = rng.normal(size=(60, 3))
        reg = fit(design(x, BasisSpec(degree=2)), Y)
        assert reg.coefficients.shape == (3, 3)
        for k in range(3):
            single = fit(design(x, BasisSpec(degree=2)), Y[:, k])
            np.testing.assert_allclose(reg.coefficients[:, k], single.coefficients,
                                       atol=1e-12)
        assert predict(reg, x).shape == (60, 3)

    def test_a_strided_column_fits_to_the_bits_of_its_copy(self):
        # A column of a (J, N+1) history is strided; the fit must not see it.
        rng = np.random.default_rng(11)
        J = 20_000
        x = rng.normal(size=(J, 1))
        history = rng.normal(size=(J, 65)) + x
        column = history[:, 7]
        assert not column.flags.c_contiguous
        dsg = design(x, BasisSpec(degree=2))
        strided = fit(dsg, column)
        copied = fit(dsg, column.copy())
        assert strided.coefficients.shape == (3,)
        np.testing.assert_array_equal(strided.coefficients, copied.coefficients)

    def test_condition_estimate_sane(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(100, 1))
        reg = fit(design(x, BasisSpec(degree=2)), rng.normal(size=100))
        assert 1.0 <= reg.condition_estimate < 1e4
        assert not reg.rank_deficient
        assert reg.ridge_used == 0.0


class TestDegenerate:
    def test_identical_states_predict_sample_mean(self):
        # The root regression of a backward sweep: every state equal.
        y = np.array([1.0, 2.0, 3.0, 6.0])
        x = np.zeros((4, 1)) + 0.7
        reg = fit(design(x, BasisSpec(degree=2)), y)
        assert reg.rank_deficient
        assert reg.ridge_used == pytest.approx(1e-8)
        np.testing.assert_allclose(predict(reg, x), 3.0, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(RegressionFailure):
            fit(design(np.ones((3, 1)), BasisSpec(degree=3)), np.ones(3))

    def test_nan_targets_rejected(self):
        with pytest.raises(NonFinite):
            fit(design(np.ones((4, 1)), BasisSpec(degree=0)), np.array([1.0, np.nan, 2.0, 3.0]))

    def test_nan_states_rejected(self):
        x = np.ones((4, 1))
        x[2] = np.inf
        with pytest.raises(NonFinite):
            fit(design(x, BasisSpec(degree=0)), np.ones(4))

    def test_predict_dimension_mismatch(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        reg = fit(design(x, BasisSpec(degree=1)), np.ones(10))
        with pytest.raises(DimensionMismatch):
            predict(reg, np.ones((5, 3)))

    def test_bad_basis_parameters(self):
        with pytest.raises(RegressionFailure):
            BasisSpec(degree=-1)
        with pytest.raises(RegressionFailure):
            BasisSpec(kind="piecewise_constant", bins=0)
        with pytest.raises(RegressionFailure):
            BasisSpec(ridge=-0.1)
        with pytest.raises(RegressionFailure):
            BasisSpec(kind="kernel")


class TestPiecewiseConstant:
    def test_single_bin_is_global_mean(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        reg = fit(design(x, BasisSpec(kind="piecewise_constant", bins=1)), y)
        np.testing.assert_allclose(predict(reg, np.array([[-5.0], [0.0], [9.0]])),
                                   y.mean(), atol=1e-12)

    def test_bin_means_recovered(self):
        x = np.array([0.0, 0.1, 0.2, 0.8, 0.9, 1.0])[:, None]
        y = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        reg = fit(design(x, BasisSpec(kind="piecewise_constant", bins=2)), y)
        np.testing.assert_allclose(predict(reg, np.array([[0.05], [0.95]])),
                                   [2.0, 11.0], atol=1e-9)

    def test_empty_bins_fall_back_to_global_mean(self):
        # data occupies the outer bins only; the middle of [0, 4] is empty
        x = np.concatenate([np.linspace(0, 0.9, 10), np.linspace(3.1, 4, 10)])[:, None]
        y = np.concatenate([np.zeros(10), np.ones(10)])
        reg = fit(design(x, BasisSpec(kind="piecewise_constant", bins=4)), y)
        assert reg.rank_deficient
        mid = predict(reg, np.array([[1.5], [2.5]]))
        np.testing.assert_allclose(mid, 0.5, atol=1e-6)

    def test_mean_preservation(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        reg = fit(design(x, BasisSpec(kind="piecewise_constant", bins=3)), y)
        assert predict(reg, x).mean() == pytest.approx(y.mean(), abs=1e-10)

    def test_boundary_point_lands_in_last_bin(self):
        # bin-midpoint training data so no sample sits on a bin edge
        x = (np.arange(10) * 0.1 + 0.05)[:, None]
        y = x[:, 0]
        reg = fit(design(x, BasisSpec(kind="piecewise_constant", bins=5)), y)
        # the right edge of the fitted box belongs to the last bin, not
        # a phantom bin past the end
        top = predict(reg, np.array([[0.95]]))[0]
        assert top == pytest.approx(np.mean([0.85, 0.95]), abs=1e-12)


def _near_collinear(x):
    """States whose second coordinate nearly repeats the first: at degree 2, cond(phi) > 1e3."""
    x = x.copy()
    x[:, 1] = x[:, 0] + 0.03 * x[:, 1]
    return x


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFactorizationRoutes:
    """A well-conditioned design is solved by the normal equations, any other by QR."""

    @pytest.mark.parametrize("d,q", list(itertools.product(range(1, 5), range(1, 4))))
    def test_gram_route_matches_lstsq(self, d, q):
        rng = np.random.default_rng(100 + 10 * d + q)
        x = rng.normal(size=(2000, d)) * rng.uniform(0.5, 2.0, size=d) + rng.normal(size=d)
        Y = np.sin(x.sum(axis=1))[:, None] + rng.normal(size=(2000, 3))
        dsg = design(x, BasisSpec(degree=q))
        assert dsg.gram is not None and dsg.q is None and dsg.r is None
        assert dsg.condition_estimate <= 1e3
        want, *_ = np.linalg.lstsq(dsg.phi, Y, rcond=None)
        got = fit(dsg, Y).coefficients
        assert _relative_error(got, want) <= 1e-10

    def test_ill_conditioned_design_takes_qr_and_matches_lstsq(self):
        rng = np.random.default_rng(101)
        x = _near_collinear(rng.normal(size=(2000, 2)))
        y = np.cos(x[:, 0]) + rng.normal(size=2000)
        basis = BasisSpec(degree=2)
        dsg = design(x, basis)
        assert dsg.gram is None and dsg.q is not None
        assert 1e3 < dsg.condition_estimate < 1e6
        assert not dsg.rank_deficient
        want, *_ = np.linalg.lstsq(dsg.phi, y, rcond=None)
        reg = fit(dsg, y)
        assert reg.ridge_used == 0.0
        assert _relative_error(reg.coefficients, want) <= 1e-10

    def test_states_all_at_one_point_take_qr_with_the_ridge_retry(self):
        # The first backward step: every path is still at x0.
        rng = np.random.default_rng(102)
        x = np.tile([0.3, -1.2], (500, 1))
        y = rng.normal(size=500)
        basis = BasisSpec(degree=2)
        dsg = design(x, basis)
        assert dsg.gram is None and dsg.q is not None
        assert dsg.rank_deficient
        reg = fit(dsg, y)
        assert reg.ridge_used == 1e-8
        np.testing.assert_allclose(predict(reg, dsg), y.mean(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ridge", [0.0, 1e-8, 1.0, 1e3])
    def test_gram_route_preserves_the_mean_for_any_ridge(self, ridge):
        rng = np.random.default_rng(103)
        x = rng.normal(size=(3000, 3)) + 2.0
        y = 5.0 + np.exp(x[:, 0]) - x[:, 1] * x[:, 2] + rng.normal(size=3000)
        basis = BasisSpec(degree=3, ridge=ridge)
        dsg = design(x, basis)
        assert dsg.gram is not None
        reg = fit(dsg, y)
        assert reg.ridge_used == ridge
        assert predict(reg, dsg).mean() == pytest.approx(y.mean(), rel=0, abs=1e-12)


def test_basis_size_formulas():
    assert basis_size(BasisSpec(degree=2), 1) == 3
    assert basis_size(BasisSpec(degree=2), 2) == 6
    assert basis_size(BasisSpec(degree=3), 2) == 10
    assert basis_size(BasisSpec(kind="piecewise_constant", bins=4), 2) == 16


def test_multi_index_order_is_graded_lex():
    assert multi_indices(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


class TestSharedDesign:
    def test_predict_on_the_design_reuses_its_basis_matrix(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(1.0, 3.0, size=(200, 2))
        basis = BasisSpec(degree=3)
        dsg = design(x, basis)
        reg = fit(dsg, rng.normal(size=(200, 2)))
        assert reg.coords is dsg.coords and reg.basis is basis
        np.testing.assert_array_equal(predict(reg, dsg), dsg.phi @ reg.coefficients)
        np.testing.assert_allclose(predict(reg, dsg), predict(reg, x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("route", ["gram", "qr"])
    def test_condition_is_that_of_the_basis_matrix(self, route):
        x = np.random.default_rng(16).normal(size=(400, 2))
        if route == "qr":
            x = _near_collinear(x)
        dsg = design(x, BasisSpec(degree=2))
        assert (dsg.gram is not None) == (route == "gram")
        sv = np.linalg.svd(dsg.phi, compute_uv=False)
        assert dsg.condition_estimate == pytest.approx(sv[0] / sv[-1], rel=1e-10)
        assert not dsg.rank_deficient

    def test_foreign_designs_are_rejected(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 1))
        dsg = design(x, BasisSpec(degree=2))
        reg = fit(design(x, BasisSpec(degree=2)), rng.normal(size=50))
        with pytest.raises(RegressionFailure):
            predict(reg, dsg)
        with pytest.raises(DimensionMismatch):
            fit(dsg, np.ones(49))
