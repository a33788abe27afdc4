"""Tests for repro.nn.activations, including numerical-stability properties."""

import _parent_training as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.activations import (
    elu,
    elu_grad,
    identity,
    log_sigmoid,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad,
    softmax,
    softplus,
    tanh,
    tanh_grad,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)

    def test_known_value(self):
        assert sigmoid(np.array(1.0)) == pytest.approx(1 / (1 + np.exp(-1)))

    def test_extreme_positive_no_overflow(self):
        assert sigmoid(np.array(1000.0)) == pytest.approx(1.0)

    def test_extreme_negative_no_overflow(self):
        assert sigmoid(np.array(-1000.0)) == pytest.approx(0.0)

    @given(finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, x):
        v = float(sigmoid(np.array(x)))
        assert 0.0 <= v <= 1.0

    @given(finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        a = float(sigmoid(np.array(x)))
        b = float(sigmoid(np.array(-x)))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        xs = np.linspace(-4, 4, 17)
        eps = 1e-6
        numeric = (sigmoid(xs + eps) - sigmoid(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(sigmoid_grad(xs), numeric, atol=1e-7)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(np.array(0.0)) == pytest.approx(np.log(2.0))

    def test_large_positive_is_linear(self):
        assert softplus(np.array(800.0)) == pytest.approx(800.0)

    def test_large_negative_is_zero(self):
        assert softplus(np.array(-800.0)) == pytest.approx(0.0, abs=1e-12)

    @given(finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_above_relu(self, x):
        assert float(softplus(np.array(x))) >= max(x, 0.0) - 1e-9

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_formula_in_safe_range(self, x):
        assert float(softplus(np.array(x))) == pytest.approx(np.log1p(np.exp(x)), rel=1e-9)


class TestLogSigmoid:
    @given(finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_nonpositive(self, x):
        assert float(log_sigmoid(np.array(x))) <= 1e-12

    def test_identity_with_softplus(self):
        xs = np.linspace(-20, 20, 9)
        np.testing.assert_allclose(log_sigmoid(xs), -softplus(-xs))


class TestReluElu:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        np.testing.assert_array_equal(relu_grad(np.array([-1.0, 0.5])), [0.0, 1.0])

    def test_elu_positive_is_identity(self):
        np.testing.assert_allclose(elu(np.array([0.5, 2.0])), [0.5, 2.0])

    def test_elu_negative_saturates(self):
        assert float(elu(np.array(-100.0))) == pytest.approx(-1.0)

    def test_elu_grad_continuous_at_zero(self):
        assert float(elu_grad(np.array(1e-9))) == pytest.approx(1.0, abs=1e-6)
        assert float(elu_grad(np.array(-1e-9))) == pytest.approx(1.0, abs=1e-6)

    def test_elu_no_overflow_large_negative(self):
        out = elu(np.array(-1e6))
        assert np.isfinite(out)


class TestTanhIdentity:
    def test_tanh_grad(self):
        xs = np.linspace(-3, 3, 7)
        eps = 1e-6
        numeric = (tanh(xs + eps) - tanh(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(tanh_grad(xs), numeric, atol=1e-7)

    def test_identity(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(identity(x), x)


class TestSoftmax:
    def test_sums_to_one(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert out.sum() == pytest.approx(1.0)

    def test_stability_large_values(self):
        out = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        x = np.array([0.1, 0.5, -0.3])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))


# ---------------------------------------------------------------------------
# the fused training kernels against the two-branch forms they replaced
# ---------------------------------------------------------------------------
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 800.0, -800.0, np.inf, -np.inf]
special_or_any = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=False, width=64))
# lengths past a SIMD block, so both the vector body and the scalar tail run
float_arrays = hnp.arrays(np.float64, st.integers(1, 70), elements=special_or_any)


class TestFusedKernelsMatchReference:
    @given(float_arrays)
    @settings(max_examples=200, deadline=None)
    def test_elu_byte_equal(self, x):
        assert elu(x).tobytes() == reference.elu(x).tobytes()

    @given(float_arrays, st.floats(0.01, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_elu_value_equal_any_alpha(self, x, alpha):
        # alpha * expm1(x) may round a negative subnormal to -0.0, which
        # the fused sum returns as +0.0: equal values, not equal bytes
        np.testing.assert_array_equal(elu(x, alpha), reference.elu(x, alpha))

    @given(float_arrays, st.one_of(st.just(1.0), st.floats(0.01, 5.0)))
    @settings(max_examples=200, deadline=None)
    def test_elu_grad_byte_equal(self, x, alpha):
        assert elu_grad(x, alpha).tobytes() == reference.elu_grad(x, alpha).tobytes()

    @given(float_arrays)
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_byte_equal(self, x):
        assert sigmoid(x).tobytes() == reference.sigmoid(x).tobytes()

    def test_training_batch_shapes_byte_equal(self):
        # a DRP hidden layer's batch: (256, 48), C-contiguous and sliced
        x = np.random.default_rng(0).normal(scale=3.0, size=(256, 48))
        for got, want in [
            (elu(x), reference.elu(x)),
            (elu_grad(x), reference.elu_grad(x)),
            (sigmoid(x[:, 0]), reference.sigmoid(x[:, 0])),
        ]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fn", [sigmoid, elu, elu_grad])
    def test_nan_maps_to_nan(self, fn):
        # only the NaN's bit pattern may differ from the reference
        x = np.array([np.nan, -1.5, np.nan, 0.0, 2.0])
        got, want = fn(x), getattr(reference, fn.__name__)(x)
        assert np.isnan(got[[0, 2]]).all()
        assert got[[1, 3, 4]].tobytes() == want[[1, 3, 4]].tobytes()

    @pytest.mark.parametrize("fn", [sigmoid, elu, elu_grad])
    def test_zero_dim_input(self, fn):
        got = fn(np.float64(-0.25))
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == getattr(reference, fn.__name__)(np.float64(-0.25)).tobytes()
