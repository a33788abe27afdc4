"""Tests for repro.nn.layers."""

import pickle

import numpy as np
import pytest

from repro.nn.layers import Activation, Dense, Dropout, Layer


class TestDense:
    def test_forward_shape(self):
        layer = Dense(3, 5, rng=0)
        out = layer.forward(np.ones((4, 3)))
        assert out.shape == (4, 5)

    def test_forward_affine(self):
        layer = Dense(2, 1, rng=0)
        layer.weight[...] = [[2.0], [3.0]]
        layer.bias[...] = [1.0]
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(6.0)

    def test_wrong_input_dim_raises(self):
        layer = Dense(3, 5, rng=0)
        with pytest.raises(ValueError, match="expected input with 3 features"):
            layer.forward(np.ones((4, 2)))

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, rng=0)
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(np.ones((1, 2)))

    def test_backward_after_inference_forward_raises(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.ones((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_gradients_accumulate(self):
        layer = Dense(2, 1, rng=0)
        x = np.ones((3, 2))
        layer.forward(x, training=True)
        layer.backward(np.ones((3, 1)))
        first = layer.grad_weight.copy()
        layer.forward(x, training=True)
        layer.backward(np.ones((3, 1)))
        np.testing.assert_allclose(layer.grad_weight, 2 * first)

    def test_zero_grad(self):
        layer = Dense(2, 1, rng=0)
        layer.forward(np.ones((3, 2)), training=True)
        layer.backward(np.ones((3, 1)))
        layer.zero_grad()
        assert np.all(layer.grad_weight == 0.0)
        assert np.all(layer.grad_bias == 0.0)

    def test_parameters_and_gradients_aligned(self):
        layer = Dense(2, 3, rng=0)
        params = layer.parameters()
        grads = layer.gradients()
        assert len(params) == len(grads) == 2
        assert all(p.shape == g.shape for p, g in zip(params, grads))

    def test_he_init(self):
        layer = Dense(100, 50, init="he", rng=0)
        # He std = sqrt(2/100) ~ 0.141
        assert 0.1 < layer.weight.std() < 0.2

    def test_bad_init_raises(self):
        with pytest.raises(ValueError, match="init"):
            Dense(2, 2, init="uniform")

    def test_pickle_drops_training_input(self):
        layer = Dense(3, 2, rng=0)
        layer.forward(np.ones((4, 3)), training=True)
        assert layer._x is not None
        clone = pickle.loads(pickle.dumps(layer))
        assert clone._x is None
        assert clone.weight.tobytes() == layer.weight.tobytes()
        assert layer._x is not None  # pickling leaves the live layer alone

    def test_forward_adds_bias_without_touching_it(self):
        layer = Dense(2, 3, rng=0)
        layer.bias[...] = [1.0, -2.0, 0.5]
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        out = layer.forward(x)
        np.testing.assert_array_equal(out, x @ layer.weight + layer.bias)
        np.testing.assert_array_equal(layer.bias, [1.0, -2.0, 0.5])

    def test_bind_rebinds_to_views(self):
        layer = Dense(2, 3, rng=0)
        flat = np.zeros(2 * 3 + 3)
        grads = np.zeros_like(flat)
        layer.bind([flat[:6].reshape(2, 3), flat[6:]], [grads[:6].reshape(2, 3), grads[6:]])
        flat[6:] = 7.0
        np.testing.assert_array_equal(layer.forward(np.zeros((1, 2))), [[7.0, 7.0, 7.0]])

    def test_bind_required_for_layers_with_parameters(self):
        class Scale(Layer):
            def __init__(self):
                self.w = np.ones(1)

            def parameters(self):
                return [self.w]

        with pytest.raises(NotImplementedError, match="bind"):
            Scale().bind([np.ones(1)], [np.zeros(1)])
        Dropout(0.1).bind([], [])  # nothing to rebind


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5, rng=0)
        x = np.random.default_rng(0).normal(size=(10, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_scales_kept_units(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((2000, 10))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling 1/(1-0.5)
        # roughly half the units survive
        assert 0.4 < (out > 0).mean() < 0.6

    def test_expectation_preserved(self):
        layer = Dropout(0.3, rng=1)
        x = np.ones((5000, 8))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_rate_zero_is_identity_even_training(self):
        layer = Dropout(0.0)
        x = np.ones((3, 3))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_backward_uses_mask(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((10, 4))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        # gradient flows only through kept units, with the same scaling
        np.testing.assert_array_equal(grad, np.where(out > 0, 2.0, 0.0))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_no_parameters(self):
        assert Dropout(0.2).parameters() == []


class TestActivation:
    def test_relu_forward(self):
        layer = Activation("relu")
        out = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_backward_chain(self):
        layer = Activation("relu")
        x = np.array([[-1.0, 2.0]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 1.0]])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="Unknown activation"):
            Activation("swish")

    def test_backward_requires_training_forward(self):
        layer = Activation("tanh")
        layer.forward(np.ones((1, 1)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 1)))

    @pytest.mark.parametrize("name", ["relu", "elu", "tanh", "sigmoid", "linear"])
    def test_all_activations_roundtrip(self, name):
        layer = Activation(name)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert out.shape == grad.shape == x.shape
