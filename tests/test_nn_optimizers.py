"""Tests for repro.nn.optimizers."""

import _parent_training as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.optimizers import SGD, Adam


def quadratic_descent(optimizer, steps=200, start=5.0):
    """Minimise f(p) = p^2 and return the final |p|."""
    p = np.array([start])
    for _ in range(steps):
        grad = 2.0 * p
        optimizer.step([p], [grad])
    return float(np.abs(p[0]))


class TestSGD:
    def test_descends_quadratic(self):
        assert quadratic_descent(SGD(learning_rate=0.1)) < 1e-3

    def test_momentum_descends(self):
        assert quadratic_descent(SGD(learning_rate=0.05, momentum=0.9)) < 1e-2

    def test_weight_decay_shrinks_parameter(self):
        opt = SGD(learning_rate=0.1, weight_decay=0.5)
        p = np.array([1.0])
        opt.step([p], [np.zeros(1)])  # zero gradient: only decay acts
        assert p[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD(momentum=1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)

    def test_reset_clears_velocity(self):
        opt = SGD(learning_rate=0.1, momentum=0.9)
        p = np.array([1.0])
        opt.step([p], [np.ones(1)])
        opt.reset()
        assert opt._velocity == {}

    def test_updates_in_place(self):
        opt = SGD(learning_rate=0.1)
        p = np.array([1.0])
        ref = p
        opt.step([p], [np.ones(1)])
        assert ref is p
        assert ref[0] != 1.0


class TestAdam:
    def test_descends_quadratic(self):
        assert quadratic_descent(Adam(learning_rate=0.3), steps=300) < 1e-2

    def test_descends_ill_conditioned(self):
        # f(p) = 100 p0^2 + p1^2 — Adam normalises per-coordinate scale
        opt = Adam(learning_rate=0.2)
        p = np.array([3.0, 3.0])
        for _ in range(400):
            grad = np.array([200.0 * p[0], 2.0 * p[1]])
            opt.step([p], [grad])
        assert np.abs(p).max() < 0.05

    def test_bias_correction_first_step(self):
        opt = Adam(learning_rate=0.1)
        p = np.array([1.0])
        opt.step([p], [np.array([1.0])])
        # first Adam step magnitude ~= lr regardless of gradient scale
        assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_weight_decay_negative_rejected(self):
        with pytest.raises(ValueError):
            Adam(weight_decay=-1e-3)

    def test_reset(self):
        opt = Adam()
        p = np.array([1.0])
        opt.step([p], [np.ones(1)])
        opt.reset()
        assert opt._t == 0
        assert opt._m == {} and opt._v == {}

    def test_multiple_parameters(self):
        opt = Adam(learning_rate=0.1)
        a = np.array([2.0])
        b = np.array([[1.0, -1.0]])
        opt.step([a, b], [2 * a, 2 * b])
        assert a[0] < 2.0
        assert b[0, 0] < 1.0 and b[0, 1] > -1.0


class TestAdamMatchesReference:
    """The in-place step against the textbook expression it replaced."""

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 40)), min_size=1, max_size=4),
        st.sampled_from([0.0, 1e-5, 1e-4, 0.3]),
        st.floats(1e-4, 0.5),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_byte_equal(self, shapes, weight_decay, learning_rate, steps, seed):
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 3, shape) for shape in shapes]
        params[0].flat[0] = -0.0
        ref_params = [p.copy() for p in params]
        opt = Adam(learning_rate=learning_rate, weight_decay=weight_decay)
        ref = Adam(learning_rate=learning_rate, weight_decay=weight_decay)
        for _ in range(steps):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 4, p.shape) for p in params]
            grads[0].flat[-1] = 0.0
            opt.step(params, grads)
            reference.adam_step(ref, ref_params, [g.copy() for g in grads])
        assert [p.tobytes() for p in params] == [p.tobytes() for p in ref_params]

    def test_step_leaves_gradients_untouched(self):
        opt = Adam(learning_rate=0.1, weight_decay=0.01)
        p, g = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        opt.step([p], [g])
        assert g.tolist() == [0.5, 0.25]

    def test_reset_drops_scratch(self):
        opt = Adam()
        opt.step([np.ones(3)], [np.ones(3)])
        opt.reset()
        assert opt._scratch == {}


@pytest.mark.parametrize(
    "make_optimizer", [lambda: Adam(0.1), lambda: SGD(0.1, momentum=0.9)], ids=["adam", "sgd"]
)
def test_state_never_passes_to_an_array_that_reuses_a_freed_id(make_optimizer):
    # an optimizer that outlives an array it stepped must not hand that
    # array's moments to a new one at the same address: a fresh array
    # stepped with a zero gradient stays where it is
    optimizer = make_optimizer()
    a = np.ones(3)
    optimizer.step([a], [np.ones(3)])
    del a
    fresh = [np.ones(3) for _ in range(8)]  # CPython hands the freed block out again
    for b in fresh:
        optimizer.step([b], [np.zeros(3)])
    assert all(np.array_equal(b, np.ones(3)) for b in fresh)
