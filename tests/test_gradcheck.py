import numpy as np
import pytest

from suml import gradcheck


def per_entry_difference(fn, X, eps):
    """The central difference one entry at a time: two one-copy calls per entry."""
    grad = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        up, down = X.copy(), X.copy()
        up[idx] += eps
        down[idx] -= eps
        grad[idx] = (fn(up[None])[0] - fn(down[None])[0]) / (2.0 * eps)
    return grad


def rowwise(stack):
    """A smooth scalar per copy whose arithmetic does not depend on the copy count."""
    flat = stack.reshape(len(stack), -1)
    return np.add.reduce(np.sin(3.0 * flat) * flat + flat**3, axis=-1)


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
def test_finite_difference_is_the_per_entry_central_difference(rng, shape):
    X = rng.standard_normal(shape)
    before = X.copy()
    calls = []

    def fn(stack):
        calls.append(stack.shape)
        return rowwise(stack)

    grad = gradcheck.finite_difference(fn, X)
    assert calls == [(2 * X.size, *shape)]
    assert np.array_equal(X, before)
    assert grad.shape == shape
    assert np.array_equal(grad, per_entry_difference(rowwise, X, gradcheck.EPS))
    # and it is a gradient: d/dx [sin(3x) x + x^3] = 3 cos(3x) x + sin(3x) + 3x^2
    want = 3.0 * np.cos(3.0 * X) * X + np.sin(3.0 * X) + 3.0 * X**2
    assert np.allclose(grad, want, rtol=1e-7, atol=1e-8)
