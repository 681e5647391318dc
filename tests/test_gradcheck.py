from types import SimpleNamespace

import numpy as np
import pytest

from conftest import unit_rows
from suml import gradcheck, losses
from suml.losses import LossConfig
from suml.pipeline import _Batch, _selected_alignment


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


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("full_batch", [False, True])
def test_gated_alignment_term_gradients_as_stage2_composes_them(rng, weighted, full_batch):
    """``_selected_alignment`` summed by ``total_loss``, against finite differences
    of each replica's features; the gates pass 0, 1 and 4 of 6 rows."""
    n, d, text = 6, 4, 5
    gate = np.zeros((3, n), dtype=bool)
    gate[1, 2] = True
    gate[2, [0, 2, 3, 5]] = True
    Z = {view: unit_rows(rng, 3 * n, d).reshape(3, n, d) for view in ("zf", "zt")}
    Df, Dt = (unit_rows(rng, 3 * n, text).reshape(3, n, text) for _ in range(2))
    lc = LossConfig(tau=0.4, sigma=0.8, w_aw=0.7)
    term = _selected_alignment(weighted)

    def batch(zf, zt, copies):
        tile = lambda x: np.broadcast_to(x, (copies, *x.shape)).reshape(-1, *x.shape[1:])
        return _Batch(  # the term reads no labels
            SimpleNamespace(z=zf.reshape(-1, n, d)), SimpleNamespace(z=zt.reshape(-1, n, d)),
            None, None, tile(Df), tile(Dt), tile(gate), lc, full_batch,
        )

    def loss(zf, zt, copies=1):
        return losses.total_loss([(lc.w_aw, term(batch(zf, zt, copies)))])

    out = loss(Z["zf"], Z["zt"])
    for key in ("zf", "zt"):
        def values(stack, key=key):  # the batch's summed value, one per perturbed copy
            other = np.broadcast_to(Z["zt" if key == "zf" else "zf"], stack.shape)
            zf, zt = (stack, other) if key == "zf" else (other, stack)
            return loss(zf, zt, len(stack)).value.reshape(len(stack), 3).sum(axis=-1)

        numeric = gradcheck.finite_difference(values, Z[key])
        for r in range(3):
            assert gradcheck.rel_error(out.grads[key][r], numeric[r]) <= gradcheck.LOSS_TOL
        assert not np.any(out.grads[key][:2]) and not np.any(numeric[:2])
        assert np.any(out.grads[key][2])
