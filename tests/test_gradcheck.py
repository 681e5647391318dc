import numpy as np
import pytest

from conftest import unit_rows
from suml import gradcheck, losses, model, pipeline
from suml.losses import LossConfig


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
    """Stage 2's gated alignment term, weighted or not, through
    ``losses.contrastive_terms`` as stage 2 calls it, summed by ``total_loss``,
    against finite differences of each replica's features; the gates pass 0, 1
    and 4 of 6 rows."""
    n, d, text = 6, 4, 5
    gate = np.zeros((3, n), dtype=bool)
    gate[1, 2] = True
    gate[2, [0, 2, 3, 5]] = True
    Z = {view: unit_rows(rng, 3 * n, d).reshape(3, n, d) for view in ("zf", "zt")}
    Df, Dt = (unit_rows(rng, 3 * n, text).reshape(3, n, text) for _ in range(2))
    lc = LossConfig(tau=0.4, sigma=0.8, w_aw=0.7)
    stage2 = dict(pipeline._STAGE2_TERMS["sum_l" if weighted else "sum_l_no_weighting"])
    assert stage2["aw"] == losses.Contrastive(losses.ALIGN, True, weighted)  # the pooled term

    def loss(zf, zt, copies=1):
        tile = lambda x: np.broadcast_to(x, (copies, *x.shape)).reshape(-1, *x.shape[1:])
        fields = {"zf": zf.reshape(-1, n, d), "zt": zt.reshape(-1, n, d),
                  "df": tile(Df), "dt": tile(Dt), "gate": tile(gate)}
        term, = losses.contrastive_terms([stage2["aw"]], fields, lc.tau, lc.sigma, full_batch)
        return losses.total_loss([(lc.w_aw, term)])

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


def test_projector_check_exercises_the_models_pull_back(monkeypatch, rng):
    assert gradcheck.check_normalization_projector(n_instances=5) <= gradcheck.PROJECTOR_TOL
    stack = model.init_stack(4, 3, 3, seed=0, hidden_dim=4)
    cache = model.encode_batch(stack, rng.standard_normal((2, 2, 4)))
    grad_z = rng.standard_normal(cache.z.shape)
    right = model.backward(stack, cache, grad_z, None)
    # a pull-back that forgets the projection onto z's tangent plane
    monkeypatch.setattr(model, "pull_back_normalization",
                        lambda cache, grad_z: grad_z / cache.norms[..., None])
    assert gradcheck.check_normalization_projector(n_instances=5) > gradcheck.PROJECTOR_TOL
    assert not np.array_equal(model.backward(stack, cache, grad_z, None), right)
