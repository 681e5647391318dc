import copy

import numpy as np
import pytest

from conftest import numeric_grad
from suml.exceptions import DimMismatchError
from suml.losses import cross_entropy
from suml.model import (
    MlpGrads,
    MomentumState,
    StackGrads,
    backward,
    clone_stack,
    cosine_lr,
    encode_batch,
    init_stack,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    sgd_momentum_step,
)


def zero_grads_like(stack):
    def zeros(mlp):
        return MlpGrads(
            weights=[np.zeros_like(w) for w in mlp.weights],
            biases=[np.zeros_like(b) for b in mlp.biases],
        )

    return StackGrads(f=zeros(stack.f), h=zeros(stack.h), g=zeros(stack.g))


def small_stack(seed=0, frozen=False):
    return init_stack(feat_dim=6, n_classes=5, proj_dim=4, seed=seed,
                      hidden_dim=8, view="fpv", frozen=frozen)


def stack_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.param_tensors(), b.param_tensors()))


def test_init_deterministic_and_seed_sensitive():
    assert stack_equal(small_stack(3), small_stack(3))
    assert not stack_equal(small_stack(3), small_stack(4))


def test_init_bias_zero_and_weight_range():
    s = small_stack()
    for mlp in (s.f, s.h, s.g):
        for b in mlp.biases:
            assert np.all(b == 0.0)
        for W in mlp.weights:
            fan_in = W.shape[1]
            assert np.abs(W).max() <= 1.0 / np.sqrt(fan_in) + 1e-12


def test_encode_batch_outputs_unit_projections(rng):
    s = small_stack()
    clips = rng.standard_normal((7, 3, 6))
    Z, pooled, cache = encode_batch(s, clips)
    assert Z.shape == (7, 4)
    assert cache.logits.shape == (7, 5)
    assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-12)
    # pooled hidden state really is the frame average
    n, t, f = clips.shape
    hidden = mlp_forward(s.f, clips.reshape(n * t, f))[-1].reshape(n, t, -1).mean(axis=1)
    assert np.allclose(cache.pooled, hidden, atol=1e-12)


def test_encode_rejects_wrong_feature_dim(rng):
    s = small_stack()
    with pytest.raises(DimMismatchError):
        encode_batch(s, rng.standard_normal((2, 3, 7)))


def test_backward_matches_finite_differences(rng):
    s = small_stack()
    clips = rng.standard_normal((5, 2, 6))
    labels = rng.integers(0, 5, size=5)
    Z, _, cache = encode_batch(s, clips)
    ce = cross_entropy(cache.logits, labels)
    grad_z = rng.standard_normal(Z.shape) * 0.1  # arbitrary projection-side signal

    grads, _ = backward(s, cache, grad_z, ce.grads["logits"])

    def objective():
        Z2, _, cache2 = encode_batch(s, clips)
        return cross_entropy(cache2.logits, labels).value + float(np.sum(grad_z * Z2))

    for mlp, mg in ((s.f, grads.f), (s.h, grads.h), (s.g, grads.g)):
        for W, gW in zip(mlp.weights, mg.weights):
            num = numeric_grad(lambda _: objective(), W)
            scale = max(1e-8, np.abs(gW).max(), np.abs(num).max())
            assert np.abs(gW - num).max() / scale < 1e-6
        for b, gb in zip(mlp.biases, mg.biases):
            num = numeric_grad(lambda _: objective(), b)
            scale = max(1e-8, np.abs(gb).max(), np.abs(num).max())
            assert np.abs(gb - num).max() / scale < 1e-6


def test_sgd_momentum_matches_manual_update(rng):
    s = small_stack()
    before = copy.deepcopy([t.copy() for t in s.param_tensors()])
    grads = zero_grads_like(s)
    for mg in (grads.f, grads.h, grads.g):
        mg.weights = [rng.standard_normal(W.shape) for W in mg.weights]
        mg.biases = [rng.standard_normal(b.shape) for b in mg.biases]
    state = MomentumState.for_stack(s)
    sgd_momentum_step(s, grads, lr=0.1, state=state, momentum=0.9)
    sgd_momentum_step(s, grads, lr=0.1, state=state, momentum=0.9)
    flat_g = []
    for mg in (grads.f, grads.h, grads.g):
        flat_g.extend(mg.weights)
        flat_g.extend(mg.biases)
    for p0, p, g in zip(before, s.param_tensors(), flat_g):
        # v1 = g, v2 = 0.9 g + g; p = p0 - 0.1 (v1 + v2)
        want = p0 - 0.1 * (g + 1.9 * g)
        assert np.allclose(p, want, atol=1e-12)


def test_frozen_stack_never_updates(rng):
    s = small_stack(frozen=True)
    before = [t.copy() for t in s.param_tensors()]
    grads = zero_grads_like(s)
    for mg in (grads.f, grads.h, grads.g):
        mg.weights = [np.ones_like(W) for W in mg.weights]
    sgd_momentum_step(s, grads, 0.5, MomentumState.for_stack(s), 0.9)
    for a, b in zip(before, s.param_tensors()):
        assert np.array_equal(a, b)


def test_cosine_lr_schedule():
    assert cosine_lr(0, 10, 0.1) == pytest.approx(0.1)
    assert cosine_lr(5, 10, 0.1) == pytest.approx(0.05)
    vals = [cosine_lr(e, 10, 0.1) for e in range(10)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > 0.0


def test_clone_stack_is_independent():
    s = small_stack()
    c = clone_stack(s)
    assert stack_equal(s, c)
    c.f.weights[0][0, 0] += 1.0
    assert not stack_equal(s, c)


def test_checkpoint_round_trip_bitwise(tmp_path):
    s = small_stack(seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(s, str(path), stage="stage2_fpv")
    loaded, stage = load_checkpoint(str(path))
    assert stage == "stage2_fpv"
    assert stack_equal(s, loaded)
    assert loaded.view == s.view
    # a re-save of the loaded stack is byte-identical
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, str(path2), stage="stage2_fpv")
    assert path.read_bytes() == path2.read_bytes()
