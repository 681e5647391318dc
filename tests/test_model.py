import pickle

import numpy as np
import pytest

from conftest import numeric_grad
from suml import gradcheck
from suml.exceptions import ConfigValidationError, DimMismatchError, ShapeMismatchError
from suml.losses import cross_entropy
from suml.model import (
    EncoderStack,
    backward,
    clone_stack,
    cosine_lr,
    encode_batch,
    init_stack,
    load_checkpoint,
    mlp_forward,
    mlp_views,
    replica,
    save_checkpoint,
    sgd_momentum_step,
)


def small_stack(seed=0):
    return init_stack(feat_dim=6, n_classes=5, proj_dim=4, seed=seed, hidden_dim=8, view="fpv")


def stack_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.param_tensors(), b.param_tensors()))


def assert_flat_views(stack):
    tensors = list(stack.param_tensors())
    assert len(tensors) == 8
    for t in tensors:
        assert np.shares_memory(t, stack.params)
    assert np.array_equal(stack.params, np.concatenate([t.ravel() for t in tensors]))


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
    cache = encode_batch(s, clips)
    assert cache.z.shape == (7, 4)
    assert cache.logits.shape == (7, 5)
    assert np.allclose(np.linalg.norm(cache.z, axis=1), 1.0, atol=1e-12)
    # the projection head's input really is the frame average
    n, t, f = clips.shape
    hidden = mlp_forward(s.f, clips.reshape(n * t, f))[-1].reshape(n, t, -1).mean(axis=1)
    assert np.allclose(cache.h_acts[0], hidden, atol=1e-12)


def test_encode_rejects_wrong_feature_dim(rng):
    s = small_stack()
    with pytest.raises(DimMismatchError):
        encode_batch(s, rng.standard_normal((2, 3, 7)))


def test_backward_matches_finite_differences(rng):
    s = small_stack()
    clips = rng.standard_normal((5, 2, 6))
    labels = rng.integers(0, 5, size=5)
    cache = encode_batch(s, clips)
    ce = cross_entropy(cache.logits, labels)
    grad_z = rng.standard_normal(cache.z.shape) * 0.1  # arbitrary projection-side signal

    grads = backward(s, cache, grad_z, ce.grads["logits"])

    def objective():
        cache2 = encode_batch(s, clips)
        return cross_entropy(cache2.logits, labels).value + float(np.sum(grad_z * cache2.z))

    assert grads.shape == s.params.shape
    grad_tensors = EncoderStack(grads, s.dims).param_tensors()
    for P, gP in zip(s.param_tensors(), grad_tensors):
        num = numeric_grad(lambda _: objective(), P)
        scale = max(1e-8, np.abs(gP).max(), np.abs(num).max())
        assert np.abs(gP - num).max() / scale < 1e-6


def test_forward_without_projection_leaves_z_unset(rng):
    s = small_stack()
    clips = rng.standard_normal((5, 2, 6))
    cache = encode_batch(s, clips, project=False)
    assert cache.z is None and cache.h_acts is None and cache.norms is None
    assert np.array_equal(cache.logits, encode_batch(s, clips).logits)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_backward_without_projection_skips_h_exactly(rng, lead):
    s = small_stack()
    s = EncoderStack(np.broadcast_to(s.params, (*lead, s.params.size)).copy(), s.dims)
    clips = rng.standard_normal((*lead, 5, 2, 6))
    labels = rng.integers(0, 5, size=(*lead, 5))
    cache = encode_batch(s, clips, project=False)
    grad_logits = cross_entropy(cache.logits, labels).grads["logits"]
    skipped = backward(s, cache, None, grad_logits)
    full = encode_batch(s, clips)  # the head run and backpropagated with a zero grad_z
    through_h = backward(s, full, np.zeros_like(full.z), grad_logits)
    (f, h, g), (f_h, _, g_h) = mlp_views(skipped, s.dims), mlp_views(through_h, s.dims)
    for got, want in zip([*f.weights, *f.biases, *g.weights, *g.biases],
                         [*f_h.weights, *f_h.biases, *g_h.weights, *g_h.biases]):
        assert np.array_equal(got, want)
    assert all(np.all(t == 0.0) for t in [*h.weights, *h.biases])
    assert np.array_equal(backward(s, full, None, grad_logits), skipped)
    with pytest.raises(ShapeMismatchError):
        backward(s, cache, np.zeros((*lead, 5, 4)), grad_logits)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_backward_into_a_workspace_equals_a_fresh_gradient_bitwise(rng, lead):
    """``out=`` is filled in place, through its views, and returned: the bytes of
    a fresh gradient, with and without ``grad_z``; a workspace a projected call
    filled holds exact zeros in h's part after an unprojected one."""
    s = small_stack()
    s = EncoderStack(np.broadcast_to(s.params, (*lead, s.params.size)).copy(), s.dims)
    clips = rng.standard_normal((*lead, 5, 2, 6))
    labels = rng.integers(0, 5, size=(*lead, 5))
    full, bare = encode_batch(s, clips), encode_batch(s, clips, project=False)
    grad_logits = cross_entropy(full.logits, labels).grads["logits"]
    grad_z = rng.standard_normal(full.z.shape)
    ws = EncoderStack(np.full(s.params.shape, np.nan), s.dims)  # no entry is read
    for cache, gz in ((full, grad_z), (bare, None), (full, grad_z), (full, None)):
        got = backward(s, cache, gz, grad_logits, out=ws)
        assert got is ws.params
        assert got.tobytes() == backward(s, cache, gz, grad_logits).tobytes()
        h = [*ws.h.weights, *ws.h.biases]
        assert all(np.all(t == 0.0) and not np.signbit(t).any() for t in h) == (gz is None)


def test_backward_without_projection_matches_finite_differences(rng):
    s = small_stack()
    clips = rng.standard_normal((4, 2, 6))
    labels = rng.integers(0, 5, size=4)
    cache = encode_batch(s, clips, project=False)
    grad = backward(s, cache, None, cross_entropy(cache.logits, labels).grads["logits"])

    def values(params):  # the task loss of each perturbed copy of the flat parameters
        copies = EncoderStack(params, s.dims)
        tile = lambda x: np.broadcast_to(x, (len(params), *x.shape))
        logits = encode_batch(copies, tile(clips), project=False).logits
        return cross_entropy(logits, tile(labels)).value

    numeric = gradcheck.finite_difference(values, s.params)
    assert gradcheck.rel_error(grad, numeric) < 1e-6
    h = mlp_views(numeric, s.dims)[1]
    assert all(np.all(t == 0.0) for t in [*h.weights, *h.biases])


def test_sgd_momentum_matches_manual_update(rng):
    s = small_stack()
    before = s.params.copy()
    grads = rng.standard_normal(s.params.shape)
    velocity = np.zeros_like(s.params)
    sgd_momentum_step(s, grads, lr=0.1, velocity=velocity, momentum=0.9)
    sgd_momentum_step(s, grads, lr=0.1, velocity=velocity, momentum=0.9)
    # v1 = g, v2 = 0.9 g + g; p = p0 - 0.1 (v1 + v2)
    assert np.allclose(s.params, before - 0.1 * (grads + 1.9 * grads), atol=1e-12)
    assert np.allclose(velocity, 1.9 * grads, atol=1e-12)
    assert_flat_views(s)


def test_sgd_momentum_rejects_mismatched_vectors():
    s = small_stack()
    with pytest.raises(ShapeMismatchError):
        sgd_momentum_step(s, np.zeros(s.params.size + 1), 0.1, np.zeros_like(s.params))
    with pytest.raises(ShapeMismatchError):
        sgd_momentum_step(s, np.zeros_like(s.params), 0.1, np.zeros(3))


def test_cosine_lr_schedule():
    assert cosine_lr(0, 10, 0.1) == pytest.approx(0.1)
    assert cosine_lr(5, 10, 0.1) == pytest.approx(0.05)
    vals = [cosine_lr(e, 10, 0.1) for e in range(10)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > 0.0
    with pytest.raises(ConfigValidationError):
        cosine_lr(5, 5, 0.1)


def test_clone_stack_is_independent():
    s = small_stack()
    c = clone_stack(s)
    assert stack_equal(s, c)
    assert_flat_views(c)
    assert not np.shares_memory(c.params, s.params)
    c.f.weights[0][0, 0] += 1.0
    assert not stack_equal(s, c)


def test_sgd_step_on_clone_leaves_source_unchanged(rng):
    s = small_stack()
    before = s.params.copy()
    c = clone_stack(s)
    sgd_momentum_step(c, rng.standard_normal(c.params.shape), 0.1, np.zeros_like(c.params))
    assert not np.array_equal(c.f.weights[0], s.f.weights[0])
    assert np.array_equal(s.params, before)


def test_init_stack_params_are_one_flat_vector():
    s = small_stack()
    assert s.params.dtype == np.float64 and s.params.flags.c_contiguous
    assert s.params.size == 6 * 8 + 8 + 8 * 8 + 8 + 8 * 4 + 4 + 8 * 5 + 5
    assert_flat_views(s)
    assert [t.shape for t in s.param_tensors()] == [
        (8, 6), (8, 8), (8,), (8,), (4, 8), (4,), (5, 8), (5,),
    ]
    with pytest.raises(ShapeMismatchError):
        EncoderStack(np.zeros(s.params.size - 1), s.dims)


def test_checkpoint_round_trip_bitwise(tmp_path):
    s = small_stack(seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(s, str(path), stage="stage2_fpv")
    loaded, stage = load_checkpoint(str(path))
    assert stage == "stage2_fpv"
    assert stack_equal(s, loaded)
    assert np.array_equal(s.params, loaded.params)
    assert loaded.dims == s.dims
    assert_flat_views(loaded)
    assert loaded.view == s.view
    # a re-save of the loaded stack is byte-identical
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, str(path2), stage="stage2_fpv")
    assert path.read_bytes() == path2.read_bytes()


def test_stacked_stack_steps_each_replica_as_alone(rng):
    alone = [small_stack(seed) for seed in range(3)]
    stacked = EncoderStack(np.stack([s.params for s in alone]), alone[0].dims)
    for r, s in enumerate(alone):
        view = replica(stacked, r)
        assert np.shares_memory(view.params, stacked.params) and stack_equal(view, s)
    clips = rng.standard_normal((3, 4, 2, 6))
    labels = rng.integers(0, 5, size=(3, 4))
    grad_z = rng.standard_normal((3, 4, 4))
    cache = encode_batch(stacked, clips)
    grad = backward(stacked, cache, grad_z, cross_entropy(cache.logits, labels).grads["logits"])
    sgd_momentum_step(stacked, grad, 0.1, np.zeros_like(stacked.params))
    for r, s in enumerate(alone):
        c = encode_batch(s, clips[r])
        assert np.array_equal(cache.z[r], c.z) and np.array_equal(cache.logits[r], c.logits)
        g = backward(s, c, grad_z[r], cross_entropy(c.logits, labels[r]).grads["logits"])
        assert np.array_equal(grad[r], g)
        sgd_momentum_step(s, g, 0.1, np.zeros_like(s.params))
        assert np.array_equal(stacked.params[r], s.params)
    with pytest.raises(ShapeMismatchError):
        encode_batch(stacked, clips[0])


@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_pickled_stack_trains_what_it_encodes(rng, lead):
    s = small_stack(seed=4)
    if lead:
        s = EncoderStack(np.stack([s.params] * lead[0]), s.dims, "tpv", frozen=True)
    c = pickle.loads(pickle.dumps(s))
    assert (c.dims, c.view, c.frozen) == (s.dims, s.view, s.frozen) and stack_equal(s, c)
    assert all(np.shares_memory(t, c.params) for t in c.param_tensors())
    grad = rng.standard_normal(c.params.shape)
    sgd_momentum_step(c, grad, 0.1, np.zeros_like(c.params))  # a step on params moves f, h and g
    sgd_momentum_step(s, grad, 0.1, np.zeros_like(s.params))
    assert stack_equal(s, c)
    shared = pickle.loads(pickle.dumps((s, s)))  # shared_weights: one stack serves both views
    assert shared[0] is shared[1]


def test_clips_without_frames_are_a_shape_error():
    stack = init_stack(6, 3, 4, seed=0, hidden_dim=5)
    with pytest.raises(ShapeMismatchError, match="^need at least one frame per clip$"):
        encode_batch(stack, np.zeros((2, 0, 6)))
