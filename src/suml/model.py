"""Per-view encoder stacks with explicit forward caches and manual backprop.

A stack is three small MLPs: the frame encoder ``f`` (tanh hidden layer),
whose per-frame outputs are average-pooled into a clip vector, the
projection head ``h`` whose output is l2-normalized, and the task head
``g`` producing raw logits.  No autodiff framework is involved: backward
passes are hand-written, including the normalization Jacobian
(I - z z^T) / ||raw||.

Each stack owns one contiguous float64 vector ``params``.  Its layout is
decided by ``mlp_views`` alone: for ``f``, ``h`` and ``g`` in turn, the
weight matrices (row-major ``(out, in)``) and then the bias vectors, which
is also the order of ``param_tensors()``.  ``f``, ``h`` and ``g`` are
``MlpParams`` whose arrays are views into ``params``; ``backward`` returns
the parameter gradient as one vector with the same layout, so momentum and
the SGD step are whole-vector operations.  Whether a stack trains is its
caller's decision (``frozen`` is checkpoint metadata).

``params`` may carry a leading replica axis, ``(S, P)``: S independent
models of one shape, trained as one (as JAX's ``vmap`` batches them).  Then
``mlp_views`` gives ``(S, out, in)`` weights and ``(S, out)`` biases, and
clips, forward caches and gradients carry the same leading axis.  Every
operation acts on each replica's slice as it acts on a single stack, so a
replica trains bitwise as its own model would; ``replica`` views one.

Checkpoints keep the per-layer ``suml-encoder-stack-v1`` JSON format, hold
one unstacked model and finite values only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .exceptions import (
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    ShapeMismatchError,
    ZeroNormError,
)
from .numerics import ZERO_NORM_EPS, allocating

CHECKPOINT_FORMAT = "suml-encoder-stack-v1"


@dataclass
class MlpParams:
    """Dense layers; tanh on hidden layers, identity on the output layer."""

    weights: list  # each (out_dim, in_dim)
    biases: list   # each (out_dim,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def param_size(dims) -> int:
    """Length of the flat parameter vector of layer widths ``dims``."""
    return sum(d_out * (d_in + 1) for w in dims for d_in, d_out in zip(w, w[1:]))


def mlp_views(vec: np.ndarray, dims) -> tuple:
    """View the flat ``vec`` as the f, h and g ``MlpParams`` of layer widths ``dims``.

    ``dims`` holds one width tuple per MLP, input first, e.g. ``(feat, hidden,
    hidden)``.  Per MLP: weights (row-major ``(out, in)``), then biases.  A
    ``(S, P)`` ``vec`` holds S replicas and gives ``(S, out, in)`` views.
    """
    size = param_size(dims)
    if vec.ndim not in (1, 2) or vec.shape[-1] != size:
        raise ShapeMismatchError(f"parameter vector {vec.shape} does not hold {size} values")
    lead = vec.shape[:-1]
    mlps, off = [], 0
    for widths in dims:
        layers = list(zip(widths, widths[1:]))
        weights, biases = [], []
        for d_in, d_out in layers:
            weights.append(vec[..., off : off + d_out * d_in].reshape(*lead, d_out, d_in))
            off += d_out * d_in
        for _, d_out in layers:
            biases.append(vec[..., off : off + d_out])
            off += d_out
        mlps.append(MlpParams(weights=weights, biases=biases))
    return tuple(mlps)


@dataclass
class EncoderStack:
    """One flat ``params`` vector (one row per replica); ``f``, ``h`` and ``g`` view it."""

    params: np.ndarray
    dims: tuple  # layer widths of f, h and g (see ``mlp_views``)
    view: str = "fpv"
    frozen: bool = False

    def __post_init__(self):
        self.f, self.h, self.g = mlp_views(self.params, self.dims)

    def param_tensors(self):
        for mlp in (self.f, self.h, self.g):
            yield from mlp.weights
            yield from mlp.biases


@dataclass
class ForwardCache:
    x_shape: tuple
    f_acts: list          # activations per f layer, flattened over frames
    h_acts: list          # h_acts[0] is the frame-pooled hidden state (N, hidden)
    norms: np.ndarray
    z: np.ndarray
    g_acts: list
    logits: np.ndarray


def init_stack(
    feat_dim: int,
    n_classes: int,
    proj_dim: int,
    seed,
    hidden_dim: int = 32,
    view: str = "fpv",
) -> EncoderStack:
    """Scaled uniform fan-in init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero bias."""
    dims = ((feat_dim, hidden_dim, hidden_dim), (hidden_dim, proj_dim), (hidden_dim, n_classes))
    with allocating(f"the {view} encoder's parameters"):
        stack = EncoderStack(np.zeros(param_size(dims)), dims, view=view)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for mlp in (stack.f, stack.h, stack.g):
        for W in mlp.weights:
            bound = 1.0 / np.sqrt(W.shape[1])
            W[...] = rng.uniform(-bound, bound, size=W.shape)
    return stack


def clone_stack(stack: EncoderStack) -> EncoderStack:
    """An independent copy: its views point into a copy of ``params``."""
    return replace(stack, params=stack.params.copy())


def replica(stack: EncoderStack, r: int) -> EncoderStack:
    """Replica ``r`` of a stacked ``stack``; its views share the stack's memory."""
    return replace(stack, params=stack.params[r])


def mlp_forward(p: MlpParams, X: np.ndarray) -> list:
    """Return activations [input, layer1, ..., output]; tanh except on the last layer."""
    acts = [X]
    A = X
    last = p.n_layers - 1
    for l, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = A @ W.swapaxes(-1, -2)
        pre += b[..., None, :]
        A = pre if l == last else np.tanh(pre, out=pre)
        acts.append(A)
    return acts


def mlp_backward(p: MlpParams, acts: list, d_out: np.ndarray, grads: MlpParams):
    """Write every layer's gradient into the views ``grads``; return the first
    layer's pre-activation gradient (times ``p.weights[0]``, the input gradient)."""
    dA = d_out
    last = p.n_layers - 1
    for l in range(last, -1, -1):
        d_pre = dA if l == last else dA * (1.0 - acts[l + 1] ** 2)
        grads.weights[l][...] = d_pre.swapaxes(-1, -2) @ acts[l]
        grads.biases[l][...] = d_pre.sum(axis=-2)
        if l:
            dA = d_pre @ p.weights[l]
    return d_pre


def pool_frames(stack: EncoderStack, clips):
    """Check clips (N, T, feat), run f on every frame and average over frames.

    A stacked ``stack`` takes (S, N, T, feat) clips, one batch per replica.
    Returns (clips shape, f activations, pooled hidden (N, hidden)); the shared
    trunk of training (``encode_batch``) and evaluation.
    """
    clips = np.asarray(clips, dtype=np.float64)
    lead = stack.params.shape[:-1]
    if clips.ndim != len(lead) + 3 or clips.shape[:-3] != lead:
        want = ", ".join(map(str, (*lead, "N", "T", "feat")))
        raise ShapeMismatchError(f"clips must be ({want}), got {clips.shape}")
    n, t, feat = clips.shape[-3:]
    if t < 1:
        raise ShapeMismatchError("need at least one frame per clip")
    if feat != stack.dims[0][0]:
        raise DimMismatchError(
            f"clip feature dim {feat} does not match encoder input {stack.dims[0][0]}"
        )
    f_acts = mlp_forward(stack.f, clips.reshape(*lead, n * t, feat))
    frame_sum = np.add.reduce(f_acts[-1].reshape(*lead, n, t, -1), axis=-2)
    return clips.shape, f_acts, frame_sum / t  # the frame mean, as ``np.mean`` computes it


def encode_batch(stack: EncoderStack, clips: np.ndarray) -> ForwardCache:
    """Forward a batch of clips (N, T, feat), one per replica of a stacked
    ``stack``; ``cache.z`` holds the unit projections."""
    x_shape, f_acts, pooled = pool_frames(stack, clips)
    h_acts = mlp_forward(stack.h, pooled)
    norms = np.linalg.norm(h_acts[-1], axis=-1)
    if np.any(norms < ZERO_NORM_EPS):
        raise ZeroNormError("projection head output collapsed to zero norm")
    g_acts = mlp_forward(stack.g, pooled)
    return ForwardCache(
        x_shape=x_shape,
        f_acts=f_acts,
        h_acts=h_acts,
        norms=norms,
        z=h_acts[-1] / norms[..., None],
        g_acts=g_acts,
        logits=g_acts[-1],
    )


def backward(stack: EncoderStack, cache: ForwardCache, grad_z, grad_logits) -> np.ndarray:
    """Backprop through g, the normalized projection, pooling and f.

    Either gradient may be None (treated as zero).  Returns the parameter
    gradient as one vector laid out like ``stack.params``.
    """
    t = cache.x_shape[-2]
    if grad_z is None:
        grad_z = np.zeros_like(cache.z)
    if grad_logits is None:
        grad_logits = np.zeros_like(cache.logits)
    grad_z = np.asarray(grad_z, dtype=np.float64)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_z.shape != cache.z.shape or grad_logits.shape != cache.logits.shape:
        raise ShapeMismatchError("gradient shapes do not match forward outputs")
    # normalization Jacobian: (grad - <grad, z> z) / ||raw||
    inner = np.sum(grad_z * cache.z, axis=-1, keepdims=True)
    d_zraw = (grad_z - inner * cache.z) / cache.norms[..., None]
    grad = np.empty_like(stack.params)
    f_grads, h_grads, g_grads = mlp_views(grad, stack.dims)
    d_pool = mlp_backward(stack.h, cache.h_acts, d_zraw, h_grads) @ stack.h.weights[0]
    d_pool += mlp_backward(stack.g, cache.g_acts, grad_logits, g_grads) @ stack.g.weights[0]
    mlp_backward(stack.f, cache.f_acts, np.repeat(d_pool / t, t, axis=-2), f_grads)
    return grad


def sgd_momentum_step(
    stack: EncoderStack,
    grad: np.ndarray,
    lr: float,
    velocity: np.ndarray,
    momentum: float = 0.9,
) -> EncoderStack:
    """v <- mu*v + g; p <- p - lr*v on the whole parameter vector.

    ``velocity`` starts as ``np.zeros_like(stack.params)`` and is updated in place.
    """
    if grad.shape != stack.params.shape or velocity.shape != stack.params.shape:
        raise ShapeMismatchError("parameter, gradient and velocity vectors differ in shape")
    velocity *= momentum
    velocity += grad
    stack.params -= lr * velocity
    return stack


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Cosine decay from base_lr at epoch 0 toward zero at total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ValueError("need 0 <= epoch < total_epochs")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


def _mlp_to_json(p: MlpParams) -> dict:
    return {
        "weights": [w.tolist() for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
    }


def _mlp_from_json(doc: dict, name: str, in_dim):
    """Layer set ``name`` as (widths, weights + biases), chained from ``in_dim`` unless None."""
    layers = doc[name]
    if not isinstance(layers, dict) or not all(
        isinstance(layers.get(key), list) for key in ("weights", "biases")
    ):
        raise DatasetParseError(f"checkpoint {name!r} needs 'weights' and 'biases' lists")
    try:
        weights = [np.asarray(w, dtype=np.float64) for w in layers["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in layers["biases"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetParseError(f"checkpoint {name!r} has a non-numeric or ragged layer") from exc
    if not weights or len(weights) != len(biases):
        raise DatasetParseError(f"checkpoint {name!r} needs layers with one bias per weight")
    if not all(np.isfinite(t).all() for t in weights + biases):
        raise DatasetParseError(f"checkpoint {name!r} has a non-finite weight or bias")
    for l, (W, b) in enumerate(zip(weights, biases)):
        if W.ndim != 2 or b.shape != W.shape[:1] or in_dim not in (None, W.shape[1]):
            raise DatasetParseError(
                f"checkpoint {name!r} layer {l}: weight {W.shape} and bias {b.shape} "
                f"do not chain from input dim {in_dim}"
            )
        in_dim = W.shape[0]
    return (weights[0].shape[1], *(W.shape[0] for W in weights)), weights + biases


def save_checkpoint(stack: EncoderStack, path, stage: str) -> None:
    """JSON checkpoint; floats serialize losslessly so loads round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "stage": stage,
        "view": stack.view,
        "frozen": stack.frozen,
        "f": _mlp_to_json(stack.f),
        "h": _mlp_to_json(stack.h),
        "g": _mlp_to_json(stack.g),
    }
    write_atomic(path, lambda fh: json.dump(doc, fh))


def load_checkpoint(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"invalid checkpoint JSON: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise DatasetParseError(f"unexpected checkpoint format {fmt!r}")
    try:
        f_dims, f = _mlp_from_json(doc, "f", None)
        h_dims, h = _mlp_from_json(doc, "h", f_dims[-1])
        g_dims, g = _mlp_from_json(doc, "g", f_dims[-1])
        params = np.concatenate([t.ravel() for t in f + h + g])
        stack = EncoderStack(params, (f_dims, h_dims, g_dims), doc["view"], bool(doc["frozen"]))
        return stack, doc["stage"]
    except KeyError as exc:
        raise DatasetParseError(f"checkpoint {path} has no key {exc}") from exc
