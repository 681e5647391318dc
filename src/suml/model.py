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
the SGD step are whole-vector operations.  Given a workspace ``out=``, a stack
of the same shape that training keeps per view for a whole stage, ``backward``
fills its ``params`` in place through its views instead of allocating a vector
and its views on every call.  Whether a stack trains is its caller's decision
(``frozen`` is checkpoint metadata).

``params`` may carry a leading replica axis, ``(S, P)``: S independent
models of one shape, trained as one (as JAX's ``vmap`` batches them).  Then
``mlp_views`` gives ``(S, out, in)`` weights and ``(S, out)`` biases, and
clips, forward caches and gradients carry the same leading axis.  Every
operation acts on each replica's slice as it acts on a single stack, so a
replica trains bitwise as its own model would; ``replica`` views one.

``h`` runs only for a caller that reads ``z`` (``encode_batch``'s
``project``), and ``backward`` skips it without a ``grad_z``; its gradient is
then exactly zero, as backpropagating a zero ``grad_z`` would give.  Training
runs it only for the stage-2 terms that align views or text, so a collapsed
head (a zero-norm projection) raises ``ZeroNormError`` first there: never in
stage 1, nor in ``fpv_only``.

Checkpoints keep the per-layer ``suml-encoder-stack-v1`` JSON format, hold
one unstacked model and finite values only.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .datagen import VIEWS
from .exceptions import (
    ConfigValidationError,
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


@functools.lru_cache(maxsize=None)
def _layout(dims) -> tuple:
    """Per MLP of layer widths ``dims``, the (start, stop, shape) of each weight
    (row-major ``(out, in)``) and then of each bias; and the total length."""
    mlps, off = [], 0
    for widths in dims:
        layers = list(zip(widths, widths[1:]))
        shapes = [(d_out, d_in) for d_in, d_out in layers] + [(d_out,) for _, d_out in layers]
        spans = []
        for shape in shapes:
            spans.append((off, off + math.prod(shape), shape))
            off += math.prod(shape)
        mlps.append((spans[: len(layers)], spans[len(layers) :]))
    return tuple(mlps), off


def param_size(dims) -> int:
    """Length of the flat parameter vector of layer widths ``dims``."""
    return _layout(dims)[1]


def mlp_views(vec: np.ndarray, dims) -> tuple:
    """View the flat ``vec`` as the f, h and g ``MlpParams`` of layer widths ``dims``.

    ``dims`` is a tuple of one width tuple per MLP, input first, e.g. ``(feat,
    hidden, hidden)``.  Per MLP: weights (row-major ``(out, in)``), then biases.  A
    ``(S, P)`` ``vec`` holds S replicas and gives ``(S, out, in)`` views.
    """
    mlps, size = _layout(dims)
    if vec.ndim not in (1, 2) or vec.shape[-1] != size:
        raise ShapeMismatchError(f"parameter vector {vec.shape} does not hold {size} values")
    lead = vec.shape[:-1]
    return tuple([
        MlpParams([vec[..., a:b].reshape(*lead, *shape) for a, b, shape in weights],
                  [vec[..., a:b] for a, b, _ in biases])
        for weights, biases in mlps
    ])


@dataclass
class EncoderStack:
    """One flat ``params`` vector (one row per replica); ``f``, ``h`` and ``g`` view it."""

    params: np.ndarray
    dims: tuple  # layer widths of f, h and g (see ``mlp_views``)
    view: str = "fpv"
    frozen: bool = False

    def __post_init__(self):
        self.f, self.h, self.g = mlp_views(self.params, self.dims)

    def __reduce__(self):  # pickle the fields only: the views are rebuilt on the new params
        return type(self), (self.params, self.dims, self.view, self.frozen)

    def param_tensors(self):
        for mlp in (self.f, self.h, self.g):
            yield from mlp.weights
            yield from mlp.biases


@dataclass
class ForwardCache:
    x_shape: tuple
    f_acts: list          # activations per f layer, flattened over frames
    g_acts: list          # g_acts[0] is the frame-pooled hidden state (N, hidden)
    logits: np.ndarray
    h_acts: list | None = None  # the projection head's; all three None when it did not run
    norms: np.ndarray | None = None
    z: np.ndarray | None = None


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
        np.matmul(d_pre.swapaxes(-1, -2), acts[l], out=grads.weights[l])
        np.add.reduce(d_pre, axis=-2, out=grads.biases[l])  # ndarray.sum's arithmetic
        if l:
            dA = d_pre @ p.weights[l]
    return d_pre


def encode_batch(stack: EncoderStack, clips: np.ndarray, *, project: bool = True) -> ForwardCache:
    """Forward a batch of clips (N, T, feat), one batch per replica of a stacked
    ``stack`` ((S, N, T, feat) clips): ``f`` on every frame, averaged over
    frames, then ``g``; ``cache.z`` holds the unit projections.

    Without ``project`` the projection head ``h`` does not run, so neither
    does its zero-norm check, and ``cache.z`` stays None: for callers that
    read the logits only, as evaluation does.
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
    pooled = frame_sum / t  # the frame mean, as ``np.mean`` computes it
    g_acts = mlp_forward(stack.g, pooled)
    cache = ForwardCache(clips.shape, f_acts, g_acts, g_acts[-1])
    if project:
        cache.h_acts = mlp_forward(stack.h, pooled)
        raw = cache.h_acts[-1]
        cache.norms = np.sqrt(np.add.reduce(raw * raw, axis=-1))  # np.linalg.norm's arithmetic
        if (cache.norms < ZERO_NORM_EPS).any():
            raise ZeroNormError("projection head output collapsed to zero norm")
        cache.z = raw / cache.norms[..., None]
    return cache


def pull_back_normalization(cache: ForwardCache, grad_z: np.ndarray) -> np.ndarray:
    """The gradient w.r.t. the raw projection, given ``grad_z`` w.r.t. z = raw / ||raw||:
    the normalization Jacobian (grad - <grad, z> z) / ||raw||, orthogonal to z."""
    inner = np.add.reduce(grad_z * cache.z, axis=-1, keepdims=True)  # np.sum's arithmetic
    return (grad_z - inner * cache.z) / cache.norms[..., None]


def backward(stack: EncoderStack, cache: ForwardCache, grad_z, grad_logits,
             out: EncoderStack | None = None) -> np.ndarray:
    """Backprop through g, the normalized projection, pooling and f.

    Either gradient may be None (treated as zero).  Without ``grad_z``, as
    for a cache without ``z``, ``h`` is skipped and its gradient is zero.
    Returns the parameter gradient as one vector laid out like ``stack.params``:
    a fresh one, or ``out.params`` given a workspace ``out``, a stack of
    ``stack``'s dims and shape whose views the gradient is written through.
    """
    t = cache.x_shape[-2]
    if grad_logits is None:
        grad_logits = np.zeros_like(cache.logits)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_z is not None:
        grad_z = np.asarray(grad_z, dtype=np.float64)
    if grad_logits.shape != cache.logits.shape or (
        grad_z is not None and grad_z.shape != np.shape(cache.z)
    ):
        raise ShapeMismatchError("gradient shapes do not match forward outputs")
    if out is None:  # every entry is written below
        out = EncoderStack(np.empty(stack.params.shape), stack.dims)
    d_pool = mlp_backward(stack.g, cache.g_acts, grad_logits, out.g) @ stack.g.weights[0]
    if grad_z is not None:
        d_zraw = pull_back_normalization(cache, grad_z)
        d_pool += mlp_backward(stack.h, cache.h_acts, d_zraw, out.h) @ stack.h.weights[0]
    else:
        for grad in (*out.h.weights, *out.h.biases):
            grad.fill(0.0)
    mlp_backward(stack.f, cache.f_acts, np.repeat(d_pool / t, t, axis=-2), out.f)
    return out.params


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
        raise ConfigValidationError(f"need 0 <= epoch < total_epochs, got {epoch} of {total_epochs}")
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


def dump_checkpoint(stack: EncoderStack, stage: str, fh) -> None:
    """Write ``stack`` to ``fh`` as a JSON checkpoint; floats serialize
    losslessly so loads round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "stage": stage,
        "view": stack.view,
        "frozen": stack.frozen,
        "f": _mlp_to_json(stack.f),
        "h": _mlp_to_json(stack.h),
        "g": _mlp_to_json(stack.g),
    }
    json.dump(doc, fh)


def save_checkpoint(stack: EncoderStack, path, stage: str) -> None:
    """:func:`dump_checkpoint` to ``path`` through ``write_atomic``."""
    write_atomic(path, lambda fh: dump_checkpoint(stack, stage, fh))


def load_checkpoint(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read checkpoint {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetParseError(f"checkpoint {path} is not valid UTF-8 JSON: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise DatasetParseError(f"unexpected checkpoint format {fmt!r}")
    try:
        f_dims, f = _mlp_from_json(doc, "f", None)
        h_dims, h = _mlp_from_json(doc, "h", f_dims[-1])
        g_dims, g = _mlp_from_json(doc, "g", f_dims[-1])
        view, frozen, stage = doc["view"], doc["frozen"], doc["stage"]
        if view not in VIEWS or not isinstance(frozen, bool) or not isinstance(stage, str):
            raise DatasetParseError(f"checkpoint {path} needs a view in {VIEWS}, a boolean "
                                    "'frozen' and a string 'stage'")
        params = np.concatenate([t.ravel() for t in f + h + g])
        return EncoderStack(params, (f_dims, h_dims, g_dims), view, frozen), stage
    except KeyError as exc:
        raise DatasetParseError(f"checkpoint {path} has no key {exc}") from exc
