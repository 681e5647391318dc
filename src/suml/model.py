"""Per-view encoder stacks with explicit forward caches and manual backprop.

A stack is three small MLPs: the frame encoder ``f`` (tanh hidden layer),
whose per-frame outputs are average-pooled into a clip vector, the
projection head ``h`` whose output is l2-normalized, and the task head
``g`` producing raw logits.  No autodiff framework is involved: backward
passes are hand-written, including the normalization Jacobian
(I - z z^T) / ||raw||.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .exceptions import (
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    ShapeMismatchError,
    ZeroNormError,
)
from .numerics import ZERO_NORM_EPS

CHECKPOINT_FORMAT = "suml-encoder-stack-v1"


@dataclass
class MlpParams:
    """Dense layers; tanh on hidden layers, identity on the output layer."""

    weights: list  # each (out_dim, in_dim)
    biases: list   # each (out_dim,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class EncoderStack:
    f: MlpParams
    h: MlpParams
    g: MlpParams
    view: str = "fpv"
    frozen: bool = False

    def param_tensors(self):
        for mlp in (self.f, self.h, self.g):
            yield from mlp.weights
            yield from mlp.biases


@dataclass
class MlpGrads:
    weights: list
    biases: list


@dataclass
class StackGrads:
    f: MlpGrads
    h: MlpGrads
    g: MlpGrads


@dataclass
class ForwardCache:
    x_shape: tuple
    f_acts: list          # activations per f layer, flattened over frames
    pooled: np.ndarray    # (N, hidden)
    h_acts: list
    norms: np.ndarray
    z: np.ndarray
    g_acts: list
    logits: np.ndarray


def init_mlp(rng: np.random.Generator, dims) -> MlpParams:
    """Scaled uniform fan-in init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero bias."""
    weights, biases = [], []
    for d_in, d_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
    return MlpParams(weights=weights, biases=biases)


def init_stack(
    feat_dim: int,
    n_classes: int,
    proj_dim: int,
    seed,
    hidden_dim: int = 32,
    view: str = "fpv",
    frozen: bool = False,
) -> EncoderStack:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f = init_mlp(rng, (feat_dim, hidden_dim, hidden_dim))
    h = init_mlp(rng, (hidden_dim, proj_dim))
    g = init_mlp(rng, (hidden_dim, n_classes))
    return EncoderStack(f=f, h=h, g=g, view=view, frozen=frozen)


def clone_stack(stack: EncoderStack) -> EncoderStack:
    return copy.deepcopy(stack)


def mlp_forward(p: MlpParams, X: np.ndarray) -> list:
    """Return activations [input, layer1, ..., output]; tanh except on the last layer."""
    acts = [X]
    A = X
    last = p.n_layers - 1
    for l, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = A @ W.T + b
        A = pre if l == last else np.tanh(pre)
        acts.append(A)
    return acts


def mlp_backward(p: MlpParams, acts: list, d_out: np.ndarray):
    """Gradients for every layer plus the gradient w.r.t. the MLP input."""
    dW = [None] * p.n_layers
    db = [None] * p.n_layers
    dA = d_out
    last = p.n_layers - 1
    for l in range(last, -1, -1):
        d_pre = dA if l == last else dA * (1.0 - acts[l + 1] ** 2)
        dW[l] = d_pre.T @ acts[l]
        db[l] = d_pre.sum(axis=0)
        dA = d_pre @ p.weights[l]
    return MlpGrads(weights=dW, biases=db), dA


def pool_frames(stack: EncoderStack, clips):
    """Check clips (N, T, feat), run f on every frame and average over frames.

    Returns (clips shape, f activations, pooled hidden (N, hidden)); the shared
    trunk of training (``encode_batch``) and evaluation.
    """
    clips = np.asarray(clips, dtype=np.float64)
    if clips.ndim != 3:
        raise ShapeMismatchError(f"clips must be (N, T, feat), got {clips.shape}")
    n, t, feat = clips.shape
    if t < 1:
        raise ShapeMismatchError("need at least one frame per clip")
    if feat != stack.f.weights[0].shape[1]:
        raise DimMismatchError(
            f"clip feature dim {feat} does not match encoder input "
            f"{stack.f.weights[0].shape[1]}"
        )
    f_acts = mlp_forward(stack.f, clips.reshape(n * t, feat))
    return clips.shape, f_acts, f_acts[-1].reshape(n, t, -1).mean(axis=1)


def encode_batch(stack: EncoderStack, clips: np.ndarray):
    """Forward a batch of clips (N, T, feat) -> (Z unit rows, pooled hidden, cache)."""
    x_shape, f_acts, pooled = pool_frames(stack, clips)
    h_acts = mlp_forward(stack.h, pooled)
    norms = np.linalg.norm(h_acts[-1], axis=1)
    if np.any(norms < ZERO_NORM_EPS):
        raise ZeroNormError("projection head output collapsed to zero norm")
    z = h_acts[-1] / norms[:, None]
    g_acts = mlp_forward(stack.g, pooled)
    cache = ForwardCache(
        x_shape=x_shape,
        f_acts=f_acts,
        pooled=pooled,
        h_acts=h_acts,
        norms=norms,
        z=z,
        g_acts=g_acts,
        logits=g_acts[-1],
    )
    return z, pooled, cache


def backward(stack: EncoderStack, cache: ForwardCache, grad_z, grad_logits):
    """Backprop through g, the normalized projection, pooling and f.

    Either gradient may be None (treated as zero).  Returns parameter
    gradients (also for frozen stacks; callers discard) and gradients
    w.r.t. the input frames.
    """
    n, t, feat = cache.x_shape
    if grad_z is None:
        grad_z = np.zeros_like(cache.z)
    if grad_logits is None:
        grad_logits = np.zeros_like(cache.logits)
    grad_z = np.asarray(grad_z, dtype=np.float64)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_z.shape != cache.z.shape or grad_logits.shape != cache.logits.shape:
        raise ShapeMismatchError("gradient shapes do not match forward outputs")
    # normalization Jacobian: (grad - <grad, z> z) / ||raw||
    inner = np.sum(grad_z * cache.z, axis=1, keepdims=True)
    d_zraw = (grad_z - inner * cache.z) / cache.norms[:, None]
    h_grads, d_pool_h = mlp_backward(stack.h, cache.h_acts, d_zraw)
    g_grads, d_pool_g = mlp_backward(stack.g, cache.g_acts, grad_logits)
    d_pool = d_pool_h + d_pool_g
    d_frames_out = np.repeat(d_pool / t, t, axis=0)
    f_grads, d_flat = mlp_backward(stack.f, cache.f_acts, d_frames_out)
    return StackGrads(f=f_grads, h=h_grads, g=g_grads), d_flat.reshape(n, t, feat)


def add_grads(acc: StackGrads, other: StackGrads) -> None:
    for mlp_acc, mlp_other in ((acc.f, other.f), (acc.h, other.h), (acc.g, other.g)):
        for w, g in zip(mlp_acc.weights, mlp_other.weights):
            w += g
        for b, g in zip(mlp_acc.biases, mlp_other.biases):
            b += g


@dataclass
class MomentumState:
    velocities: list = field(default_factory=list)

    @classmethod
    def for_stack(cls, stack: EncoderStack) -> "MomentumState":
        return cls(velocities=[np.zeros_like(p) for p in stack.param_tensors()])


def sgd_momentum_step(
    stack: EncoderStack,
    grads: StackGrads,
    lr: float,
    state: MomentumState,
    momentum: float = 0.9,
) -> EncoderStack:
    """v <- mu*v + g; p <- p - lr*v.  No-op on frozen stacks."""
    if stack.frozen:
        return stack
    flat_grads = []
    for mlp in (grads.f, grads.h, grads.g):
        flat_grads.extend(mlp.weights)
        flat_grads.extend(mlp.biases)
    params = list(stack.param_tensors())
    if len(params) != len(state.velocities) or len(params) != len(flat_grads):
        raise ShapeMismatchError("parameter/gradient/velocity count mismatch")
    for p, g, v in zip(params, flat_grads, state.velocities):
        if p.shape != g.shape:
            raise ShapeMismatchError("gradient shape does not match parameter")
        v *= momentum
        v += g
        p -= lr * v
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


def _mlp_from_json(doc: dict, name: str, in_dim) -> MlpParams:
    """Parse layer set ``name``; its shapes must chain, from ``in_dim`` unless None."""
    layers = doc[name]
    if not isinstance(layers, dict) or not all(
        isinstance(layers.get(key), list) for key in ("weights", "biases")
    ):
        raise DatasetParseError(f"checkpoint {name!r} needs 'weights' and 'biases' lists")
    try:
        p = MlpParams(
            weights=[np.asarray(w, dtype=np.float64) for w in layers["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in layers["biases"]],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetParseError(f"checkpoint {name!r} has a non-numeric or ragged layer") from exc
    if not p.weights or len(p.weights) != len(p.biases):
        raise DatasetParseError(f"checkpoint {name!r} needs layers with one bias per weight")
    for l, (W, b) in enumerate(zip(p.weights, p.biases)):
        if W.ndim != 2 or b.shape != W.shape[:1] or in_dim not in (None, W.shape[1]):
            raise DatasetParseError(
                f"checkpoint {name!r} layer {l}: weight {W.shape} and bias {b.shape} "
                f"do not chain from input dim {in_dim}"
            )
        in_dim = W.shape[0]
    return p


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
        f = _mlp_from_json(doc, "f", None)
        hidden = f.weights[-1].shape[0]
        stack = EncoderStack(
            f=f,
            h=_mlp_from_json(doc, "h", hidden),
            g=_mlp_from_json(doc, "g", hidden),
            view=doc["view"],
            frozen=bool(doc["frozen"]),
        )
        return stack, doc["stage"]
    except KeyError as exc:
        raise DatasetParseError(f"checkpoint {path} has no key {exc}") from exc
