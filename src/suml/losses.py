"""Training objectives with analytic gradients w.r.t. their feature inputs.

Every loss returns a LossOutput carrying the scalar value and a dict of
gradients, one entry per differentiable input, with matching shapes.
Text embedding batches are treated as constants: no gradient ever flows
into narration vectors.

Notation: for batches Z1, Z2 (N x d) let A[i, j] = <z1_i, z2_j> / tau.
The InfoNCE direction is the mean diagonal negative log-softmax of A;
the decoupled direction drops the diagonal term from the denominator and
may therefore go negative.  The weighted alignment direction multiplies
each positive term by a per-pair semantic weight with batch mean one.
Every decoupled loss here is ``_decoupled``, positives on the diagonal,
with its own negatives and weights; the theta-gated loss masks the score
matrix (rows, columns, weights) instead of gathering the gated rows.
Every loss also takes (S, N, d) replica batches, computing each slice as its
2-D batch, with one value per replica; narrations that only set semantic
weights stay (N, D), except the gated loss's, which have one row per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BatchTooSmallError,
    LabelOutOfRangeError,
    ShapeMismatchError,
)
from .numerics import as_f64, logsumexp_rows, mean_rows
from .schema import check, rule


@dataclass(frozen=True)
class LossConfig:
    tau: float = rule(0.5, lo=0.0, lo_open=True)
    sigma: float = rule(1.0, lo=0.0, lo_open=True)
    theta: float = rule(0.7, lo=-1.0, hi=1.0)
    w_t: float = rule(1.0, lo=0.0)
    w_aw: float = rule(1.0, lo=0.0)
    w_m: float = rule(1.0, lo=0.0)
    triplet_margin: float = rule(0.2, lo=0.0)

    def validate(self) -> None:
        check(self, "loss", ValueError)


@dataclass
class LossOutput:
    value: float
    grads: dict = field(default_factory=dict)


def _check_pair_batch(Z1, Z2, min_n=2):
    """Equal-shape (N, d) batches, or (S, N, d) replica batches."""
    Z1 = as_f64(Z1)
    Z2 = as_f64(Z2)
    if Z1.shape != Z2.shape:
        raise ShapeMismatchError(f"batch shapes differ: {Z1.shape} vs {Z2.shape}")
    if Z1.ndim not in (2, 3):
        raise ShapeMismatchError(f"feature batches must be (N, d), got {Z1.shape}")
    if Z1.shape[-2] < min_n:
        raise BatchTooSmallError(f"need at least {min_n} rows, got {Z1.shape[-2]}")
    return Z1, Z2


def info_nce_direction(Z1, Z2, tau: float) -> LossOutput:
    """One direction of the contrastive loss; positives on the diagonal."""
    Z1, Z2 = _check_pair_batch(Z1, Z2)
    n = Z1.shape[-2]
    A = (Z1 @ Z2.swapaxes(-1, -2)) / tau
    lse = logsumexp_rows(A)
    value = mean_rows(lse - np.diagonal(A, axis1=-2, axis2=-1))
    P = np.exp(A - lse[..., None])
    G = (P - np.eye(n)) / (n * tau)
    return LossOutput(value, {"z1": G @ Z2, "z2": G.swapaxes(-1, -2) @ Z1})


def info_nce_symmetric(Zf, Zt, tau: float) -> LossOutput:
    a = info_nce_direction(Zf, Zt, tau)
    b = info_nce_direction(Zt, Zf, tau)
    return LossOutput(
        a.value + b.value,
        {"zf": a.grads["z1"] + b.grads["z2"], "zt": a.grads["z2"] + b.grads["z1"]},
    )


def _decoupled(anchors, pool, tau, weights, gate=None, full_batch=True):
    """Weighted decoupled direction: the one kernel behind every alignment term.

    Anchor row i is positive with pool row i; every other pool row is a
    negative.  A boolean ``gate`` (per replica no row or at least two) makes
    its rows the only anchors, the value their mean, and, unless
    ``full_batch``, the only negatives; ``weights`` are then zero off it.
    Returns the value and the gradients w.r.t. the anchors and the pool.
    """
    n = anchors.shape[-2]
    A = (anchors @ pool.swapaxes(-1, -2)) / tau
    flat = A.reshape(*A.shape[:-2], n * n)
    pos = flat[..., :: n + 1].copy()
    flat[..., :: n + 1] = -np.inf
    if gate is not None and not full_batch:  # ungated rows keep finite scores
        A[gate[..., :, None] & ~gate[..., None, :]] = -np.inf
    lse = logsumexp_rows(A)
    G = np.exp(A - lse[..., None])  # row-softmax over the negatives, zero at positives
    if gate is None:
        value = mean_rows(lse - weights * pos)
        G /= n * tau
        G.reshape(flat.shape)[..., :: n + 1] -= weights / (n * tau)
    else:  # ungated rows padded with zeros; the mean runs over the gated ones
        k = np.maximum(np.count_nonzero(gate, axis=-1), 1)
        norm = (k * tau)[..., None]
        value = np.add.reduce(gate * (lse - weights * pos), axis=-1) / k
        G = G / norm[..., None] * gate[..., None]
        G.reshape(flat.shape)[..., :: n + 1] -= weights / norm
    return value, G @ pool, G.swapaxes(-1, -2) @ anchors


def _both_directions(Za, Zb, tau, weights, gate=None, full_batch=True):
    """Za rows against Zb, then Zb rows against Za: both values and the gradients
    w.r.t. Za and Zb, each anchor's gradient added onto its own view's pool's."""
    v1, ga, g_pool_b = _decoupled(Za, Zb, tau, weights, gate, full_batch)
    v2, gb, g_pool_a = _decoupled(Zb, Za, tau, weights, gate, full_batch)
    g_pool_a += ga
    g_pool_b += gb
    return v1, v2, g_pool_a, g_pool_b


def dcl_direction(Z1, Z2, tau: float) -> LossOutput:
    """Decoupled contrastive direction: positive term removed from the denominator."""
    Z1, Z2 = _check_pair_batch(Z1, Z2)
    value, g1, g2 = _decoupled(Z1, Z2, tau, 1.0)
    return LossOutput(value, {"z1": g1, "z2": g2})


def semantic_weights(Df, Dt, sigma: float) -> np.ndarray:
    """Per-pair positive weights from narration similarity, normalized to mean one.

    Constants w.r.t. optimization: no gradients flow into Df or Dt.
    """
    Df = as_f64(Df)
    Dt = as_f64(Dt)
    if Df.shape != Dt.shape:
        raise ShapeMismatchError(f"text batch shapes differ: {Df.shape} vs {Dt.shape}")
    if Df.ndim != 2 or Df.shape[0] < 1:
        raise ShapeMismatchError("text batches must be 2-D with at least one row")
    s = np.sum(Df * Dt, axis=1) / sigma
    e = np.exp(s - np.max(s))  # shift-invariant in the ratio
    return e / np.mean(e)


def _alignment(Zf, Zt, tau, weights, gate=None, full_batch=True) -> LossOutput:
    v1, v2, gf, gt = _both_directions(Zf, Zt, tau, weights, gate, full_batch)
    return LossOutput(v1 + v2, {"zf": gf, "zt": gt})


def alignment_loss_unweighted(Zf, Zt, tau: float) -> LossOutput:
    """Both decoupled directions on the selected pseudo-pairs."""
    Zf, Zt = _check_pair_batch(Zf, Zt)
    return _alignment(Zf, Zt, tau, 1.0)


def weighted_alignment_loss(Zf, Zt, Df, Dt, tau: float, sigma: float) -> LossOutput:
    """Semantics-weighted alignment on the selected pseudo-pairs, both directions."""
    Zf, Zt = _check_pair_batch(Zf, Zt)
    w = semantic_weights(Df, Dt, sigma)
    if w.shape[0] != Zf.shape[-2]:
        raise ShapeMismatchError("text batch size must match feature batch size")
    return _alignment(Zf, Zt, tau, w)


def weighted_alignment_loss_pooled(
    Zf, Zt, Df, Dt, gate, full_batch: bool, tau: float, sigma: float, weights=None,
) -> LossOutput:
    """Alignment on the gated pairs of a batch, one boolean ``gate`` row per replica.

    Gated pairs are the only anchors and positives; the negatives are the
    other gated pairs, or with ``full_batch`` every other pair of the batch.
    A replica with fewer than two gated pairs adds zero.  Semantic weights
    have mean one over each replica's gated pairs; pass ``weights``
    explicitly (e.g. ones) to bypass them.
    """
    Zf, Zt = _check_pair_batch(Zf, Zt)
    gate = np.asarray(gate)
    if gate.dtype != bool or gate.shape != Zf.shape[:-1]:
        raise ShapeMismatchError(f"gate needs one flag per pair {Zf.shape[:-1]}, got {gate.shape}")
    k = np.count_nonzero(gate, axis=-1, keepdims=True)
    gate = gate & (k >= 2)  # the two-row rule comes before the weights
    if weights is None:
        if np.shape(Df) != np.shape(Dt) or np.shape(Df)[:-1] != gate.shape:
            raise ShapeMismatchError("text batches need one row per pair")
        s = np.sum(as_f64(Df) * as_f64(Dt), axis=-1) / sigma
        e = np.exp(s - np.max(s, axis=-1, keepdims=True, where=gate, initial=-np.inf),
                   out=np.zeros_like(s), where=gate)
        mean = np.add.reduce(e, axis=-1, keepdims=True) / np.maximum(k, 1)
        weights = np.divide(e, mean, out=np.zeros_like(e), where=gate)
    return _alignment(Zf, Zt, tau, as_f64(weights) * gate, gate, full_batch)


def multimodal_loss(Zf, Df, Zt, Dt, tau: float) -> LossOutput:
    """Video-text alignment over the full batch; text vectors are constants."""
    Zf, Df = _check_pair_batch(Zf, Df)
    Zt, Dt = _check_pair_batch(Zt, Dt)
    v1, v2, gzf, _ = _both_directions(Zf, Df, tau, 1.0)
    v3, v4, gzt, _ = _both_directions(Zt, Dt, tau, 1.0)
    return LossOutput(v1 + v2 + v3 + v4, {"zf": gzf, "zt": gzt})


def cross_entropy(logits, labels) -> LossOutput:
    """Mean negative log-softmax of the true class."""
    logits = as_f64(logits)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim not in (2, 3) or labels.shape != logits.shape[:-1]:
        raise ShapeMismatchError("logits must be (N, C) with N labels")
    n, c = logits.shape[-2:]
    if np.any(labels < 0) or np.any(labels >= c):
        raise LabelOutOfRangeError(f"labels must lie in [0, {c})")
    lse = logsumexp_rows(logits)
    true = np.arange(labels.size).reshape(labels.shape) * c + labels  # flat true-class index
    value = mean_rows(lse - logits.reshape(-1)[true])
    G = np.exp(logits - lse[..., None])
    G.reshape(-1)[true] -= 1.0
    G /= n
    return LossOutput(value, {"logits": G})


def triplet_loss(Zf, Zt, margin: float) -> LossOutput:
    """Hardest-in-batch margin loss over squared distances; subgradient 0 at the hinge."""
    Zf, Zt = _check_pair_batch(Zf, Zt)
    n, d = Zf.shape[-2:]
    sq_f = np.sum(Zf * Zf, axis=-1)
    sq_t = np.sum(Zt * Zt, axis=-1)
    D2 = sq_f[..., :, None] + sq_t[..., None, :] - 2.0 * (Zf @ Zt.swapaxes(-1, -2))
    pos = np.diagonal(D2, axis1=-2, axis2=-1).copy()
    D2.reshape(*D2.shape[:-2], n * n)[..., :: n + 1] = np.inf  # negatives only
    hardest = np.argmin(D2, axis=-1)  # ties break to the smallest index
    slack = pos - np.take_along_axis(D2, hardest[..., None], axis=-1)[..., 0] + margin
    active = slack > 0
    value = mean_rows(np.where(active, slack, 0.0))
    # active anchors (replica r, row i) with hardest negative j, replica by replica
    zf, zt = Zf.reshape(-1, n, d), Zt.reshape(-1, n, d)
    r, i = np.nonzero(active.reshape(-1, n))
    j = hardest.reshape(-1, n)[r, i]
    gf = np.zeros_like(zf)
    gf[r, i] += 2.0 * (zt[r, j] - zt[r, i]) / n
    # scattered in the per-row loop's order (row i, then row j, anchor by anchor),
    # so each row of zt's gradient sums its terms in that order, bit for bit
    gt = np.zeros_like(zt)
    rows = np.stack([r * n + i, r * n + j], axis=-1).reshape(-1)
    steps = np.stack([-2.0 * (zf[r, i] - zt[r, i]) / n, 2.0 * (zf[r, i] - zt[r, j]) / n], axis=1)
    np.add.at(gt.reshape(-1, d), rows, steps.reshape(-1, d))
    return LossOutput(value, {"zf": gf.reshape(Zf.shape), "zt": gt.reshape(Zt.shape)})


def total_loss(weighted_terms) -> LossOutput:
    """Weighted sum of (weight, LossOutput) terms: values added in the given
    order, gradients summed per input name (same name, same shape)."""
    value = 0.0
    grads = {}
    for w, out in weighted_terms:
        value += w * out.value
        for key, g in out.grads.items():
            if key not in grads:
                grads[key] = np.zeros_like(g)
            grads[key] += w * g
    return LossOutput(value, grads)
