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
Every decoupled loss here is ``_decoupled`` with its own positives,
negative pool and weights.
Cross-entropy and the unweighted losses also take (S, N, d) replica batches,
computing each slice as its 2-D batch, with one value per replica.
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


def _check_pair_batch(Z1, Z2, min_n=2, replicas=True):
    """Equal-shape (N, d) batches, or (S, N, d) ones where ``replicas`` allows."""
    Z1 = as_f64(Z1)
    Z2 = as_f64(Z2)
    if Z1.shape != Z2.shape:
        raise ShapeMismatchError(f"batch shapes differ: {Z1.shape} vs {Z2.shape}")
    if Z1.ndim not in ((2, 3) if replicas else (2,)):
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


def _decoupled(anchors, pool, pos_idx, tau, weights):
    """Weighted decoupled direction: the one kernel behind every alignment term.

    Anchor row i is positive with ``pool[pos_idx[i]]`` (the diagonal when
    ``pos_idx`` is None); every other pool row is a negative.  Returns the
    value and the gradients w.r.t. the anchors and the pool.
    """
    n, m = anchors.shape[-2], pool.shape[-2]
    A = (anchors @ pool.swapaxes(-1, -2)) / tau
    # positives as positions in each replica's flattened (n, m) score matrix
    pos_flat = slice(None, None, m + 1) if pos_idx is None else np.arange(n) * m + pos_idx
    flat = A.reshape(*A.shape[:-2], n * m)
    pos = flat[..., pos_flat].copy()
    flat[..., pos_flat] = -np.inf
    lse = logsumexp_rows(A)
    value = mean_rows(lse - weights * pos)
    G = np.exp(A - lse[..., None])  # row-softmax over the negatives, zero at positives
    G /= n * tau
    G.reshape(flat.shape)[..., pos_flat] -= weights / (n * tau)
    return value, G @ pool, G.swapaxes(-1, -2) @ anchors


def _both_directions(Za, Zb, pool_a, pool_b, pos_idx, tau, weights):
    """Za rows against pool_b, then Zb rows against pool_a.

    Returns both direction values and the gradients w.r.t. pool_a and pool_b;
    anchor gradients land on rows ``pos_idx`` of their pool (all rows if None).
    """
    v1, ga, g_pool_b = _decoupled(Za, pool_b, pos_idx, tau, weights)
    v2, gb, g_pool_a = _decoupled(Zb, pool_a, pos_idx, tau, weights)
    rows = slice(None) if pos_idx is None else pos_idx
    g_pool_a[..., rows, :] += ga
    g_pool_b[..., rows, :] += gb
    return v1, v2, g_pool_a, g_pool_b


def dcl_direction(Z1, Z2, tau: float) -> LossOutput:
    """Decoupled contrastive direction: positive term removed from the denominator."""
    Z1, Z2 = _check_pair_batch(Z1, Z2)
    value, g1, g2 = _decoupled(Z1, Z2, None, tau, 1.0)
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


def _alignment(Zf, Zt, pool_f, pool_t, pos_idx, tau, weights) -> LossOutput:
    v1, v2, gf, gt = _both_directions(Zf, Zt, pool_f, pool_t, pos_idx, tau, weights)
    return LossOutput(v1 + v2, {"zf": gf, "zt": gt})


def alignment_loss_unweighted(Zf, Zt, tau: float) -> LossOutput:
    """Both decoupled directions on the selected pseudo-pairs."""
    Zf, Zt = _check_pair_batch(Zf, Zt)
    return _alignment(Zf, Zt, Zf, Zt, None, tau, 1.0)


def weighted_alignment_loss(Zf, Zt, Df, Dt, tau: float, sigma: float) -> LossOutput:
    """Semantics-weighted alignment on the selected pseudo-pairs, both directions."""
    Zf, Zt = _check_pair_batch(Zf, Zt)
    w = semantic_weights(Df, Dt, sigma)
    if w.shape[0] != Zf.shape[0]:
        raise ShapeMismatchError("text batch size must match feature batch size")
    return _alignment(Zf, Zt, Zf, Zt, None, tau, w)


def weighted_alignment_loss_pooled(
    Zf_sel, Zt_sel, Df_sel, Dt_sel, Zf_pool, Zt_pool, sel_idx, tau: float, sigma: float,
    weights=None,
) -> LossOutput:
    """Full-batch negative mode: positives from selected pairs, negatives from all pairs.

    ``sel_idx`` maps selected rows to their positions in the pool batches;
    None means the pools are the selected rows themselves, in order.
    Gradients are returned at pool shape so they add onto the whole batch.
    Pass ``weights`` explicitly (e.g. ones) to bypass the semantic weighting.
    """
    Zf_sel, Zt_sel = _check_pair_batch(Zf_sel, Zt_sel)
    Zf_pool, Zt_pool = _check_pair_batch(Zf_pool, Zt_pool)
    if sel_idx is None:
        if Zf_pool.shape != Zf_sel.shape:
            raise ShapeMismatchError("without sel_idx the pools must be the selected rows")
    else:
        sel_idx = np.asarray(sel_idx, dtype=int)
        if sel_idx.shape != Zf_sel.shape[:1] or np.any((sel_idx < 0) | (sel_idx >= len(Zf_pool))):
            raise ShapeMismatchError("sel_idx needs one pool row index per selected row")
    w = semantic_weights(Df_sel, Dt_sel, sigma) if weights is None else as_f64(weights)
    return _alignment(Zf_sel, Zt_sel, Zf_pool, Zt_pool, sel_idx, tau, w)


def multimodal_loss(Zf, Df, Zt, Dt, tau: float) -> LossOutput:
    """Video-text alignment over the full batch; text vectors are constants."""
    Zf, Df = _check_pair_batch(Zf, Df)
    Zt, Dt = _check_pair_batch(Zt, Dt)
    v1, v2, gzf, _ = _both_directions(Zf, Df, Zf, Df, None, tau, 1.0)
    v3, v4, gzt, _ = _both_directions(Zt, Dt, Zt, Dt, None, tau, 1.0)
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
    Zf, Zt = _check_pair_batch(Zf, Zt, replicas=False)
    n = Zf.shape[0]
    sq_f = np.sum(Zf * Zf, axis=1)
    sq_t = np.sum(Zt * Zt, axis=1)
    D2 = sq_f[:, None] + sq_t[None, :] - 2.0 * (Zf @ Zt.T)
    pos = np.diagonal(D2).copy()
    D2_neg = D2.copy()
    np.fill_diagonal(D2_neg, np.inf)
    hardest = np.argmin(D2_neg, axis=1)  # ties break to the smallest index
    neg = D2_neg[np.arange(n), hardest]
    slack = pos - neg + margin
    active = slack > 0
    value = float(np.mean(np.where(active, slack, 0.0)))
    gf = np.zeros_like(Zf)
    gt = np.zeros_like(Zt)
    for i in np.flatnonzero(active):
        j = hardest[i]
        gf[i] += 2.0 * (Zt[j] - Zt[i]) / n
        gt[i] += -2.0 * (Zf[i] - Zt[i]) / n
        gt[j] += 2.0 * (Zf[i] - Zt[j]) / n
    return LossOutput(value, {"zf": gf, "zt": gt})


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
