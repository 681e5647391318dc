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
``contrastive_terms`` is the one entry point to that kernel: stage 2 runs all
of a batch's terms through it as one stacked call, and each public decoupled
loss below is one ``Contrastive`` term through it.  The kernel has one
arithmetic path: every direction is gated, and an ungated term, in stage 2 or
a public loss, runs under an all-true gate with unit weights.
Every loss also takes (S, N, d) replica batches, computing each slice as its
2-D batch, with one value per replica; narrations that only set semantic
weights stay (N, D), except the gated loss's, which have one row per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import (
    BatchTooSmallError,
    ConfigValidationError,
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

    def __post_init__(self) -> None:
        check(self, "loss", ConfigValidationError)


@dataclass
class LossOutput:
    value: float
    grads: dict = field(default_factory=dict)


def _check_batches(*batches):
    """Equal-shape (N, d) batches, or (S, N, d) replica batches."""
    batches = [as_f64(Z) for Z in batches]
    Z1 = batches[0]
    if any(Z.shape != Z1.shape for Z in batches):
        raise ShapeMismatchError(f"batch shapes differ: {[Z.shape for Z in batches]}")
    if Z1.ndim not in (2, 3):
        raise ShapeMismatchError(f"feature batches must be (N, d), got {Z1.shape}")
    if Z1.shape[-2] < 2:
        raise BatchTooSmallError(f"need at least 2 rows, got {Z1.shape[-2]}")
    return batches


def info_nce_direction(Z1, Z2, tau: float) -> LossOutput:
    """One direction of the contrastive loss; positives on the diagonal."""
    Z1, Z2 = _check_batches(Z1, Z2)
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


def _decoupled(anchors, pool, tau, weights, gate, full_batch=True):
    """Weighted decoupled direction: the one kernel behind every alignment term.

    Anchor row i is positive with pool row i; every other pool row is a
    negative.  The boolean ``gate`` (one flag per anchor row) makes its rows the
    only anchors, the value their mean, and, unless ``full_batch``, the only
    negatives; a replica gating fewer than two rows gates none, and ``weights``
    are zero off it.  An all-true gate is the plain decoupled direction.
    Returns the value and the gradients w.r.t. the anchors and the pool.
    """
    n = anchors.shape[-2]
    k = np.add.reduce(gate, axis=-1, keepdims=True)  # the gated rows a replica's mean runs over
    gate = gate & (k >= 2)
    weights = weights * gate
    k[k < 2] = 1  # ungated rows are padded with zeros; the mean runs over at least one
    A = (anchors @ pool.swapaxes(-1, -2)) / tau
    flat = A.reshape(*A.shape[:-2], n * n)
    pos = flat[..., :: n + 1].copy()
    flat[..., :: n + 1] = -np.inf
    if not full_batch:  # ungated rows keep finite scores
        A[gate[..., :, None] & ~gate[..., None, :]] = -np.inf
    lse = logsumexp_rows(A)
    G = np.exp(A - lse[..., None])  # row-softmax over the negatives, zero at positives
    norm = k * tau
    value = np.add.reduce(gate * (lse - weights * pos), axis=-1) / k[..., 0]
    G /= norm[..., None]
    G *= gate[..., None]
    G.reshape(flat.shape)[..., :: n + 1] -= weights / norm
    return value, G @ pool, G.swapaxes(-1, -2) @ anchors


class Contrastive(NamedTuple):
    """A decoupled contrastive term: its (anchor, pool) field ``directions``, in the
    order their values add, on every pair or on the theta-``gated`` ones,
    semantically ``weighted`` or not."""

    directions: tuple
    gated: bool = False
    weighted: bool = False


ALIGN = (("zf", "zt"), ("zt", "zf"))  # view alignment's directions
VIDEO_TEXT = Contrastive((("zf", "df"), ("df", "zf"), ("zt", "dt"), ("dt", "zt")))


def contrastive_terms(terms, fields, tau: float, sigma: float, full_batch: bool) -> list:
    """Each ``Contrastive`` term's LossOutput from one ``_decoupled`` call over all
    their directions.

    ``fields`` maps names to (S, N, d) replica batches: features ``z*``, the
    narrations ``df`` and ``dt`` (a weighted term's may be (N, D), shared by
    every replica), and the (S, N) boolean ``gate`` that gated terms run under.
    Every direction is gated: an ungated term's runs under an all-true gate.  A
    field is the anchor of one direction and the pool of another; its gradient
    adds the two parts, and text gets none.
    """
    ones = np.ones(fields[terms[0].directions[0][0]].shape[:-1])
    all_true = ones.astype(bool)
    directions = []
    for t in terms:
        g = fields["gate"] if t.gated else all_true
        w = ones
        if t.weighted:  # times ones: shared (N, D) narrations' (N,) weights to (S, N), exactly
            w = semantic_weights(fields["df"], fields["dt"], sigma, g if t.gated else True) * w
        directions += [(fields[a], fields[p], g, w) for a, p in t.directions]
    anchors, pools, gates, weights = zip(*directions)
    out = _decoupled(np.concatenate(anchors), np.concatenate(pools), tau,
                     np.concatenate(weights), np.concatenate(gates), full_batch)
    results = zip(*(x.reshape(len(directions), -1, *x.shape[1:]) for x in out))
    outs = []
    for t in terms:
        values, grads = [], {}
        for (a, p), (value, g_a, g_p) in zip(t.directions, results):  # t's directions only
            values.append(value)
            for name, g in ((a, g_a), (p, g_p)):
                if name.startswith("z"):
                    grads[name] = grads[name] + g if name in grads else g
        outs.append(LossOutput(sum(values[1:], values[0]), grads))
    return outs


def _term(term, fields, tau, sigma=None, full_batch=True) -> LossOutput:
    """``term`` alone through ``contrastive_terms``; (N, d) fields run as one replica."""
    single = fields[term.directions[0][0]].ndim == 2
    if single:
        fields = {k: np.asarray(v)[None] for k, v in fields.items()}
    out, = contrastive_terms([term], fields, tau, sigma, full_batch)
    return LossOutput(out.value[0], {k: g[0] for k, g in out.grads.items()}) if single else out


def dcl_direction(Z1, Z2, tau: float) -> LossOutput:
    """Decoupled contrastive direction: positive term removed from the denominator."""
    Z1, Z2 = _check_batches(Z1, Z2)
    return _term(Contrastive((("z1", "z2"),)), {"z1": Z1, "z2": Z2}, tau)


def semantic_weights(Df, Dt, sigma: float, gate=True) -> np.ndarray:
    """Per-pair positive weights from narration similarity: a softmax over the
    gated pairs of each batch, scaled to mean one over them, zero off them.

    ``Df`` and ``Dt`` are (N, D) or (S, N, D) batches; ``gate`` is True (every
    pair) or one flag per pair.  Constants w.r.t. optimization: no gradients
    flow into Df or Dt.
    """
    Df = as_f64(Df)
    Dt = as_f64(Dt)
    gate = np.asarray(gate)
    if Df.shape != Dt.shape:
        raise ShapeMismatchError(f"text batch shapes differ: {Df.shape} vs {Dt.shape}")
    if Df.ndim not in (2, 3) or Df.shape[-2] < 1:
        raise ShapeMismatchError("text batches must be (N, D) or (S, N, D) with at least one row")
    if gate.dtype != bool or gate.shape not in ((), Df.shape[:-1]):
        raise ShapeMismatchError(f"gate needs one flag per text row {Df.shape[:-1]}, "
                                 f"got {gate.shape}")
    # ufuncs only: at a batch's 16 rows, numpy's wrappers would cost as much as the sums
    s = np.add.reduce(Df * Dt, axis=-1) / sigma
    # shift-invariant in the ratio; the shift is the largest gated similarity
    top = np.maximum.reduce(s, axis=-1, keepdims=True, where=gate, initial=-np.inf)
    e = np.exp(s - top, out=np.zeros(s.shape), where=gate)
    # a scalar gate is every row or none, and with none every weight is zero anyway
    k = np.add.reduce(gate, axis=-1, keepdims=True) if gate.ndim else s.shape[-1]
    mean = np.add.reduce(e, axis=-1, keepdims=True) / np.maximum(k, 1)
    return np.divide(e, mean, out=np.zeros(e.shape), where=gate)


def alignment_loss_unweighted(Zf, Zt, tau: float) -> LossOutput:
    """Both decoupled directions on the selected pseudo-pairs."""
    Zf, Zt = _check_batches(Zf, Zt)
    return _term(Contrastive(ALIGN), {"zf": Zf, "zt": Zt}, tau)


def weighted_alignment_loss(Zf, Zt, Df, Dt, tau: float, sigma: float) -> LossOutput:
    """Semantics-weighted alignment on the selected pseudo-pairs, both directions."""
    Zf, Zt = _check_batches(Zf, Zt)
    if np.shape(Df)[:-1] != Zf.shape[-2:-1]:  # (N, D) narrations, shared by every replica
        raise ShapeMismatchError("text batch size must match feature batch size")
    fields = {"zf": Zf, "zt": Zt, "df": Df, "dt": Dt}
    return _term(Contrastive(ALIGN, weighted=True), fields, tau, sigma)


def weighted_alignment_loss_pooled(Zf, Zt, Df, Dt, gate, full_batch: bool, tau: float,
                                   sigma: float) -> LossOutput:
    """Semantics-weighted alignment on the gated pairs of a batch, one boolean
    ``gate`` row per replica.

    Gated pairs are the only anchors and positives; the negatives are the
    other gated pairs, or with ``full_batch`` every other pair of the batch.
    A replica with fewer than two gated pairs adds zero (``_decoupled``'s
    two-row rule); ``semantic_weights`` weighs each replica's gated pairs.
    """
    Zf, Zt = _check_batches(Zf, Zt)
    gate = np.asarray(gate)
    if gate.dtype != bool or gate.shape != Zf.shape[:-1]:
        raise ShapeMismatchError(f"gate needs one flag per pair {Zf.shape[:-1]}, got {gate.shape}")
    fields = {"zf": Zf, "zt": Zt, "df": Df, "dt": Dt, "gate": gate}
    return _term(Contrastive(ALIGN, True, True), fields, tau, sigma, full_batch)


def multimodal_loss(Zf, Df, Zt, Dt, tau: float) -> LossOutput:
    """Video-text alignment over the full batch, all four batches of one shape;
    text vectors are constants."""
    Zf, Df, Zt, Dt = _check_batches(Zf, Df, Zt, Dt)
    return _term(VIDEO_TEXT, {"zf": Zf, "zt": Zt, "df": Df, "dt": Dt}, tau)


def cross_entropy(logits, labels) -> LossOutput:
    """Mean negative log-softmax of the true class."""
    logits = as_f64(logits)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim not in (2, 3) or labels.shape != logits.shape[:-1]:
        raise ShapeMismatchError("logits must be (N, C) with N labels")
    n, c = logits.shape[-2:]
    # labels.min() and .max() as bare ufunc reductions, without their per-call wrappers
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= c):
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
    Zf, Zt = _check_batches(Zf, Zt)
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
    """Weighted sum of one or more (weight, LossOutput) terms: values added in the given
    order, gradients summed per input name (same name, same shape).  Each sum
    starts from its first weighted term, so a lone term at weight one is
    returned bit for bit, signed zeros included."""
    value = None
    grads = {}
    for w, out in weighted_terms:
        value = w * out.value if value is None else value + w * out.value
        for key, g in out.grads.items():
            if key in grads:
                grads[key] += w * g
            else:
                grads[key] = w * g  # a new array, so the sum never writes into a term
    return LossOutput(value, grads)
