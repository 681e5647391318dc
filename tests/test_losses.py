import math

import numpy as np
import pytest

from conftest import numeric_grad, unit_rows
from suml.exceptions import (
    BatchTooSmallError,
    LabelOutOfRangeError,
    ShapeMismatchError,
)
from suml.losses import (
    LossConfig,
    alignment_loss_unweighted,
    cross_entropy,
    dcl_direction,
    info_nce_direction,
    info_nce_symmetric,
    multimodal_loss,
    semantic_weights,
    total_loss,
    triplet_loss,
    weighted_alignment_loss,
    weighted_alignment_loss_pooled,
)
from suml.numerics import logsumexp_rows

I2 = np.eye(2)
TEXT = np.cos(np.arange(42.0)).reshape(6, 7)


# ---------------------------------------------------------------- hand values

def test_info_nce_hand_value_orthonormal_pair():
    # two orthonormal rows paired with themselves, temperature 1:
    # per row loss = log(e^1 + e^0) - 1 = log(1 + e^-1)
    out = info_nce_direction(I2, I2, tau=1.0)
    assert out.value == pytest.approx(math.log(1 + math.e ** -1), abs=1e-12)
    assert out.value == pytest.approx(0.313262, abs=1e-6)


def test_info_nce_symmetric_hand_value():
    out = info_nce_symmetric(I2, I2, tau=1.0)
    assert out.value == pytest.approx(2 * math.log(1 + math.e ** -1), abs=1e-12)


def test_dcl_hand_value_orthonormal_pair():
    # removing the positive from the denominator leaves log(e^0) - 1 = -1
    out = dcl_direction(I2, I2, tau=1.0)
    assert out.value == pytest.approx(-1.0, abs=1e-12)


def test_multimodal_hand_value():
    out = multimodal_loss(I2, I2, I2, I2, tau=1.0)
    assert out.value == pytest.approx(-4.0, abs=1e-12)


def test_cross_entropy_uniform_hand_value():
    out = cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
    assert out.value == pytest.approx(math.log(4.0), abs=1e-12)


def test_semantic_weights_hand_value():
    # similarities 1.0 and 0.5 at sigma=1: w = e^s / mean(e^s)
    Df = np.array([[1.0, 0.0], [1.0, 0.0]])
    Dt = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
    w = semantic_weights(Df, Dt, sigma=1.0)
    denom = (math.e + math.exp(0.5)) / 2
    assert w[0] == pytest.approx(math.e / denom, abs=1e-12)
    assert w[1] == pytest.approx(math.exp(0.5) / denom, abs=1e-12)
    assert w[0] == pytest.approx(1.2449186, abs=1e-6)


# ------------------------------------------------------------- identities

def test_dcl_strictly_below_info_nce(rng):
    for _ in range(200):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        Z1, Z2 = unit_rows(rng, n, d), unit_rows(rng, n, d)
        tau = float(rng.uniform(0.05, 2.0))
        assert dcl_direction(Z1, Z2, tau).value < info_nce_direction(Z1, Z2, tau).value


def test_semantic_weights_mean_one(rng):
    for _ in range(200):
        n, d = int(rng.integers(1, 20)), int(rng.integers(2, 10))
        w = semantic_weights(unit_rows(rng, n, d), unit_rows(rng, n, d),
                             sigma=float(rng.uniform(0.1, 3.0)))
        assert np.mean(w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)


def test_weighted_equals_unweighted_for_equal_similarities(rng):
    # identical narration pairs give uniform weights, collapsing to plain DCL
    n, d = 5, 6
    Zf, Zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
    D = unit_rows(rng, n, 8)
    w = weighted_alignment_loss(Zf, Zt, D, D, tau=0.3, sigma=1.0)
    u = alignment_loss_unweighted(Zf, Zt, tau=0.3)
    assert w.value == pytest.approx(u.value, abs=1e-12)
    assert np.allclose(w.grads["zf"], u.grads["zf"], atol=1e-12)


def test_view_swap_invariance(rng):
    n, d = 6, 5
    Zf, Zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
    a = info_nce_symmetric(Zf, Zt, tau=0.4)
    b = info_nce_symmetric(Zt, Zf, tau=0.4)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert np.allclose(a.grads["zf"], b.grads["zt"], atol=1e-12)
    u1 = alignment_loss_unweighted(Zf, Zt, tau=0.4)
    u2 = alignment_loss_unweighted(Zt, Zf, tau=0.4)
    assert u1.value == pytest.approx(u2.value, abs=1e-12)


def test_paired_permutation_invariance(rng):
    n, d = 7, 4
    Zf, Zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
    Df, Dt = unit_rows(rng, n, 6), unit_rows(rng, n, 6)
    perm = rng.permutation(n)
    a = weighted_alignment_loss(Zf, Zt, Df, Dt, tau=0.5, sigma=1.0)
    b = weighted_alignment_loss(Zf[perm], Zt[perm], Df[perm], Dt[perm], tau=0.5, sigma=1.0)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert np.allclose(a.grads["zf"][perm], b.grads["zf"], atol=1e-12)


def test_pooled_all_true_gate_is_bitwise_weighted_alignment_loss(rng):
    n, d = 5, 4
    Zf, Zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
    Df, Dt = unit_rows(rng, n, 6), unit_rows(rng, n, 6)
    stacked = [np.stack([unit_rows(rng, n, d) for _ in range(3)]) for _ in range(2)]
    tiled = [np.broadcast_to(D, (3, n, 6)) for D in (Df, Dt)]
    for (zf, zt), (df, dt) in (((Zf, Zt), (Df, Dt)), (stacked, tiled)):
        sub = weighted_alignment_loss(zf, zt, Df, Dt, tau=0.3, sigma=1.0)
        for full_batch in (False, True):
            gate = np.ones(zf.shape[:-1], dtype=bool)
            pooled = weighted_alignment_loss_pooled(zf, zt, df, dt, gate, full_batch, 0.3, 1.0)
            assert np.array_equal(pooled.value, sub.value)
            assert np.array_equal(pooled.grads["zf"], sub.grads["zf"])
            assert np.array_equal(pooled.grads["zt"], sub.grads["zt"])


def test_pooled_ungated_rows_are_negatives_in_full_batch_mode(rng):
    # extra negatives can only tighten the per-row softmax (larger logsumexp)
    n, extra, d = 4, 3, 5
    Zf, Zt = unit_rows(rng, n + extra, d), unit_rows(rng, n + extra, d)
    D = unit_rows(rng, n + extra, 6)
    gate = np.arange(n + extra) < n
    small = weighted_alignment_loss_pooled(Zf, Zt, D, D, gate, False, tau=0.3, sigma=1.0)
    big = weighted_alignment_loss_pooled(Zf, Zt, D, D, gate, True, tau=0.3, sigma=1.0)
    assert big.value > small.value
    # the gated rows alone, without the extra rows, are the selected_subset loss
    alone = weighted_alignment_loss(Zf[:n], Zt[:n], D[:n], D[:n], tau=0.3, sigma=1.0)
    assert small.value == pytest.approx(alone.value, rel=1e-12)
    assert not np.any(small.grads["zf"][n:]) and np.all(np.any(big.grads["zf"][n:], axis=-1))


def ragged_direction(anchors, pool, pos_idx, tau, weights):
    """The decoupled direction of k gathered anchors against m pool rows, anchor i
    positive with pool row ``pos_idx[i]`` (the diagonal when None): the ragged
    reference that the masked kernel is checked against."""
    n, m = len(anchors), len(pool)
    A = anchors @ pool.T / tau
    pos_flat = slice(None, None, m + 1) if pos_idx is None else np.arange(n) * m + pos_idx
    flat = A.reshape(n * m)
    pos = flat[pos_flat].copy()
    flat[pos_flat] = -np.inf
    lse = logsumexp_rows(A)
    G = np.exp(A - lse[:, None]) / (n * tau)
    G.reshape(n * m)[pos_flat] -= weights / (n * tau)
    return float(np.mean(lse - weights * pos)), G @ pool, G.T @ anchors


def ragged_gated_alignment(Zf, Zt, Df, Dt, gate, full_batch, tau, sigma, weighted):
    """The gated alignment replica by replica: gather the gated rows, align them
    against the gated rows (or the whole batch), scatter the gradients back."""
    value, gf, gt = np.zeros(len(gate)), np.zeros_like(Zf), np.zeros_like(Zt)
    for r, mask in enumerate(gate):
        sel = np.flatnonzero(mask)
        if len(sel) < 2:
            continue
        zf, zt = Zf[r, sel], Zt[r, sel]
        w = semantic_weights(Df[r, sel], Dt[r, sel], sigma) if weighted else np.ones(len(sel))
        pool_f, pool_t, pos = (Zf[r], Zt[r], sel) if full_batch else (zf, zt, None)
        v1, ga, g_pool_t = ragged_direction(zf, pool_t, pos, tau, w)
        v2, gb, g_pool_f = ragged_direction(zt, pool_f, pos, tau, w)
        rows = slice(None) if pos is None else pos
        g_pool_f[rows] += ga
        g_pool_t[rows] += gb
        cols = slice(None) if full_batch else sel
        value[r], gf[r, cols], gt[r, cols] = v1 + v2, g_pool_f, g_pool_t
    return value, gf, gt


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("full_batch", [False, True])
def test_masked_gated_alignment_equals_the_ragged_per_replica_loop(rng, full_batch, weighted):
    for _ in range(20):
        n, d = int(rng.integers(2, 11)), int(rng.integers(3, 7))
        gate = np.zeros((5, n), dtype=bool)
        for r, k in enumerate((0, 1, 2, n, int(rng.integers(0, n + 1)))):
            gate[r, rng.choice(n, size=k, replace=False)] = True
        Zf, Zt = (np.stack([unit_rows(rng, n, d) for _ in range(5)]) for _ in range(2))
        Df, Dt = (np.stack([unit_rows(rng, n, 4) for _ in range(5)]) for _ in range(2))
        tau, sigma = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.3, 2.0))
        out = weighted_alignment_loss_pooled(
            Zf, Zt, Df, Dt, gate, full_batch, tau, sigma, weights=None if weighted else 1.0,
        )
        want = ragged_gated_alignment(Zf, Zt, Df, Dt, gate, full_batch, tau, sigma, weighted)
        for got, ref in zip((out.value, out.grads["zf"], out.grads["zt"]), want):
            for r in range(5):
                # a replica gating fewer than two rows adds exactly zero
                assert np.max(np.abs(got[r] - ref[r])) <= 1e-12 * np.max(np.abs(ref[r]))


def test_total_loss_recombination(rng):
    n, d = 4, 5
    Z = unit_rows(rng, n, d)
    cfg = LossConfig(tau=0.3, w_t=0.5, w_aw=0.25, w_m=2.0)
    lf = cross_entropy(rng.standard_normal((n, 3)), np.zeros(n, dtype=int))
    lt = cross_entropy(rng.standard_normal((n, 3)), np.ones(n, dtype=int))
    law = alignment_loss_unweighted(Z, unit_rows(rng, n, d), cfg.tau)
    lm = multimodal_loss(Z, unit_rows(rng, n, d), Z, unit_rows(rng, n, d), cfg.tau)
    out = total_loss([(1.0, lf), (cfg.w_t, lt), (cfg.w_aw, law), (cfg.w_m, lm)])
    # values add in the given order, so the sum is exact
    assert out.value == lf.value + 0.5 * lt.value + 0.25 * law.value + 2.0 * lm.value
    want_zf = 0.25 * law.grads["zf"] + 2.0 * lm.grads["zf"]
    assert np.allclose(out.grads["zf"], want_zf, atol=1e-15)
    want_logits = lf.grads["logits"] + 0.5 * lt.grads["logits"]
    assert np.allclose(out.grads["logits"], want_logits, atol=1e-15)


# ------------------------------------------------------------- gradients

def _fd_check(build, analytic, X, tol=1e-7):
    num = numeric_grad(build, np.array(X))
    scale = max(1e-8, np.abs(analytic).max(), np.abs(num).max())
    assert np.abs(analytic - num).max() / scale < tol


def test_info_nce_gradients_fd(rng):
    n, d = 4, 3
    Z1, Z2 = unit_rows(rng, n, d), unit_rows(rng, n, d)
    out = info_nce_direction(Z1, Z2, 0.5)
    _fd_check(lambda X: info_nce_direction(X, Z2, 0.5).value, out.grads["z1"], Z1)
    _fd_check(lambda X: info_nce_direction(Z1, X, 0.5).value, out.grads["z2"], Z2)


def test_weighted_alignment_gradients_fd(rng):
    n, d = 5, 4
    Zf, Zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
    Df, Dt = unit_rows(rng, n, 6), unit_rows(rng, n, 6)
    out = weighted_alignment_loss(Zf, Zt, Df, Dt, 0.4, 1.0)
    _fd_check(lambda X: weighted_alignment_loss(X, Zt, Df, Dt, 0.4, 1.0).value,
              out.grads["zf"], Zf)
    _fd_check(lambda X: weighted_alignment_loss(Zf, X, Df, Dt, 0.4, 1.0).value,
              out.grads["zt"], Zt)


def test_cross_entropy_gradient_fd(rng):
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    out = cross_entropy(logits, labels)
    _fd_check(lambda X: cross_entropy(X, labels).value, out.grads["logits"], logits)


def test_triplet_hand_case_and_gradient():
    # row 0 satisfied (positive d^2=0 vs negative d^2=2), row 1 violated
    # (positive d^2=4 vs negative d^2=2, slack 2.2); mean is 1.1
    Zf = np.array([[1.0, 0.0], [0.0, 1.0]])
    Zt = np.array([[1.0, 0.0], [0.0, -1.0]])
    out = triplet_loss(Zf, Zt, margin=0.2)
    assert out.value == pytest.approx(1.1, abs=1e-12)


def test_triplet_gradient_fd_off_hinge(rng):
    for _ in range(20):
        Zf = rng.standard_normal((4, 3))
        Zt = rng.standard_normal((4, 3))
        out = triplet_loss(Zf, Zt, 0.2)
        # skip samples near the hinge or near a tie in the hardest negative
        d2 = (np.sum(Zf**2, 1)[:, None] + np.sum(Zt**2, 1)[None, :] - 2 * Zf @ Zt.T)
        off = d2.copy()
        np.fill_diagonal(off, np.inf)
        part = np.partition(off, 1, axis=1)
        slack = np.diagonal(d2) - part[:, 0] + 0.2
        if np.abs(slack).min() < 1e-3 or (part[:, 1] - part[:, 0]).min() < 1e-3:
            continue
        _fd_check(lambda X: triplet_loss(X, Zt, 0.2).value, out.grads["zf"], Zf)
        _fd_check(lambda X: triplet_loss(Zf, X, 0.2).value, out.grads["zt"], Zt)


def test_multimodal_text_vectors_get_no_gradient(rng):
    n, d = 4, 5
    out = multimodal_loss(unit_rows(rng, n, d), unit_rows(rng, n, d),
                          unit_rows(rng, n, d), unit_rows(rng, n, d), 0.3)
    assert set(out.grads) == {"zf", "zt"}


# ------------------------------------------------------------- validation

def test_shape_and_batch_errors(rng):
    with pytest.raises(ShapeMismatchError):
        info_nce_direction(np.ones((3, 2)), np.ones((3, 4)), 1.0)
    with pytest.raises(BatchTooSmallError):
        dcl_direction(np.ones((1, 2)), np.ones((1, 2)), 1.0)
    with pytest.raises(LabelOutOfRangeError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ShapeMismatchError):
        semantic_weights(np.ones((2, 3)), np.ones((3, 3)), 1.0)
    # the gate: one boolean per pair; the text: one row per pair
    Z, D = unit_rows(rng, 4, 3), unit_rows(rng, 4, 5)
    for gate in (np.ones(3, dtype=bool), np.ones((1, 4), dtype=bool), np.array([0, 1, 2, 3])):
        with pytest.raises(ShapeMismatchError):
            weighted_alignment_loss_pooled(Z, Z, D, D, gate, False, 0.5, 1.0)
    with pytest.raises(ShapeMismatchError):
        weighted_alignment_loss_pooled(Z, Z, D[:3], D[:3], np.ones(4, dtype=bool), True, 0.5, 1.0)
    S = np.ones((2, 3, 4))
    with pytest.raises(ShapeMismatchError):
        weighted_alignment_loss(S, S, TEXT, TEXT, 0.5, 1.0)  # 6 narrations for 3 rows
    for zf, zt in ((S, np.ones((2, 3, 5))), (S[0], S), (S[None], S[None])):
        with pytest.raises(ShapeMismatchError):
            triplet_loss(zf, zt, 0.2)


def test_loss_config_validation():
    LossConfig().validate()
    with pytest.raises(ValueError):
        LossConfig(tau=0.0).validate()
    with pytest.raises(ValueError):
        LossConfig(theta=1.5).validate()
    with pytest.raises(ValueError):
        LossConfig(w_m=-1.0).validate()
    with pytest.raises(ValueError):
        LossConfig(sigma=0.0).validate()


@pytest.mark.parametrize(
    "loss",
    [
        lambda a, b, c, d: cross_entropy(a @ np.ones((a.shape[-1], 7)), (b[..., 0] > 0) * 3),
        lambda a, b, c, d: dcl_direction(a, b, 0.4),
        lambda a, b, c, d: info_nce_direction(a, b, 0.4),
        lambda a, b, c, d: alignment_loss_unweighted(a, b, 0.4),
        lambda a, b, c, d: multimodal_loss(a, c, b, d, 0.4),
        # (N, D) narrations for every replica; the (S, N, d) batches have S != N
        lambda a, b, c, d: weighted_alignment_loss(a, b, TEXT, TEXT[::-1], 0.4, 1.0),
        lambda a, b, c, d: triplet_loss(a, b, 0.2),
    ],
)
def test_replica_batches_equal_each_replica_alone(rng, loss):
    stacked = [np.stack([unit_rows(rng, 6, 5) for _ in range(3)]) for _ in range(4)]
    out = loss(*stacked)
    for r in range(3):
        alone = loss(*(x[r] for x in stacked))
        assert out.value[r] == alone.value
        assert all(np.array_equal(out.grads[k][r], g) for k, g in alone.grads.items())


def triplet_per_row(Zf, Zt, margin):
    """The triplet loss anchor by anchor, as a plain loop over (N, d) batches."""
    n = len(Zf)
    D2 = np.sum(Zf * Zf, axis=1)[:, None] + np.sum(Zt * Zt, axis=1)[None, :] - 2.0 * (Zf @ Zt.T)
    pos = np.diagonal(D2).copy()
    np.fill_diagonal(D2, np.inf)
    hardest = np.argmin(D2, axis=1)
    slack = pos - D2[np.arange(n), hardest] + margin
    active = slack > 0
    gf, gt = np.zeros_like(Zf), np.zeros_like(Zt)
    for i in np.flatnonzero(active):
        j = hardest[i]
        gf[i] += 2.0 * (Zt[j] - Zt[i]) / n
        gt[i] += -2.0 * (Zf[i] - Zt[i]) / n
        gt[j] += 2.0 * (Zf[i] - Zt[j]) / n
    return float(np.mean(np.where(active, slack, 0.0))), gf, gt, hardest, active


def shared_negative_instance(rng, n=6, d=4):
    """Anchors 0-2 sit near the origin, far from their positives, and share TPV
    row 3, at the origin, as their hardest negative.  Anchor 3 is active too,
    through TPV row 5 next to it, so row 3 of zt's gradient sums four terms,
    its own last; anchor 4 sits next to its positive, below the hinge."""
    Zf = rng.standard_normal((n, d))
    Zf[:3] *= 0.1
    Zt = Zf + 0.05 * rng.standard_normal((n, d))
    Zt[:3] += 3.0 * rng.standard_normal((3, d))
    Zt[3] = 0.0
    Zt[5] = Zf[3] + 0.05 * rng.standard_normal(d)
    return Zf, Zt


def test_stacked_triplet_equals_each_replica_and_the_per_row_loop(rng):
    margin = 0.5
    Zf, Zt = map(np.stack, zip(*(shared_negative_instance(rng) for _ in range(4))))
    out = triplet_loss(Zf, Zt, margin)
    assert out.value.shape == (4,)
    for r in range(4):
        alone = triplet_loss(Zf[r], Zt[r], margin)
        value, gf, gt, hardest, active = triplet_per_row(Zf[r], Zt[r], margin)
        # a shared hardest negative, rows on both sides of the hinge, and a row
        # of zt's gradient that takes other anchors' terms before its own
        assert np.bincount(hardest[active]).max() >= 3
        assert 0 < active.sum() < len(active)
        assert active[3] and np.all(hardest[:3] == 3)
        assert out.value[r] == alone.value == value
        for got in (out.grads["zf"][r], alone.grads["zf"]):
            assert np.array_equal(got, gf)
        for got in (out.grads["zt"][r], alone.grads["zt"]):
            assert np.array_equal(got, gt)
