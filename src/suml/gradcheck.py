"""Finite-difference verification of every analytic gradient, plus loss identities.

Central differences with eps = 1e-5 in float64; the reported error for a
gradient block is max|analytic - numeric| / max(1e-8, max|analytic|,
max|numeric|).  Loss-level checks must stay below 1e-5, the composed
encoder-stack check below 1e-4 (depth loosens it).  All 2K perturbations of
an input of K entries run as one call on a stack of its copies, through the
replica axis of the losses and ``encode_batch``: each copy's value is bit for
bit that of a call on it alone, so each entry's difference is the per-entry one.

The loss and model checks draw every instance first, in one pass over their
rng, then check the instances in up to one process per usable CPU
(``workers._map_forked``; ``taskset -c 0`` checks them inline) and take each
max in the parent, in instance order: the report is bitwise that of one
process.  A non-finite error reads inf, so it fails its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from . import losses, model, workers
from .datagen import unit_rows
from .exceptions import ConfigValidationError

EPS = 1e-5
LOSS_TOL = 1e-5
MODEL_TOL = 1e-4
PROJECTOR_TOL = 1e-10  # the normalization projector's |<grad, z>|, an exact identity
TRIPLET_MARGIN = 0.2


def finite_difference(fn, X: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. every entry of X.

    ``fn`` maps a ``(2K, *X.shape)`` stack of copies of X (K = X.size) to its
    2K values, one per copy: copy k has entry k raised by ``eps`` and copy
    K + k has it lowered.
    """
    k = X.size
    copies = np.broadcast_to(X.reshape(k), (2, k, k)).copy()
    copies.reshape(2, k * k)[:, :: k + 1] += np.array([[eps], [-eps]])  # the diagonals
    f = fn(copies.reshape(2 * k, *X.shape))
    return ((f[:k] - f[k:]) / (2.0 * eps)).reshape(X.shape)


def _abs_max(x) -> float:
    """max|x|, or inf if x holds a NaN or an inf: a non-finite entry fails every check."""
    m = float(np.max(np.abs(x)))
    return m if math.isfinite(m) else math.inf


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max|a - n| / max(1e-8, max|a|, max|n|), or inf if either has a non-finite entry."""
    denom = max(1e-8, _abs_max(analytic), _abs_max(numeric))
    return math.inf if denom == math.inf else float(np.max(np.abs(analytic - numeric))) / denom


def _numeric(fn, inputs: dict, key: str) -> np.ndarray:
    """``finite_difference`` of ``fn(**inputs).value`` w.r.t. ``inputs[key]``, the
    other inputs tiled (read-only views) along the replica axis."""
    def values(stack):
        return fn(**{k: stack if k == key else np.broadcast_to(v, (len(stack), *np.shape(v)))
                     for k, v in inputs.items()}).value
    return finite_difference(values, inputs[key])


def _check_inputs(call, inputs: dict) -> float:
    """Max relative error over every differentiable input of one loss call."""
    out = call(**inputs)
    return max(rel_error(g, _numeric(call, inputs, key)) for key, g in out.grads.items())


def check_loss_gradients(n_instances: int = 100, seed: int = 0) -> dict:
    """Per-loss max relative FD error over random instances."""
    rng = np.random.default_rng(seed)
    instances = [_draw_loss_instance(rng) for _ in range(n_instances)]
    report = {}
    for errors in workers._map_forked(lambda k: _loss_instance_errors(*instances[k]),
                                      range(n_instances), lambda k: f"checking loss instance {k}"):
        for name, err in errors.items():
            report[name] = max(report.get(name, 0.0), err)
    return report


def _draw_loss_instance(rng) -> tuple:
    """The draws of one loss instance, the triplet search's last."""
    n = int(rng.integers(3, 7))
    d = int(rng.integers(4, 9))
    tau = float(rng.uniform(0.07, 1.0))
    sigma = float(rng.uniform(0.5, 2.0))
    Z1, Z2, D1, D2 = (unit_rows(rng, n, d) for _ in range(4))
    logits = rng.standard_normal((n, d))
    labels = rng.integers(0, d, size=n)
    return tau, sigma, Z1, Z2, D1, D2, logits, labels, _smooth_triplet_inputs(rng, n, d)


def _loss_instance_errors(tau, sigma, Z1, Z2, D1, D2, logits, labels, triplet) -> dict:
    """Each loss's max relative FD error on one drawn instance; it draws nothing."""
    z12, zft = {"z1": Z1, "z2": Z2}, {"zf": Z1, "zt": Z2}
    checks = (  # (name, call, keyword inputs)
        ("info_nce_direction", lambda z1, z2: losses.info_nce_direction(z1, z2, tau), z12),
        ("info_nce_symmetric", lambda zf, zt: losses.info_nce_symmetric(zf, zt, tau), zft),
        ("dcl_direction", lambda z1, z2: losses.dcl_direction(z1, z2, tau), z12),
        ("alignment_loss_unweighted",
         lambda zf, zt: losses.alignment_loss_unweighted(zf, zt, tau), zft),
        # weights depend on D1/D2 only, which stay fixed while Z is perturbed
        ("weighted_alignment_loss",
         lambda zf, zt: losses.weighted_alignment_loss(zf, zt, D1, D2, tau, sigma), zft),
        ("multimodal_loss",
         lambda zf, zt, df, dt: losses.multimodal_loss(zf, df, zt, dt, tau),
         {**zft, "df": D1, "dt": D2}),
        ("cross_entropy", losses.cross_entropy, {"logits": logits, "labels": labels}),
        # None: no smooth instance found; vanishingly unlikely for random draws
        ("triplet_loss", lambda zf, zt: losses.triplet_loss(zf, zt, TRIPLET_MARGIN), triplet),
    )
    return {name: 0.0 if inputs is None else _check_inputs(call, inputs)
            for name, call, inputs in checks}


def _smooth_triplet_inputs(rng, n, d) -> dict | None:
    """A triplet instance away from hinge kinks (slack and negative-choice margins > 1e-3)."""
    for _ in range(50):
        Zf = unit_rows(rng, n, d)
        Zt = unit_rows(rng, n, d)
        D2 = np.sum(Zf * Zf, axis=1)[:, None] + np.sum(Zt * Zt, axis=1)[None, :] - 2.0 * Zf @ Zt.T
        pos = np.diagonal(D2)
        off = D2.copy()
        np.fill_diagonal(off, np.inf)
        sorted_neg = np.sort(off, axis=1)
        slack = pos - sorted_neg[:, 0] + TRIPLET_MARGIN
        hinge_ok = np.all(np.abs(slack) > 1e-3)
        tie_ok = np.all(sorted_neg[:, 1] - sorted_neg[:, 0] > 1e-3)
        if hinge_ok and tie_ok:
            return {"zf": Zf, "zt": Zt}
    return None


def check_model_gradients(n_instances: int = 20, seed: int = 1) -> float:
    """FD check of every parameter of a small two-stack composed objective."""
    rng = np.random.default_rng(seed)
    n, t, feat, n_cls = 3, 2, 3, 3
    draws = [(rng.standard_normal((n, t, feat)), rng.standard_normal((n, t, feat)),
              rng.integers(0, n_cls, size=n)) for _ in range(n_instances)]
    errors = workers._map_forked(lambda k: _model_instance_error(k, *draws[k], n_cls),
                                 range(n_instances), lambda k: f"checking model instance {k}")
    return max(errors, default=0.0)


def _model_instance_error(k, Xf, Xt, y, n_cls) -> float:
    """Instance ``k``'s max relative FD error over every parameter tensor; it draws nothing."""
    feat, hidden, proj, tau = Xf.shape[-1], 4, 3, 0.5
    stack_f = model.init_stack(feat, n_cls, proj, seed=1000 + k, hidden_dim=hidden, view="fpv")
    stack_t = model.init_stack(feat, n_cls, proj, seed=2000 + k, hidden_dim=hidden, view="tpv")

    def composed(pf, pt, xf, xt, y):  # a loss of the flat parameter vectors pf and pt
        sf, st = model.EncoderStack(pf, stack_f.dims), model.EncoderStack(pt, stack_t.dims)
        cf, ct = model.encode_batch(sf, xf), model.encode_batch(st, xt)
        ce, al = losses.cross_entropy(cf.logits, y), losses.dcl_direction(cf.z, ct.z, tau)
        grads = {"pf": model.backward(sf, cf, al.grads["z1"], ce.grads["logits"]),
                 "pt": model.backward(st, ct, al.grads["z2"], None)}
        return losses.LossOutput(ce.value + al.value, grads)

    inputs = {"pf": stack_f.params, "pt": stack_t.params, "xf": Xf, "xt": Xt, "y": y}
    out = composed(**inputs)
    errors = []
    for key, dims in (("pf", stack_f.dims), ("pt", stack_t.dims)):
        vectors = (out.grads[key], _numeric(composed, inputs, key))  # compared per tensor
        tensors = (model.EncoderStack(v, dims).param_tensors() for v in vectors)
        errors += [rel_error(g, num) for g, num in zip(*tensors)]
    return max(errors)


def check_normalization_projector(n_instances: int = 50, seed: int = 2) -> float:
    """The model's pull-back of a gradient through l2-normalization
    (``model.pull_back_normalization``, as ``backward`` runs it) must be
    orthogonal to z."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_instances):
        stack = model.init_stack(4, 3, 3, seed=3000 + k, hidden_dim=4)
        X = rng.standard_normal((2, 2, 4))
        cache = model.encode_batch(stack, X)
        grad_z = rng.standard_normal(cache.z.shape)
        d_zraw = model.pull_back_normalization(cache, grad_z)
        worst = max(worst, _abs_max(np.sum(d_zraw * cache.z, axis=1)))
    return worst


def run_all(n_loss_instances: int = 100, n_model_instances: int = 20, seed: int = 0):
    """Full gradient suite; returns (ok, report dict)."""
    if n_loss_instances < 1 or n_model_instances < 1:
        raise ConfigValidationError(
            f"gradcheck needs at least one loss and one model instance, "
            f"got {n_loss_instances} and {n_model_instances}"
        )
    loss_report = check_loss_gradients(n_loss_instances, seed)
    model_err = check_model_gradients(n_model_instances, seed + 1)
    proj_err = check_normalization_projector(seed=seed + 2)
    ok = all(err <= LOSS_TOL for err in loss_report.values())
    ok = ok and model_err <= MODEL_TOL and proj_err <= PROJECTOR_TOL
    report = {
        "losses": loss_report,
        "composed_model": model_err,
        "normalization_projector": proj_err,
        "loss_tolerance": LOSS_TOL,
        "model_tolerance": MODEL_TOL,
    }
    return ok, report
