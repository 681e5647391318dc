import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_no_child_left, count_calls, open_fds, unit_rows
from suml import gradcheck, losses, model, pipeline, workers
from suml.cli import main
from suml.exceptions import WorkerError
from suml.losses import LossConfig


def per_entry_difference(fn, X, eps):
    """The central difference one entry at a time: two one-copy calls per entry."""
    grad = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        up, down = X.copy(), X.copy()
        up[idx] += eps
        down[idx] -= eps
        grad[idx] = (fn(up[None])[0] - fn(down[None])[0]) / (2.0 * eps)
    return grad


def rowwise(stack):
    """A smooth scalar per copy whose arithmetic does not depend on the copy count."""
    flat = stack.reshape(len(stack), -1)
    return np.add.reduce(np.sin(3.0 * flat) * flat + flat**3, axis=-1)


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
def test_finite_difference_is_the_per_entry_central_difference(rng, shape):
    X = rng.standard_normal(shape)
    before = X.copy()
    calls = []

    def fn(stack):
        calls.append(stack.shape)
        return rowwise(stack)

    grad = gradcheck.finite_difference(fn, X)
    assert calls == [(2 * X.size, *shape)]
    assert np.array_equal(X, before)
    assert grad.shape == shape
    assert np.array_equal(grad, per_entry_difference(rowwise, X, gradcheck.EPS))
    # and it is a gradient: d/dx [sin(3x) x + x^3] = 3 cos(3x) x + sin(3x) + 3x^2
    want = 3.0 * np.cos(3.0 * X) * X + np.sin(3.0 * X) + 3.0 * X**2
    assert np.allclose(grad, want, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("full_batch", [False, True])
def test_gated_alignment_term_gradients_as_stage2_composes_them(rng, weighted, full_batch):
    """Stage 2's gated alignment term, weighted or not, through
    ``losses.contrastive_terms`` as stage 2 calls it, summed by ``total_loss``,
    against finite differences of each replica's features; the gates pass 0, 1
    and 4 of 6 rows."""
    n, d, text = 6, 4, 5
    gate = np.zeros((3, n), dtype=bool)
    gate[1, 2] = True
    gate[2, [0, 2, 3, 5]] = True
    Z = {view: unit_rows(rng, 3 * n, d).reshape(3, n, d) for view in ("zf", "zt")}
    Df, Dt = (unit_rows(rng, 3 * n, text).reshape(3, n, text) for _ in range(2))
    lc = LossConfig(tau=0.4, sigma=0.8, w_aw=0.7)
    stage2 = dict(pipeline._STAGE2_TERMS["sum_l" if weighted else "sum_l_no_weighting"])
    assert stage2["aw"] == losses.Contrastive(losses.ALIGN, True, weighted)  # the pooled term

    def loss(zf, zt, copies=1):
        tile = lambda x: np.broadcast_to(x, (copies, *x.shape)).reshape(-1, *x.shape[1:])
        fields = {"zf": zf.reshape(-1, n, d), "zt": zt.reshape(-1, n, d),
                  "df": tile(Df), "dt": tile(Dt), "gate": tile(gate)}
        term, = losses.contrastive_terms([stage2["aw"]], fields, lc.tau, lc.sigma, full_batch)
        return losses.total_loss([(lc.w_aw, term)])

    out = loss(Z["zf"], Z["zt"])
    for key in ("zf", "zt"):
        def values(stack, key=key):  # the batch's summed value, one per perturbed copy
            other = np.broadcast_to(Z["zt" if key == "zf" else "zf"], stack.shape)
            zf, zt = (stack, other) if key == "zf" else (other, stack)
            return loss(zf, zt, len(stack)).value.reshape(len(stack), 3).sum(axis=-1)

        numeric = gradcheck.finite_difference(values, Z[key])
        for r in range(3):
            assert gradcheck.rel_error(out.grads[key][r], numeric[r]) <= gradcheck.LOSS_TOL
        assert not np.any(out.grads[key][:2]) and not np.any(numeric[:2])
        assert np.any(out.grads[key][2])


def test_projector_check_exercises_the_models_pull_back(monkeypatch, rng):
    assert gradcheck.check_normalization_projector(n_instances=5) <= gradcheck.PROJECTOR_TOL
    stack = model.init_stack(4, 3, 3, seed=0, hidden_dim=4)
    cache = model.encode_batch(stack, rng.standard_normal((2, 2, 4)))
    grad_z = rng.standard_normal(cache.z.shape)
    right = model.backward(stack, cache, grad_z, None)
    # a pull-back that forgets the projection onto z's tangent plane
    monkeypatch.setattr(model, "pull_back_normalization",
                        lambda cache, grad_z: grad_z / cache.norms[..., None])
    assert gradcheck.check_normalization_projector(n_instances=5) > gradcheck.PROJECTOR_TOL
    assert not np.array_equal(model.backward(stack, cache, grad_z, None), right)


def hexed(report) -> list:
    """``report``'s keys in order, each float as ``float.hex``: equal only when bitwise equal."""
    return [(key, hexed(value) if isinstance(value, dict) else float(value).hex())
            for key, value in report.items()]


def assert_nothing_left(fds):
    """No pipe end and no child of a forked check outlives it."""
    assert fds is None or open_fds() == fds
    assert_no_child_left()


@pytest.fixture(scope="module")
def inline_report():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        return gradcheck.run_all(6, 3)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_forked_suite_reports_bitwise_as_one_process(monkeypatch, inline_report, cpus):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    forks, fds = count_calls(monkeypatch, os, "fork"), open_fds()
    ok, report = gradcheck.run_all(6, 3)
    assert ok and inline_report[0]
    assert hexed(report) == hexed(inline_report[1])
    assert len(forks) == 2 * (cpus - 1)  # the loss and the model checks fork cpus - 1 each
    assert_nothing_left(fds)


def fail_loss_instances(monkeypatch, fail):
    """Make loss instance k of ``run_all(6, ...)`` call ``fail(k)`` before it is checked."""
    rng = np.random.default_rng(0)
    taus = [gradcheck._draw_loss_instance(rng)[0] for _ in range(6)]  # distinct per instance
    errors = gradcheck._loss_instance_errors

    def failing(tau, *instance):
        fail(taus.index(tau))
        return errors(tau, *instance)

    monkeypatch.setattr(gradcheck, "_loss_instance_errors", failing)


# on two CPUs the parent checks instances 0, 2 and 4, a child 1, 3 and 5
@pytest.mark.parametrize("failing,raised", [((1, 2), 1), ((3, 4), 3), ((2, 5), 2), ((5,), 5)])
def test_a_failing_instance_raises_as_the_serial_loop(monkeypatch, failing, raised):
    def fail(k):
        if k in failing:
            raise ValueError(f"loss instance {k} failed")

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    fail_loss_instances(monkeypatch, fail)
    fds = open_fds()
    with pytest.raises(ValueError, match=f"^loss instance {raised} failed$"):
        gradcheck.run_all(6, 3)
    assert_nothing_left(fds)


@pytest.mark.parametrize("check", ["loss", "model"])
def test_a_killed_instance_worker_is_a_worker_error(monkeypatch, check):
    parent = os.getpid()

    def fail(k):
        if k == 3 and os.getpid() != parent:
            os.kill(os.getpid(), 9)

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    if check == "loss":
        fail_loss_instances(monkeypatch, fail)
    else:
        errors = gradcheck._model_instance_error
        monkeypatch.setattr(gradcheck, "_model_instance_error",
                            lambda k, *draws: fail(k) or errors(k, *draws))
    fds = open_fds()
    with pytest.raises(WorkerError, match=f"^the worker process checking {check} instance 3 "
                                          "ended without its result \\(killed by signal 9\\)$"):
        gradcheck.run_all(6, 6)
    assert_nothing_left(fds)


GRADCHECK_SCRIPT = """
import os, sys
sys.path[:0] = sys.argv[1:]
from suml.cli import main

def no_fork():
    raise AssertionError("gradcheck on one CPU forked")

os.fork = no_fork
sys.exit(main(["gradcheck", "--instances", "6", "--model-instances", "3"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_gradcheck_on_one_cpu_prints_the_forked_report(monkeypatch, capsys):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    assert main(["gradcheck", "--instances", "6", "--model-instances", "3"]) == 0
    cpu = min(os.sched_getaffinity(0))
    package_root = os.path.dirname(os.path.dirname(gradcheck.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", GRADCHECK_SCRIPT, package_root],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out  # every error printed to 3 digits, and PASS


def nan_gradient(monkeypatch):
    """Give ``cross_entropy``'s analytic gradient one NaN entry per batch."""
    cross_entropy = losses.cross_entropy

    def broken(logits, labels):
        out = cross_entropy(logits, labels)
        grad = out.grads["logits"].copy()
        grad[..., 0, 0] = np.nan
        return losses.LossOutput(out.value, {"logits": grad})

    monkeypatch.setattr(losses, "cross_entropy", broken)


def test_a_nan_gradient_fails_the_suite(monkeypatch):
    nan_gradient(monkeypatch)
    ok, report = gradcheck.run_all(4, 2)
    assert not ok
    assert report["losses"]["cross_entropy"] == math.inf
    assert report["composed_model"] == math.inf  # the task head's gradient carries it
    assert all(err <= gradcheck.LOSS_TOL for name, err in report["losses"].items()
               if name != "cross_entropy")


def test_suml_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    nan_gradient(monkeypatch)
    assert main(["gradcheck", "--instances", "2", "--model-instances", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "cross_entropy                max_rel_err=inf  [FAIL]" in out
    assert out[-1] == "gradcheck: FAIL"


def test_a_nan_pull_back_fails_the_projector_check(monkeypatch):
    monkeypatch.setattr(model, "pull_back_normalization",
                        lambda cache, grad_z: np.full_like(grad_z, np.nan))
    assert gradcheck.check_normalization_projector(n_instances=3) == math.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["analytic", "numeric"])
def test_rel_error_of_a_non_finite_entry_is_inf(rng, bad, side):
    good = rng.standard_normal((3, 4))
    broken = good.copy()
    broken[1, 2] = bad
    pair = (broken, good) if side == "analytic" else (good, broken)
    assert gradcheck.rel_error(*pair) == math.inf
    assert gradcheck.rel_error(good, good) == 0.0
