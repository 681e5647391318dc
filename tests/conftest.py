import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def count_calls(monkeypatch, module, name, calls=None):
    """Replace ``module.name`` with a wrapper; returns the list it appends
    ``(name, positional args)`` to per call.  Wrappers given one ``calls`` list
    record their calls in the order they are made."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def numeric_grad(fn, X, eps=1e-6):
    """Central-difference gradient of scalar fn at X, independent of the package."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    flat = X.ravel()
    gflat = G.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        up = fn(X)
        flat[k] = orig - eps
        down = fn(X)
        flat[k] = orig
        gflat[k] = (up - down) / (2 * eps)
    return G


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """How many file descriptors this process holds, or None where /proc does not say."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
