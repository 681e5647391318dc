import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _no_ambient_seed_env(monkeypatch):
    monkeypatch.delenv("SUML_SEED", raising=False)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list it appends to per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
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
