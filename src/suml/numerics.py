"""Small dense linear-algebra and stable-reduction helpers.

Everything is float64. Tolerance conventions used across the package:
1e-12 for algebraic identities, 1e-5 relative for gradient checks.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .exceptions import AllocationError, ZeroNormError

ZERO_NORM_EPS = 1e-12


@contextlib.contextmanager
def allocating(what: str):
    """Raise numpy's refusal to allocate ``what`` as an AllocationError.

    numpy raises MemoryError when it cannot get the memory and ValueError for
    a shape past its dimension limit; wrap array allocations only.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise AllocationError(f"cannot allocate {what}: {exc}") from exc


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def l2_normalize(v) -> np.ndarray:
    """Scale ``v`` to unit L2 norm, preserving direction."""
    v = as_f64(v)
    n = float(np.linalg.norm(v))
    if n < ZERO_NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {n!r}")
    return v / n


def mean_rows(A: np.ndarray) -> np.ndarray:
    """``np.mean(A, axis=-1)``, bitwise, without ``np.mean``'s per-call overhead."""
    return np.add.reduce(A, axis=-1) / A.shape[-1]


def logsumexp_rows(A: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp (over the last axis); -inf entries act as missing terms."""
    # np.max and np.sum, unwrapped; fmax's reduce is the faster loop, and it differs
    # from np.max only on a NaN row, whose logsumexp is NaN either way (of either sign)
    m = np.fmax.reduce(A, axis=-1, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(A - m), axis=-1, keepdims=True)))[..., 0]
