"""Small dense linear-algebra and stable-reduction helpers.

Everything is float64. Tolerance conventions used across the package:
1e-12 for algebraic identities, 1e-5 relative for gradient checks.
"""

from __future__ import annotations

import numpy as np

from .exceptions import EmptyInputError, ZeroNormError

ZERO_NORM_EPS = 1e-12


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def l2_normalize(v) -> np.ndarray:
    """Scale ``v`` to unit L2 norm, preserving direction."""
    v = as_f64(v)
    n = float(np.linalg.norm(v))
    if n < ZERO_NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {n!r}")
    return v / n


def logsumexp(xs) -> float:
    """log(sum(exp(xs))) via max-shift; finite whenever inputs are finite."""
    xs = as_f64(xs)
    if xs.size == 0:
        raise EmptyInputError("logsumexp of empty sequence")
    m = float(np.max(xs))
    return m + float(np.log(np.sum(np.exp(xs - m))))


def logsumexp_rows(A: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp of a 2-D array; -inf entries act as missing terms."""
    m = np.max(A, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(A - m), axis=1, keepdims=True)))[:, 0]
