import numpy as np
import pytest

from suml.exceptions import ZeroNormError
from suml.numerics import (
    as_f64,
    l2_normalize,
    logsumexp_rows,
)


def test_l2_normalize_unit_norm(rng):
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 20)) * 10.0 ** rng.integers(-3, 4)
        u = l2_normalize(v)
        assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)
        # direction preserved
        assert np.allclose(u * np.linalg.norm(v), v, atol=1e-9)


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ZeroNormError):
        l2_normalize(np.zeros(5))


def test_logsumexp_matches_naive_in_safe_range(rng):
    for _ in range(100):
        xs = rng.standard_normal((1, rng.integers(1, 10)))
        assert logsumexp_rows(xs)[0] == pytest.approx(np.log(np.sum(np.exp(xs))), rel=1e-12)


def test_logsumexp_large_values_no_overflow():
    out = logsumexp_rows(np.array([[1000.0, 1000.0], [-1e9, 0.0]]))
    assert out[0] == pytest.approx(1000.0 + np.log(2.0))
    assert out[1] == pytest.approx(0.0)


def test_logsumexp_rows_matches_scalar(rng):
    A = rng.standard_normal((7, 5)) * 20
    out = logsumexp_rows(A)
    for i in range(7):
        m = np.max(A[i])  # max-shift, row by row
        assert out[i] == pytest.approx(m + np.log(np.sum(np.exp(A[i] - m))), rel=1e-12)


def test_logsumexp_rows_handles_neg_inf_entries():
    A = np.array([[0.0, -np.inf], [-np.inf, 1.0]])
    out = logsumexp_rows(A)
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(1.0)


def test_as_f64_casts_and_preserves():
    x = as_f64([[1, 2], [3, 4]])
    assert x.dtype == np.float64
    assert x.shape == (2, 2)
