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


def logsumexp_rows_by_max(A):
    """``logsumexp_rows`` with the row maximum taken by ``np.maximum``."""
    m = np.maximum.reduce(A, axis=-1, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(A - m), axis=-1, keepdims=True)))[..., 0]


@pytest.mark.parametrize("shape", [(1, 16, 48), (6, 16, 16), (60, 5, 6), (9,)])
def test_logsumexp_rows_row_maximum_is_bitwise_that_of_np_maximum(rng, shape):
    """The row maximum runs through ``np.fmax``: the same bytes on rows with
    ``-inf`` entries, a whole ``-inf`` row, signed-zero maxima and a NaN row; a
    negative NaN row is NaN either way, its sign bit aside."""
    A = rng.standard_normal((40, shape[-1])) * 30
    A[rng.random(A.shape) < 0.3] = -np.inf
    A[0] = -np.inf
    A[1, :] = -0.0  # a -0.0 maximum, and +0.0 ties below
    A[2, :] = 0.0
    A[3, ::2], A[3, 1::2] = -0.0, 0.0
    A[4, 1::2], A[4, ::2] = -0.0, 0.0
    A[5, :] = -np.inf
    A[5, -1] = -0.0
    A[6, 0] = np.nan
    A[7, :] = np.nan
    A = np.resize(A, (*shape[:-1], 40, shape[-1]))
    with np.errstate(invalid="ignore"):
        assert logsumexp_rows(A).tobytes() == logsumexp_rows_by_max(A).tobytes()
        A[..., 8, :] = -np.nan  # a negative NaN, as x86 makes for inf - inf
        A[..., 9, 0] = -np.nan
        got, want = logsumexp_rows(A), logsumexp_rows_by_max(A)
    assert np.isnan(got[..., 6:10]).all() and np.isnan(want[..., 6:10]).all()
    rest = np.delete(np.arange(40), [8, 9])
    assert got[..., rest].tobytes() == want[..., rest].tobytes()
