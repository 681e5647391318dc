"""Cross-view pseudo-pair mining over narration embeddings.

Mining takes an FPV and a TPV ``Corpus`` and reads their ``narrations``
columns.  For every FPV clip the single most narration-similar TPV clip is
selected by exact exhaustive cosine-similarity search (ties break to the
smallest TPV index).  Pairs can then be gated by a similarity threshold and
summarized as a bucket histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BadEdgesError,
    ConfigValidationError,
    DimMismatchError,
    EmptyCorpusError,
    InvalidViewError,
    NormOverflowError,
    ZeroNormError,
)
from .numerics import ZERO_NORM_EPS

DEFAULT_BUCKET_EDGES = (-1.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# Similarities per mining block: 64 Ki float64 values, 512 KiB.
BLOCK_SIMS = 1 << 16


@dataclass(frozen=True)
class PseudoPair:
    fpv_index: int
    tpv_index: int
    similarity: float


@dataclass
class PairBatch:
    selected: np.ndarray  # bool mask, one flag per pair, in the pairs' order

    @property
    def n_selected(self) -> int:
        return int(np.count_nonzero(self.selected))


@dataclass
class SimilarityHistogram:
    bucket_edges: tuple
    counts: np.ndarray
    fractions: np.ndarray


def _norms(M: np.ndarray) -> np.ndarray:
    # Row by row with np.linalg.norm, the exact norm the reported similarity uses;
    # an axis-wise norm sums in another order and can differ in the last bit.
    return np.array([float(np.linalg.norm(v)) for v in M])


def mine_pseudo_pairs(fpv, tpv) -> list[PseudoPair]:
    """Exact argmax of narration cosine similarity, one pair per clip of the
    FPV corpus ``fpv`` over the TPV corpus ``tpv``.

    The reported similarity is ``float(np.dot(f, t) / (|f| * |t|))`` and ties
    break to the smallest TPV index, exactly as a scalar scan over all TPV
    clips.  Candidates are screened with one matmul per block of FPV rows:
    within a row, every TPV clip whose matmul similarity lies within
    ``16 * dim * eps`` of the row maximum is rescanned in index order with the
    scalar formula.  Matmul and ``np.dot`` differ by at most about
    ``dim * eps`` per similarity, so the scalar argmax is always a candidate.
    Blocks hold at most ``BLOCK_SIMS`` similarities (blocked exact search as
    in Johnson et al., "Billion-scale similarity search with GPUs", 2019).
    """
    if len(fpv) == 0 or len(tpv) == 0:
        raise EmptyCorpusError("both corpora must be nonempty")
    for corpus, view in ((fpv, "fpv"), (tpv, "tpv")):
        if corpus.view != view:
            raise InvalidViewError(f"the {view.upper()} corpus holds {corpus.view} clips")
    F = np.ascontiguousarray(fpv.narrations)
    T = np.ascontiguousarray(tpv.narrations)
    dim = F.shape[1]
    if T.shape[1] != dim:
        raise DimMismatchError(f"narration dims differ: {T.shape[1]} vs {dim}")
    with np.errstate(over="ignore"):  # an overflowed norm is the error below, not a warning
        t_norms, f_norms = _norms(T), _norms(F)
    if np.any(t_norms < ZERO_NORM_EPS):
        raise ZeroNormError("zero-norm TPV narration")
    if np.any(f_norms < ZERO_NORM_EPS):
        raise ZeroNormError("zero-norm FPV narration")
    # |f . t| <= |f| |t|: with every norm product finite, so is every similarity
    if not math.isfinite(float(f_norms.max()) * float(t_norms.max())):
        raise NormOverflowError("narration norms overflow float64, so their cosine "
                                "similarities cannot be computed")

    margin = 16 * dim * np.finfo(np.float64).eps
    rows_per_block = max(1, BLOCK_SIMS // len(T))
    pairs = []
    for start in range(0, len(F), rows_per_block):
        stop = min(start + rows_per_block, len(F))
        S = F[start:stop] @ T.T
        S /= f_norms[start:stop, None] * t_norms[None, :]
        row_max = S.max(axis=1)
        for r, i in enumerate(range(start, stop)):
            candidates = np.flatnonzero(S[r] >= row_max[r] - margin)
            fv, fn = F[i], f_norms[i]
            best_j = 0
            best_sim = -math.inf
            for j in candidates:
                sim = float(np.dot(fv, T[j]) / (fn * t_norms[j]))
                if sim > best_sim:
                    best_sim = sim
                    best_j = int(j)
            pairs.append(PseudoPair(fpv_index=i, tpv_index=best_j, similarity=best_sim))
    return pairs


def _similarities(pairs) -> np.ndarray:
    return np.array([p.similarity for p in pairs], dtype=np.float64)


def select_pairs(pairs, theta: float) -> PairBatch:
    """Keep pairs whose similarity is >= theta; order preserved."""
    if not -1.0 <= theta <= 1.0:
        raise ConfigValidationError(f"theta must lie in [-1, 1], got {theta}")
    mask = _similarities(pairs) >= theta
    return PairBatch(selected=mask)


def similarity_histogram(pairs, bucket_edges=DEFAULT_BUCKET_EDGES) -> SimilarityHistogram:
    """Count pairs in half-open buckets [e_i, e_{i+1}); the last bucket is closed."""
    edges = tuple(float(e) for e in bucket_edges)
    if len(edges) < 2:
        raise BadEdgesError("need at least two edges")
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise BadEdgesError("edges must be strictly ascending")
    if edges[0] > -1.0 or edges[-1] < 1.0:
        raise BadEdgesError("edges must cover [-1, 1]")
    n_buckets = len(edges) - 1
    # Rounding can put a cosine one ulp outside [-1, 1]: clip it into the
    # outer bucket.  The top edge itself belongs to the closed top bucket.
    idx = np.searchsorted(edges, _similarities(pairs), side="right") - 1
    counts = np.bincount(np.clip(idx, 0, n_buckets - 1), minlength=n_buckets)
    total = int(counts.sum())
    fractions = counts / total if total > 0 else np.zeros(n_buckets)
    return SimilarityHistogram(bucket_edges=edges, counts=counts, fractions=fractions)
