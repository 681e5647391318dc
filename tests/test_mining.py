import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suml import mining
from suml.datagen import Corpus, WorldSpec, generate_world, sample_dataset
from suml.exceptions import (
    BadEdgesError,
    ConfigValidationError,
    DimMismatchError,
    EmptyCorpusError,
    InvalidViewError,
    NormOverflowError,
    ZeroNormError,
)
from suml.mining import (
    DEFAULT_BUCKET_EDGES,
    PseudoPair,
    mine_pseudo_pairs,
    select_pairs,
    similarity_histogram,
)

SPEC = WorldSpec(n_verbs=3, n_nouns=4, text_dim=8, feat_dim=6, frames_per_clip=2)


def narrations(view, rows):
    """A narrations-only ``view`` corpus: the columns mining reads, and no frames."""
    N = np.asarray(rows, dtype=float)
    n = len(N)
    zeros = np.zeros(n, dtype=int)
    return Corpus(frames=np.zeros((n, 0, 0)), labels=zeros, verb_ids=zeros, noun_ids=zeros,
                  narrations=N, ids=[f"{view}-{i}" for i in range(n)], view=view)


def oracle_mine(fpv, tpv):
    """Independent brute-force reference: plain argmax of cosine similarity."""
    out = []
    for i, f in enumerate(fpv):
        sims = [
            float(np.dot(f.narration, t.narration)
                  / (np.linalg.norm(f.narration) * np.linalg.norm(t.narration)))
            for t in tpv
        ]
        j = int(np.argmax(sims))
        out.append((i, j, sims[j]))
    return out


def test_mining_matches_oracle_on_synthetic_corpora():
    world = generate_world(SPEC)
    for trial in range(10):
        fpv = sample_dataset(world, "fpv", 15 + trial, 100 + trial)
        tpv = sample_dataset(world, "tpv", 25 + trial, 200 + trial)
        got = mine_pseudo_pairs(fpv, tpv)
        want = oracle_mine(fpv, tpv)
        assert [(p.fpv_index, p.tpv_index, p.similarity) for p in got] == want


@st.composite
def tie_prone_corpora(draw):
    """FPV/TPV narration corpora built from a few base rows, so that exact
    duplicates, scaled copies and one-ulp neighbours compete for the argmax."""
    dim = draw(st.integers(1, 5))
    entry = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0])
    row = st.lists(entry, min_size=dim, max_size=dim).filter(
        lambda r: any(x != 0.0 for x in r)
    )
    bases = draw(st.lists(row, min_size=1, max_size=4))

    def derived(r):
        kind = draw(st.sampled_from(["copy", "scaled", "nudged", "fresh"]))
        v = np.asarray(r, dtype=float)
        if kind == "scaled":
            v = v * draw(st.sampled_from([2.0, 0.5, 3.0, 1e-3, 1e3]))
        elif kind == "nudged":
            k = draw(st.integers(0, dim - 1))
            v[k] = np.nextafter(v[k], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "fresh":
            v = np.asarray(draw(st.lists(
                st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
                min_size=dim, max_size=dim,
            ).filter(lambda r: np.linalg.norm(r) > 1e-3)))
        return v

    def rows(view, min_size, max_size):
        picks = draw(st.lists(st.sampled_from(bases), min_size=min_size, max_size=max_size))
        return narrations(view, [derived(r) for r in picks])

    return rows("fpv", 1, 6), rows("tpv", 1, 10)


@settings(max_examples=300, deadline=None)
@given(tie_prone_corpora(), st.integers(1, 40))
def test_mining_matches_scalar_oracle_on_tie_prone_corpora(corpora, block_sims):
    fpv, tpv = corpora
    with mock.patch.object(mining, "BLOCK_SIMS", block_sims):
        got = mine_pseudo_pairs(fpv, tpv)
    assert [(p.fpv_index, p.tpv_index, p.similarity) for p in got] == oracle_mine(fpv, tpv)


@pytest.mark.parametrize("block_sims, n_fpv", [(16, 7), (64, 7), (64, 1), (25, 9)])
def test_mining_is_exact_across_block_boundaries(block_sims, n_fpv):
    # 25 TPV clips: a 16-similarity block holds a single FPV row, a 64-one two
    # rows with a partial last block, and a 25-one exactly one full row.
    world = generate_world(SPEC)
    fpv = sample_dataset(world, "fpv", n_fpv, 11)
    tpv = sample_dataset(world, "tpv", 25, 12)
    with mock.patch.object(mining, "BLOCK_SIMS", block_sims):
        got = mine_pseudo_pairs(fpv, tpv)
    assert [(p.fpv_index, p.tpv_index, p.similarity) for p in got] == oracle_mine(fpv, tpv)


def test_mining_breaks_ties_to_smallest_index():
    f = narrations("fpv", [[1.0, 0.0]])
    t = narrations("tpv", [[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]])
    (p,) = mine_pseudo_pairs(f, t)
    assert p.tpv_index == 1  # indices 1 and 2 both have similarity 1.0
    assert p.similarity == pytest.approx(1.0)


def test_mining_rejects_empty_or_mismatched():
    f, t = narrations("fpv", [[1.0, 0.0]]), narrations("tpv", [[1.0, 0.0]])
    with pytest.raises(EmptyCorpusError):
        mine_pseudo_pairs(narrations("fpv", np.zeros((0, 2))), t)
    with pytest.raises(EmptyCorpusError):
        mine_pseudo_pairs(f, narrations("tpv", np.zeros((0, 2))))
    with pytest.raises(DimMismatchError, match="narration dims differ: 3 vs 2"):
        mine_pseudo_pairs(f, narrations("tpv", [[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("fpv_view, tpv_view, named", [
    ("tpv", "fpv", "the FPV corpus holds tpv clips"),
    ("fpv", "fpv", "the TPV corpus holds fpv clips"),
])
def test_mining_rejects_a_corpus_of_the_wrong_view(fpv_view, tpv_view, named):
    f, t = narrations(fpv_view, [[1.0, 0.0]]), narrations(tpv_view, [[1.0, 0.0]])
    with pytest.raises(InvalidViewError, match=named):
        mine_pseudo_pairs(f, t)


@pytest.mark.parametrize("view", ["FPV", "TPV"])
def test_mining_rejects_zero_norm_narrations(view):
    unit, zero = [[1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]
    fpv, tpv = (zero, unit) if view == "FPV" else (unit, zero)
    with pytest.raises(ZeroNormError, match=f"zero-norm {view} narration"):
        mine_pseudo_pairs(narrations("fpv", fpv), narrations("tpv", tpv))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("view", ["FPV", "TPV"])
def test_mining_rejects_a_non_finite_narration_naming_its_view(view, value):
    """Only a corpus built in Python reaches this: ``read_dataset`` rejects the file."""
    unit, bad = [[1.0, 0.0]], [[1.0, 1.0], [0.5, value]]
    fpv, tpv = (bad, unit) if view == "FPV" else (unit, bad)
    with pytest.raises(NormOverflowError, match=f"^non-finite {view} narration$"):
        mine_pseudo_pairs(narrations("fpv", fpv), narrations("tpv", tpv))


@pytest.mark.parametrize("special", [None, "zero", "overflow", "nan"])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_norms_equal_each_rows_linalg_norm_bitwise(rng, n, special):
    M = rng.standard_normal((n, 24))
    row = M[n // 2]
    if special == "zero":
        row[:] = 0.0
    elif special == "overflow":
        row[:] = 1e300  # finite entries whose sum of squares is inf
    elif special == "nan":
        row[3] = np.nan
    with np.errstate(over="ignore"):
        want = np.array([float(np.linalg.norm(v)) for v in M])
        got = mining._norms(M)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()


def _pairs(sims):
    return [PseudoPair(i, i, s) for i, s in enumerate(sims)]


def test_select_pairs_threshold_and_monotonicity():
    pairs = _pairs([0.1, 0.5, 0.7, 0.9, -0.2])
    batch = select_pairs(pairs, 0.5)
    assert batch.selected.tolist() == [False, True, True, True, False]
    assert batch.n_selected == 3
    counts = [select_pairs(pairs, th).n_selected for th in np.linspace(-1, 1, 21)]
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ConfigValidationError):
        select_pairs(pairs, 1.5)


def test_histogram_counts_fractions_and_edge_cases():
    pairs = _pairs([-0.5, 0.1, 0.1, 0.65, 0.8, 1.0])
    hist = similarity_histogram(pairs)
    assert hist.counts.tolist() == [1, 2, 0, 0, 1, 2]
    assert hist.fractions.sum() == pytest.approx(1.0, abs=1e-12)
    # boundaries: 0.65 in [0.6, 0.8); 0.8 and 1.0 in the closed top bucket
    assert hist.bucket_edges == DEFAULT_BUCKET_EDGES


def test_histogram_matches_independent_bucketing(rng):
    sims = rng.uniform(-1, 1, size=500)
    pairs = _pairs(sims)
    hist = similarity_histogram(pairs)
    edges = np.asarray(DEFAULT_BUCKET_EDGES)
    # independent pass: numpy histogram with right-closed final bucket
    want, _ = np.histogram(sims, bins=edges)
    assert hist.counts.tolist() == want.tolist()


def test_histogram_puts_rounding_overshoot_in_outer_buckets():
    above = float(np.nextafter(1.0, 2.0))
    below = float(np.nextafter(-1.0, -2.0))
    hist = similarity_histogram(_pairs([above, below, 1.0, -1.0]))
    assert hist.counts.tolist() == [2, 0, 0, 0, 0, 2]


def test_histogram_rejects_bad_edges():
    pairs = _pairs([0.0])
    with pytest.raises(BadEdgesError):
        similarity_histogram(pairs, (0.0, 1.0))  # does not cover [-1, 1]
    with pytest.raises(BadEdgesError):
        similarity_histogram(pairs, (-1.0, 0.5, 0.5, 1.0))
    with pytest.raises(BadEdgesError):
        similarity_histogram(pairs, (-1.0,))
    for edges in [(-1.0, math.nan, 1.0), (-1.0, 0.0, math.nan), (math.nan, 0.0, 1.0)]:
        with pytest.raises(BadEdgesError, match="^edges must be numbers, got "):
            similarity_histogram(_pairs([0.5, -0.3]), edges)


def test_histogram_empty_input():
    hist = similarity_histogram([])
    assert hist.counts.sum() == 0
    assert np.all(hist.fractions == 0.0)
