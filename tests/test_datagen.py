import json
from dataclasses import replace

import numpy as np
import pytest

from suml.datagen import (
    Corpus,
    WorldSpec,
    generate_world,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from suml.exceptions import DatasetParseError, InvalidSpecError, InvalidViewError

SPEC = WorldSpec(n_verbs=4, n_nouns=6, text_dim=16, feat_dim=12, frames_per_clip=3)


def test_world_generation_deterministic():
    w1 = generate_world(SPEC)
    w2 = generate_world(SPEC)
    assert np.array_equal(w1.verb_prototypes, w2.verb_prototypes)
    assert np.array_equal(w1.fpv_render, w2.fpv_render)
    assert w1.tpv_noun_set == w2.tpv_noun_set


def test_world_seed_changes_content():
    w1 = generate_world(SPEC)
    w2 = generate_world(replace(SPEC, seed=1))
    assert not np.array_equal(w1.verb_prototypes, w2.verb_prototypes)


def test_prototypes_are_unit_norm():
    w = generate_world(SPEC)
    assert np.allclose(np.linalg.norm(w.verb_prototypes, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(w.noun_prototypes, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(w.fpv_render, axis=0), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(w.tpv_render, axis=0), 1.0, atol=1e-12)


def test_tpv_noun_set_size_and_membership():
    w = generate_world(SPEC)
    k = round(SPEC.noun_overlap_fraction * SPEC.n_nouns)
    assert len(w.tpv_noun_set) == k
    assert all(0 <= n < SPEC.n_nouns for n in w.tpv_noun_set)
    assert tuple(sorted(w.tpv_noun_set)) == w.tpv_noun_set


def test_zero_overlap_world_has_no_tpv_nouns():
    w = generate_world(replace(SPEC, noun_overlap_fraction=0.0))
    assert w.tpv_noun_set == ()
    with pytest.raises(InvalidSpecError):
        sample_dataset(w, "tpv", 4, 0)


def l2_normalize(v):
    """``v`` scaled to unit L2 norm: one division by its norm."""
    return v / float(np.linalg.norm(v))


def narration_vector(world, verb_id, noun_id, noise=None):
    """Action (verb, noun)'s narration: its two prototypes concatenated, plus
    ``noise``, scaled to unit norm."""
    base = np.concatenate([world.verb_prototypes[verb_id], world.noun_prototypes[noun_id]])
    return l2_normalize(base if noise is None else base + noise)


def per_clip_dataset(world, view, n, rng_seed):
    """``sample_dataset``'s columns as a loop that finishes each clip before the
    next one's draws: the oracle the vectorized arithmetic must match bitwise."""
    spec = world.spec
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    render = world.fpv_render if view == "fpv" else world.tpv_render
    frames, narrations, labels = [], [], []
    for _ in range(n):
        verb = int(rng.integers(spec.n_verbs))
        if view == "fpv":
            noun = int(rng.integers(spec.n_nouns))
        else:
            noun = world.tpv_noun_set[int(rng.integers(len(world.tpv_noun_set)))]
        clean = render[:, verb] + render[:, spec.n_verbs + noun]
        frame_noise = rng.standard_normal((spec.frames_per_clip, spec.feat_dim))
        frames.append(clean[None, :] + frame_noise * spec.feat_noise_std)
        text_noise = rng.standard_normal(spec.text_dim) * spec.text_noise_std
        narrations.append(narration_vector(world, verb, noun, text_noise))
        labels.append(verb * spec.n_nouns + noun)
    return np.stack(frames), np.stack(narrations), np.array(labels)


@pytest.mark.parametrize("frames_per_clip", [3, 1])
@pytest.mark.parametrize("view", ["fpv", "tpv"])
@pytest.mark.parametrize("n", [1, 7, 480])
def test_sample_dataset_equals_the_per_clip_loop_bitwise(view, n, frames_per_clip):
    world = generate_world(replace(SPEC, frames_per_clip=frames_per_clip, seed=5))
    corpus = sample_dataset(world, view, n, 40 + n)
    frames, narrations, labels = per_clip_dataset(world, view, n, 40 + n)
    assert corpus.frames.tobytes() == frames.tobytes()
    assert corpus.narrations.tobytes() == narrations.tobytes()
    assert np.array_equal(corpus.labels, labels)
    assert np.array_equal(corpus.verb_ids * SPEC.n_nouns + corpus.noun_ids, labels)


def test_narration_vectors_unit_norm_and_structured():
    w = generate_world(replace(SPEC, text_noise_std=0.0))
    # noiseless narrations of actions sharing a verb are strictly closer
    # than narrations sharing neither component
    same_verb = float(narration_vector(w, 0, 0) @ narration_vector(w, 0, 1))
    disjoint = float(narration_vector(w, 0, 0) @ narration_vector(w, 1, 1))
    assert same_verb > disjoint
    assert np.isclose(np.linalg.norm(narration_vector(w, 2, 3)), 1.0, atol=1e-12)


def test_sample_dataset_shapes_and_labels():
    w = generate_world(SPEC)
    samples = sample_dataset(w, "fpv", 20, 7)
    assert len(samples) == 20
    for s in samples:
        assert s.view == "fpv"
        assert s.frames.shape == (SPEC.frames_per_clip, SPEC.feat_dim)
        assert s.narration.shape == (SPEC.text_dim,)
        assert np.isclose(np.linalg.norm(s.narration), 1.0, atol=1e-12)
        assert s.action_id == s.verb_id * SPEC.n_nouns + s.noun_id
        assert 0 <= s.verb_id < SPEC.n_verbs
        assert 0 <= s.noun_id < SPEC.n_nouns


def test_tpv_samples_restricted_to_noun_set():
    w = generate_world(SPEC)
    samples = sample_dataset(w, "tpv", 50, 3)
    assert all(s.noun_id in w.tpv_noun_set for s in samples)


def test_sample_dataset_deterministic_per_seed():
    w = generate_world(SPEC)
    a = sample_dataset(w, "fpv", 10, 5)
    b = sample_dataset(w, "fpv", 10, 5)
    c = sample_dataset(w, "fpv", 10, 6)
    assert a == b
    assert a != c


def test_sample_dataset_rejects_bad_args():
    w = generate_world(SPEC)
    with pytest.raises(InvalidViewError):
        sample_dataset(w, "sideways", 4, 0)
    with pytest.raises(InvalidSpecError):
        sample_dataset(w, "fpv", 0, 0)


def test_corpus_items_are_views_over_the_columns():
    w = generate_world(SPEC)
    corpus = sample_dataset(w, "fpv", 6, 4)
    assert isinstance(corpus, Corpus)
    s = corpus[2]
    assert np.shares_memory(s.frames, corpus.frames)
    assert np.shares_memory(s.narration, corpus.narrations)
    assert (s.id, s.action_id) == (corpus.ids[2], corpus.labels[2])
    assert [x.id for x in corpus] == corpus.ids


def test_jsonl_round_trip_bitwise(tmp_path):
    w = generate_world(SPEC)
    samples = sample_dataset(w, "tpv", 12, 9)
    path = tmp_path / "data.jsonl"
    write_dataset(samples, str(path))
    back = read_dataset(str(path))
    assert back == samples
    # float payloads survive a second round trip byte-identically
    path2 = tmp_path / "data2.jsonl"
    write_dataset(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_corpus_equality_compares_columns_ids_and_view():
    w = generate_world(SPEC)
    corpus = sample_dataset(w, "fpv", 4, 2)
    assert corpus == sample_dataset(w, "fpv", 4, 2)
    assert corpus != list(corpus)  # only corpora compare equal
    assert corpus[0] != corpus[0]  # samples are views, compared by identity
    for changed in (
        replace(corpus, ids=corpus.ids[::-1]),
        replace(corpus, view="tpv"),
        replace(corpus, noun_ids=corpus.noun_ids + 1),
        replace(corpus, narrations=-corpus.narrations),
    ):
        assert changed != corpus


# Two clips written by hand: this is the JSONL format itself, pinned as text.
PINNED_CORPUS = Corpus(
    frames=np.array([[[0.1, 1 / 3], [-2.5e-300, 7.0]], [[1e16, -0.0], [2.0, 0.5]]]),
    labels=np.array([5, 0]),
    verb_ids=np.array([1, 0]),
    noun_ids=np.array([2, 0]),
    narrations=np.array([[0.6, -0.8], [1.0, 0.0]]),
    ids=["fpv-000000", "clip b"],
    view="fpv",
)
PINNED_JSONL = (
    '{"id": "fpv-000000", "view": "fpv", "verb_id": 1, "noun_id": 2, "action_id": 5, '
    '"frames": [[0.1, 0.3333333333333333], [-2.5e-300, 7.0]], "narration": [0.6, -0.8]}\n'
    '{"id": "clip b", "view": "fpv", "verb_id": 0, "noun_id": 0, "action_id": 0, '
    '"frames": [[1e+16, -0.0], [2.0, 0.5]], "narration": [1.0, 0.0]}\n'
)


def test_jsonl_format_is_pinned_as_text(tmp_path):
    path = tmp_path / "pinned.jsonl"
    write_dataset(PINNED_CORPUS, str(path))
    assert path.read_bytes() == PINNED_JSONL.encode()
    back = read_dataset(str(path))
    assert back == PINNED_CORPUS
    for column in (back.labels, back.verb_ids, back.noun_ids):
        assert column.dtype == np.int64
    assert back.frames.dtype == back.narrations.dtype == np.float64


@pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["zero_bytes", "blank_lines"])
def test_a_file_without_records_is_an_empty_corpus(tmp_path, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    corpus = read_dataset(str(path))
    assert isinstance(corpus, Corpus)
    assert len(corpus) == 0 and corpus.ids == [] and corpus.view is None
    assert list(corpus) == []


def test_jsonl_records_have_expected_fields(tmp_path):
    w = generate_world(SPEC)
    write_dataset(sample_dataset(w, "fpv", 2, 0), str(tmp_path / "d.jsonl"))
    with open(tmp_path / "d.jsonl") as fh:
        rec = json.loads(fh.readline())
    assert set(rec) == {"id", "view", "verb_id", "noun_id", "action_id", "frames", "narration"}


def test_read_dataset_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    w = generate_world(SPEC)
    write_dataset(sample_dataset(w, "fpv", 2, 0), str(path))
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(DatasetParseError) as err:
        read_dataset(str(path))
    assert "3" in str(err.value)  # line number surfaced


@pytest.mark.parametrize("ids,line", [([None, None], 1), (["a", 7], 2), (["a", "a"], 2)],
                         ids=["null", "int", "repeated"])
def test_read_dataset_rejects_an_id_that_is_not_a_new_string(tmp_path, ids, line):
    path = tmp_path / "d.jsonl"
    write_dataset(sample_dataset(generate_world(SPEC), "fpv", 2, 0), str(path))
    records = [json.loads(text) for text in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**rec, "id": i}) + "\n" for rec, i in zip(records, ids)))
    with pytest.raises(DatasetParseError, match=f"line {line}: id must be a string"):
        read_dataset(str(path))


def test_world_spec_validation():
    with pytest.raises(InvalidSpecError):
        WorldSpec(text_dim=15)
    with pytest.raises(InvalidSpecError):
        WorldSpec(noun_overlap_fraction=1.5)
    with pytest.raises(InvalidSpecError):
        WorldSpec(frames_per_clip=0)
    with pytest.raises(InvalidSpecError):
        replace(WorldSpec(), text_noise_std=-0.1)
