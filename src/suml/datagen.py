"""Synthetic unpaired FPV/TPV corpora with factorized verb-noun semantics.

A world holds one unit prototype vector per verb and per noun (each of
dimension text_dim/2).  The narration embedding of action (v, n) is the
l2-normalized concatenation of the two prototypes plus Gaussian noise, so
actions sharing a verb or a noun sit strictly closer in narration space
than actions sharing neither.  Each view renders its clips through its own
random matrix, so the same semantics look different from FPV vs TPV.

RNG: numpy's default_rng (PCG64), seeded through SeedSequence; all
generation is a pure function of (spec, seed).

Datasets cross the file boundary as :class:`Corpus` columns: ``dump_dataset``
writes one JSON Lines record per clip (commands write it through
``atomic.write_files``), and ``read_dataset`` checks each record and collects
its fields into columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_files
from .exceptions import (
    DatasetIOError,
    DatasetParseError,
    InvalidSpecError,
    InvalidViewError,
)
from .numerics import allocating
from .schema import check, rule

VIEWS = ("fpv", "tpv")

DATASET_FIELDS = ("id", "view", "verb_id", "noun_id", "action_id", "frames", "narration")

CORPUS_COLUMNS = ("frames", "labels", "verb_ids", "noun_ids", "narrations")


@dataclass(frozen=True)
class WorldSpec:
    n_verbs: int = rule(6, lo=1)
    n_nouns: int = rule(8, lo=1)
    text_dim: int = rule(32, lo=2)
    feat_dim: int = rule(24, lo=2)
    frames_per_clip: int = rule(4, lo=1)
    text_noise_std: float = rule(0.2, lo=0.0)
    feat_noise_std: float = rule(0.3, lo=0.0)
    noun_overlap_fraction: float = rule(0.25, lo=0.0, hi=1.0)
    seed: int = rule(0, lo=0)  # not a config key: each run derives it from train.seed

    def __post_init__(self) -> None:
        check(self, "world", InvalidSpecError)
        if self.n_verbs * self.n_nouns < 2:
            raise InvalidSpecError("need n_verbs*n_nouns >= 2")
        if self.text_dim % 2 != 0:
            raise InvalidSpecError("text_dim must be even (verb/noun halves)")

    @property
    def n_actions(self) -> int:
        return self.n_verbs * self.n_nouns


@dataclass
class SyntheticWorld:
    spec: WorldSpec
    verb_prototypes: np.ndarray  # (n_verbs, text_dim/2), unit rows
    noun_prototypes: np.ndarray  # (n_nouns, text_dim/2), unit rows
    fpv_render: np.ndarray       # (feat_dim, n_verbs + n_nouns), unit columns
    tpv_render: np.ndarray       # same shape, independent draw
    tpv_noun_set: tuple          # sorted noun ids TPV clips may use


@dataclass(eq=False)
class VideoSample:
    id: str
    view: str
    frames: np.ndarray     # (frames_per_clip, feat_dim)
    verb_id: int
    noun_id: int
    action_id: int
    narration: np.ndarray  # (text_dim,), unit norm


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    M = rng.standard_normal((n, dim))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _unit_cols(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    M = rng.standard_normal((rows, cols))
    return M / np.linalg.norm(M, axis=0, keepdims=True)


def generate_world(spec: WorldSpec) -> SyntheticWorld:
    """Deterministically build prototypes, render matrices and the TPV noun set."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    half = spec.text_dim // 2
    k = int(round(spec.noun_overlap_fraction * spec.n_nouns))
    with allocating("the world's prototypes and render matrices"):
        verb_protos = unit_rows(rng, spec.n_verbs, half)
        noun_protos = unit_rows(rng, spec.n_nouns, half)
        fpv_render = _unit_cols(rng, spec.feat_dim, spec.n_verbs + spec.n_nouns)
        tpv_render = _unit_cols(rng, spec.feat_dim, spec.n_verbs + spec.n_nouns)
        chosen = rng.choice(spec.n_nouns, size=k, replace=False) if k > 0 else ()
    noun_set = tuple(sorted(int(i) for i in chosen))
    return SyntheticWorld(
        spec=spec,
        verb_prototypes=verb_protos,
        noun_prototypes=noun_protos,
        fpv_render=fpv_render,
        tpv_render=tpv_render,
        tpv_noun_set=noun_set,
    )


@dataclass(eq=False)
class Corpus:
    """One view's clips, stored once as columns.

    ``len``, indexing and iteration yield :class:`VideoSample` views whose
    ``frames`` and ``narration`` share memory with the columns, so code that
    walks samples and code that slices arrays see the same data.  Training
    batches are index slices such as ``frames[idx]``.
    """

    frames: np.ndarray      # (N, frames_per_clip, feat_dim)
    labels: np.ndarray      # (N,) action ids
    verb_ids: np.ndarray    # (N,)
    noun_ids: np.ndarray    # (N,)
    narrations: np.ndarray  # (N, text_dim)
    ids: list
    view: str | None        # None only for an empty corpus

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> VideoSample:
        return VideoSample(
            id=self.ids[i],
            view=self.view,
            frames=self.frames[i],
            verb_id=int(self.verb_ids[i]),
            noun_id=int(self.noun_ids[i]),
            action_id=int(self.labels[i]),
            narration=self.narrations[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.view == other.view and self.ids == other.ids and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in CORPUS_COLUMNS))


def sample_dataset(world: SyntheticWorld, view: str, n: int, rng_seed: int) -> Corpus:
    """Draw ``n`` clips for one view; deterministic per (world, view, n, seed)."""
    if view not in VIEWS:
        raise InvalidViewError(f"view must be one of {VIEWS}, got {view!r}")
    if n < 1:
        raise InvalidSpecError("n must be >= 1")
    spec = world.spec
    if view == "tpv" and not world.tpv_noun_set:
        raise InvalidSpecError(
            "TPV noun set is empty (noun_overlap_fraction too small to sample TPV clips)"
        )
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    render = (world.fpv_render if view == "fpv" else world.tpv_render).T
    with allocating(f"{n} {view} clips"):
        frames = np.empty((n, spec.frames_per_clip, spec.feat_dim))
        narrations = np.empty((n, spec.text_dim))
        verb_ids = np.empty(n, dtype=int)
        noun_ids = np.empty(n, dtype=int)
    for i in range(n):  # the draws, in the order that defines every dataset
        verb_ids[i] = rng.integers(spec.n_verbs)
        if view == "fpv":
            noun_ids[i] = rng.integers(spec.n_nouns)
        else:
            noun_ids[i] = world.tpv_noun_set[int(rng.integers(len(world.tpv_noun_set)))]
        rng.standard_normal(out=frames[i])
        rng.standard_normal(out=narrations[i])
    # then each clip's arithmetic, in place: the noise scaled, plus its action's clean
    # frame and narration, looked up per action and added a chunk of clips at a time
    frames *= spec.feat_noise_std
    narrations *= spec.text_noise_std
    clean = render[: spec.n_verbs, None] + render[None, spec.n_verbs :]
    text = np.concatenate(np.broadcast_arrays(world.verb_prototypes[:, None],
                                              world.noun_prototypes[None]), axis=-1)
    for rows in (slice(i, i + 256) for i in range(0, n, 256)):
        frames[rows] += clean[verb_ids[rows], noun_ids[rows], None]
        narrations[rows] += text[verb_ids[rows], noun_ids[rows]]
    # to unit norm, one division by each row's norm, the root of the row's BLAS dot
    narrations /= np.sqrt(np.matmul(narrations[:, None], narrations[..., None])[:, 0])
    return Corpus(
        frames=frames,
        labels=verb_ids * spec.n_nouns + noun_ids,
        verb_ids=verb_ids,
        noun_ids=noun_ids,
        narrations=narrations,
        ids=[f"{view}-{i:06d}" for i in range(n)],
        view=view,
    )


def _append_record(fields: dict, seen_ids: set, line: str, lineno: int) -> None:
    """Check one JSONL record, against the first record's view and shapes and the
    ids in ``seen_ids`` too, and append its fields to the columns in ``fields``,
    arrays as float64."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(rec, dict):
        raise DatasetParseError(f"line {lineno}: record must be a JSON object")
    for key in DATASET_FIELDS:
        if key not in rec:
            raise DatasetParseError(f"line {lineno}: missing field {key!r}")
    if rec["view"] not in VIEWS:
        raise DatasetParseError(f"line {lineno}: bad view {rec['view']!r}")
    if not isinstance(rec["id"], str) or rec["id"] in seen_ids:
        raise DatasetParseError(f"line {lineno}: id must be a string no earlier record "
                                f"has, got {rec['id']!r}")
    seen_ids.add(rec["id"])
    for key in ("verb_id", "noun_id", "action_id"):
        label = rec[key]
        if isinstance(label, bool) or not isinstance(label, int) or not 0 <= label < 2**63:
            raise DatasetParseError(
                f"line {lineno}: {key} must be an int in [0, 2**63), got {label!r}"
            )
    try:
        frames = np.asarray(rec["frames"], dtype=np.float64)
        narration = np.asarray(rec["narration"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetParseError(f"line {lineno}: bad array field ({exc})") from exc
    if frames.ndim != 2 or narration.ndim != 1:
        raise DatasetParseError(f"line {lineno}: frames must be 2-D, narration 1-D")
    if not (np.all(np.isfinite(frames)) and np.all(np.isfinite(narration))):
        raise DatasetParseError(f"line {lineno}: non-finite values")
    if fields["id"]:
        for what, got, want in (
            ("frames shape", frames.shape, fields["frames"][0].shape),
            ("narration shape", narration.shape, fields["narration"][0].shape),
            ("view", rec["view"], fields["view"][0]),
        ):
            if got != want:
                raise DatasetParseError(
                    f"line {lineno}: {what} {got!r} differs from the first record's {want!r}"
                )
    rec.update(frames=frames, narration=narration)
    for key in DATASET_FIELDS:
        fields[key].append(rec[key])


def dump_dataset(corpus: Corpus, fh) -> None:
    """Write ``corpus`` to ``fh`` as JSON Lines, one clip per line, keys in
    ``DATASET_FIELDS`` order, labels as ints and floats lossless (repr
    round-trip).  Arrays are converted clip by clip, so no list copy of a whole
    column is held."""
    for i, clip_id in enumerate(corpus.ids):
        values = (clip_id, corpus.view, int(corpus.verb_ids[i]), int(corpus.noun_ids[i]),
                  int(corpus.labels[i]), corpus.frames[i].tolist(),
                  corpus.narrations[i].tolist())
        fh.write(json.dumps(dict(zip(DATASET_FIELDS, values))) + "\n")


def write_dataset(corpus: Corpus, path) -> None:
    """:func:`dump_dataset` to ``path`` through ``write_files``."""
    write_files([(path, lambda fh: dump_dataset(corpus, fh))])


def read_dataset(path) -> Corpus:
    """Load a JSON Lines dataset into a :class:`Corpus`; every record must match
    the first one's view and shapes.  Blank lines are skipped, so a file without
    records is a zero-clip corpus whose ``view`` is None."""
    fields = {key: [] for key in DATASET_FIELDS}
    seen_ids = set()
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    _append_record(fields, seen_ids, line, lineno)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path} is not UTF-8 text ({exc})") from exc
    if not fields["id"]:
        return Corpus(
            frames=np.zeros((0, 0, 0)), labels=np.zeros(0, dtype=np.int64),
            verb_ids=np.zeros(0, dtype=np.int64), noun_ids=np.zeros(0, dtype=np.int64),
            narrations=np.zeros((0, 0)), ids=[], view=None,
        )
    return Corpus(
        frames=np.stack(fields["frames"]),
        labels=np.array(fields["action_id"], dtype=np.int64),
        verb_ids=np.array(fields["verb_id"], dtype=np.int64),
        noun_ids=np.array(fields["noun_id"], dtype=np.int64),
        narrations=np.stack(fields["narration"]),
        ids=fields["id"],
        view=fields["view"][0],
    )
