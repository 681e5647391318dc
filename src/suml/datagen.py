"""Synthetic unpaired FPV/TPV corpora with factorized verb-noun semantics.

A world holds one unit prototype vector per verb and per noun (each of
dimension text_dim/2).  The narration embedding of action (v, n) is the
l2-normalized concatenation of the two prototypes plus Gaussian noise, so
actions sharing a verb or a noun sit strictly closer in narration space
than actions sharing neither.  Each view renders its clips through its own
random matrix, so the same semantics look different from FPV vs TPV.

RNG: numpy's default_rng (PCG64), seeded through SeedSequence; all
generation is a pure function of (spec, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .exceptions import (
    DatasetIOError,
    DatasetParseError,
    InvalidSpecError,
    InvalidViewError,
)
from .numerics import allocating, l2_normalize
from .schema import check, rule

VIEWS = ("fpv", "tpv")

DATASET_FIELDS = ("id", "view", "verb_id", "noun_id", "action_id", "frames", "narration")


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


@dataclass
class VideoSample:
    id: str
    view: str
    frames: np.ndarray     # (frames_per_clip, feat_dim)
    verb_id: int
    noun_id: int
    action_id: int
    narration: np.ndarray  # (text_dim,), unit norm

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoSample):
            return NotImplemented
        return (
            self.id == other.id
            and self.view == other.view
            and self.verb_id == other.verb_id
            and self.noun_id == other.noun_id
            and self.action_id == other.action_id
            and np.array_equal(self.frames, other.frames)
            and np.array_equal(self.narration, other.narration)
        )


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


def narration_vector(
    world: SyntheticWorld, verb_id: int, noun_id: int, noise: np.ndarray | None = None
) -> np.ndarray:
    base = np.concatenate(
        [world.verb_prototypes[verb_id], world.noun_prototypes[noun_id]]
    )
    if noise is not None:
        base = base + noise
    return l2_normalize(base)


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

    @classmethod
    def from_samples(cls, samples) -> "Corpus":
        """Stack a sequence of samples into columns (one copy, done once)."""
        samples = list(samples)
        if not samples:
            return cls(
                frames=np.zeros((0, 0, 0)), labels=np.zeros(0, dtype=int),
                verb_ids=np.zeros(0, dtype=int), noun_ids=np.zeros(0, dtype=int),
                narrations=np.zeros((0, 0)), ids=[], view=None,
            )
        view = samples[0].view
        if any(s.view != view for s in samples):
            raise InvalidViewError("a corpus holds clips of one view only")
        return cls(
            frames=np.stack([s.frames for s in samples]),
            labels=np.asarray([s.action_id for s in samples], dtype=int),
            verb_ids=np.asarray([s.verb_id for s in samples], dtype=int),
            noun_ids=np.asarray([s.noun_id for s in samples], dtype=int),
            narrations=np.stack([s.narration for s in samples]),
            ids=[s.id for s in samples],
            view=view,
        )

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
        try:
            if len(self) != len(other):
                return False
        except TypeError:
            return NotImplemented
        return all(a == b for a, b in zip(self, other))


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
    render = world.fpv_render if view == "fpv" else world.tpv_render
    with allocating(f"{n} {view} clips"):
        frames = np.empty((n, spec.frames_per_clip, spec.feat_dim))
        narrations = np.empty((n, spec.text_dim))
        verb_ids = np.empty(n, dtype=int)
        noun_ids = np.empty(n, dtype=int)
    for i in range(n):
        verb = int(rng.integers(spec.n_verbs))
        if view == "fpv":
            noun = int(rng.integers(spec.n_nouns))
        else:
            noun = world.tpv_noun_set[int(rng.integers(len(world.tpv_noun_set)))]
        clean = render[:, verb] + render[:, spec.n_verbs + noun]
        frame_noise = rng.standard_normal((spec.frames_per_clip, spec.feat_dim))
        frames[i] = clean[None, :] + frame_noise * spec.feat_noise_std
        text_noise = rng.standard_normal(spec.text_dim) * spec.text_noise_std
        narrations[i] = narration_vector(world, verb, noun, text_noise)
        verb_ids[i] = verb
        noun_ids[i] = noun
    return Corpus(
        frames=frames,
        labels=verb_ids * spec.n_nouns + noun_ids,
        verb_ids=verb_ids,
        noun_ids=noun_ids,
        narrations=narrations,
        ids=[f"{view}-{i:06d}" for i in range(n)],
        view=view,
    )


def _sample_to_record(s: VideoSample) -> dict:
    return {
        "id": s.id,
        "view": s.view,
        "verb_id": s.verb_id,
        "noun_id": s.noun_id,
        "action_id": s.action_id,
        "frames": s.frames.tolist(),
        "narration": s.narration.tolist(),
    }


def _record_to_sample(rec: dict, lineno: int) -> VideoSample:
    if not isinstance(rec, dict):
        raise DatasetParseError(f"line {lineno}: record must be a JSON object")
    for key in DATASET_FIELDS:
        if key not in rec:
            raise DatasetParseError(f"line {lineno}: missing field {key!r}")
    if rec["view"] not in VIEWS:
        raise DatasetParseError(f"line {lineno}: bad view {rec['view']!r}")
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
    return VideoSample(
        id=str(rec["id"]),
        view=rec["view"],
        frames=frames,
        verb_id=rec["verb_id"],
        noun_id=rec["noun_id"],
        action_id=rec["action_id"],
        narration=narration,
    )


def write_dataset(samples, path) -> None:
    """Write samples as JSON Lines; floats serialize losslessly (repr round-trip)."""
    write_atomic(path, lambda fh: fh.writelines(
        json.dumps(_sample_to_record(s)) + "\n" for s in samples
    ))


def read_dataset(path) -> Corpus:
    """Load a JSON Lines dataset; every record must match the first one's view and shapes."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
    samples = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"line {lineno}: invalid JSON ({exc})") from exc
        sample = _record_to_sample(rec, lineno)
        if samples:
            first = samples[0]
            for what, got, want in (
                ("frames shape", sample.frames.shape, first.frames.shape),
                ("narration shape", sample.narration.shape, first.narration.shape),
                ("view", sample.view, first.view),
            ):
                if got != want:
                    raise DatasetParseError(
                        f"line {lineno}: {what} {got!r} differs from the first record's {want!r}"
                    )
        samples.append(sample)
    return Corpus.from_samples(samples)
