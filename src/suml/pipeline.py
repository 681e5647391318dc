"""Two-stage training, evaluation and ablation grids, deterministic per seed.

Stage 1 trains the TPV encoder and task head with cross-entropy only.
Stage 2 mines pseudo-pairs over the full corpora, gates them by narration
similarity, and trains both views jointly under the combined objective.
Evaluation uses the FPV encoder and task head only.

Seed handling: the experiment seed feeds a SeedSequence whose spawned
children drive, in fixed order, world generation, FPV/TPV initialization,
the four dataset draws, and the per-stage shuffles.  Ablation cells with
equal seeds therefore share worlds and initializations while varying the
method, so the grid builds each seed's world, datasets and stage 1 once.
Given ``seeds``, both stages train one replica per seed at once (see
``model``), bitwise as each would train alone; a single run is one replica.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import losses
from .atomic import output_dir, write_atomic
from .datagen import (
    Corpus,
    SyntheticWorld,
    WorldSpec,
    as_corpus,
    generate_world,
    sample_dataset,
)
from .exceptions import (
    ConfigError,
    ConfigValidationError,
    DivergenceError,
    EmptySetError,
)
from .losses import LossConfig, LossOutput
from .mining import mine_pseudo_pairs, select_pairs
from .model import (
    EncoderStack,
    ForwardCache,
    backward,
    clone_stack,
    cosine_lr,
    encode_batch,
    init_stack,
    mlp_forward,
    pool_frames,
    replica,
    save_checkpoint,
    sgd_momentum_step,
)
from .schema import check, rule


class _Batch(NamedTuple):
    """What the stage-2 loss terms read from one batch of pseudo-pairs, per replica."""

    f: ForwardCache  # FPV forward pass
    t: ForwardCache | None  # TPV forward pass; None when no term reads it
    labels_f: np.ndarray
    labels_t: np.ndarray
    df: np.ndarray  # narrations, constants
    dt: np.ndarray
    sel: list  # per replica, the batch rows whose pair similarity passes theta
    lc: LossConfig
    full_batch: bool  # negative_set_mode: negatives from every pair of the batch


def _fpv_task(b: _Batch) -> LossOutput:
    ce = losses.cross_entropy(b.f.logits, b.labels_f)
    return LossOutput(ce.value, {"logits_f": ce.grads["logits"]})


def _tpv_task(b: _Batch) -> LossOutput:
    ce = losses.cross_entropy(b.t.logits, b.labels_t)
    return LossOutput(ce.value, {"logits_t": ce.grads["logits"]})


def _all_pairs_dcl(b: _Batch) -> LossOutput:
    return losses.alignment_loss_unweighted(b.f.z, b.t.z, b.lc.tau)


def _triplet(b: _Batch) -> LossOutput:
    return losses.triplet_loss(b.f.z, b.t.z, b.lc.triplet_margin)


def _selected_alignment(weighted: bool):
    """Alignment on the theta-gated pairs, semantically weighted or not; the
    gate passes a different number of pairs per replica, so each replica
    computes its own, and one with fewer than two passing pairs skips it."""

    def term(b: _Batch) -> LossOutput | None:
        lc, value, ran = b.lc, np.zeros(len(b.sel)), False
        grads = {"zf": np.zeros_like(b.f.z), "zt": np.zeros_like(b.t.z)}
        for r, sel in enumerate(b.sel):
            if len(sel) < 2:
                continue
            zf, zt = b.f.z[r, sel], b.t.z[r, sel]
            # negatives from every pair of the batch, or from the gated pairs only
            pool_f, pool_t, pos = (b.f.z[r], b.t.z[r], sel) if b.full_batch else (zf, zt, None)
            out = losses.weighted_alignment_loss_pooled(
                zf, zt, b.df[r, sel], b.dt[r, sel], pool_f, pool_t, pos, lc.tau, lc.sigma,
                weights=None if weighted else np.ones(len(sel)),
            )
            value[r], ran = out.value, True
            for key, g in out.grads.items():
                grads[key][r, slice(None) if b.full_batch else sel] = g
        return LossOutput(value, grads) if ran else None

    return term


def _video_text(b: _Batch) -> LossOutput:
    return losses.multimodal_loss(b.f.z, b.df, b.t.z, b.dt, b.lc.tau)


# Stage-2 terms of each method beyond the FPV task, as (record slot, term).
# A term in slot s is weighted by LossConfig.w_s.
_STAGE2_TERMS = {
    "fpv_only": (),
    "typical_cl": (("t", _tpv_task), ("aw", _all_pairs_dcl)),
    "triplet": (("t", _tpv_task), ("aw", _triplet)),
    "sum_l": (("t", _tpv_task), ("aw", _selected_alignment(True)), ("m", _video_text)),
    "sum_l_no_weighting": (
        ("t", _tpv_task), ("aw", _selected_alignment(False)), ("m", _video_text),
    ),
    "sum_l_no_multimodal": (("t", _tpv_task), ("aw", _selected_alignment(True))),
}
METHODS = tuple(_STAGE2_TERMS)
TPV_MODES = ("trainable", "frozen", "shared_weights", "same_init")
NEGATIVE_SET_MODES = ("selected_subset", "full_batch")

_SEED_STREAMS = (
    "world",
    "init_fpv",
    "init_tpv",
    "fpv_train",
    "tpv_train",
    "fpv_test",
    "tpv_test",
    "stage1_shuffle",
    "stage2_shuffle",
)


@dataclass(frozen=True)
class TrainConfig:
    method: str = rule("sum_l", choices=METHODS)
    loss: LossConfig = field(default_factory=LossConfig)
    batch_size: int = rule(16, lo=2)
    epochs_stage1: int = rule(20, lo=0)
    epochs_stage2: int = rule(40, lo=0)
    base_lr: float = rule(0.05, lo=0.0, lo_open=True)
    momentum: float = rule(0.9, lo=0.0, hi=1.0, hi_open=True)
    seed: int = rule(0, lo=0)
    tpv_mode: str = rule("trainable", choices=TPV_MODES)
    negative_set_mode: str = rule("selected_subset", choices=NEGATIVE_SET_MODES)
    n_fpv_train: int = rule(64, lo=1)
    n_tpv_train: int = rule(240, lo=1)
    n_fpv_test: int = rule(480, lo=1)
    n_tpv_test: int = rule(120, lo=1)
    hidden_dim: int = rule(32, lo=1)
    proj_dim: int | None = rule(None, lo=1)  # None: match world.text_dim (video-text alignment)

    def validate(self) -> None:
        check(self, "train", ConfigError)
        check(self.loss, "loss", ConfigError)


@dataclass
class MetricsRecord:
    """One epoch of one run; what the epoch did not compute reads 0.0."""

    epoch: int
    stage: int
    loss_f: float = 0.0
    loss_t: float = 0.0
    loss_aw: float = 0.0
    loss_m: float = 0.0
    loss_total: float = 0.0
    selected_pair_fraction: float = 0.0
    fpv_train_acc: float = 0.0
    fpv_test_acc: float = 0.0
    tpv_test_acc: float = 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ExperimentResult:
    config: TrainConfig
    records: list
    fpv_stack: EncoderStack
    tpv_stack: EncoderStack
    final_fpv_test_acc: float
    final_tpv_test_acc: float


def _validate_run(config: TrainConfig, world_spec: WorldSpec) -> None:
    """Check the config, the world and the fields that depend on both."""
    config.validate()
    world_spec.validate()
    slots = [slot for slot, _, _ in _stage2_terms(config.method, config.loss)]
    if "m" in slots and config.proj_dim not in (None, world_spec.text_dim):
        raise ConfigValidationError(
            f"method {config.method!r} aligns video with text, so proj_dim must be "
            f"None or world.text_dim={world_spec.text_dim}, got {config.proj_dim}"
        )


def _check_finite(loss: np.ndarray, seeds, stage: int, epoch: int, batch: int) -> None:
    """Raise for the first replica whose batch ``loss`` is not finite, naming its seed."""
    for seed, value in zip(seeds, loss.tolist()):
        if not math.isfinite(value):
            raise DivergenceError(
                f"seed {seed}: stage {stage} diverged at epoch {epoch} batch {batch}: "
                f"loss is {value}"
            )


def derive_seeds(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(_SEED_STREAMS))
    return {
        name: int(child.generate_state(1, dtype=np.uint64)[0])
        for name, child in zip(_SEED_STREAMS, children)
    }


def build_world(world_spec: WorldSpec, train_seed: int) -> SyntheticWorld:
    """The world every command acts on: its seed derives from the train seed.

    ``world_spec.seed`` is replaced, so ``train``, ``synth`` and ``eval`` agree
    on the world for a given ``train.seed``.
    """
    return generate_world(replace(world_spec, seed=derive_seeds(train_seed)["world"]))


def evaluate_fpv(fpv_stack: EncoderStack, dataset):
    """Top-1 action accuracy using the FPV encoder and task head only.

    A stacked ``fpv_stack`` takes a ``stack_datasets`` corpus and returns one
    accuracy per replica, as a list.
    """
    if len(dataset) == 0:
        raise EmptySetError("evaluation dataset is empty")
    corpus = as_corpus(dataset)
    _, _, pooled = pool_frames(fpv_stack, corpus.frames)
    pred = np.argmax(mlp_forward(fpv_stack.g, pooled)[-1], axis=-1)
    return np.mean(pred == corpus.labels, axis=-1).tolist()


def _chunk(indices, size, min_size):
    """Batches of ``size`` columns of ``indices`` (one row per replica)."""
    for start in range(0, indices.shape[-1], size):
        batch = indices[..., start : start + size]
        if batch.shape[-1] >= min_size:
            yield batch


_COLUMNS = ("frames", "labels", "verb_ids", "noun_ids", "narrations")


def stack_datasets(datasets) -> Corpus:
    """One corpus whose columns stack ``datasets`` (one per seed, of one size) on
    a leading replica axis, as the stages take them with ``seeds``; it is read
    through its columns (and ``_replica_corpus``) only."""
    corpora = [as_corpus(d) for d in datasets]
    if len({len(c) for c in corpora}) != 1:
        raise ConfigError("the seeds' datasets of one view must have one size")
    if len(corpora) == 1:  # views: a single run's data is not copied
        columns = (getattr(corpora[0], k)[None] for k in _COLUMNS)
    else:
        columns = (np.stack([getattr(c, k) for c in corpora]) for k in _COLUMNS)
    return Corpus(*columns, ids=[c.ids for c in corpora], view=corpora[0].view)


def _replica_corpus(corpus: Corpus, r: int) -> Corpus:
    """Replica ``r`` of a ``stack_datasets`` corpus, as views."""
    return Corpus(*(getattr(corpus, k)[r] for k in _COLUMNS), ids=corpus.ids[r], view=corpus.view)


def _as_replicas(config: TrainConfig, seeds, train_sets, test_sets):
    """(seeds, train sets, test sets) of a stage; a single run (``seeds`` None)
    is one replica on ``config.seed``, and its empty test set is not scored."""
    if seeds is not None:
        if any(len(d) != len(seeds) for d in train_sets):
            raise ConfigError(f"{len(seeds)} seeds need datasets of {len(seeds)} replicas")
        return seeds, train_sets, test_sets
    tests = [stack_datasets([d]) if d else None for d in test_sets]
    return [config.seed], [stack_datasets([d]) for d in train_sets], tests


def _shuffles(seeds, stream: str) -> list:
    """One generator per seed, seeded by its run's ``stream``."""
    return [np.random.default_rng(np.random.SeedSequence(derive_seeds(s)[stream])) for s in seeds]


def _new_stack(config: TrainConfig, world_spec: WorldSpec, view: str, seeds) -> EncoderStack:
    """Freshly initialized ``view`` stacks, one replica per seed, each seeded by
    its run's ``init_<view>`` stream."""
    proj_dim = config.proj_dim or world_spec.text_dim
    stacks = [
        init_stack(world_spec.feat_dim, world_spec.n_actions, proj_dim,
                   derive_seeds(seed)[f"init_{view}"], config.hidden_dim, view)
        for seed in seeds
    ]
    return replace(stacks[0], params=np.stack([s.params for s in stacks]))


def pretrain_tpv(
    config: TrainConfig,
    world_spec: WorldSpec,
    tpv_dataset,
    tpv_test=None,
    metrics_sink: list | None = None,
    seeds=None,
) -> EncoderStack:
    """Stage 1: task-only training of the TPV stack; deterministic per config seed.

    With ``seeds``, trains one replica per seed: the datasets are
    ``stack_datasets`` corpora, the stack returned is stacked and
    ``metrics_sink`` gets the records replica after replica.
    """
    config.validate()
    world_spec.validate()
    if len(tpv_dataset) == 0:
        raise ConfigError("TPV dataset must be nonempty for stage 1")
    single = seeds is None
    seeds, (tpv,), (tpv_test,) = _as_replicas(config, seeds, (tpv_dataset,), (tpv_test,))
    stack = _new_stack(config, world_spec, "tpv", seeds)
    rngs = _shuffles(seeds, "stage1_shuffle")
    rows = np.arange(len(seeds))[:, None]
    velocity = np.zeros_like(stack.params)
    records = [[] for _ in seeds]
    for epoch in range(config.epochs_stage1):
        lr = cosine_lr(epoch, config.epochs_stage1, config.base_lr)
        order = np.stack([rng.permutation(tpv.labels.shape[-1]) for rng in rngs])
        batch_losses = []
        for b, idx in enumerate(_chunk(order, config.batch_size, 1)):
            cache = encode_batch(stack, tpv.frames[rows, idx])
            ce = losses.cross_entropy(cache.logits, tpv.labels[rows, idx])
            _check_finite(ce.value, seeds, 1, epoch, b)
            grad = backward(stack, cache, None, ce.grads["logits"])
            sgd_momentum_step(stack, grad, lr, velocity, config.momentum)
            batch_losses.append(ce.value)
        if metrics_sink is not None:
            # one contiguous row per replica, so each mean sums as a 1-D one
            loss_t = np.mean(np.stack(batch_losses, axis=-1), axis=-1).tolist()
            tpv_acc = evaluate_fpv(stack, tpv_test) if tpv_test else [0.0] * len(seeds)
            for r, sink in enumerate(records):
                sink.append(MetricsRecord(
                    epoch, 1, loss_t=loss_t[r], loss_total=config.loss.w_t * loss_t[r],
                    tpv_test_acc=tpv_acc[r],
                ))
    if metrics_sink is not None:
        metrics_sink.extend(record for sink in records for record in sink)
    return replica(stack, 0) if single else stack


def _stage2_terms(method: str, lc: LossConfig) -> list:
    """(slot, weight, term) of every stage-2 term in use, the FPV task first.

    Zero-weight terms are dropped, so all-zero weights train exactly like
    fpv_only.
    """
    return [("f", 1.0, _fpv_task)] + [
        (slot, getattr(lc, f"w_{slot}"), term)
        for slot, term in _STAGE2_TERMS[method]
        if getattr(lc, f"w_{slot}") > 0
    ]


def joint_train(
    config: TrainConfig,
    world_spec: WorldSpec,
    fpv_dataset,
    tpv_dataset,
    tpv_stack: EncoderStack | None,
    fpv_test=None,
    tpv_test=None,
    seeds=None,
    score_train: bool = True,
):
    """Stage 2: mine pairs, gate by theta, train under the combined objective.

    Trains a clone of ``tpv_stack``, which is left as it is given; under
    ``same_init`` a missing one starts as a copy of the FPV init.  Only the
    clone's ``frozen`` flag says whether the TPV stack trains, and it is set
    from ``tpv_mode``.  Returns (fpv_stack, tpv_stack, metrics records).

    With ``seeds``, trains one replica per seed: the datasets are
    ``stack_datasets`` corpora, the stacks are stacked and the records come
    replica after replica.  Without ``score_train`` no epoch scores the FPV
    train set (the records hold 0.0), for a caller that reads only the stacks.
    """
    config.validate()
    world_spec.validate()
    lc = config.loss
    single = seeds is None
    seeds, (fpv, tpv), (fpv_test, tpv_test) = _as_replicas(
        config, seeds, (fpv_dataset, tpv_dataset), (fpv_test, tpv_test)
    )
    if tpv_stack is not None:
        if single:
            tpv_stack = replace(tpv_stack, params=tpv_stack.params[None])
        tpv_stack = replace(clone_stack(tpv_stack), frozen=config.tpv_mode == "frozen")
    elif config.tpv_mode != "same_init":
        raise ConfigError(f"{config.tpv_mode} mode requires a stage-1 TPV stack")

    if config.tpv_mode == "shared_weights":
        fpv_stack = tpv_stack  # one parameter set serves both views
    else:
        fpv_stack = _new_stack(config, world_spec, "fpv", seeds)
        if tpv_stack is None:
            tpv_stack = replace(clone_stack(fpv_stack), view="tpv")

    # Narrations are fixed inputs, so mining once equals mining every epoch;
    # mining yields one pair per FPV clip, so every replica has as many pairs.
    pairs = [
        mine_pseudo_pairs(_replica_corpus(fpv, r), _replica_corpus(tpv, r))
        for r in range(len(seeds))
    ]
    gated = np.stack([select_pairs(p, lc.theta).selected for p in pairs])
    pair_fpv = np.asarray([[p.fpv_index for p in ps] for ps in pairs], dtype=int)
    pair_tpv = np.asarray([[p.tpv_index for p in ps] for ps in pairs], dtype=int)

    rngs = _shuffles(seeds, "stage2_shuffle")
    rows = np.arange(len(seeds))[:, None]
    shared = fpv_stack is tpv_stack
    terms = _stage2_terms(config.method, lc)
    tpv_touched = len(terms) > 1
    # A frozen TPV stack does not train, so its backward pass is skipped.
    tpv_learns = tpv_touched and not tpv_stack.frozen
    fpv_velocity = np.zeros_like(fpv_stack.params)
    tpv_velocity = np.zeros_like(tpv_stack.params) if tpv_learns and not shared else None
    # A TPV stack that stage 2 cannot change scores the same every epoch.
    tpv_static = not shared and not tpv_learns
    no_scores = [0.0] * len(seeds)
    tpv_acc = None
    records = [[] for _ in seeds]

    def train_batch(idx, sel, lr, epoch, b) -> list:
        """One stacked batch, forward to SGD step; returns (slot, values) of
        each term and the total.  Its arrays are freed before the next batch."""
        fi, ti = pair_fpv[rows, idx], pair_tpv[rows, idx]
        cache_f = encode_batch(fpv_stack, fpv.frames[rows, fi])
        cache_t = encode_batch(tpv_stack, tpv.frames[rows, ti]) if tpv_touched else None
        batch = _Batch(
            cache_f, cache_t, fpv.labels[rows, fi], tpv.labels[rows, ti],
            fpv.narrations[rows, fi], tpv.narrations[rows, ti], sel, lc,
            config.negative_set_mode == "full_batch",
        )
        outs = [(slot, w, out) for slot, w, term in terms if (out := term(batch)) is not None]
        total = losses.total_loss([(w, out) for _, w, out in outs])
        _check_finite(total.value, seeds, 2, epoch, b)

        g = total.grads
        grads_f = backward(fpv_stack, cache_f, g.get("zf"), g["logits_f"])
        if tpv_learns:
            grads_t = backward(tpv_stack, cache_t, g.get("zt"), g.get("logits_t"))
            if shared:
                grads_f += grads_t
            else:
                sgd_momentum_step(tpv_stack, grads_t, lr, tpv_velocity, config.momentum)
        sgd_momentum_step(fpv_stack, grads_f, lr, fpv_velocity, config.momentum)
        return [(slot, out.value) for slot, _, out in outs] + [("total", total.value)]

    for epoch in range(config.epochs_stage2):
        lr = cosine_lr(epoch, config.epochs_stage2, config.base_lr)
        order = np.stack([rng.permutation(pair_fpv.shape[-1]) for rng in rngs])
        sums = {slot: np.zeros(len(seeds)) for slot in ("f", "t", "aw", "m", "total")}
        n_batches = 0
        n_pairs_seen = 0
        n_selected = np.zeros(len(seeds), dtype=int)
        for b, idx in enumerate(_chunk(order, config.batch_size, 2)):
            sel = [np.flatnonzero(mask) for mask in gated[rows, idx]]
            n_pairs_seen += idx.shape[-1]
            n_selected += [len(s) for s in sel]
            for slot, value in train_batch(idx, sel, lr, epoch, b):
                sums[slot] += value
            n_batches += 1

        means = {slot: (total / max(n_batches, 1)).tolist() for slot, total in sums.items()}
        selected = (n_selected / max(n_pairs_seen, 1)).tolist()
        if tpv_test is None:
            tpv_acc = no_scores
        elif tpv_acc is None or not tpv_static:
            tpv_acc = evaluate_fpv(tpv_stack, tpv_test)
        fpv_train_acc = evaluate_fpv(fpv_stack, fpv) if score_train else no_scores
        fpv_test_acc = evaluate_fpv(fpv_stack, fpv_test) if fpv_test else no_scores
        for r, sink in enumerate(records):
            sink.append(MetricsRecord(
                epoch, 2, **{f"loss_{slot}": mean[r] for slot, mean in means.items()},
                selected_pair_fraction=selected[r], fpv_train_acc=fpv_train_acc[r],
                fpv_test_acc=fpv_test_acc[r], tpv_test_acc=tpv_acc[r],
            ))
    if single:
        fpv_stack = replica(fpv_stack, 0)
        tpv_stack = fpv_stack if shared else replica(tpv_stack, 0)
    return fpv_stack, tpv_stack, [record for sink in records for record in sink]


def write_metrics_jsonl(records, path) -> None:
    write_atomic(path, lambda fh: fh.writelines(json.dumps(r.to_dict()) + "\n" for r in records))


def _draw(world: SyntheticWorld, config: TrainConfig, split: str):
    """Dataset ``split`` (``fpv_train``, ``tpv_test`` ...) of ``config``'s seed in ``world``."""
    view = split.split("_")[0]
    n = getattr(config, f"n_{split}")
    return sample_dataset(world, view, n, derive_seeds(config.seed)[split])


def _write_run(result: ExperimentResult, stage1_stack: EncoderStack | None, out_dir) -> None:
    """The run's artifacts, written only once the whole run has succeeded."""
    config = result.config
    write_metrics_jsonl(result.records, os.path.join(out_dir, "metrics.jsonl"))
    if stage1_stack is not None:
        path = os.path.join(out_dir, "checkpoint_stage1_tpv.json")
        save_checkpoint(stage1_stack, path, "stage1_tpv")
    save_checkpoint(result.fpv_stack, os.path.join(out_dir, "checkpoint_fpv.json"), "stage2_fpv")
    save_checkpoint(result.tpv_stack, os.path.join(out_dir, "checkpoint_tpv.json"), "stage2_tpv")
    summary = {
        "method": config.method,
        "tpv_mode": config.tpv_mode,
        "seed": config.seed,
        "final_fpv_test_acc": result.final_fpv_test_acc,
        "final_tpv_test_acc": result.final_tpv_test_acc,
    }
    write_atomic(os.path.join(out_dir, "summary.json"), lambda fh: json.dump(summary, fh, indent=2))


def run_experiment(
    config: TrainConfig, world_spec: WorldSpec, out_dir=None
) -> ExperimentResult:
    """Full stage-1 + stage-2 + evaluation run; deterministic per seed.

    With ``out_dir``, the artifacts are written after the run succeeds, so a
    failed run leaves no file behind, nor the directory if it created it.
    """
    _validate_run(config, world_spec)
    with output_dir(out_dir):
        world = build_world(world_spec, config.seed)
        splits = ("fpv_train", "tpv_train", "fpv_test", "tpv_test")
        fpv_train, tpv_train, fpv_test, tpv_test = (_draw(world, config, s) for s in splits)
        records: list[MetricsRecord] = []
        stage1_stack = None  # under same_init joint_train copies the FPV init
        if config.tpv_mode != "same_init":
            stage1_stack = pretrain_tpv(config, world_spec, tpv_train, tpv_test, records)
        fpv_stack, tpv_stack, stage2_records = joint_train(
            config, world_spec, fpv_train, tpv_train, stage1_stack, fpv_test, tpv_test
        )
        result = ExperimentResult(
            config=config,
            records=records + stage2_records,
            fpv_stack=fpv_stack,
            tpv_stack=tpv_stack,
            final_fpv_test_acc=evaluate_fpv(fpv_stack, fpv_test),
            final_tpv_test_acc=evaluate_fpv(tpv_stack, tpv_test),
        )
        if out_dir is not None:
            _write_run(result, stage1_stack, out_dir)
    return result


def _train_grid(cell_configs: list, world_spec: WorldSpec, seeds) -> list:
    """Final FPV test accuracy of each cell at each seed, as [cell][seed].

    Worlds, train sets and stage 1 read only the seed and fields all cells
    share: each seed's train sets are drawn once and stay alive, and one
    stacked stage 1 serves every cell, whose seeds then train as replicas of
    one stage 2.  Cells report only the final FPV test accuracy, so no epoch
    is scored and no TPV test set is drawn; once all cells are trained, each
    seed's FPV test set is drawn, scores its replica of every cell and is freed.
    """
    if not (cell_configs and seeds):
        return [[] for _ in cell_configs]
    configs = [replace(cell_configs[0], seed=seed) for seed in seeds]
    worlds = [build_world(world_spec, seed) for seed in seeds]
    fpv_train, tpv_train = (
        stack_datasets([_draw(w, cfg, split) for w, cfg in zip(worlds, configs)])
        for split in ("fpv_train", "tpv_train")
    )
    stage1_config = next((c for c in cell_configs if c.tpv_mode != "same_init"), None)
    if stage1_config is not None:
        stage1_stack = pretrain_tpv(stage1_config, world_spec, tpv_train, seeds=seeds)
    fpv_stacks = [
        joint_train(
            cfg, world_spec, fpv_train, tpv_train,
            None if cfg.tpv_mode == "same_init" else stage1_stack,
            seeds=seeds, score_train=False,
        )[0]
        for cfg in cell_configs
    ]
    del fpv_train, tpv_train  # no cell reads them again: freed before any test set is drawn
    accs = [[] for _ in cell_configs]
    for r, (world, cfg) in enumerate(zip(worlds, configs)):
        fpv_test = _draw(world, cfg, "fpv_test")
        for cell_accs, stack in zip(accs, fpv_stacks):
            cell_accs.append(evaluate_fpv(replica(stack, r), fpv_test))
    return accs


def run_ablation_grid(
    base_config: TrainConfig,
    world_spec: WorldSpec,
    methods,
    tpv_modes,
    seeds,
    out_dir=None,
):
    """One run per {method x tpv_mode x seed}; returns (per-run rows, per-cell rows).

    Every cell's config is checked before any work starts.  Each cell trains
    its seeds as replicas of one stacked model (see ``_train_grid``); each
    replica's accuracy equals ``run_experiment`` on its config, and rows keep
    method, tpv_mode, seed order.  A failed grid leaves no ``out_dir`` it
    created.
    """
    cell_keys = [(method, tpv_mode) for method in methods for tpv_mode in tpv_modes]
    cell_configs = [replace(base_config, method=m, tpv_mode=t) for m, t in cell_keys]
    for cfg in cell_configs:
        for seed in seeds:
            _validate_run(replace(cfg, seed=seed), world_spec)
    with output_dir(out_dir):
        by_cell = _train_grid(cell_configs, world_spec, seeds)
        runs = []
        cells = []
        for (method, tpv_mode), accs in zip(cell_keys, by_cell):
            runs.extend(
                {"method": method, "tpv_mode": tpv_mode, "seed": seed, "final_fpv_acc": acc}
                for seed, acc in zip(seeds, accs)
            )
            cells.append({
                "method": method, "tpv_mode": tpv_mode, "n_seeds": len(seeds),
                "mean_fpv_acc": float(np.mean(accs)), "std_fpv_acc": float(np.std(accs)),
            })
        if out_dir is not None:
            _write_csv(os.path.join(out_dir, "runs.csv"), runs)
            _write_csv(os.path.join(out_dir, "summary.csv"), cells)
    return runs, cells


def _write_csv(path, rows) -> None:
    if not rows:
        return

    def write(fh):
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    write_atomic(path, write)
