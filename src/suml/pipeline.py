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
from .atomic import make_dirs, write_atomic
from .datagen import (
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
    save_checkpoint,
    sgd_momentum_step,
)
from .schema import check, rule


class _Batch(NamedTuple):
    """What the stage-2 loss terms read from one batch of pseudo-pairs."""

    f: ForwardCache  # FPV forward pass
    t: ForwardCache | None  # TPV forward pass; None when no term reads it
    labels_f: np.ndarray
    labels_t: np.ndarray
    df: np.ndarray  # narrations, constants
    dt: np.ndarray
    sel: np.ndarray  # batch rows whose pair similarity passes theta
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
    """Alignment on the theta-gated pairs, semantically weighted or not;
    skipped when fewer than two pairs pass."""

    def term(b: _Batch) -> LossOutput | None:
        sel, lc = b.sel, b.lc
        if len(sel) < 2:
            return None
        zf, zt = b.f.z[sel], b.t.z[sel]
        # negatives from every pair of the batch, or from the gated pairs only
        pool_f, pool_t, pos = (b.f.z, b.t.z, sel) if b.full_batch else (zf, zt, np.arange(len(sel)))
        out = losses.weighted_alignment_loss_pooled(
            zf, zt, b.df[sel], b.dt[sel], pool_f, pool_t, pos, lc.tau, lc.sigma,
            weights=None if weighted else np.ones(len(sel)),
        )
        if b.full_batch:
            return out
        grads = {key: np.zeros_like(b.f.z) for key in out.grads}
        for key, g in out.grads.items():
            grads[key][sel] = g
        return LossOutput(out.value, grads)

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
    epoch: int
    stage: int
    loss_f: float
    loss_t: float
    loss_aw: float
    loss_m: float
    loss_total: float
    selected_pair_fraction: float
    fpv_train_acc: float
    fpv_test_acc: float
    tpv_test_acc: float

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


class _Splits(NamedTuple):
    """The four datasets of one seed: FPV/TPV train and test."""

    fpv_train: object
    tpv_train: object
    fpv_test: object
    tpv_test: object


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


def _check_finite(loss: float, stage: int, epoch: int, batch: int) -> None:
    if not math.isfinite(loss):
        raise DivergenceError(
            f"stage {stage} diverged at epoch {epoch} batch {batch}: loss is {loss}"
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


def evaluate_fpv(fpv_stack: EncoderStack, dataset) -> float:
    """Top-1 action accuracy using the FPV encoder and task head only."""
    if len(dataset) == 0:
        raise EmptySetError("evaluation dataset is empty")
    corpus = as_corpus(dataset)
    _, _, pooled = pool_frames(fpv_stack, corpus.frames)
    pred = np.argmax(mlp_forward(fpv_stack.g, pooled)[-1], axis=1)
    return float(np.mean(pred == corpus.labels))


def _chunk(indices, size, min_size):
    for start in range(0, len(indices), size):
        batch = indices[start : start + size]
        if len(batch) >= min_size:
            yield batch


def _new_stack(config: TrainConfig, world_spec: WorldSpec, view: str) -> EncoderStack:
    """A freshly initialized ``view`` stack, seeded by the run's ``init_<view>`` stream."""
    return init_stack(
        feat_dim=world_spec.feat_dim,
        n_classes=world_spec.n_actions,
        proj_dim=config.proj_dim or world_spec.text_dim,
        seed=derive_seeds(config.seed)[f"init_{view}"],
        hidden_dim=config.hidden_dim,
        view=view,
    )


def pretrain_tpv(
    config: TrainConfig,
    world_spec: WorldSpec,
    tpv_dataset,
    tpv_test=None,
    metrics_sink: list | None = None,
) -> EncoderStack:
    """Stage 1: task-only training of the TPV stack; deterministic per config seed."""
    config.validate()
    world_spec.validate()
    if len(tpv_dataset) == 0:
        raise ConfigError("TPV dataset must be nonempty for stage 1")
    tpv = as_corpus(tpv_dataset)
    tpv_test = as_corpus(tpv_test) if tpv_test else None
    stack = _new_stack(config, world_spec, "tpv")
    rng = np.random.default_rng(np.random.SeedSequence(derive_seeds(config.seed)["stage1_shuffle"]))
    velocity = np.zeros_like(stack.params)
    for epoch in range(config.epochs_stage1):
        lr = cosine_lr(epoch, config.epochs_stage1, config.base_lr)
        order = rng.permutation(len(tpv))
        batch_losses = []
        for b, idx in enumerate(_chunk(order, config.batch_size, 1)):
            cache = encode_batch(stack, tpv.frames[idx])
            ce = losses.cross_entropy(cache.logits, tpv.labels[idx])
            _check_finite(ce.value, 1, epoch, b)
            grad = backward(stack, cache, None, ce.grads["logits"])
            sgd_momentum_step(stack, grad, lr, velocity, config.momentum)
            batch_losses.append(ce.value)
        if metrics_sink is not None:
            loss_t = float(np.mean(batch_losses))
            metrics_sink.append(
                MetricsRecord(
                    epoch=epoch,
                    stage=1,
                    loss_f=0.0,
                    loss_t=loss_t,
                    loss_aw=0.0,
                    loss_m=0.0,
                    loss_total=config.loss.w_t * loss_t,
                    selected_pair_fraction=0.0,
                    fpv_train_acc=0.0,
                    fpv_test_acc=0.0,
                    tpv_test_acc=evaluate_fpv(stack, tpv_test) if tpv_test else 0.0,
                )
            )
    return stack


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
):
    """Stage 2: mine pairs, gate by theta, train under the combined objective.

    Trains a clone of ``tpv_stack``, which is left as it is given; under
    ``same_init`` a missing one starts as a copy of the FPV init.  Only the
    clone's ``frozen`` flag says whether the TPV stack trains, and it is set
    from ``tpv_mode``.  Returns (fpv_stack, tpv_stack, metrics records).
    """
    config.validate()
    world_spec.validate()
    lc = config.loss
    if tpv_stack is not None:
        tpv_stack = replace(clone_stack(tpv_stack), frozen=config.tpv_mode == "frozen")
    elif config.tpv_mode != "same_init":
        raise ConfigError(f"{config.tpv_mode} mode requires a stage-1 TPV stack")

    if config.tpv_mode == "shared_weights":
        fpv_stack = tpv_stack  # one parameter set serves both views
    else:
        fpv_stack = _new_stack(config, world_spec, "fpv")
        if tpv_stack is None:
            tpv_stack = replace(clone_stack(fpv_stack), view="tpv")

    fpv = as_corpus(fpv_dataset)
    tpv = as_corpus(tpv_dataset)
    fpv_test = as_corpus(fpv_test) if fpv_test else None
    tpv_test = as_corpus(tpv_test) if tpv_test else None
    # Narrations are fixed inputs, so mining once equals mining every epoch.
    pairs = mine_pseudo_pairs(fpv, tpv)
    gated = select_pairs(pairs, lc.theta).selected
    pair_fpv = np.asarray([p.fpv_index for p in pairs], dtype=int)
    pair_tpv = np.asarray([p.tpv_index for p in pairs], dtype=int)

    rng = np.random.default_rng(np.random.SeedSequence(derive_seeds(config.seed)["stage2_shuffle"]))
    shared = fpv_stack is tpv_stack
    terms = _stage2_terms(config.method, lc)
    tpv_touched = len(terms) > 1
    # A frozen TPV stack does not train, so its backward pass is skipped.
    tpv_learns = tpv_touched and not tpv_stack.frozen
    fpv_velocity = np.zeros_like(fpv_stack.params)
    tpv_velocity = np.zeros_like(tpv_stack.params) if tpv_learns and not shared else None
    # A TPV stack that stage 2 cannot change scores the same every epoch.
    tpv_static = not shared and not tpv_learns
    tpv_acc = None
    records: list[MetricsRecord] = []

    for epoch in range(config.epochs_stage2):
        lr = cosine_lr(epoch, config.epochs_stage2, config.base_lr)
        order = rng.permutation(len(pairs))
        sums = {"f": 0.0, "t": 0.0, "aw": 0.0, "m": 0.0, "total": 0.0}
        n_batches = 0
        n_pairs_seen = 0
        n_selected = 0
        for b, idx in enumerate(_chunk(order, config.batch_size, 2)):
            fi = pair_fpv[idx]
            ti = pair_tpv[idx]
            sel = np.flatnonzero(gated[idx])
            n_pairs_seen += len(idx)
            n_selected += len(sel)

            cache_f = encode_batch(fpv_stack, fpv.frames[fi])
            cache_t = encode_batch(tpv_stack, tpv.frames[ti]) if tpv_touched else None
            batch = _Batch(
                cache_f, cache_t, fpv.labels[fi], tpv.labels[ti],
                fpv.narrations[fi], tpv.narrations[ti], sel, lc,
                config.negative_set_mode == "full_batch",
            )
            outs = [(slot, w, out) for slot, w, term in terms if (out := term(batch)) is not None]
            total = losses.total_loss([(w, out) for _, w, out in outs])
            _check_finite(total.value, 2, epoch, b)

            g = total.grads
            grads_f = backward(fpv_stack, cache_f, g.get("zf"), g["logits_f"])
            if tpv_learns:
                grads_t = backward(tpv_stack, cache_t, g.get("zt"), g.get("logits_t"))
                if shared:
                    grads_f += grads_t
                else:
                    sgd_momentum_step(tpv_stack, grads_t, lr, tpv_velocity, config.momentum)
            sgd_momentum_step(fpv_stack, grads_f, lr, fpv_velocity, config.momentum)

            for slot, _, out in outs:
                sums[slot] += out.value
            sums["total"] += total.value
            n_batches += 1

        nb = max(n_batches, 1)
        if tpv_test is None:
            tpv_acc = 0.0
        elif tpv_acc is None or not tpv_static:
            tpv_acc = evaluate_fpv(tpv_stack, tpv_test)
        records.append(
            MetricsRecord(
                epoch=epoch,
                stage=2,
                loss_f=sums["f"] / nb,
                loss_t=sums["t"] / nb,
                loss_aw=sums["aw"] / nb,
                loss_m=sums["m"] / nb,
                loss_total=sums["total"] / nb,
                selected_pair_fraction=n_selected / n_pairs_seen if n_pairs_seen else 0.0,
                fpv_train_acc=evaluate_fpv(fpv_stack, fpv),
                fpv_test_acc=evaluate_fpv(fpv_stack, fpv_test) if fpv_test else 0.0,
                tpv_test_acc=tpv_acc,
            )
        )
    return fpv_stack, tpv_stack, records


def write_metrics_jsonl(records, path) -> None:
    write_atomic(path, lambda fh: fh.writelines(json.dumps(r.to_dict()) + "\n" for r in records))


def _sample_splits(config: TrainConfig, world_spec: WorldSpec) -> _Splits:
    """Build the seed's world and draw its four datasets."""
    seeds = derive_seeds(config.seed)
    world = build_world(world_spec, config.seed)
    return _Splits(
        fpv_train=sample_dataset(world, "fpv", config.n_fpv_train, seeds["fpv_train"]),
        tpv_train=sample_dataset(world, "tpv", config.n_tpv_train, seeds["tpv_train"]),
        fpv_test=sample_dataset(world, "fpv", config.n_fpv_test, seeds["fpv_test"]),
        tpv_test=sample_dataset(world, "tpv", config.n_tpv_test, seeds["tpv_test"]),
    )


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
    failed run leaves no file behind.
    """
    _validate_run(config, world_spec)
    if out_dir is not None:
        make_dirs(out_dir)
    splits = _sample_splits(config, world_spec)
    records: list[MetricsRecord] = []
    stage1_stack = None  # under same_init joint_train copies the FPV init
    if config.tpv_mode != "same_init":
        stage1_stack = pretrain_tpv(config, world_spec, splits.tpv_train, splits.tpv_test, records)
    fpv_stack, tpv_stack, stage2_records = joint_train(
        config, world_spec, splits.fpv_train, splits.tpv_train, stage1_stack,
        splits.fpv_test, splits.tpv_test,
    )
    result = ExperimentResult(
        config=config,
        records=records + stage2_records,
        fpv_stack=fpv_stack,
        tpv_stack=tpv_stack,
        final_fpv_test_acc=evaluate_fpv(fpv_stack, splits.fpv_test),
        final_tpv_test_acc=evaluate_fpv(tpv_stack, splits.tpv_test),
    )
    if out_dir is not None:
        _write_run(result, stage1_stack, out_dir)
    return result


def _grid_seed(cell_configs: list, world_spec: WorldSpec) -> list:
    """Final FPV accuracy of each cell of one seed, in ``cell_configs`` order.

    The world, the datasets and stage 1 read only the seed and the fields the
    cells share, so they are built once per seed; every cell hands the one
    stage-1 stack to ``joint_train``, which trains a clone of it.  A cell
    reports only its final FPV test accuracy, so no epoch is scored on the
    test sets; evaluation reads the stacks only, so accuracies are exact.
    """
    if not cell_configs:
        return []
    splits = _sample_splits(cell_configs[0], world_spec)
    stage1_config = next((c for c in cell_configs if c.tpv_mode != "same_init"), None)
    if stage1_config is not None:
        stage1_stack = pretrain_tpv(stage1_config, world_spec, splits.tpv_train)
    accs = []
    for cfg in cell_configs:
        tpv_stack = None if cfg.tpv_mode == "same_init" else stage1_stack
        fpv_stack, _, _ = joint_train(
            cfg, world_spec, splits.fpv_train, splits.tpv_train, tpv_stack
        )
        accs.append(evaluate_fpv(fpv_stack, splits.fpv_test))
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

    Every cell's config is checked before any work starts.  Seeds run outermost,
    so only one seed's data is alive at a time; each cell's accuracy equals
    ``run_experiment`` on its config, and rows keep method, tpv_mode, seed order.
    """
    cell_keys = [(method, tpv_mode) for method in methods for tpv_mode in tpv_modes]
    configs = [
        [replace(base_config, method=m, tpv_mode=t, seed=seed) for m, t in cell_keys]
        for seed in seeds
    ]
    for seed_configs in configs:
        for cfg in seed_configs:
            _validate_run(cfg, world_spec)
    if out_dir is not None:
        make_dirs(out_dir)
    by_seed = [_grid_seed(seed_configs, world_spec) for seed_configs in configs]

    runs = []
    cells = []
    for c, (method, tpv_mode) in enumerate(cell_keys):
        accs = [seed_accs[c] for seed_accs in by_seed]
        for seed, acc in zip(seeds, accs):
            runs.append(
                {
                    "method": method,
                    "tpv_mode": tpv_mode,
                    "seed": seed,
                    "final_fpv_acc": acc,
                }
            )
        cells.append(
            {
                "method": method,
                "tpv_mode": tpv_mode,
                "n_seeds": len(seeds),
                "mean_fpv_acc": float(np.mean(accs)),
                "std_fpv_acc": float(np.std(accs)),
            }
        )
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
