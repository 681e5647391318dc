"""Two-stage training, evaluation and ablation grids, deterministic per seed.

Stage 1 trains the TPV encoder and task head with cross-entropy only.
Stage 2 mines pseudo-pairs over the full corpora, gates them by narration
similarity, and trains both views jointly under the combined objective.
Evaluation uses the FPV encoder and task head only.

Seed handling: the experiment seed feeds a SeedSequence whose spawned
children drive, in fixed order, world generation, FPV/TPV initialization,
the four dataset draws, and the per-stage shuffles.  Ablation cells with
equal seeds therefore share worlds and initializations while varying the
method.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .datagen import (
    SyntheticWorld,
    WorldSpec,
    as_corpus,
    generate_world,
    sample_dataset,
)
from .exceptions import ConfigError, DimMismatchError, EmptySetError
from .losses import LossConfig
from .mining import mine_pseudo_pairs
from .model import (
    EncoderStack,
    MomentumState,
    add_grads,
    backward,
    clone_stack,
    cosine_lr,
    encode_batch,
    init_stack,
    mlp_forward,
    save_checkpoint,
    sgd_momentum_step,
)

METHODS = (
    "fpv_only",
    "typical_cl",
    "triplet",
    "sum_l",
    "sum_l_no_weighting",
    "sum_l_no_multimodal",
)
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
    method: str = "sum_l"
    loss: LossConfig = field(default_factory=LossConfig)
    batch_size: int = 16
    epochs_stage1: int = 20
    epochs_stage2: int = 40
    base_lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    tpv_mode: str = "trainable"
    negative_set_mode: str = "selected_subset"
    n_fpv_train: int = 64
    n_tpv_train: int = 240
    n_fpv_test: int = 480
    n_tpv_test: int = 120
    hidden_dim: int = 32
    proj_dim: int | None = None  # None: match the world's text_dim (video-text alignment)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.tpv_mode not in TPV_MODES:
            raise ConfigError(f"tpv_mode must be one of {TPV_MODES}, got {self.tpv_mode!r}")
        if self.negative_set_mode not in NEGATIVE_SET_MODES:
            raise ConfigError(
                f"negative_set_mode must be one of {NEGATIVE_SET_MODES}, "
                f"got {self.negative_set_mode!r}"
            )
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        for name in ("n_fpv_train", "n_tpv_train", "n_fpv_test", "n_tpv_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.hidden_dim < 1 or (self.proj_dim is not None and self.proj_dim < 1):
            raise ConfigError("hidden_dim and proj_dim must be >= 1")
        try:
            self.loss.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
    world_spec: WorldSpec
    records: list
    fpv_stack: EncoderStack
    tpv_stack: EncoderStack
    final_fpv_test_acc: float
    final_tpv_test_acc: float


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


def _predict_logits(stack: EncoderStack, clips: np.ndarray) -> np.ndarray:
    """Task-head logits via f, pooling and g only; the projection head is not used."""
    n, t, feat = clips.shape
    hidden = mlp_forward(stack.f, clips.reshape(n * t, feat))[-1].reshape(n, t, -1).mean(axis=1)
    return mlp_forward(stack.g, hidden)[-1]


def evaluate_fpv(fpv_stack: EncoderStack, dataset) -> float:
    """Top-1 action accuracy using the FPV encoder and task head only."""
    if len(dataset) == 0:
        raise EmptySetError("evaluation dataset is empty")
    corpus = as_corpus(dataset)
    feat, want = corpus.frames.shape[2], fpv_stack.f.weights[0].shape[1]
    if feat != want:
        raise DimMismatchError(
            f"dataset feature dim {feat} does not match encoder input {want}"
        )
    pred = np.argmax(_predict_logits(fpv_stack, corpus.frames), axis=1)
    return float(np.mean(pred == corpus.labels))


def _chunk(indices, size, min_size):
    for start in range(0, len(indices), size):
        batch = indices[start : start + size]
        if len(batch) >= min_size:
            yield batch


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
    seeds = derive_seeds(config.seed)
    proj_dim = config.proj_dim or world_spec.text_dim
    stack = init_stack(
        feat_dim=world_spec.feat_dim,
        n_classes=world_spec.n_actions,
        proj_dim=proj_dim,
        seed=seeds["init_tpv"],
        hidden_dim=config.hidden_dim,
        view="tpv",
    )
    rng = np.random.default_rng(np.random.SeedSequence(seeds["stage1_shuffle"]))
    state = MomentumState.for_stack(stack)
    for epoch in range(config.epochs_stage1):
        lr = cosine_lr(epoch, config.epochs_stage1, config.base_lr)
        order = rng.permutation(len(tpv))
        batch_losses = []
        for idx in _chunk(order, config.batch_size, 1):
            _, _, cache = encode_batch(stack, tpv.frames[idx])
            ce = losses.cross_entropy(cache.logits, tpv.labels[idx])
            grads, _ = backward(stack, cache, None, ce.grads["logits"])
            sgd_momentum_step(stack, grads, lr, state, config.momentum)
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


def _method_terms(method: str, cfg: LossConfig) -> dict:
    """Which loss terms are active for a method (zero-weight terms are skipped
    entirely so the all-weights-zero path is bitwise-identical to fpv_only)."""
    align = {
        "fpv_only": None,
        "typical_cl": "all_dcl",
        "triplet": "triplet",
        "sum_l": "selected_weighted",
        "sum_l_no_weighting": "selected_unweighted",
        "sum_l_no_multimodal": "selected_weighted",
    }[method]
    return {
        "use_t": method != "fpv_only" and cfg.w_t > 0,
        "align": align if (align and cfg.w_aw > 0) else None,
        "use_m": method in ("sum_l", "sum_l_no_weighting") and cfg.w_m > 0,
    }


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

    Returns (fpv_stack, tpv_stack, metrics records).
    """
    config.validate()
    world_spec.validate()
    seeds = derive_seeds(config.seed)
    lc = config.loss
    proj_dim = config.proj_dim or world_spec.text_dim

    if config.tpv_mode == "shared_weights":
        if tpv_stack is None:
            raise ConfigError("shared_weights mode requires a stage-1 TPV stack")
        fpv_stack = tpv_stack  # one parameter set serves both views
    else:
        fpv_stack = init_stack(
            feat_dim=world_spec.feat_dim,
            n_classes=world_spec.n_actions,
            proj_dim=proj_dim,
            seed=seeds["init_fpv"],
            hidden_dim=config.hidden_dim,
            view="fpv",
        )
        if config.tpv_mode == "same_init":
            if tpv_stack is None:
                tpv_stack = clone_stack(fpv_stack)
                tpv_stack.view = "tpv"
        elif tpv_stack is None:
            raise ConfigError("stage-2 training requires a stage-1 TPV stack")
        if config.tpv_mode == "frozen":
            tpv_stack.frozen = True

    fpv = as_corpus(fpv_dataset)
    tpv = as_corpus(tpv_dataset)
    fpv_test = as_corpus(fpv_test) if fpv_test else None
    tpv_test = as_corpus(tpv_test) if tpv_test else None
    # Narrations are fixed inputs, so mining once equals mining every epoch.
    pairs = mine_pseudo_pairs(fpv, tpv)
    sims = np.asarray([p.similarity for p in pairs])
    pair_fpv = np.asarray([p.fpv_index for p in pairs], dtype=int)
    pair_tpv = np.asarray([p.tpv_index for p in pairs], dtype=int)

    rng = np.random.default_rng(np.random.SeedSequence(seeds["stage2_shuffle"]))
    shared = fpv_stack is tpv_stack
    states = {id(fpv_stack): MomentumState.for_stack(fpv_stack)}
    if not shared:
        states[id(tpv_stack)] = MomentumState.for_stack(tpv_stack)

    terms = _method_terms(config.method, lc)
    records: list[MetricsRecord] = []

    for epoch in range(config.epochs_stage2):
        lr = cosine_lr(epoch, config.epochs_stage2, config.base_lr)
        order = rng.permutation(len(pairs))
        sums = {"f": 0.0, "t": 0.0, "aw": 0.0, "m": 0.0, "total": 0.0}
        n_batches = 0
        n_pairs_seen = 0
        n_selected = 0
        for idx in _chunk(order, config.batch_size, 2):
            fi = pair_fpv[idx]
            ti = pair_tpv[idx]
            mask = sims[idx] >= lc.theta
            n_pairs_seen += len(idx)
            n_selected += int(mask.sum())

            Zf, _, cache_f = encode_batch(fpv_stack, fpv.frames[fi])
            lf = losses.cross_entropy(cache_f.logits, fpv.labels[fi])
            d_zf = np.zeros_like(Zf)
            d_logits_f = lf.grads["logits"]

            lt_v = law_v = lm_v = 0.0
            tpv_touched = terms["use_t"] or terms["align"] is not None or terms["use_m"]
            if tpv_touched:
                Zt, _, cache_t = encode_batch(tpv_stack, tpv.frames[ti])
                d_zt = np.zeros_like(Zt)
                d_logits_t = np.zeros_like(cache_t.logits)
                Df = fpv.narrations[fi]
                Dt = tpv.narrations[ti]

            if terms["use_t"]:
                lt = losses.cross_entropy(cache_t.logits, tpv.labels[ti])
                lt_v = lt.value
                d_logits_t = lc.w_t * lt.grads["logits"]

            align = terms["align"]
            if align == "all_dcl":
                out = losses.alignment_loss_unweighted(Zf, Zt, lc.tau)
                law_v = out.value
                d_zf += lc.w_aw * out.grads["zf"]
                d_zt += lc.w_aw * out.grads["zt"]
            elif align == "triplet":
                out = losses.triplet_loss(Zf, Zt, lc.triplet_margin)
                law_v = out.value
                d_zf += lc.w_aw * out.grads["zf"]
                d_zt += lc.w_aw * out.grads["zt"]
            elif align in ("selected_weighted", "selected_unweighted") and mask.sum() >= 2:
                sel = np.flatnonzero(mask)
                if config.negative_set_mode == "full_batch":
                    weights = None if align == "selected_weighted" else np.ones(len(sel))
                    out = losses.weighted_alignment_loss_pooled(
                        Zf[sel], Zt[sel], Df[sel], Dt[sel], Zf, Zt, sel,
                        lc.tau, lc.sigma, weights=weights,
                    )
                    law_v = out.value
                    d_zf += lc.w_aw * out.grads["zf"]
                    d_zt += lc.w_aw * out.grads["zt"]
                else:
                    if align == "selected_weighted":
                        out = losses.weighted_alignment_loss(
                            Zf[sel], Zt[sel], Df[sel], Dt[sel], lc.tau, lc.sigma
                        )
                    else:
                        out = losses.alignment_loss_unweighted(Zf[sel], Zt[sel], lc.tau)
                    law_v = out.value
                    d_zf[sel] += lc.w_aw * out.grads["zf"]
                    d_zt[sel] += lc.w_aw * out.grads["zt"]

            if terms["use_m"]:
                lm = losses.multimodal_loss(Zf, Df, Zt, Dt, lc.tau)
                lm_v = lm.value
                d_zf += lc.w_m * lm.grads["zf"]
                d_zt += lc.w_m * lm.grads["zt"]

            total_v = lf.value + lc.w_t * lt_v + lc.w_aw * law_v + lc.w_m * lm_v

            grads_f, _ = backward(fpv_stack, cache_f, d_zf, d_logits_f)
            if tpv_touched:
                grads_t, _ = backward(tpv_stack, cache_t, d_zt, d_logits_t)
            if shared:
                if tpv_touched:
                    add_grads(grads_f, grads_t)
                sgd_momentum_step(fpv_stack, grads_f, lr, states[id(fpv_stack)], config.momentum)
            else:
                sgd_momentum_step(fpv_stack, grads_f, lr, states[id(fpv_stack)], config.momentum)
                if tpv_touched:
                    sgd_momentum_step(tpv_stack, grads_t, lr, states[id(tpv_stack)], config.momentum)

            sums["f"] += lf.value
            sums["t"] += lt_v
            sums["aw"] += law_v
            sums["m"] += lm_v
            sums["total"] += total_v
            n_batches += 1

        nb = max(n_batches, 1)
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
                tpv_test_acc=evaluate_fpv(tpv_stack, tpv_test) if (tpv_test and tpv_stack) else 0.0,
            )
        )
    return fpv_stack, tpv_stack, records


def write_metrics_jsonl(records, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict()))
            fh.write("\n")
    os.replace(tmp, path)


def run_experiment(
    config: TrainConfig, world_spec: WorldSpec, out_dir=None
) -> ExperimentResult:
    """Full stage-1 + stage-2 + evaluation run; deterministic per seed."""
    config.validate()
    world_spec.validate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    seeds = derive_seeds(config.seed)
    world = build_world(world_spec, config.seed)
    fpv_train = sample_dataset(world, "fpv", config.n_fpv_train, seeds["fpv_train"])
    tpv_train = sample_dataset(world, "tpv", config.n_tpv_train, seeds["tpv_train"])
    fpv_test = sample_dataset(world, "fpv", config.n_fpv_test, seeds["fpv_test"])
    tpv_test = sample_dataset(world, "tpv", config.n_tpv_test, seeds["tpv_test"])

    records: list[MetricsRecord] = []
    if config.tpv_mode == "same_init":
        tpv_stack = None  # joint_train copies the fresh FPV initialization
    else:
        tpv_stack = pretrain_tpv(config, world_spec, tpv_train, tpv_test, records)
        if out_dir is not None:
            save_checkpoint(tpv_stack, os.path.join(out_dir, "checkpoint_stage1_tpv.json"), "stage1_tpv")

    fpv_stack, tpv_stack, stage2_records = joint_train(
        config, world_spec, fpv_train, tpv_train, tpv_stack, fpv_test, tpv_test
    )
    records.extend(stage2_records)

    final_fpv = evaluate_fpv(fpv_stack, fpv_test)
    final_tpv = evaluate_fpv(tpv_stack, tpv_test)
    if out_dir is not None:
        write_metrics_jsonl(records, os.path.join(out_dir, "metrics.jsonl"))
        save_checkpoint(fpv_stack, os.path.join(out_dir, "checkpoint_fpv.json"), "stage2_fpv")
        save_checkpoint(tpv_stack, os.path.join(out_dir, "checkpoint_tpv.json"), "stage2_tpv")
        summary = {
            "method": config.method,
            "tpv_mode": config.tpv_mode,
            "seed": config.seed,
            "final_fpv_test_acc": final_fpv,
            "final_tpv_test_acc": final_tpv,
        }
        tmp = os.path.join(out_dir, "summary.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(summary, fh, indent=2)
        os.replace(tmp, os.path.join(out_dir, "summary.json"))
    return ExperimentResult(
        config=config,
        world_spec=world_spec,
        records=records,
        fpv_stack=fpv_stack,
        tpv_stack=tpv_stack,
        final_fpv_test_acc=final_fpv,
        final_tpv_test_acc=final_tpv,
    )


def run_ablation_grid(
    base_config: TrainConfig,
    world_spec: WorldSpec,
    methods,
    tpv_modes,
    seeds,
    out_dir=None,
):
    """One run per {method x tpv_mode x seed}; returns (per-run rows, per-cell rows)."""
    runs = []
    cells = []
    for method in methods:
        for tpv_mode in tpv_modes:
            accs = []
            for seed in seeds:
                cfg = replace(base_config, method=method, tpv_mode=tpv_mode, seed=seed)
                res = run_experiment(cfg, world_spec)
                runs.append(
                    {
                        "method": method,
                        "tpv_mode": tpv_mode,
                        "seed": seed,
                        "final_fpv_acc": res.final_fpv_test_acc,
                    }
                )
                accs.append(res.final_fpv_test_acc)
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
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "runs.csv"), runs)
        _write_csv(os.path.join(out_dir, "summary.csv"), cells)
    return runs, cells


def _write_csv(path, rows) -> None:
    if not rows:
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    os.replace(tmp, path)
