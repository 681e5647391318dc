import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_calls
from test_golden import GRID_TRAIN, GRID_WORLD

from suml import pipeline
from suml.datagen import WorldSpec, generate_world, sample_dataset
from suml.exceptions import ConfigError, EmptySetError
from suml.losses import LossConfig
from suml.model import init_stack
from suml.pipeline import (
    METHODS,
    TPV_MODES,
    TrainConfig,
    derive_seeds,
    evaluate_fpv,
    joint_train,
    pretrain_tpv,
    run_ablation_grid,
    run_experiment,
)

WORLD = WorldSpec(n_verbs=3, n_nouns=4, text_dim=16, feat_dim=12, frames_per_clip=2)

FAST = TrainConfig(
    epochs_stage1=3,
    epochs_stage2=4,
    n_fpv_train=24,
    n_tpv_train=32,
    n_fpv_test=40,
    n_tpv_test=24,
    batch_size=8,
    hidden_dim=12,
)


def records_equal(a, b):
    return [r.to_dict() for r in a] == [r.to_dict() for r in b]


def stacks_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.param_tensors(), b.param_tensors()))


def test_derive_seeds_stable_and_distinct():
    s1 = derive_seeds(0)
    s2 = derive_seeds(0)
    s3 = derive_seeds(1)
    assert s1 == s2
    assert len(set(s1.values())) == len(s1)
    assert set(s1) == set(s3)
    assert s1 != s3


def test_evaluate_fpv_perfect_on_trivial_data():
    # an untrained stack scores poorly; the metric itself is label agreement
    world = generate_world(WORLD)
    data = sample_dataset(world, "fpv", 30, 0)
    stack = init_stack(WORLD.feat_dim, WORLD.n_actions, 8, seed=0, hidden_dim=12)
    acc = evaluate_fpv(stack, data)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(EmptySetError):
        evaluate_fpv(stack, [])


def test_pretrain_tpv_learns_and_is_deterministic():
    world = generate_world(replace(WORLD, seed=derive_seeds(0)["world"]))
    tpv = sample_dataset(world, "tpv", 64, derive_seeds(0)["tpv_train"])
    cfg = replace(FAST, epochs_stage1=15)
    records = []
    s1 = pretrain_tpv(cfg, WORLD, tpv, tpv_test=tpv, metrics_sink=records)
    s2 = pretrain_tpv(cfg, WORLD, tpv)
    assert stacks_equal(s1, s2)
    assert records[-1].tpv_test_acc > records[0].tpv_test_acc
    assert records[-1].tpv_test_acc > 0.5
    assert all(r.stage == 1 for r in records)


def test_run_experiment_deterministic():
    cfg = FAST
    r1 = run_experiment(cfg, WORLD)
    r2 = run_experiment(cfg, WORLD)
    assert r1.final_fpv_test_acc == r2.final_fpv_test_acc
    assert records_equal(r1.records, r2.records)
    assert stacks_equal(r1.fpv_stack, r2.fpv_stack)
    assert stacks_equal(r1.tpv_stack, r2.tpv_stack)


def test_run_experiment_seed_changes_results():
    r1 = run_experiment(FAST, WORLD)
    r2 = run_experiment(replace(FAST, seed=1), WORLD)
    assert not records_equal(r1.records, r2.records)


def test_metrics_recombination_invariant():
    cfg = replace(FAST, loss=LossConfig(w_t=0.5, w_aw=0.25, w_m=2.0))
    result = run_experiment(cfg, WORLD)
    lc = cfg.loss
    for r in result.records:
        want = r.loss_f + lc.w_t * r.loss_t + lc.w_aw * r.loss_aw + lc.w_m * r.loss_m
        assert abs(r.loss_total - want) <= 1e-9


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_run(method):
    result = run_experiment(replace(FAST, method=method), WORLD)
    assert 0.0 <= result.final_fpv_test_acc <= 1.0
    assert len(result.records) == FAST.epochs_stage1 + FAST.epochs_stage2


@pytest.mark.parametrize("tpv_mode", TPV_MODES)
def test_all_tpv_modes_run(tpv_mode):
    result = run_experiment(replace(FAST, tpv_mode=tpv_mode), WORLD)
    assert 0.0 <= result.final_fpv_test_acc <= 1.0


def test_frozen_mode_keeps_tpv_parameters():
    cfg = replace(FAST, tpv_mode="frozen")
    world = generate_world(replace(WORLD, seed=derive_seeds(cfg.seed)["world"]))
    seeds = derive_seeds(cfg.seed)
    tpv = sample_dataset(world, "tpv", cfg.n_tpv_train, seeds["tpv_train"])
    fpv = sample_dataset(world, "fpv", cfg.n_fpv_train, seeds["fpv_train"])
    stage1 = pretrain_tpv(cfg, WORLD, tpv)
    frozen_params = [p.copy() for p in stage1.param_tensors()]
    _, tpv_after, _ = joint_train(cfg, WORLD, fpv, tpv, stage1)
    for a, b in zip(frozen_params, tpv_after.param_tensors()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tpv_mode", TPV_MODES)
def test_joint_train_leaves_the_given_stack_unchanged(tpv_mode):
    cfg = replace(FAST, tpv_mode=tpv_mode)
    seeds = derive_seeds(cfg.seed)
    world = generate_world(replace(WORLD, seed=seeds["world"]))
    tpv = sample_dataset(world, "tpv", cfg.n_tpv_train, seeds["tpv_train"])
    fpv = sample_dataset(world, "fpv", cfg.n_fpv_train, seeds["fpv_train"])
    stage1 = pretrain_tpv(cfg, WORLD, tpv)
    before = stage1.params.tobytes()
    _, tpv_after, _ = joint_train(cfg, WORLD, fpv, tpv, stage1)
    assert stage1.params.tobytes() == before and stage1.frozen is False
    assert tpv_after is not stage1 and tpv_after.frozen == (tpv_mode == "frozen")


def test_shared_weights_mode_is_one_parameter_set():
    cfg = replace(FAST, tpv_mode="shared_weights")
    result = run_experiment(cfg, WORLD)
    assert result.fpv_stack is result.tpv_stack


def test_same_init_skips_stage_one():
    result = run_experiment(replace(FAST, tpv_mode="same_init"), WORLD)
    assert all(r.stage == 2 for r in result.records)


def test_zero_weights_match_fpv_only_bitwise():
    zeroed = replace(FAST, loss=LossConfig(w_t=0.0, w_aw=0.0, w_m=0.0))
    base = replace(FAST, method="fpv_only")
    rz = run_experiment(zeroed, WORLD)
    rb = run_experiment(base, WORLD)
    assert stacks_equal(rz.fpv_stack, rb.fpv_stack)
    stage2 = lambda res: [r.to_dict() for r in res.records if r.stage == 2]
    assert stage2(rz) == stage2(rb)


def test_joint_train_requires_stage1_stack():
    world = generate_world(WORLD)
    fpv = sample_dataset(world, "fpv", 8, 0)
    tpv = sample_dataset(world, "tpv", 8, 1)
    with pytest.raises(ConfigError):
        joint_train(FAST, WORLD, fpv, tpv, None)


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    run_experiment(FAST, WORLD, out_dir=str(out))
    assert (out / "metrics.jsonl").exists()
    assert (out / "checkpoint_stage1_tpv.json").exists()
    assert (out / "checkpoint_fpv.json").exists()
    assert (out / "checkpoint_tpv.json").exists()
    assert (out / "summary.json").exists()
    with open(out / "metrics.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == FAST.epochs_stage1 + FAST.epochs_stage2
    assert set(lines[0]) == {
        "epoch", "stage", "loss_f", "loss_t", "loss_aw", "loss_m", "loss_total",
        "selected_pair_fraction", "fpv_train_acc", "fpv_test_acc", "tpv_test_acc",
    }


def test_ablation_grid_writes_summary(tmp_path):
    out = tmp_path / "grid"
    runs, cells = run_ablation_grid(
        FAST, WORLD, ["fpv_only", "sum_l"], ["trainable"], [0, 1], out_dir=str(out)
    )
    assert len(runs) == 4
    assert len(cells) == 2
    assert (out / "runs.csv").exists()
    assert (out / "summary.csv").exists()
    with open(out / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
    assert "method" in header and "mean_fpv_acc" in header


def test_train_config_validation():
    with pytest.raises(ConfigError):
        replace(FAST, method="nope").validate()
    with pytest.raises(ConfigError):
        replace(FAST, tpv_mode="melted").validate()
    with pytest.raises(ConfigError):
        replace(FAST, batch_size=1).validate()
    with pytest.raises(ConfigError):
        replace(FAST, momentum=1.0).validate()
    with pytest.raises(ConfigError):
        replace(FAST, base_lr=0.0).validate()


def test_grid_cells_equal_independent_runs():
    seeds = [0, 1]
    runs, cells = run_ablation_grid(GRID_TRAIN, GRID_WORLD, METHODS, TPV_MODES, seeds)
    want = [
        {
            "method": m,
            "tpv_mode": t,
            "seed": s,
            "final_fpv_acc": run_experiment(
                replace(GRID_TRAIN, method=m, tpv_mode=t, seed=s), GRID_WORLD
            ).final_fpv_test_acc,
        }
        for m in METHODS
        for t in TPV_MODES
        for s in seeds
    ]
    assert runs == want
    assert [(c["method"], c["tpv_mode"]) for c in cells] == [
        (m, t) for m in METHODS for t in TPV_MODES
    ]


def test_grid_shares_datasets_and_stage1_per_seed(monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    draws = count_calls(monkeypatch, pipeline, "sample_dataset")
    seeds = [0, 1, 2]
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, METHODS[:3], TPV_MODES, seeds)
    assert len(stage1) == len(seeds)
    assert len(draws) == 4 * len(seeds)


def test_same_init_grid_skips_stage1(monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    draws = count_calls(monkeypatch, pipeline, "sample_dataset")
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, ["fpv_only", "sum_l"], ["same_init"], [0, 1])
    assert stage1 == []
    assert len(draws) == 8


def test_grid_scores_only_what_it_reports(monkeypatch):
    evals = count_calls(monkeypatch, pipeline, "evaluate_fpv")
    methods, seeds = ["fpv_only", "sum_l"], [0, 1]
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, methods, TPV_MODES, seeds)
    # fpv_train once per stage-2 epoch and the final FPV test score, per cell;
    # no stage-1 epoch and no test set is scored along the way
    cells = len(methods) * len(TPV_MODES) * len(seeds)
    assert len(evals) == cells * (GRID_TRAIN.epochs_stage2 + 1)


@pytest.mark.parametrize(
    "method,tpv_mode,tpv_scores",
    [
        ("fpv_only", "trainable", 1),
        ("sum_l", "frozen", 1),
        ("sum_l", "trainable", FAST.epochs_stage2),
        # the FPV loss trains the one shared stack, so its TPV score moves
        ("fpv_only", "shared_weights", FAST.epochs_stage2),
    ],
)
def test_static_tpv_stack_is_scored_once(monkeypatch, method, tpv_mode, tpv_scores):
    cfg = replace(FAST, method=method, tpv_mode=tpv_mode)
    evals = count_calls(monkeypatch, pipeline, "evaluate_fpv")
    result = run_experiment(cfg, WORLD)
    # stage 1 scores once per epoch, stage 2 twice per epoch for FPV, and the
    # final evaluation once per view
    assert len(evals) == cfg.epochs_stage1 + 2 * cfg.epochs_stage2 + tpv_scores + 2
    assert result.records[-1].tpv_test_acc == result.final_tpv_test_acc


@pytest.mark.parametrize("tpv_mode,tpv_passes", [("trainable", 1), ("frozen", 0)])
def test_frozen_tpv_stack_skips_its_backward_pass(monkeypatch, tpv_mode, tpv_passes):
    cfg = replace(FAST, tpv_mode=tpv_mode)
    passes = count_calls(monkeypatch, pipeline, "backward")
    run_experiment(cfg, WORLD)
    stage1_batches = cfg.epochs_stage1 * math.ceil(cfg.n_tpv_train / cfg.batch_size)
    stage2_batches = cfg.epochs_stage2 * (cfg.n_fpv_train // cfg.batch_size)
    assert len(passes) == stage1_batches + (1 + tpv_passes) * stage2_batches
