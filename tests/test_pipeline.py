import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_no_child_left, count_calls, open_fds, unit_rows
from test_golden import GRID_TRAIN, GRID_WORLD

from suml import losses, model, pipeline, workers
from suml.cli import parse_config
from suml.datagen import WorldSpec, generate_world, read_dataset, sample_dataset
from suml.exceptions import (
    ConfigError,
    ConfigValidationError,
    EmptySetError,
    LabelOutOfRangeError,
    WorkerError,
    ZeroNormError,
)
from suml.losses import LossConfig
from suml.model import init_stack, replica
from suml.numerics import logsumexp_rows, mean_rows
from suml.pipeline import (
    METHODS,
    NEGATIVE_SET_MODES,
    TPV_MODES,
    TrainConfig,
    build_world,
    derive_seeds,
    evaluate_fpv,
    joint_train,
    pretrain_tpv,
    run_ablation_grid,
    run_experiment,
    stack_datasets,
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


def one_worker(monkeypatch):
    """Train a grid's cells in this process, so that calls recorded in a cell are seen."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)


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
    assert (out / "effective_config.json").exists()
    assert len((out / "runs.csv").read_text().splitlines()) == 1 + 4
    lines = (out / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "method" in header and "mean_fpv_acc" in header
    assert len(lines) == 1 + 2 and "nan" not in "".join(lines).lower()


@pytest.mark.parametrize(
    "axis,values",
    [("methods", []), ("tpv_modes", []), ("seeds", []),
     ("methods", ["fpv_only", "sum_l", "fpv_only"]), ("tpv_modes", ["trainable"] * 2),
     ("seeds", [0, 0])],
    ids=["methods", "tpv_modes", "seeds", "repeated_methods", "repeated_tpv_modes",
         "repeated_seeds"],
)
def test_empty_grid_axis_is_rejected_before_any_work(monkeypatch, tmp_path, axis, values):
    draws = count_calls(monkeypatch, pipeline, "sample_dataset")
    grid = {"methods": ["fpv_only"], "tpv_modes": ["trainable"], "seeds": [0], axis: values}
    out = tmp_path / "grid"
    with pytest.raises(ConfigValidationError, match=axis):
        run_ablation_grid(FAST, WORLD, **grid, out_dir=str(out))
    assert draws == [] and not out.exists()


def test_runs_write_the_effective_config_the_cli_reads_back(tmp_path):
    config = replace(FAST, epochs_stage1=1, epochs_stage2=1, loss=LossConfig(theta=0.5))
    run_experiment(config, WORLD, out_dir=str(tmp_path / "run"))
    run_ablation_grid(config, WORLD, ["fpv_only"], ["trainable"], [0, 1],
                      out_dir=str(tmp_path / "grid"))
    for run in ("run", "grid"):
        path = tmp_path / run / "effective_config.json"
        doc = json.loads(path.read_text())
        assert list(doc) == ["world", "loss", "train"] and "loss" not in doc["train"]
        assert "seed" not in doc["world"]  # each run derives it from train.seed
        assert doc["loss"]["theta"] == 0.5
        assert parse_config(str(path)) == (WORLD, config)


def test_joint_train_without_an_fpv_test_set_scores_no_epoch(monkeypatch):
    one_worker(monkeypatch)  # so that an epoch scored would be seen
    fpv, tpv = train_sets(FAST)
    stage1 = pretrain_tpv(FAST, WORLD, tpv)
    evals = count_calls(monkeypatch, pipeline, "evaluate_fpv")
    _, _, records = joint_train(FAST, WORLD, fpv, tpv, stage1)
    assert evals == []
    assert all(r.fpv_train_acc == r.fpv_test_acc == 0.0 for r in records)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        replace(FAST, method="nope")
    with pytest.raises(ConfigError):
        replace(FAST, tpv_mode="melted")
    with pytest.raises(ConfigError):
        replace(FAST, batch_size=1)
    with pytest.raises(ConfigError):
        replace(FAST, momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0)


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
    # one stage 1 trains every seed's replica; per seed, the two train sets and
    # the FPV test set are drawn once (no cell reads a TPV test set)
    assert len(stage1) == 1
    assert len(draws) == 3 * len(seeds)


def test_same_init_grid_skips_stage1(monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    draws = count_calls(monkeypatch, pipeline, "sample_dataset")
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, ["fpv_only", "sum_l"], ["same_init"], [0, 1])
    assert stage1 == []
    assert len(draws) == 6


def test_grid_scores_only_what_it_reports(monkeypatch):
    one_worker(monkeypatch)  # so that every cell's calls are seen
    evals = count_calls(monkeypatch, pipeline, "evaluate_fpv")
    methods, seeds = ["fpv_only", "sum_l"], [0, 1]
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, methods, TPV_MODES, seeds)
    # only the final FPV test score of each cell and seed; no epoch of either
    # stage is scored along the way
    cells = len(methods) * len(TPV_MODES) * len(seeds)
    assert len(evals) == cells


def record_calls(monkeypatch, names) -> list:
    """One list of the calls to each ``pipeline.<name>`` of ``names``, in call order."""
    calls = []
    for name in names:
        count_calls(monkeypatch, pipeline, name, calls)
    return calls


def call_names(calls, seeds) -> list:
    """``record_calls``' names, a ``sample_dataset`` call named by the split
    (``fpv_test`` ...) that its seed draws at one of ``seeds``."""
    splits = {value: split for s in seeds for split, value in derive_seeds(s).items()}
    return [splits[args[3]] if name == "sample_dataset" else name for name, args in calls]


def test_grid_draws_each_fpv_test_set_after_every_cell_is_trained(monkeypatch):
    one_worker(monkeypatch)  # so that every cell's calls are seen
    seeds = [0, 1]
    calls = record_calls(monkeypatch, ("sample_dataset", "joint_train"))
    run_ablation_grid(GRID_TRAIN, GRID_WORLD, ["fpv_only", "sum_l"], ["trainable", "frozen"], seeds)
    order = call_names(calls, seeds)
    last_train = max(i for i, name in enumerate(order) if name == "joint_train")
    fpv_tests = [i for i, name in enumerate(order) if name == "fpv_test"]
    # the train sets are freed before any test set is drawn, and no cell reads a TPV test set
    assert len(fpv_tests) == len(seeds) and min(fpv_tests) > last_train
    assert "tpv_test" not in order


def test_single_run_draws_all_four_sets_before_stage1(monkeypatch):
    calls = record_calls(monkeypatch, ("sample_dataset", "pretrain_tpv", "joint_train"))
    run_experiment(FAST, WORLD)
    assert call_names(calls, [FAST.seed]) == [
        "fpv_train", "tpv_train", "fpv_test", "tpv_test", "pretrain_tpv", "joint_train"]


@pytest.mark.parametrize(
    "method,tpv_mode",
    [("fpv_only", "trainable"), ("sum_l", "frozen"), ("sum_l", "trainable"),
     ("fpv_only", "shared_weights")],
)
def test_every_epoch_scores_the_test_sets_it_is_given(monkeypatch, method, tpv_mode):
    one_worker(monkeypatch)  # so that every epoch's scoring is seen
    cfg = replace(FAST, method=method, tpv_mode=tpv_mode)
    evals = count_calls(monkeypatch, pipeline, "evaluate_fpv")
    result = run_experiment(cfg, WORLD)
    # whether or not stage 2 can change the TPV stack: a stage-1 epoch scores
    # the TPV test set, a stage-2 epoch the TPV test set and the FPV train and
    # test sets, and the final evaluation scores each view once
    assert len(evals) == cfg.epochs_stage1 + 3 * cfg.epochs_stage2 + 2
    assert result.records[-1].tpv_test_acc == result.final_tpv_test_acc


@pytest.mark.parametrize("tpv_mode,tpv_passes", [("trainable", 1), ("frozen", 0)])
def test_frozen_tpv_stack_skips_its_backward_pass(monkeypatch, tpv_mode, tpv_passes):
    cfg = replace(FAST, tpv_mode=tpv_mode)
    passes = count_calls(monkeypatch, pipeline, "backward")
    run_experiment(cfg, WORLD)
    stage1_batches = cfg.epochs_stage1 * math.ceil(cfg.n_tpv_train / cfg.batch_size)
    stage2_batches = cfg.epochs_stage2 * (cfg.n_fpv_train // cfg.batch_size)
    assert len(passes) == stage1_batches + (1 + tpv_passes) * stage2_batches


REPLICA_SEEDS = [0, 1, 2]


def seed_datasets(split):
    """``split`` of each of REPLICA_SEEDS, drawn as a single run draws it."""
    view = split.split("_")[0]
    n = getattr(GRID_TRAIN, f"n_{split}")
    return [
        sample_dataset(build_world(GRID_WORLD, s), view, n, derive_seeds(s)[split])
        for s in REPLICA_SEEDS
    ]


@pytest.fixture(scope="module")
def replica_data():
    return {split: seed_datasets(split)
            for split in ("fpv_train", "tpv_train", "fpv_test", "tpv_test")}


def test_stacked_stage1_equals_each_seed_alone(replica_data):
    d = replica_data
    records = []
    stacked = pretrain_tpv(
        GRID_TRAIN, GRID_WORLD, stack_datasets(d["tpv_train"]), stack_datasets(d["tpv_test"]),
        records, seeds=REPLICA_SEEDS,
    )
    assert stacked.params.shape[0] == len(REPLICA_SEEDS)
    epochs = GRID_TRAIN.epochs_stage1
    for r, seed in enumerate(REPLICA_SEEDS):
        alone_records = []
        alone = pretrain_tpv(replace(GRID_TRAIN, seed=seed), GRID_WORLD, d["tpv_train"][r],
                             d["tpv_test"][r], alone_records)
        assert replica(stacked, r).params.tobytes() == alone.params.tobytes()
        assert records_equal(records[r * epochs : (r + 1) * epochs], alone_records)


@pytest.mark.parametrize("negative_set_mode", NEGATIVE_SET_MODES)
@pytest.mark.parametrize("method", METHODS)
def test_stacked_stage2_equals_each_seed_alone(monkeypatch, replica_data, method,
                                               negative_set_mode):
    d = replica_data
    stacked_sets = {split: stack_datasets(sets) for split, sets in d.items()}
    stage1 = pretrain_tpv(GRID_TRAIN, GRID_WORLD, stacked_sets["tpv_train"], seeds=REPLICA_SEEDS)
    encodes = count_calls(monkeypatch, pipeline, "encode_batch")
    epochs = GRID_TRAIN.epochs_stage2
    for tpv_mode in TPV_MODES:
        cfg = replace(GRID_TRAIN, method=method, tpv_mode=tpv_mode,
                      negative_set_mode=negative_set_mode)
        encodes.clear()
        fpv_s, tpv_s, records = joint_train(
            cfg, GRID_WORLD, stacked_sets["fpv_train"], stacked_sets["tpv_train"],
            None if tpv_mode == "same_init" else stage1,
            stacked_sets["fpv_test"], stacked_sets["tpv_test"], seeds=REPLICA_SEEDS,
        )
        stacked_encodes = len(encodes)
        for r, seed in enumerate(REPLICA_SEEDS):
            single = replace(cfg, seed=seed)
            stage1_alone = pretrain_tpv(single, GRID_WORLD, d["tpv_train"][r])
            encodes.clear()
            fpv_a, tpv_a, records_a = joint_train(
                single, GRID_WORLD, d["fpv_train"][r], d["tpv_train"][r],
                None if tpv_mode == "same_init" else stage1_alone,
                d["fpv_test"][r], d["tpv_test"][r],
            )
            # one encode_batch call per stacked batch and view, as for one seed
            assert stacked_encodes == len(encodes)
            assert replica(fpv_s, r).params.tobytes() == fpv_a.params.tobytes()
            assert replica(tpv_s, r).params.tobytes() == tpv_a.params.tobytes()
            assert records_equal(records[r * epochs : (r + 1) * epochs], records_a)
        assert (fpv_s is tpv_s) == (tpv_mode == "shared_weights")
        assert tpv_s.frozen == (tpv_mode == "frozen")


def train_sets(cfg):
    """The FPV and TPV train sets of ``cfg``'s seed, as a single run draws them."""
    seeds = derive_seeds(cfg.seed)
    world = generate_world(replace(WORLD, seed=seeds["world"]))
    return (sample_dataset(world, view, getattr(cfg, f"n_{view}_train"), seeds[f"{view}_train"])
            for view in ("fpv", "tpv"))


def test_stage2_epoch_means_reduce_each_replicas_batch_values(monkeypatch):
    # 10 stage-2 batches per epoch: past the 8 where numpy's pairwise sum
    # starts to differ from adding the values one after another
    cfg = replace(FAST, n_fpv_train=160, epochs_stage2=2)
    fpv, tpv = train_sets(cfg)
    stage1 = pretrain_tpv(cfg, WORLD, tpv)
    values = []
    cross_entropy = losses.cross_entropy

    def captured(logits, labels):
        out = cross_entropy(logits, labels)
        values.append(out.value)
        return out

    monkeypatch.setattr(losses, "cross_entropy", captured)
    _, _, records = joint_train(cfg, WORLD, fpv, tpv, stage1)
    per_epoch = len(values) // cfg.epochs_stage2
    assert per_epoch == cfg.n_fpv_train // cfg.batch_size  # one call for both views' tasks
    assert all(value.shape == (2,) for value in values)  # the FPV replica, then the TPV one
    for epoch, record in enumerate(records):
        batches = values[epoch * per_epoch : (epoch + 1) * per_epoch]
        for slot, half in (("f", 0), ("t", 1)):
            slot_values = [value[half : half + 1] for value in batches]
            want = np.add.reduce(np.stack(slot_values, axis=-1), axis=-1) / len(slot_values)
            assert getattr(record, f"loss_{slot}") == want.tolist()[0]


@pytest.mark.parametrize("replicas", [1, 3])
def test_fused_task_losses_equal_one_call_per_view_bitwise(rng, replicas):
    logits = {v: rng.standard_normal((replicas, 8, 5)) * 4 for v in "ft"}
    labels = {v: rng.integers(0, 5, size=(replicas, 8)) for v in "ft"}
    batch = pipeline._Batch(*(model.ForwardCache((), [], [], logits[v]) for v in "ft"),
                            labels["f"], labels["t"])
    fpv, tpv = pipeline._FPV_TASK, pipeline._TPV_TASK
    for tasks in ([fpv, tpv], [fpv], [tpv]):
        for task, out in zip(tasks, pipeline._task_losses(tasks, batch), strict=True):
            want = losses.cross_entropy(logits[task.view], labels[task.view])
            assert out.value.tobytes() == want.value.tobytes()
            assert list(out.grads) == [f"logits_{task.view}"]
            assert out.grads[f"logits_{task.view}"].tobytes() == want.grads["logits"].tobytes()


@pytest.mark.parametrize("tpv_mode", ["trainable", "shared_weights"])
def test_each_trained_field_has_a_gradient_workspace_of_its_own(monkeypatch, tpv_mode):
    """A stage makes one ``backward`` workspace per trained field and reuses it on
    every batch; under shared weights one stack trains on two distinct buffers."""
    cfg = replace(FAST, tpv_mode=tpv_mode)
    fpv, tpv = train_sets(cfg)
    stage1 = pretrain_tpv(cfg, WORLD, tpv)
    calls, backward = [], pipeline.backward

    def recorded(stack, cache, grad_z, grad_logits, out):
        calls.append((id(stack), out))
        return backward(stack, cache, grad_z, grad_logits, out)

    monkeypatch.setattr(pipeline, "backward", recorded)
    joint_train(cfg, WORLD, fpv, tpv, stage1)
    assert len(calls) == 2 * cfg.epochs_stage2 * (cfg.n_fpv_train // cfg.batch_size)
    assert len({stack for stack, _ in calls}) == (1 if tpv_mode == "shared_weights" else 2)
    fpv_out, tpv_out = calls[0][1], calls[1][1]
    assert all(out is (fpv_out, tpv_out)[i % 2] for i, (_, out) in enumerate(calls))
    assert not np.shares_memory(fpv_out.params, tpv_out.params)


NO_STAGE2_BATCH = dict(n_fpv_train=1, epochs_stage1=1, epochs_stage2=2)


def test_stage2_without_a_batch_is_rejected_before_any_work():
    # a config that would leave stage 2 no batch cannot be built, so no run starts
    with pytest.raises(ConfigValidationError, match="n_fpv_train must be at least 2"):
        TrainConfig(**NO_STAGE2_BATCH)
    one_clip = TrainConfig(**{**NO_STAGE2_BATCH, "epochs_stage2": 0})
    with pytest.raises(ConfigValidationError, match="n_fpv_train must be at least 2"):
        replace(one_clip, epochs_stage2=2)
    run_experiment(one_clip, WorldSpec())  # without stage-2 epochs one FPV clip is fine


def test_grid_seed_off_its_rule_fails_before_any_draw(monkeypatch, tmp_path):
    draws = count_calls(monkeypatch, pipeline, "sample_dataset")
    out = tmp_path / "grid"
    with pytest.raises(ConfigValidationError, match="train.seed must be >= 0"):
        run_ablation_grid(FAST, WORLD, ["fpv_only"], ["trainable"], [0, -1], out_dir=str(out))
    assert draws == [] and not out.exists()


def test_joint_train_without_a_batch_raises():
    world = generate_world(WORLD)
    fpv = sample_dataset(world, "fpv", 1, 0)
    tpv = sample_dataset(world, "tpv", 8, 1)
    with pytest.raises(ConfigError, match="stage 2 needs 2 rows for a batch, got 1"):
        joint_train(replace(FAST, tpv_mode="same_init"), WORLD, fpv, tpv, None)


@pytest.mark.parametrize("method,h_calls_per_batch", [("fpv_only", 0), ("sum_l", 2)])
def test_projection_head_runs_only_where_a_term_reads_z(monkeypatch, method, h_calls_per_batch):
    """Stage 1 and fpv_only's stage 2 read only logits, so neither runs ``h``."""
    encoded, forward, backward = [], [], []
    encode_batch, mlp_forward, mlp_backward = (
        pipeline.encode_batch, model.mlp_forward, model.mlp_backward)

    def encode(stack, clips, **kwargs):
        encoded.append(stack)
        return encode_batch(stack, clips, **kwargs)

    monkeypatch.setattr(pipeline, "encode_batch", encode)
    monkeypatch.setattr(model, "mlp_forward", lambda p, *a: forward.append(p) or mlp_forward(p, *a))
    monkeypatch.setattr(model, "mlp_backward",
                        lambda p, *a: backward.append(p) or mlp_backward(p, *a))
    cfg = replace(FAST, method=method)
    run_experiment(cfg, WORLD)
    heads = {id(stack.h) for stack in encoded}
    stage2_batches = cfg.epochs_stage2 * (cfg.n_fpv_train // cfg.batch_size)
    assert len(encoded) > stage2_batches
    for calls in (forward, backward):
        assert sum(id(p) in heads for p in calls) == h_calls_per_batch * stage2_batches


def collapsed_stacks(monkeypatch):
    """Make every new stack's projection head output zero."""
    def init_collapsed(*args, **kwargs):
        stack = init_stack(*args, **kwargs)
        for W in stack.h.weights:
            W[...] = 0.0
        return stack

    monkeypatch.setattr(pipeline, "init_stack", init_collapsed)


def test_collapsed_projection_head_fails_where_z_is_first_read(monkeypatch):
    collapsed_stacks(monkeypatch)
    fpv, tpv = train_sets(FAST)
    stage1 = pretrain_tpv(FAST, WORLD, tpv)  # stage 1 reads no z
    assert not np.any(stage1.h.weights[-1])
    with pytest.raises(ZeroNormError):
        joint_train(FAST, WORLD, fpv, tpv, stage1)
    fpv_stack, _, records = joint_train(replace(FAST, method="fpv_only"), WORLD, fpv, tpv, stage1)
    assert len(records) == FAST.epochs_stage2 and not np.any(fpv_stack.h.weights[-1])


# Every (method, loss weights) whose stage 2 has a contrastive term, with the
# term subsets the default-weight pins never run: video-text alone (w_aw=0) and
# the gated alignment alone (w_m=0).
FUSED_CASES = [
    ("sum_l", {}), ("sum_l", {"w_aw": 0.0}), ("sum_l", {"w_m": 0.0}),
    ("sum_l_no_weighting", {}), ("sum_l_no_weighting", {"w_aw": 0.0}),
    ("sum_l_no_weighting", {"w_m": 0.0}), ("typical_cl", {}), ("sum_l_no_multimodal", {}),
]


def ungated_decoupled(anchors, pool, tau, weights):
    """The plain weighted decoupled direction, positives on the diagonal, no gate:
    the arithmetic ``losses._decoupled`` must reproduce under an all-true gate."""
    n = anchors.shape[-2]
    A = (anchors @ pool.swapaxes(-1, -2)) / tau
    flat = A.reshape(*A.shape[:-2], n * n)
    pos = flat[..., :: n + 1].copy()
    flat[..., :: n + 1] = -np.inf
    lse = logsumexp_rows(A)
    G = np.exp(A - lse[..., None])  # row-softmax over the negatives, zero at positives
    value = mean_rows(lse - weights * pos)
    G /= n * tau
    G.reshape(flat.shape)[..., :: n + 1] -= weights / (n * tau)
    return value, G @ pool, G.swapaxes(-1, -2) @ anchors


def both_directions(za, zb, tau, weights, gate=None, full_batch=True):
    """Za rows against Zb, then Zb rows against Za, as two kernel calls: both values
    and the gradients w.r.t. Za and Zb, each anchor's part added onto its pool's.
    The oracle, independent of ``losses.contrastive_terms``: without a gate each
    direction is ``ungated_decoupled``, with one ``losses._decoupled``."""
    if gate is None:
        direction = lambda a, b: ungated_decoupled(a, b, tau, weights)
    else:
        direction = lambda a, b: losses._decoupled(a, b, tau, weights, gate, full_batch)
    v1, ga, g_pool_b = direction(za, zb)
    v2, gb, g_pool_a = direction(zb, za)
    return v1, v2, g_pool_a + ga, g_pool_b + gb


def oracle_term(method, slot, f, lc, full_batch):
    """A stage-2 contrastive term on ``fields`` as the two-call oracle composes it."""
    if slot == "m":
        v1, v2, gzf, _ = both_directions(f["zf"], f["df"], lc.tau, 1.0)
        v3, v4, gzt, _ = both_directions(f["zt"], f["dt"], lc.tau, 1.0)
        return losses.LossOutput(v1 + v2 + v3 + v4, {"zf": gzf, "zt": gzt})
    gate = None if method == "typical_cl" else f["gate"]
    weighted = method not in ("typical_cl", "sum_l_no_weighting")
    w = losses.semantic_weights(f["df"], f["dt"], lc.sigma, gate) if weighted else 1.0
    v1, v2, gzf, gzt = both_directions(f["zf"], f["zt"], lc.tau, w, gate, full_batch)
    return losses.LossOutput(v1 + v2, {"zf": gzf, "zt": gzt})


def public_term(method, slot, f, lc, full_batch):
    """The same term as the public losses compute it."""
    if slot == "m":
        return losses.multimodal_loss(f["zf"], f["df"], f["zt"], f["dt"], lc.tau)
    if method == "typical_cl":
        return losses.alignment_loss_unweighted(f["zf"], f["zt"], lc.tau)
    if method == "sum_l_no_weighting":  # no public loss: the call stage 2 makes
        term = losses.Contrastive(losses.ALIGN, True)
        return losses.contrastive_terms([term], f, lc.tau, lc.sigma, full_batch)[0]
    return losses.weighted_alignment_loss_pooled(
        f["zf"], f["zt"], f["df"], f["dt"], f["gate"], full_batch, lc.tau, lc.sigma,
    )


def outputs_equal(a, b):
    return (np.array_equal(a.value, b.value) and a.grads.keys() == b.grads.keys()
            and all(np.array_equal(a.grads[k], b.grads[k]) for k in a.grads))


@pytest.mark.parametrize("replicas", [1, 5])
@pytest.mark.parametrize("full_batch", [False, True])
@pytest.mark.parametrize("method,weights", FUSED_CASES)
def test_fused_contrastive_terms_equal_the_public_losses_bitwise(rng, method, weights,
                                                                 full_batch, replicas):
    """Stage 2's one fused call, each term alone and the public losses all equal the
    two-call oracle, bit for bit."""
    n, d = 16, 32
    lc = LossConfig(tau=0.3, sigma=0.7, **weights)
    terms = [(slot, w, term) for slot, w, term in pipeline._stage2_terms(method, lc)
             if isinstance(term, losses.Contrastive)]
    assert terms  # each case has a contrastive term
    # gates of 0, 1, 2 and n rows: one replica each at S = 5, one batch each at S = 1
    row_counts = [0, 1, 2, n, 7] if replicas == 5 else [0, 1, 2, n]
    for batch_counts in ([row_counts] if replicas == 5 else [[k] for k in row_counts]):
        gate = np.zeros((replicas, n), dtype=bool)
        for r, k in enumerate(batch_counts):
            gate[r, rng.choice(n, size=k, replace=False)] = True
        zf, zt, df, dt = (unit_rows(rng, replicas * n, d).reshape(replicas, n, d)
                          for _ in range(4))
        fields = {"zf": zf, "zt": zt, "df": df, "dt": dt, "gate": gate}
        fused = losses.contrastive_terms([term for _, _, term in terms], fields, lc.tau,
                                         lc.sigma, full_batch)
        want = [oracle_term(method, slot, fields, lc, full_batch) for slot, _, _ in terms]
        assert len(fused) == len(want)
        for got, ref in zip(fused, want):
            assert outputs_equal(got, ref)
        weighted = lambda outs: losses.total_loss([(w, o) for (_, w, _), o in zip(terms, outs)])
        assert outputs_equal(weighted(fused), weighted(want))
        for (slot, _, term), ref in zip(terms, want):  # a term alone runs only its own
            alone, = losses.contrastive_terms([term], fields, lc.tau, lc.sigma, full_batch)
            assert outputs_equal(alone, ref)
            assert outputs_equal(public_term(method, slot, fields, lc, full_batch), ref)


@pytest.mark.parametrize("shape", [(2, 5), (6, 5), (3, 2, 5), (3, 6, 5)])
@pytest.mark.parametrize("tau", [0.3, 1e-3])
def test_public_ungated_losses_equal_the_plain_decoupled_formula_bitwise(rng, shape, tau):
    """``dcl_direction`` and ``weighted_alignment_loss`` run the kernel under an
    all-true gate; that equals ``ungated_decoupled`` bit for bit, on (N, d) and
    (S, N, d) batches, down to n = 2 and to negatives whose softmax underflows."""
    n, sigma = shape[-2], 0.7
    zf, zt = (unit_rows(rng, math.prod(shape[:-1]), shape[-1]).reshape(shape) for _ in range(2))
    df, dt = (unit_rows(rng, n, 4) for _ in range(2))
    if tau < 0.01 and n > 2:  # some negative's softmax weight is exactly zero
        A = np.where(np.eye(n, dtype=bool), -np.inf, zf @ zt.swapaxes(-1, -2) / tau)
        assert np.any(np.exp(A - A.max(axis=-1, keepdims=True))[..., ~np.eye(n, dtype=bool)] == 0)
    value, g1, g2 = ungated_decoupled(zf, zt, tau, 1.0)
    assert outputs_equal(losses.dcl_direction(zf, zt, tau),
                         losses.LossOutput(value, {"z1": g1, "z2": g2}))
    v1, v2, gzf, gzt = both_directions(zf, zt, tau, losses.semantic_weights(df, dt, sigma))
    assert outputs_equal(losses.weighted_alignment_loss(zf, zt, df, dt, tau, sigma),
                         losses.LossOutput(v1 + v2, {"zf": gzf, "zt": gzt}))


@pytest.mark.parametrize("method", METHODS)
def test_one_contrastive_kernel_call_per_stage2_batch(monkeypatch, method):
    cfg = replace(FAST, method=method)
    fpv, tpv = train_sets(cfg)
    stage1 = pretrain_tpv(cfg, WORLD, tpv)
    kernel_calls = count_calls(monkeypatch, losses, "_decoupled")
    joint_train(cfg, WORLD, fpv, tpv, stage1)
    stage2_batches = cfg.epochs_stage2 * (cfg.n_fpv_train // cfg.batch_size)
    contrastive = method not in ("fpv_only", "triplet")
    assert len(kernel_calls) == (stage2_batches if contrastive else 0)


def all_modes_grids() -> list:
    """(runs, cells) of every method x TPV mode at seeds 0 and 1, per negative-set mode."""
    return [run_ablation_grid(replace(GRID_TRAIN, negative_set_mode=mode), GRID_WORLD,
                              METHODS, TPV_MODES, [0, 1])
            for mode in NEGATIVE_SET_MODES]


@pytest.fixture(scope="module")
def one_worker_grids():
    with pytest.MonkeyPatch.context() as monkeypatch:
        one_worker(monkeypatch)
        return all_modes_grids()


@pytest.mark.parametrize("cpus", [None, 3], ids=["usable_cpus", "three"])
def test_forked_grid_equals_the_one_worker_grid_bitwise(monkeypatch, one_worker_grids, cpus):
    if cpus is not None:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    forks = count_calls(monkeypatch, os, "fork")
    assert all_modes_grids() == one_worker_grids  # every accuracy to the last bit
    cells = len(METHODS) * len(TPV_MODES)
    for _, rows in one_worker_grids:
        assert len(rows) == cells
        assert all(math.isfinite(r["mean_fpv_acc"]) and math.isfinite(r["std_fpv_acc"])
                   for r in rows)
    assert len(forks) == len(NEGATIVE_SET_MODES) * (min(cells, workers._usable_cpus()) - 1)
    assert_no_child_left()


GRID_SCRIPT = """
import json, os, sys
from dataclasses import replace
sys.path[:0] = sys.argv[1:]
from test_golden import GRID_TRAIN, GRID_WORLD
from suml.pipeline import METHODS, NEGATIVE_SET_MODES, TPV_MODES, run_ablation_grid

def no_fork():
    raise AssertionError("a grid on one CPU forked")

os.fork = no_fork
print(json.dumps([run_ablation_grid(replace(GRID_TRAIN, negative_set_mode=mode), GRID_WORLD,
                                    METHODS, TPV_MODES, [0, 1])
                  for mode in NEGATIVE_SET_MODES]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_grid_on_one_cpu_runs_in_one_process_bitwise(one_worker_grids):
    cpu = min(os.sched_getaffinity(0))
    package_root = os.path.dirname(os.path.dirname(pipeline.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", GRID_SCRIPT, package_root, os.path.dirname(__file__)],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert proc.returncode == 0, proc.stderr
    # JSON writes each float's repr, which reads back to the same bits
    assert json.loads(proc.stdout) == [list(grid) for grid in one_worker_grids]


@pytest.mark.parametrize("cpus,scorers", [(1, 0), (2, 2), (4, 2)])
def test_a_single_run_forks_one_scorer_per_scored_stage(monkeypatch, cpus, scorers):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    forks = count_calls(monkeypatch, os, "fork")
    assert run_experiment(FAST, WORLD).final_fpv_test_acc >= 0.0
    # one scorer per stage with test sets, none on one CPU, and every scorer reaped
    assert len(forks) == scorers
    assert_no_child_left()


def scorer_runs(tpv_modes, out_dir) -> list:
    """Per TPV mode: every artifact of a run written under ``out_dir``, by name."""
    runs = []
    for mode in tpv_modes:
        run_dir = os.path.join(out_dir, mode)
        run_experiment(replace(FAST, tpv_mode=mode), WORLD, out_dir=run_dir)
        runs.append({})
        for name in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, name)) as fh:
                runs[-1][name] = fh.read()
    return runs


SCORED_SCRIPT = """
import json, os, sys
sys.path[:0] = sys.argv[2:]
from test_pipeline import TPV_MODES, scorer_runs

def no_fork():
    raise AssertionError("a run on one CPU forked")

os.fork = no_fork
print(json.dumps(scorer_runs(TPV_MODES, sys.argv[1])))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_run_on_one_cpu_scores_inline_bitwise_as_the_scorer(monkeypatch, tmp_path):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    forks = count_calls(monkeypatch, os, "fork")
    forked = scorer_runs(TPV_MODES, str(tmp_path / "forked"))
    assert len(forks) == 2 * len(TPV_MODES) - 1  # same_init has no stage 1
    cpu = min(os.sched_getaffinity(0))
    package_root = os.path.dirname(os.path.dirname(pipeline.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", SCORED_SCRIPT, str(tmp_path / "inline"), package_root,
         os.path.dirname(__file__)],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert proc.returncode == 0, proc.stderr
    # every artifact, metrics.jsonl and the three checkpoints among them, byte for byte
    assert json.loads(proc.stdout) == forked


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_requests_cut_short_by_signals_still_score_bitwise(monkeypatch):
    # requests of about 100 KB outgrow a pipe's buffer, so the stage blocks in
    # its writes, and a timer signal every half millisecond cuts them short
    cfg = replace(FAST, hidden_dim=96, epochs_stage1=6, epochs_stage2=6)
    one_worker(monkeypatch)
    inline = run_experiment(cfg, WORLD)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    handler = signal.signal(signal.SIGALRM, lambda *_: None)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.0005, 0.0005)
        forked = run_experiment(cfg, WORLD)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert records_equal(forked.records, inline.records)
    assert_no_child_left()


def fail_in_training(monkeypatch, exc, at: int):
    """Make the ``at``-th loss of a run, counted over both stages, raise ``exc``."""
    total_loss, calls = losses.total_loss, []

    def failing(terms):
        calls.append(terms)
        if len(calls) == at:
            raise exc
        return total_loss(terms)

    monkeypatch.setattr(losses, "total_loss", failing)


# FAST trains 4 batches per stage-1 epoch and 3 per stage-2 epoch: loss 20 is
# stage 2's epoch 2, while the scorer holds epochs 0 and 1
@pytest.mark.parametrize("exc", [pipeline.DivergenceError("diverged in mid-stage"),
                                 KeyboardInterrupt("interrupted in mid-stage")],
                         ids=["divergence", "interrupt"])
def test_a_run_that_fails_in_mid_stage_leaves_no_scorer(monkeypatch, exc):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    fail_in_training(monkeypatch, exc, at=20)
    with pytest.raises(type(exc), match="in mid-stage"):
        run_experiment(FAST, WORLD)
    assert_no_child_left()


def fail_in_the_scorer(monkeypatch, end):
    """Make ``evaluate_fpv`` call ``end()`` in any process but this one."""
    parent, evaluate_fpv = os.getpid(), pipeline.evaluate_fpv

    def scored(stack, corpus):
        if os.getpid() != parent:
            end()
        return evaluate_fpv(stack, corpus)

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "evaluate_fpv", scored)


def test_a_scorer_killed_by_a_signal_is_a_worker_error(monkeypatch):
    fail_in_the_scorer(monkeypatch, lambda: os.kill(os.getpid(), 9))
    with pytest.raises(WorkerError, match="^the worker process scoring stage 1 ended without its "
                                          "result \\(killed by signal 9\\)$"):
        run_experiment(FAST, WORLD)
    assert_no_child_left()


def test_a_scoring_error_is_raised_as_inline(monkeypatch):
    def out_of_range():
        raise LabelOutOfRangeError("label 9 is outside the task head's 6 classes")

    fail_in_the_scorer(monkeypatch, out_of_range)
    with pytest.raises(LabelOutOfRangeError, match="^label 9 is outside the task head's 6 classes$"):
        run_experiment(FAST, WORLD)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_six_hundred_scored_epochs_on_tiny_sets_do_not_deadlock(monkeypatch):
    def deadlocked(*_):
        raise TimeoutError("600 scored epochs took over 60 s")

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    tiny = replace(FAST, epochs_stage1=300, epochs_stage2=300, n_fpv_train=2, n_tpv_train=2,
                   n_fpv_test=2, n_tpv_test=2, batch_size=2)
    handler = signal.signal(signal.SIGALRM, deadlocked)
    try:
        signal.setitimer(signal.ITIMER_REAL, 60)
        result = run_experiment(tiny, WORLD)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert len(result.records) == 600
    assert_no_child_left()


def map_three_workers(monkeypatch, fn) -> list:
    """``workers._map_forked`` of ``fn`` over items 0-5 with three workers: the
    parent runs items 0 and 3, one child 1 and 4, the other 2 and 5."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 3)
    return workers._map_forked(fn, list(range(6)), lambda i: f"training item {i}")


def test_map_forked_returns_results_in_item_order_past_a_pipe_buffer(monkeypatch):
    # 800 KiB per result: a child blocks on its pipe until the parent reads it
    got = map_three_workers(monkeypatch, lambda i: (os.getpid(), np.full(100_000, float(i))))
    assert [r.tolist() for _, r in got] == [[float(i)] * 100_000 for i in range(6)]
    pids = [pid for pid, _ in got]
    assert pids[0] == pids[3] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


def fail_at(*failing):
    """A cell function that raises at the items ``failing``."""
    def fn(i):
        if i in failing:
            raise ValueError(f"item {i} failed")
        return i
    return fn


@pytest.mark.parametrize("failing,raised", [((1, 2), 1), ((0, 1), 0), ((2, 3), 2), ((4,), 4),
                                            ((3, 5), 3)])
def test_map_forked_raises_the_lowest_failing_item(monkeypatch, failing, raised):
    with pytest.raises(ValueError, match=f"^item {raised} failed$"):
        map_three_workers(monkeypatch, fail_at(*failing))
    assert_no_child_left()


@pytest.mark.parametrize("end,how", [(lambda: os.kill(os.getpid(), 9), "killed by signal 9"),
                                     (lambda: os._exit(3), "exit status 3")],
                         ids=["signal", "exit"])
def test_a_child_that_ends_without_its_result_is_a_worker_error(monkeypatch, end, how):
    def fn(i):
        if i == 4:
            end()
        return i

    with pytest.raises(WorkerError, match=f"training item 4 ended without its result \\({how}\\)"):
        map_three_workers(monkeypatch, fn)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_a_failure_in_the_parents_share_kills_every_child(monkeypatch, exc):
    def fn(i):
        if i == 0:
            raise exc("the parent's item failed")
        time.sleep(60)  # the children's items: killed, not waited for

    start = time.monotonic()
    with pytest.raises(exc, match="the parent's item failed"):
        map_three_workers(monkeypatch, fn)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_child_never_unwinds_into_its_callers_frames(monkeypatch, tmp_path):
    unwound = tmp_path / "unwound"
    for fn in (lambda i: i, fail_at(1, 5)):
        try:
            map_three_workers(monkeypatch, fn)
        except ValueError:
            pass
        finally:
            with open(unwound, "a") as fh:
                fh.write(f"{os.getpid()}\n")
    assert unwound.read_text().split() == [str(os.getpid())] * 2


@pytest.mark.skipif(open_fds() is None, reason="needs /proc/self/fd")
@pytest.mark.parametrize("fn", [lambda i: i, fail_at(4)], ids=["success", "failure"])
def test_map_forked_leaves_no_file_descriptor_open(monkeypatch, fn):
    fds = open_fds()
    try:
        map_three_workers(monkeypatch, fn)
    except ValueError:
        pass
    assert open_fds() == fds  # every worker's request and reply pipes closed
    assert_no_child_left()


@pytest.mark.skipif(open_fds() is None, reason="needs /proc/self/fd")
def test_a_scored_run_leaves_no_file_descriptor_open(monkeypatch):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    fds = open_fds()
    run_experiment(FAST, WORLD)
    assert open_fds() == fds  # both scorers' pipes closed
    assert_no_child_left()


def test_a_worker_that_cannot_be_forked_is_a_worker_error(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    with pytest.raises(WorkerError, match="cannot start a worker process: .*unavailable"):
        map_three_workers(monkeypatch, lambda i: i)
    assert_no_child_left()


def test_a_scorer_that_cannot_be_forked_is_a_worker_error(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_process)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(WorkerError, match="cannot start a worker process: .*unavailable"):
        run_experiment(FAST, WORLD)
    assert fds is None or len(os.listdir("/proc/self/fd")) == fds  # both pipes closed
    assert_no_child_left()


def test_stacking_datasets_of_unequal_sizes_is_a_config_error():
    fpv, _ = train_sets(FAST)
    fewer, _ = train_sets(replace(FAST, n_fpv_train=FAST.n_fpv_train - 1))
    with pytest.raises(ConfigError, match="^the seeds' datasets of one view must have one size$"):
        stack_datasets([fpv, fewer])


def test_joint_train_needs_one_dataset_replica_per_seed():
    fpv, tpv = train_sets(FAST)
    with pytest.raises(ConfigError, match="^3 seeds need datasets of 3 replicas$"):
        joint_train(replace(FAST, tpv_mode="same_init"), WORLD, stack_datasets([fpv, fpv]),
                    stack_datasets([tpv, tpv]), None, seeds=[0, 1, 2])


def test_stage1_on_an_empty_set_is_a_config_error(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(ConfigError, match="^TPV dataset must be nonempty for stage 1$"):
        pretrain_tpv(FAST, WORLD, read_dataset(tmp_path / "empty.jsonl"))
