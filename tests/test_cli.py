import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest
from conftest import count_calls
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_golden import ARTIFACTS

from suml import pipeline, workers
from suml.cli import _read_pairs_csv, build_parser, main, parse_config
from suml.datagen import WorldSpec, generate_world, read_dataset, sample_dataset, write_dataset
from suml.exceptions import (
    ConfigParseError,
    ConfigValidationError,
    DatasetIOError,
    DatasetParseError,
    DivergenceError,
)
from suml.model import init_stack, load_checkpoint, save_checkpoint
from suml.losses import LossConfig
from suml.pipeline import TrainConfig, derive_seeds, effective_config, run_experiment

SMALL = {
    "world": {"n_verbs": 3, "n_nouns": 4, "text_dim": 16, "feat_dim": 12,
              "frames_per_clip": 2},
    "train": {"epochs_stage1": 2, "epochs_stage2": 3, "n_fpv_train": 16,
              "n_tpv_train": 24, "n_fpv_test": 24, "n_tpv_test": 16,
              "batch_size": 8, "hidden_dim": 12},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def test_parse_config_defaults_without_file():
    world, train = parse_config()
    assert train.loss == LossConfig()
    assert train.seed == 0
    assert world == WorldSpec()


def test_parse_config_file_and_overrides(config_file):
    world, train = parse_config(
        config_file, overrides=["train.seed=7", "loss.theta=0.5", "world.n_nouns=5"]
    )
    assert train.seed == 7
    assert train.loss.theta == 0.5
    assert world.n_nouns == 5
    assert train.epochs_stage2 == 3  # file value survives


def test_parse_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    with pytest.raises(ConfigParseError) as err:
        parse_config(str(bad))
    assert "train.learning_rate" in str(err.value)
    bad.write_text(json.dumps({"optimizer": {}}))
    with pytest.raises(ConfigParseError):
        parse_config(str(bad))


def test_parse_config_rejects_invalid_values(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"loss": {"tau": -1.0}}))
    with pytest.raises(ConfigValidationError):
        parse_config(str(bad))


# Every key a user can set, as (section, key, default): the effective-config document.
DOCUMENT = effective_config(WorldSpec(), TrainConfig())
CONFIG_FIELDS = [
    (section, key, default) for section, values in DOCUMENT.items()
    for key, default in values.items()
]


def _fits(default, value) -> bool:
    """Whether a JSON value has the type a field declares through its default."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    field=st.sampled_from(CONFIG_FIELDS),
    value=st.one_of(st.booleans(), st.integers(), st.floats(), st.text(), st.none()),
)
def test_wrong_typed_config_value_is_a_validation_error(tmp_path, field, value):
    section, key, default = field
    assume(not _fits(default, value))
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigValidationError, match=f"{section}.{key} must be"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "section,key,value",
    [("train", "epochs_stage1", "3"), ("train", "seed", "0"), ("train", "batch_size", True),
     ("train", "hidden_dim", 16.0), ("loss", "theta", "0.7"), ("world", "n_verbs", None)],
)
def test_train_rejects_wrong_typed_config_without_traceback(
    tmp_path, capsys, monkeypatch, section, key, value
):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({section: {key: value}}))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {section}.{key} must be" in err
    assert "Traceback" not in err
    assert stage1 == [] and not out_dir.exists()


def test_set_parses_by_the_declared_type(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"train": {"hidden_dim": 16, "base_lr": 1}}))
    _, train = parse_config(str(path))
    assert (train.hidden_dim, train.base_lr) == (16, 1)
    _, train = parse_config(str(path), overrides=["train.hidden_dim=8", "train.base_lr=0.1"])
    assert train.hidden_dim == 8
    assert train.base_lr == 0.1 and isinstance(train.base_lr, float)


# Every settable field, as (section, dataclass field); each carries a rule.
RULED_FIELDS = [
    (section, f)
    for section, cls in (("world", WorldSpec), ("loss", LossConfig), ("train", TrainConfig))
    for f in dataclasses.fields(cls)
    if f.name in DOCUMENT[section]
]


def _rule_breakers(f):
    """Values of the field's own type that break its rule."""
    r = f.metadata["rule"]
    if r.choices is not None:
        return st.text().filter(lambda s: s not in r.choices)
    kind = f.type
    breakers = [st.sampled_from([math.nan, math.inf, -math.inf])] if kind == "float" else []
    if r.lo is not None:
        breakers += [st.just(r.lo)] if r.lo_open else []
        breakers.append(st.floats(max_value=r.lo, exclude_max=True) if kind == "float"
                        else st.integers(max_value=r.lo - 1))
    if r.hi is not None:
        breakers += [st.just(r.hi)] if r.hi_open else []
        breakers.append(st.floats(min_value=r.hi, exclude_min=True) if kind == "float"
                        else st.integers(min_value=r.hi + 1))
    return st.one_of(breakers)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(RULED_FIELDS).flatmap(
    lambda sf: st.tuples(st.just(sf), _rule_breakers(sf[1]))))
def test_value_off_its_rule_fails_before_any_work(tmp_path, capsys, monkeypatch, case):
    (section, f), value = case
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    name = f"{section}.{f.name}"
    path = tmp_path / "off_rule.json"
    path.write_text(json.dumps({section: {f.name: value}}))
    override = f"{name}={value if isinstance(value, str) else repr(value)}"
    with pytest.raises(ConfigValidationError, match=f"^{name} must be"):
        parse_config(str(path))
    with pytest.raises(ConfigValidationError, match=f"^{name} must be"):
        parse_config(overrides=[override])
    out_dir = tmp_path / "run"
    for source in (["--config", str(path)], ["--set", override]):
        assert main(["train", *source, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and "Traceback" not in err
    assert stage1 == [] and not out_dir.exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["synth", "--set", "world.text_noise_std=nan", "--view", "fpv", "--n", "3"],
         "world.text_noise_std"),
        (["synth", "--sample-seed", "-1", "--view", "fpv", "--n", "3"], "--sample-seed"),
        (["train", "--set", "train.seed=-3"], "train.seed"),
        (["ablate", "--seeds", "-1"], "--seeds"),
        (["ablate", "--seeds", "0,x"], "--seeds"),
        (["ablate", "--seeds="], "--seeds"),
    ],
    ids=["synth_nan", "sample_seed", "set_seed", "ablate_negative", "ablate_not_an_int",
         "ablate_empty"],
)
def test_bad_value_exits_one_and_writes_nothing(tmp_path, capsys, argv, flag):
    target = tmp_path / "out"
    dest = ["--out", str(target)] if argv[0] == "synth" else ["--out-dir", str(target)]
    assert main([*argv, *dest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Each size needs at least 1 TiB, so numpy refuses it at allocation.
@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--set", "world.feat_dim=10000000000", "--view", "fpv", "--n", "3"],
        ["synth", "--set", "world.n_verbs=10000000000000000000000", "--view", "fpv", "--n", "3"],
        ["synth", "--view", "fpv", "--n", "10000000000"],
        ["train", "--set", "train.n_fpv_test=100000000000"],
        ["train", "--set", "train.hidden_dim=10000000000"],
    ],
    ids=["feat_dim", "n_verbs", "synth_n", "n_fpv_test", "hidden_dim"],
)
def test_size_numpy_cannot_allocate_exits_one_and_writes_nothing(tmp_path, capsys, argv):
    target = tmp_path / "out"
    dest = ["--out", str(target)] if argv[0] == "synth" else ["--out-dir", str(target)]
    assert main([*argv, *dest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no file, and no directory either


def test_gradcheck_with_no_instances_does_not_pass(capsys):
    assert main(["gradcheck", "--instances", "-2", "--model-instances", "0"]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error: ")


def test_synth_mine_stats_chain(tmp_path, config_file):
    fpv = str(tmp_path / "fpv.jsonl")
    tpv = str(tmp_path / "tpv.jsonl")
    pairs = str(tmp_path / "pairs.csv")
    hist = str(tmp_path / "hist.csv")
    assert main(["synth", "--config", config_file, "--view", "fpv",
                 "--n", "10", "--out", fpv]) == 0
    assert main(["synth", "--config", config_file, "--view", "tpv",
                 "--n", "15", "--out", tpv]) == 0
    assert os.path.exists(fpv + ".config.json")
    assert main(["mine", "--fpv", fpv, "--tpv", tpv, "--out", pairs]) == 0
    with open(pairs) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert set(rows[0]) == {"fpv_index", "tpv_index", "similarity"}
    assert main(["stats", "--pairs", pairs, "--out", hist]) == 0
    with open(hist) as fh:
        hrows = list(csv.DictReader(fh))
    assert set(hrows[0]) == {"bucket_low", "bucket_high", "count", "fraction"}
    assert sum(int(r["count"]) for r in hrows) == 10
    assert sum(float(r["fraction"]) for r in hrows) == pytest.approx(1.0)


def test_train_and_eval_commands(tmp_path, config_file):
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", config_file, "--out-dir", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "metrics.jsonl"))
    assert os.path.exists(os.path.join(out_dir, "effective_config.json"))
    with open(os.path.join(out_dir, "effective_config.json")) as fh:
        eff = json.load(fh)
    assert set(eff) == {"world", "loss", "train"}
    assert eff["train"]["epochs_stage2"] == 3

    test_set = str(tmp_path / "test.jsonl")
    assert main(["synth", "--config", config_file, "--view", "fpv",
                 "--n", "12", "--sample-seed", "99", "--out", test_set]) == 0
    assert main(["eval", "--checkpoint", os.path.join(out_dir, "checkpoint_fpv.json"),
                 "--dataset", test_set]) == 0


def test_cli_train_runs_are_bitwise_identical(tmp_path, config_file):
    """A second run from the first's effective config writes the same bytes."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", config_file, "--set", "train.seed=3",
                 "--set", "loss.theta=0.5", "--out-dir", str(a)]) == 0
    assert main(["train", "--config", str(a / "effective_config.json"), "--out-dir", str(b)]) == 0
    for name in (*ARTIFACTS, "effective_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gradcheck_command_small(capsys):
    assert main(["gradcheck", "--instances", "3", "--model-instances", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck: PASS"


def test_ablate_command(tmp_path, config_file):
    out_dir = str(tmp_path / "grid")
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only",
                 "--tpv-modes", "trainable", "--seeds", "0,1",
                 "--out-dir", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "summary.csv"))


def test_cli_reports_errors_with_exit_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"frobnicate": 1}}))
    assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 1
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,argv,message",
    [(None, [], "cannot read config"), ("[1, 2]", [], "config root must be a JSON object"),
     ('{"train": 3}', [], "section train must be a JSON object"),
     ("{}", ["--set", "train.seed"], "override 'train.seed' must look like section.key=value")],
    ids=["unreadable", "root_not_an_object", "section_not_an_object", "set_without_equals"],
)
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_config_that_cannot_be_parsed_exits_one_and_writes_nothing(tmp_path, capsys, config,
                                                                   argv, message, command):
    path = tmp_path / "config.json"
    if config is None:
        path.mkdir()  # a directory: open() fails
    else:
        path.write_text(config)
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path), *argv, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err and not out_dir.exists()


def test_synth_train_eval_round_trip_scores_the_same_world(tmp_path, capsys):
    test_set = str(tmp_path / "fpv_test.jsonl")
    run = tmp_path / "run"
    fpv_test_seed = str(derive_seeds(0)["fpv_test"])
    assert main(["synth", "--view", "fpv", "--n", "480", "--sample-seed", fpv_test_seed,
                 "--out", test_set]) == 0
    assert main(["train", "--out-dir", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint_fpv.json"),
                 "--dataset", test_set]) == 0
    acc = json.loads(capsys.readouterr().out)["accuracy"]
    summary = json.loads((run / "summary.json").read_text())
    assert acc == summary["final_fpv_test_acc"]


def _synth(config_file, path, *extra):
    assert main(["synth", "--config", config_file, "--view", "fpv", "--n", "4",
                 "--out", path, *extra]) == 0


@pytest.mark.parametrize("field", ["frames", "narration"])
def test_ragged_dataset_is_a_parse_error_naming_the_line(tmp_path, config_file, capsys, field):
    path = tmp_path / "ragged.jsonl"
    _synth(config_file, str(path))
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[field] = rec[field][:-1]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["mine", "--fpv", str(path), "--tpv", str(path),
                 "--out", str(tmp_path / "pairs.csv")]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and field in err
    assert not (tmp_path / "pairs.csv").exists()


def test_mine_rejects_zero_norm_narration(tmp_path, config_file, capsys):
    fpv, path = str(tmp_path / "fpv.jsonl"), tmp_path / "tpv.jsonl"
    _synth(config_file, fpv)
    _synth(config_file, str(path), "--view", "tpv")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["narration"] = [0.0] * len(rec["narration"])
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["mine", "--fpv", fpv, "--tpv", str(path),
                 "--out", str(tmp_path / "pairs.csv")]) == 1
    assert "zero-norm TPV narration" in capsys.readouterr().err
    assert not (tmp_path / "pairs.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scaled",
    [{"fpv": (1e200, 1)}, {"fpv": (1e155, None), "tpv": (1e155, None)}],
    ids=["one_fpv_norm", "norm_product"],
)
def test_mine_rejects_narrations_whose_norms_overflow(tmp_path, config_file, capsys, scaled):
    """Finite narrations (``read_dataset`` accepts them) scaled by ``scaled[view]``:
    (factor, how many records from the first, all when None)."""
    paths = {view: tmp_path / f"{view}.jsonl" for view in ("fpv", "tpv")}
    for view, path in paths.items():
        _synth(config_file, str(path), "--view", view)
    for view, (factor, rows) in scaled.items():
        lines = paths[view].read_text().splitlines()
        for k in range(len(lines) if rows is None else rows):
            rec = json.loads(lines[k])
            rec["narration"] = [factor * x for x in rec["narration"]]
            lines[k] = json.dumps(rec)
        paths[view].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    pairs = tmp_path / "pairs.csv"
    assert main(["mine", "--fpv", str(paths["fpv"]), "--tpv", str(paths["tpv"]),
                 "--out", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: narration norms overflow float64") and err.count("\n") == 1
    assert "Traceback" not in err and not pairs.exists()


def test_mine_rejects_swapped_views(tmp_path, config_file, capsys):
    fpv, tpv = str(tmp_path / "fpv.jsonl"), str(tmp_path / "tpv.jsonl")
    _synth(config_file, fpv)
    _synth(config_file, tpv, "--view", "tpv")
    capsys.readouterr()
    assert main(["mine", "--fpv", tpv, "--tpv", fpv, "--out", str(tmp_path / "pairs.csv")]) == 1
    err = capsys.readouterr().err
    assert "the FPV corpus holds tpv clips" in err and "Traceback" not in err
    assert not (tmp_path / "pairs.csv").exists()


def test_eval_rejects_feature_dim_mismatch(tmp_path, config_file, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", config_file, "--out-dir", str(run)]) == 0
    data = str(tmp_path / "wide.jsonl")
    _synth(config_file, data, "--set", "world.feat_dim=10")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint_fpv.json"),
                 "--dataset", data]) == 1
    assert "feature dim 10" in capsys.readouterr().err


def test_eval_rejects_labels_the_task_head_cannot_predict(tmp_path, config_file, capsys):
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(init_stack(12, 12, 16, seed=0), ckpt, "stage2_fpv")  # SMALL: 3 x 4 actions
    data = str(tmp_path / "more_nouns.jsonl")
    assert main(["synth", "--config", config_file, "--set", "world.n_nouns=8", "--view", "fpv",
                 "--n", "40", "--out", data]) == 0
    top = int(read_dataset(data).labels.max())
    assert top >= 12
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--dataset", data]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"label {top} is outside the task head's 12 classes" in err


@pytest.mark.parametrize("stage,view,data_view", [("stage2_fpv", "fpv", "tpv"),
                                                  ("stage1_tpv", "tpv", "fpv")])
def test_eval_rejects_a_dataset_of_the_other_view(tmp_path, config_file, capsys, stage, view,
                                                  data_view):
    ckpt, data = str(tmp_path / "ckpt.json"), str(tmp_path / f"{data_view}.jsonl")
    save_checkpoint(init_stack(12, 12, 16, seed=0, hidden_dim=12, view=view), ckpt, stage)
    _synth(config_file, data, "--view", data_view)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--dataset", data]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"{stage} checkpoint encodes {view} clips, the dataset holds {data_view} clips" in err


def test_eval_scores_a_shared_weights_fpv_checkpoint_on_fpv_clips(tmp_path, config_file, capsys):
    """Under shared weights the FPV stack is the TPV stack; its FPV checkpoint still
    records the FPV view it was trained and scored on."""
    run, data = tmp_path / "run", str(tmp_path / "fpv.jsonl")
    assert main(["train", "--config", config_file, "--set", "train.tpv_mode=shared_weights",
                 "--out-dir", str(run)]) == 0
    assert load_checkpoint(str(run / "checkpoint_fpv.json"))[0].view == "fpv"
    assert load_checkpoint(str(run / "checkpoint_tpv.json"))[0].view == "tpv"
    _synth(config_file, data)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint_fpv.json"),
                 "--dataset", data]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["accuracy"] <= 1.0


@pytest.mark.parametrize("source", ["file", "set"])
@pytest.mark.parametrize("key", ["world.seed", "train.proj_dim", "train.loss"])
def test_key_outside_the_effective_config_exits_one_naming_it(tmp_path, capsys, source, key):
    """The world seed derives from train.seed, stacks project to world.text_dim and
    the loss has its own section, so none of these is a key."""
    section, name = key.split(".")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {name: 8}}))
    flags = ["--config", str(path)] if source == "file" else ["--set", f"{key}=8"]
    out_dir = tmp_path / "run"
    assert main(["train", *flags, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {key}") and "Traceback" not in err
    assert not out_dir.exists()


# One value per settable key that differs from the tiny run's own.
ALTERNATIVES = {
    "world.n_verbs": 4, "world.n_nouns": 5, "world.text_dim": 12, "world.feat_dim": 10,
    "world.frames_per_clip": 3, "world.text_noise_std": 0.3, "world.feat_noise_std": 0.4,
    "world.noun_overlap_fraction": 0.5,
    "loss.tau": 0.3, "loss.sigma": 0.5, "loss.theta": 0.2, "loss.w_t": 0.5, "loss.w_aw": 0.5,
    "loss.w_m": 0.5, "loss.triplet_margin": 0.5,
    "train.method": "typical_cl", "train.batch_size": 4, "train.epochs_stage1": 2,
    "train.epochs_stage2": 2, "train.base_lr": 0.1, "train.momentum": 0.5, "train.seed": 1,
    "train.tpv_mode": "frozen", "train.negative_set_mode": "full_batch",
    "train.n_fpv_train": 12, "train.n_tpv_train": 20, "train.n_fpv_test": 20,
    "train.n_tpv_test": 9, "train.hidden_dim": 8,
}
TINY_RUN = {**SMALL, "train": {**SMALL["train"], "epochs_stage1": 1, "epochs_stage2": 1}}


def _run_bytes(config_path, out_dir, overrides) -> bytes:
    world, train = parse_config(config_path, overrides)
    run_experiment(train, world, out_dir=str(out_dir))
    return b"".join((out_dir / name).read_bytes() for name in ARTIFACTS)


def test_the_alternatives_cover_every_settable_key():
    assert set(ALTERNATIVES) == {f"{s}.{k}" for s, values in DOCUMENT.items() for k in values}


@pytest.mark.parametrize("key", sorted(ALTERNATIVES))
def test_every_settable_key_changes_the_run(tmp_path, key):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_RUN))
    base = ["train.method=triplet"] if key == "loss.triplet_margin" else []
    override = f"{key}={ALTERNATIVES[key]}"
    assert _run_bytes(str(path), tmp_path / "a", base) != _run_bytes(
        str(path), tmp_path / "b", [*base, override])


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_stage2_without_a_batch_exits_one_before_any_work(tmp_path, capsys, monkeypatch, command):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    out_dir = tmp_path / "d"
    assert main([command, "--set", "train.n_fpv_train=1", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_fpv_train must be at least 2" in err
    assert "Traceback" not in err
    assert stage1 == [] and not out_dir.exists()


def test_ablate_checks_every_cell_before_training(tmp_path, config_file, capsys, monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    out_dir = tmp_path / "grid"
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only,bogus",
                 "--tpv-modes", "trainable", "--seeds", "0,1",
                 "--out-dir", str(out_dir)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["ablate", "--config", config_file, "--tpv-modes", "trainable,molten",
                 "--seeds", "0", "--out-dir", str(out_dir)]) == 1
    assert "molten" in capsys.readouterr().err
    assert main(["ablate", "--config", config_file, "--seeds", "0,0",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "distinct seeds, got [0, 0]" in err and "Traceback" not in err
    assert stage1 == []
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("tpv_mode,stage", [("trainable", 1), ("same_init", 2)])
def test_diverging_train_fails_without_metrics(tmp_path, capsys, tpv_mode, stage):
    out_dir = tmp_path / "run"
    assert main(["train", "--set", "train.base_lr=1e6", "--set", f"train.tpv_mode={tpv_mode}",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"seed 0: stage {stage} diverged at epoch" in err and "batch" in err
    assert not (out_dir / "metrics.jsonl").exists()


def test_stats_missing_pairs_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["stats", "--pairs", str(missing), "--out", str(tmp_path / "h.csv")]) == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def _cli_inputs(tmp_path, config_file):
    """A valid FPV dataset and checkpoint, as paths keyed for ``str.format``."""
    fpv, ckpt = str(tmp_path / "fpv.jsonl"), str(tmp_path / "ckpt.json")
    _synth(config_file, fpv)
    save_checkpoint(init_stack(12, 12, 16, seed=0, hidden_dim=12), ckpt, "stage2_fpv")
    return {"fpv": fpv, "ckpt": ckpt, "out": str(tmp_path / "out")}


def _fails_with_one_error_line(tmp_path, capsys, argv, paths):
    """Run ``argv`` (formatted with ``paths``): exit 1, one ``error:`` line on
    stderr and nothing else, and no new file.  Returns the error line."""
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before
    return err


# Per command, (a success and what its stdout holds, a typed rejection), run in a
# fresh process; ``{out}`` is the path the command writes.
FRESH_PROCESS_CASES = {
    "synth": ((["synth", "--view", "fpv", "--n", "3", "--out", "{out}"], "wrote 3 fpv samples"),
              ["synth", "--set", "world.text_noise_std=nan", "--view", "fpv", "--n", "3",
               "--out", "{out}"]),
    "mine": ((["mine", "--fpv", "{fpv}", "--tpv", "{tpv}", "--out", "{out}"], "wrote 4 pairs"),
             ["mine", "--fpv", "{tpv}", "--tpv", "{fpv}", "--out", "{out}"]),
    "stats": ((["stats", "--pairs", "{pairs}", "--out", "{out}"], "wrote histogram"),
              ["stats", "--pairs", "{nan_pairs}", "--out", "{out}"]),
    "train": ((["train", "--config", "{config}", "--out-dir", "{out}"], "final_fpv_test_acc="),
              ["train", "--config", "{config}", "--set", "world.seed=5", "--out-dir", "{out}"]),
    "eval": ((["eval", "--checkpoint", "{ckpt}", "--dataset", "{fpv}"], '"accuracy": '),
             ["eval", "--checkpoint", "{ckpt}", "--dataset", "{tpv}"]),
    "gradcheck": ((["gradcheck", "--instances", "1", "--model-instances", "1"],
                   "\ngradcheck: PASS\n"),
                  ["gradcheck", "--instances", "0", "--model-instances", "1"]),
    "ablate": ((["ablate", "--config", "{config}", "--methods", "fpv_only", "--seeds", "0",
                 "--out-dir", "{out}"], "fpv_only"),
               ["ablate", "--config", "{config}", "--seeds", "0,0", "--out-dir", "{out}"]),
}


def test_the_fresh_process_cases_cover_every_command():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(FRESH_PROCESS_CASES) == set(commands)


@pytest.mark.parametrize("outcome", ["success", "rejection"])
@pytest.mark.parametrize("command", sorted(FRESH_PROCESS_CASES))
def test_a_command_in_a_fresh_process(tmp_path, config_file, command, outcome):
    """``python -m suml.cli``, as a shell runs it, with numpy RuntimeWarnings as errors:
    a success exits 0 and writes its output; a rejection exits 1 with one ``error:``
    line, no traceback and no file written."""
    paths = _cli_inputs(tmp_path, config_file)
    paths["tpv"] = str(tmp_path / "tpv.jsonl")
    _synth(config_file, paths["tpv"], "--view", "tpv")
    paths["pairs"], paths["nan_pairs"] = str(tmp_path / "pairs.csv"), str(tmp_path / "nan.csv")
    (tmp_path / "pairs.csv").write_text("fpv_index,tpv_index,similarity\n0,1,0.5\n1,0,0.9\n")
    (tmp_path / "nan.csv").write_text("fpv_index,tpv_index,similarity\n0,1,nan\n1,0,0.5\n")
    paths["config"] = config_file
    (argv, stdout), rejected = FRESH_PROCESS_CASES[command]
    if outcome == "rejection":
        argv = rejected
    package_root = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    before = sorted(tmp_path.iterdir())
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "suml.cli",
         *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert "Traceback" not in proc.stderr
    if outcome == "success":
        assert (proc.returncode, proc.stderr) == (0, "")
        assert stdout in proc.stdout
        assert "{out}" not in argv or os.path.exists(paths["out"])
    else:
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--fpv", "{bad}", "--tpv", "{fpv}", "--out", "{out}"],
        ["stats", "--pairs", "{bad}", "--out", "{out}"],
        ["eval", "--checkpoint", "{ckpt}", "--dataset", "{bad}"],
        ["eval", "--checkpoint", "{bad}", "--dataset", "{fpv}"],
        ["train", "--config", "{bad}", "--out-dir", "{out}"],
    ],
    ids=["mine_fpv", "stats_pairs", "eval_dataset", "eval_checkpoint", "train_config"],
)
def test_non_utf8_input_is_an_error_naming_the_file(tmp_path, config_file, capsys, argv):
    paths = _cli_inputs(tmp_path, config_file)
    paths["bad"] = str(tmp_path / "utf16.bin")
    (tmp_path / "utf16.bin").write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
    err = _fails_with_one_error_line(tmp_path, capsys, argv, paths)
    assert paths["bad"] in err and "UTF-8" in err and "line 0" not in err


@pytest.mark.parametrize("text", ["", "\n \n"], ids=["zero_bytes", "blank_lines"])
@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval", "--checkpoint", "{ckpt}", "--dataset", "{empty}"],
         "evaluation dataset is empty"),
        (["mine", "--fpv", "{empty}", "--tpv", "{fpv}", "--out", "{out}"],
         "both corpora must be nonempty"),
    ],
    ids=["eval", "mine"],
)
def test_dataset_without_records_is_an_empty_set_error(tmp_path, config_file, capsys, argv,
                                                       message, text):
    paths = _cli_inputs(tmp_path, config_file)
    paths["empty"] = str(tmp_path / "empty.jsonl")
    (tmp_path / "empty.jsonl").write_text(text)
    assert message in _fails_with_one_error_line(tmp_path, capsys, argv, paths)


@pytest.mark.parametrize("text", ["", "fpv_index,tpv_index,similarity\n"],
                         ids=["zero_bytes", "header_only"])
def test_stats_pairs_file_without_pairs_is_an_error_naming_it(tmp_path, capsys, text):
    paths = {"pairs": str(tmp_path / "pairs.csv"), "out": str(tmp_path / "h.csv")}
    (tmp_path / "pairs.csv").write_text(text)
    argv = ["stats", "--pairs", "{pairs}", "--out", "{out}"]
    assert paths["pairs"] in _fails_with_one_error_line(tmp_path, capsys, argv, paths)


@pytest.mark.parametrize("row", ["1,,0.3", "1,2,abc", "1,2"])
def test_stats_bad_pair_row_is_a_parse_error_naming_the_line(tmp_path, capsys, row):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"fpv_index,tpv_index,similarity\n0,1,0.5\n{row}\n")
    assert main(["stats", "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("sim", ["nan", "inf", "-inf", "5.0", "-1.5", "1.000001"])
def test_stats_similarity_outside_cosine_range_is_a_parse_error(tmp_path, capsys, sim):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"fpv_index,tpv_index,similarity\n1,0,0.5\n0,1,{sim}\n")
    assert main(["stats", "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and "Traceback" not in err
    assert not (tmp_path / "h.csv").exists()


def test_stats_counts_a_cosine_one_ulp_past_one_in_the_top_bucket(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("fpv_index,tpv_index,similarity\n0,1,1.0000000000000002\n1,0,0.5\n")
    hist = tmp_path / "h.csv"
    assert main(["stats", "--pairs", str(pairs), "--out", str(hist)]) == 0
    rows = list(csv.DictReader(hist.read_text().splitlines()))
    assert float(rows[-1]["count"]) == 1 and float(rows[-1]["bucket_high"]) == 1.0
    assert sum(int(r["count"]) for r in rows) == 2


@pytest.mark.parametrize("edges", ["-1,x,1", "-1,nan,1", "", "-1,0,nan"])
def test_stats_non_numeric_edges_are_rejected(tmp_path, capsys, edges):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("fpv_index,tpv_index,similarity\n0,1,0.5\n")
    assert main(["stats", "--pairs", str(pairs), f"--edges={edges}",
                 "--out", str(tmp_path / "h.csv")]) == 1
    assert "--edges" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "overrides",
    [
        # stage 1 succeeds, stage 2 diverges
        ["train.base_lr=30", "train.epochs_stage1=2"],
        # rejected by the cross-field rule when the config is built
        ["train.n_fpv_train=1"],
    ],
)
def test_failed_train_leaves_no_file(tmp_path, capsys, overrides):
    out_dir = tmp_path / "run"
    argv = ["train", "--out-dir", str(out_dir)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverging_ablate_names_the_seed_and_leaves_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "grids" / "lr30"
    assert main(["ablate", "--set", "train.base_lr=30", "--set", "train.epochs_stage1=2",
                 "--seeds", "0,1", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    line = next(line for line in err.splitlines() if line.startswith("error:"))
    assert "seed" in line and "stage 2 diverged at epoch" in line
    assert "Traceback" not in err
    assert not (tmp_path / "grids").exists()


@pytest.mark.parametrize("argv,blocked", [(["train"], "summary.json"),
                                          (["ablate", "--seeds", "0"], "summary.csv")],
                         ids=["train", "ablate"])
def test_a_failed_last_write_leaves_no_file_in_an_existing_out_dir(tmp_path, config_file,
                                                                   capsys, argv, blocked):
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)  # the last rename fails, after every file is filled
    assert main([*argv, "--config", config_file, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_dir / blocked}") and err.count("\n") == 1
    assert [p.name for p in out_dir.iterdir()] == [blocked]


def test_synth_that_cannot_write_its_config_leaves_no_dataset(tmp_path, config_file, capsys):
    # the dataset's temp file name just fits the file system, its config's does not
    out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".tmp")))
    before = sorted(tmp_path.iterdir())
    assert main(["synth", "--config", config_file, "--view", "fpv", "--n", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}.config.json") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_divergence_in_a_forked_cell_exits_one_and_leaves_no_process(tmp_path, capsys,
                                                                     monkeypatch, config_file):
    # stage 1 here beside fpv_only in a child, which reads no stage-1 stack; then sum_l here
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    parent, joint_train = os.getpid(), pipeline.joint_train

    def diverge_in_a_child(cfg, *args):
        if os.getpid() != parent:
            raise DivergenceError(f"seed 0: stage 2 diverged in the {cfg.method} child")
        return joint_train(cfg, *args)

    monkeypatch.setattr(pipeline, "joint_train", diverge_in_a_child)  # the fork inherits it
    out_dir = tmp_path / "grid"
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only,sum_l",
                 "--seeds", "0,1", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed 0: stage 2 diverged in the fpv_only child\n"
    assert not out_dir.exists()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_unusable_out_dir_is_an_io_error(tmp_path, config_file, capsys, monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["train", "--config", config_file, "--out-dir", str(afile)]) == 1
    assert "cannot create output directory" in capsys.readouterr().err
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only",
                 "--tpv-modes", "trainable", "--seeds", "0",
                 "--out-dir", str(afile / "sub")]) == 1
    assert "cannot create output directory" in capsys.readouterr().err
    assert stage1 == []


def _drop_last_column(layers, key, index):
    layers[key][index] = [row[:-1] for row in layers[key][index]]


@pytest.mark.parametrize(
    "damage",
    [
        lambda doc: doc.pop("g"),
        lambda doc: doc.pop("view"),
        lambda doc: doc["h"].pop("biases"),
        lambda doc: doc["f"].update(weights=3.0),
        lambda doc: doc["g"].update(biases={"0": [0.0]}),
        lambda doc: doc["f"].update(weights=[[[1.0, 2.0], [3.0]]]),
        lambda doc: doc["f"]["biases"][0].pop(),
        lambda doc: doc["f"]["biases"].pop(),
        lambda doc: _drop_last_column(doc["f"], "weights", 1),
        lambda doc: _drop_last_column(doc["h"], "weights", 0),
        lambda doc: _drop_last_column(doc["g"], "weights", 0),
        lambda doc: doc["f"].update(weights=[[[10**400]]]),
        lambda doc: doc["f"]["weights"][0][0].__setitem__(0, math.nan),
        lambda doc: doc.update(frozen="false"),
        lambda doc: doc.update(frozen=0),
        lambda doc: doc.update(view="side"),
        lambda doc: doc.update(stage={"name": "stage2_fpv"}),
    ],
    ids=["no_g", "no_view", "no_h_biases", "f_weights_not_a_list", "g_biases_not_a_list",
         "ragged_layer", "short_f_bias", "f_bias_count", "f_layers_do_not_chain",
         "h_does_not_chain_from_f", "g_does_not_chain_from_f", "weight_past_float_range",
         "nan_f_weight", "frozen_is_a_string", "frozen_is_a_number", "unknown_view",
         "stage_is_not_a_string"],
)
def test_eval_rejects_malformed_checkpoints(tmp_path, config_file, capsys, damage):
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(init_stack(12, 12, 16, seed=0, hidden_dim=12), str(ckpt), "stage2_fpv")
    data = str(tmp_path / "fpv.jsonl")
    _synth(config_file, data)
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", data]) == 0
    doc = json.loads(ckpt.read_text())
    damage(doc)
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "checkpoint" in err
    assert "Traceback" not in err


# integers reach past the float range, where numpy's float conversion overflows
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _replace_jsonl_field(tmp_path, pick, value):
    path = tmp_path / "fuzzed.jsonl"
    world = generate_world(WorldSpec(**SMALL["world"]))
    write_dataset(sample_dataset(world, "fpv", 3, 0), str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    rec = records[pick(st.integers(0, len(records) - 1))]
    rec[pick(st.sampled_from(sorted(rec)))] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return lambda: read_dataset(str(path))


def _replace_pairs_cell(tmp_path, pick, value):
    rows = [["fpv_index", "tpv_index", "similarity"], ["0", "1", "0.5"], ["1", "0", "-0.25"]]
    rows[pick(st.integers(1, 2))][pick(st.integers(0, 2))] = json.dumps(value)
    path = tmp_path / "fuzzed.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return lambda: _read_pairs_csv(str(path))


def _replace_checkpoint_field(tmp_path, pick, value):
    ckpt = tmp_path / "fuzzed_ckpt.json"
    save_checkpoint(init_stack(3, 4, 2, seed=0, hidden_dim=3), str(ckpt), "stage2_fpv")
    doc = json.loads(ckpt.read_text())
    owner = pick(st.sampled_from([doc, doc["f"], doc["h"], doc["g"]]))
    owner[pick(st.sampled_from(sorted(owner)))] = value
    ckpt.write_text(json.dumps(doc))
    return lambda: load_checkpoint(str(ckpt))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz=st.sampled_from([_replace_jsonl_field, _replace_pairs_cell,
                             _replace_checkpoint_field]),
       value=JSON_VALUES, data=st.data())
def test_one_replaced_field_is_read_or_a_dataset_error(tmp_path, fuzz, value, data):
    read = fuzz(tmp_path, data.draw, value)
    try:
        read()
    except (DatasetParseError, DatasetIOError):
        pass


@pytest.mark.parametrize(
    "field,value,named",
    [("action_id", v, "action_id") for v in ("x", None, [1], 2.7, True, -1, 10**30, 1e308)]
    + [("verb_id", "3", "verb_id"), ("noun_id", False, "noun_id"),
       ("frames", [[10**400]], "bad array field")],
)
def test_mine_rejects_a_bad_field_naming_line_and_field(
    tmp_path, config_file, capsys, field, value, named
):
    path = tmp_path / "fpv.jsonl"
    _synth(config_file, str(path))
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["mine", "--fpv", str(path), "--tpv", str(path),
                 "--out", str(tmp_path / "pairs.csv")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "pairs.csv").exists()


def _dataset_line_replaced(tmp_path, config_file, name, edit):
    """A synthesized FPV dataset ``name`` whose second line is ``edit(line)``."""
    path = tmp_path / name
    _synth(config_file, str(path))
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1])
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _nan_first_frame(line):
    rec = json.loads(line)
    rec["frames"][0][0] = math.nan
    return json.dumps(rec)  # the frame as the JSON token NaN, which json.loads reads


def _without_narration(line):
    rec = json.loads(line)
    del rec["narration"]
    return json.dumps(rec)


@pytest.mark.parametrize(
    "argv,edit,message",
    [
        (["mine", "--fpv", "{bad}", "--tpv", "{fpv}", "--out", "{out}"], lambda line: "[1, 2]",
         "line 2: record must be a JSON object"),
        (["eval", "--checkpoint", "{ckpt}", "--dataset", "{bad}"], _without_narration,
         "line 2: missing field 'narration'"),
        (["mine", "--fpv", "{fpv}", "--tpv", "{bad}", "--out", "{out}"], _nan_first_frame,
         "line 2: non-finite values"),
        (["eval", "--checkpoint", "{ckpt}", "--dataset", "{missing}"], None,
         "cannot read {missing}"),
        (["eval", "--checkpoint", "{missing}", "--dataset", "{fpv}"], None,
         "cannot read checkpoint {missing}"),
        (["synth", "--set", "world.n_verbs=1", "--set", "world.n_nouns=1", "--view", "fpv",
          "--n", "3", "--out", "{out}"], None, "need n_verbs*n_nouns >= 2"),
    ],
    ids=["record_not_an_object", "missing_field", "non_finite", "unreadable_dataset",
         "unreadable_checkpoint", "one_action_world"],
)
def test_dataset_checkpoint_and_world_errors_exit_one_and_write_nothing(
    tmp_path, config_file, capsys, argv, edit, message
):
    paths = _cli_inputs(tmp_path, config_file)
    paths["missing"] = str(tmp_path / "missing.json")
    if edit is not None:
        paths["bad"] = _dataset_line_replaced(tmp_path, config_file, "bad.jsonl", edit)
    err = _fails_with_one_error_line(tmp_path, capsys, argv, paths)
    assert message.format(**paths) in err
