import csv
import json
import os

import pytest
from conftest import count_calls

from suml import pipeline
from suml.cli import main, parse_config
from suml.exceptions import ConfigParseError, ConfigValidationError
from suml.model import init_stack, save_checkpoint
from suml.pipeline import derive_seeds

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
    world, loss, train = parse_config(env={})
    assert train.loss is loss
    assert train.seed == 0
    world.validate()


def test_parse_config_file_and_overrides(config_file):
    world, loss, train = parse_config(
        config_file, overrides=["train.seed=7", "loss.theta=0.5", "world.n_nouns=5"],
        env={},
    )
    assert train.seed == 7
    assert loss.theta == 0.5
    assert world.n_nouns == 5
    assert train.epochs_stage2 == 3  # file value survives


def test_seed_env_var_below_set_precedence(config_file):
    _, _, train = parse_config(config_file, env={"SUML_SEED": "11"})
    assert train.seed == 11
    _, _, train = parse_config(
        config_file, overrides=["train.seed=5"], env={"SUML_SEED": "11"}
    )
    assert train.seed == 5


def test_parse_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    with pytest.raises(ConfigParseError) as err:
        parse_config(str(bad), env={})
    assert "train.learning_rate" in str(err.value)
    bad.write_text(json.dumps({"optimizer": {}}))
    with pytest.raises(ConfigParseError):
        parse_config(str(bad), env={})


def test_parse_config_rejects_invalid_values(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"loss": {"tau": -1.0}}))
    with pytest.raises(ConfigValidationError):
        parse_config(str(bad), env={})


def test_parse_config_rejects_bad_env_seed():
    with pytest.raises(ConfigValidationError):
        parse_config(env={"SUML_SEED": "eleven"})


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
    d1 = str(tmp_path / "a")
    d2 = str(tmp_path / "b")
    assert main(["train", "--config", config_file, "--out-dir", d1]) == 0
    assert main(["train", "--config", config_file, "--out-dir", d2]) == 0
    for name in ("metrics.jsonl", "checkpoint_fpv.json", "checkpoint_tpv.json"):
        with open(os.path.join(d1, name), "rb") as fa, open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_gradcheck_command_small():
    assert main(["gradcheck", "--instances", "3", "--model-instances", "1"]) == 0


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


def test_eval_rejects_feature_dim_mismatch(tmp_path, config_file, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", config_file, "--out-dir", str(run)]) == 0
    data = str(tmp_path / "wide.jsonl")
    _synth(config_file, data, "--set", "world.feat_dim=10")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint_fpv.json"),
                 "--dataset", data]) == 1
    assert "feature dim 10" in capsys.readouterr().err


def test_multimodal_proj_dim_mismatch_fails_before_training(tmp_path, config_file, capsys, monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", config_file, "--set", "train.proj_dim=8",
                 "--out-dir", str(out_dir)]) == 1
    assert "proj_dim" in capsys.readouterr().err
    assert stage1 == []
    assert not (out_dir / "metrics.jsonl").exists()
    # the same proj_dim is fine for a method without the multimodal term
    assert main(["train", "--config", config_file, "--set", "train.proj_dim=8",
                 "--set", "train.method=sum_l_no_multimodal",
                 "--out-dir", str(out_dir)]) == 0


def test_ablate_checks_every_cell_before_training(tmp_path, config_file, capsys, monkeypatch):
    stage1 = count_calls(monkeypatch, pipeline, "pretrain_tpv")
    out_dir = tmp_path / "grid"
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only,bogus",
                 "--tpv-modes", "trainable", "--seeds", "0,1",
                 "--out-dir", str(out_dir)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["ablate", "--config", config_file, "--methods", "fpv_only,sum_l",
                 "--set", "train.proj_dim=8", "--seeds", "0",
                 "--out-dir", str(out_dir)]) == 1
    assert "proj_dim" in capsys.readouterr().err
    assert stage1 == []
    assert not (out_dir / "runs.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("tpv_mode,stage", [("trainable", 1), ("same_init", 2)])
def test_diverging_train_fails_without_metrics(tmp_path, capsys, tpv_mode, stage):
    out_dir = tmp_path / "run"
    assert main(["train", "--set", "train.base_lr=1e6", "--set", f"train.tpv_mode={tpv_mode}",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"stage {stage} diverged at epoch" in err and "batch" in err
    assert not (out_dir / "metrics.jsonl").exists()


def test_stats_missing_pairs_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["stats", "--pairs", str(missing), "--out", str(tmp_path / "h.csv")]) == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("row", ["1,,0.3", "1,2,abc", "1,2"])
def test_stats_bad_pair_row_is_a_parse_error_naming_the_line(tmp_path, capsys, row):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"fpv_index,tpv_index,similarity\n0,1,0.5\n{row}\n")
    assert main(["stats", "--pairs", str(pairs), "--out", str(tmp_path / "h.csv")]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("edges", ["-1,x,1", "-1,nan,1"])
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
        # rejected by the cross-field check
        ["train.proj_dim=8"],
    ],
)
def test_failed_train_leaves_no_file(tmp_path, capsys, overrides):
    out_dir = tmp_path / "run"
    argv = ["train", "--out-dir", str(out_dir)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert list(out_dir.glob("*")) == []


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
    ],
    ids=["no_g", "no_view", "no_h_biases", "f_weights_not_a_list", "g_biases_not_a_list",
         "ragged_layer", "short_f_bias", "f_bias_count", "f_layers_do_not_chain",
         "h_does_not_chain_from_f", "g_does_not_chain_from_f"],
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
    assert "checkpoint" in capsys.readouterr().err
