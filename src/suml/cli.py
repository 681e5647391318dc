"""Command-line entry point: data synthesis, mining stats, training, evaluation,
gradient checks and ablation grids, driven by a JSON config file.

Config layout (all keys optional; unknown keys are rejected):

    {
      "world": { ... WorldSpec fields ... },
      "loss":  { ... LossConfig fields ... },
      "train": { ... TrainConfig fields (loss lives under "loss") ... }
    }

A value off the rule declared beside its field (:mod:`suml.schema`) is a
ConfigValidationError naming ``section.key``, raised before any work starts.
Dotted overrides (``--set loss.theta=0.8``) supersede file values; the
``SUML_SEED`` environment variable overrides ``train.seed`` with lower
precedence than ``--set``.  It, ``--sample-seed`` and ``--seeds`` follow the
rule of ``train.seed``, and ``world.seed`` is replaced by a seed derived from
``train.seed`` (``pipeline.build_world``).  Every command writes the effective config
alongside its outputs.  Outputs are written to temp files and renamed, and
``train``/``ablate`` write theirs only after the whole run succeeds, so a
failure leaves no partial result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from . import gradcheck, schema
from .atomic import output_dir, write_atomic
from .datagen import WorldSpec, read_dataset, sample_dataset, write_dataset
from .exceptions import (
    BadEdgesError,
    ConfigParseError,
    ConfigValidationError,
    DatasetIOError,
    DatasetParseError,
    SumlError,
)
from .losses import LossConfig
from .mining import (
    DEFAULT_BUCKET_EDGES,
    PseudoPair,
    mine_pseudo_pairs,
    similarity_histogram,
)
from .model import load_checkpoint
from .pipeline import (
    TrainConfig,
    build_world,
    derive_seeds,
    evaluate_fpv,
    run_ablation_grid,
    run_experiment,
)

SEED_ENV_VAR = "SUML_SEED"


def _build_section(cls, data: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ConfigParseError(f"unknown key {path}.{key}")
    return dataclasses.replace(cls(), **data)


def parse_config(path=None, overrides=(), env=None):
    """Load configs (file optional), apply SUML_SEED then dotted overrides."""
    env = os.environ if env is None else env
    data = {"world": {}, "loss": {}, "train": {}}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigParseError("config root must be a JSON object")
        for key, value in loaded.items():
            if key not in data:
                raise ConfigParseError(f"unknown key {key}")
            if not isinstance(value, dict):
                raise ConfigParseError(f"section {key} must be a JSON object")
            data[key].update(value)

    if SEED_ENV_VAR in env:
        data["train"]["seed"] = schema.parse(TrainConfig, "seed", env[SEED_ENV_VAR], SEED_ENV_VAR)

    for item in overrides:
        if "=" not in item:
            raise ConfigParseError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2 or parts[0] not in data:
            raise ConfigParseError(f"override key {dotted!r} must be section.key")
        section, key = parts
        cls = {"world": WorldSpec, "loss": LossConfig, "train": TrainConfig}[section]
        if key not in {f.name for f in dataclasses.fields(cls)} or key == "loss":
            raise ConfigParseError(f"unknown override key {dotted}")
        data[section][key] = schema.parse(cls, key, raw, dotted)

    world = _build_section(WorldSpec, data["world"], "world")
    loss = _build_section(LossConfig, data["loss"], "loss")
    if "loss" in data["train"]:
        raise ConfigParseError("train.loss belongs in the top-level loss section")
    train = _build_section(TrainConfig, data["train"], "train")
    train = dataclasses.replace(train, loss=loss)
    try:
        world.validate()
        train.validate()  # checks train.loss too
    except SumlError as exc:
        raise ConfigValidationError(str(exc)) from exc
    return world, loss, train


def effective_config_dict(world: WorldSpec, loss: LossConfig, train: TrainConfig) -> dict:
    train_dict = dataclasses.asdict(train)
    train_dict.pop("loss")
    return {
        "world": dataclasses.asdict(world),
        "loss": dataclasses.asdict(loss),
        "train": train_dict,
    }


def _write_effective_config(world, loss, train, target: str) -> None:
    text = json.dumps(effective_config_dict(world, loss, train), indent=2) + "\n"
    write_atomic(target, lambda fh: fh.write(text))


def _cmd_synth(args) -> int:
    world_spec, loss, train = parse_config(args.config, args.set)
    world = build_world(world_spec, train.seed)
    if args.sample_seed is None:
        seed = derive_seeds(train.seed)[f"{args.view}_train"]
    else:
        seed = schema.parse(TrainConfig, "seed", args.sample_seed, "--sample-seed")
    samples = sample_dataset(world, args.view, args.n, seed)
    write_dataset(samples, args.out)
    _write_effective_config(world_spec, loss, train, f"{args.out}.config.json")
    print(f"wrote {len(samples)} {args.view} samples to {args.out}")
    return 0


def _cmd_mine(args) -> int:
    fpv = read_dataset(args.fpv)
    tpv = read_dataset(args.tpv)
    pairs = mine_pseudo_pairs(fpv, tpv)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["fpv_index", "tpv_index", "similarity"])
        for p in pairs:
            writer.writerow([p.fpv_index, p.tpv_index, repr(p.similarity)])

    write_atomic(args.out, write)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _read_pairs_csv(path):
    pairs = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                for row in reader:
                    sim = float(row["similarity"])
                    if not abs(sim) <= 1.0 + 1e-12:  # rounding may pass +-1 by an ulp; NaN fails
                        raise ValueError(f"similarity {sim!r} is not a cosine")
                    pairs.append(
                        PseudoPair(
                            fpv_index=int(row["fpv_index"]),
                            tpv_index=int(row["tpv_index"]),
                            similarity=sim,
                        )
                    )
            except (KeyError, TypeError, ValueError, csv.Error) as exc:
                raise DatasetParseError(
                    f"{path} line {reader.line_num}: need numeric fpv_index, "
                    f"tpv_index and a similarity in [-1, 1] ({exc!r})"
                ) from exc
    except OSError as exc:
        raise DatasetIOError(f"cannot read pairs {path}: {exc}") from exc
    return pairs


def _parse_edges(text: str) -> tuple:
    try:
        edges = tuple(float(e) for e in text.split(","))
    except ValueError:
        edges = (math.nan,)
    if any(math.isnan(e) for e in edges):
        raise BadEdgesError(f"--edges must be comma-separated numbers, got {text!r}")
    return edges


def _cmd_stats(args) -> int:
    pairs = _read_pairs_csv(args.pairs)
    edges = DEFAULT_BUCKET_EDGES
    if args.edges:
        edges = _parse_edges(args.edges)
    hist = similarity_histogram(pairs, edges)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["bucket_low", "bucket_high", "count", "fraction"])
        for lo, hi, count, frac in zip(
            hist.bucket_edges, hist.bucket_edges[1:], hist.counts, hist.fractions
        ):
            writer.writerow([repr(lo), repr(hi), int(count), repr(float(frac))])

    write_atomic(args.out, write)
    print(f"wrote histogram ({len(hist.counts)} buckets) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    world, loss, train = parse_config(args.config, args.set)
    with output_dir(args.out_dir):  # a failed run leaves no directory it created
        result = run_experiment(train, world, out_dir=args.out_dir)
        config_path = os.path.join(args.out_dir, "effective_config.json")
        _write_effective_config(world, loss, train, config_path)
    print(
        f"method={train.method} tpv_mode={train.tpv_mode} seed={train.seed} "
        f"final_fpv_test_acc={result.final_fpv_test_acc:.4f} "
        f"final_tpv_test_acc={result.final_tpv_test_acc:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    stack, stage = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.dataset)
    acc = evaluate_fpv(stack, dataset)
    print(json.dumps({"stage": stage, "n": len(dataset), "accuracy": acc}))
    return 0


def _cmd_gradcheck(args) -> int:
    ok, report = gradcheck.run_all(
        n_loss_instances=args.instances, n_model_instances=args.model_instances
    )
    for name, err in report["losses"].items():
        status = "ok" if err <= report["loss_tolerance"] else "FAIL"
        print(f"{name:28s} max_rel_err={err:.3e}  [{status}]")
    mstatus = "ok" if report["composed_model"] <= report["model_tolerance"] else "FAIL"
    print(f"{'composed_model':28s} max_rel_err={report['composed_model']:.3e}  [{mstatus}]")
    pstatus = "ok" if report["normalization_projector"] <= gradcheck.PROJECTOR_TOL else "FAIL"
    print(
        f"{'normalization_projector':28s} max_abs={report['normalization_projector']:.3e}  [{pstatus}]"
    )
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_ablate(args) -> int:
    world, loss, train = parse_config(args.config, args.set)
    methods = args.methods.split(",")
    tpv_modes = args.tpv_modes.split(",")
    seeds = [schema.parse(TrainConfig, "seed", s, "--seeds") for s in args.seeds.split(",")]
    with output_dir(args.out_dir):
        _, cells = run_ablation_grid(train, world, methods, tpv_modes, seeds, out_dir=args.out_dir)
        config_path = os.path.join(args.out_dir, "effective_config.json")
        _write_effective_config(world, loss, train, config_path)
    for cell in cells:
        print(
            f"{cell['method']:22s} {cell['tpv_mode']:15s} "
            f"mean={cell['mean_fpv_acc']:.4f} std={cell['std_fpv_acc']:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suml",
        description="Unpaired multiview alignment experiments on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    p = sub.add_parser("synth", help="generate a synthetic dataset (JSONL)")
    add_config_args(p)
    p.add_argument("--view", choices=("fpv", "tpv"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample-seed", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("mine", help="mine pseudo-pairs between two datasets (CSV)")
    p.add_argument("--fpv", required=True)
    p.add_argument("--tpv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mine)

    p = sub.add_parser("stats", help="similarity histogram of a mined pair file (CSV)")
    p.add_argument("--pairs", required=True)
    p.add_argument("--edges", default=None, help="comma-separated bucket edges")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("train", help="full two-stage training run")
    add_config_args(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the gradient/invariant suite")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--model-instances", type=int, default=20)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="run a method x tpv_mode x seed grid")
    add_config_args(p)
    p.add_argument("--methods", default="fpv_only,sum_l")
    p.add_argument("--tpv-modes", default="trainable")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SumlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
