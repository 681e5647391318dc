"""Command-line entry point: data synthesis, mining stats, training, evaluation,
gradient checks and ablation grids, driven by a JSON config file.

The keys a config file and ``--set`` accept are exactly those of the
effective-config document (``pipeline.effective_config``); all are optional
and any other key is rejected:

    {
      "world": { ... WorldSpec fields but seed, derived from train.seed ... },
      "loss":  { ... LossConfig fields ... },
      "train": { ... TrainConfig fields (loss lives under "loss") ... }
    }

Dotted overrides (``--set loss.theta=0.8``) supersede file values, which
supersede the defaults.  Each config checks its rules when it is built, so a
value off its rule (:mod:`suml.schema`) is a ConfigValidationError naming
``section.key``, raised before any work starts; ``--sample-seed`` and
``--seeds`` follow the rule of ``train.seed``.  Outputs are written to temp
files and renamed.  ``train`` and ``ablate`` parse the config, call the
pipeline and print its result: the pipeline writes every artifact, the
effective config among them, only after the whole run succeeds, so a failure
leaves no partial result.  ``synth`` writes the effective config beside its
dataset.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import gradcheck, schema
from .atomic import dump_csv, write_files
from .datagen import WorldSpec, dump_dataset, read_dataset, sample_dataset
from .exceptions import (
    BadEdgesError,
    ConfigParseError,
    DatasetIOError,
    DatasetParseError,
    InvalidViewError,
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
    dump_effective_config,
    effective_config,
    evaluate_fpv,
    run_ablation_grid,
    run_experiment,
)

_SECTIONS = {"world": WorldSpec, "loss": LossConfig, "train": TrainConfig}


def parse_config(path=None, overrides=()):
    """The configs of the effective-config document: defaults, then the file's
    values (file optional), then dotted overrides.

    Returns ``(world, train)``; the loss section is ``train.loss``.
    """
    data = effective_config(WorldSpec(), TrainConfig())

    def settable(dotted):
        section, _, key = dotted.partition(".")
        if key not in data.get(section, ()):
            raise ConfigParseError(f"unknown key {dotted}")
        return section, key

    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigParseError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigParseError("config root must be a JSON object")
        for section, values in loaded.items():
            if section not in data:
                raise ConfigParseError(f"unknown key {section}")
            if not isinstance(values, dict):
                raise ConfigParseError(f"section {section} must be a JSON object")
            for key in values:
                settable(f"{section}.{key}")
            data[section].update(values)

    for item in overrides:
        if "=" not in item:
            raise ConfigParseError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = settable(dotted)
        data[section][key] = schema.parse(_SECTIONS[section], key, raw, dotted)

    loss = LossConfig(**data["loss"])
    return WorldSpec(**data["world"]), TrainConfig(**data["train"], loss=loss)


def _cmd_synth(args) -> int:
    world_spec, train = parse_config(args.config, args.set)
    world = build_world(world_spec, train.seed)
    if args.sample_seed is None:
        seed = derive_seeds(train.seed)[f"{args.view}_train"]
    else:
        seed = schema.parse(TrainConfig, "seed", args.sample_seed, "--sample-seed")
    corpus = sample_dataset(world, args.view, args.n, seed)
    write_files([
        (args.out, lambda fh: dump_dataset(corpus, fh)),
        (f"{args.out}.config.json", lambda fh: dump_effective_config(world_spec, train, fh)),
    ])
    print(f"wrote {len(corpus)} {args.view} samples to {args.out}")
    return 0


def _cmd_mine(args) -> int:
    fpv = read_dataset(args.fpv)
    tpv = read_dataset(args.tpv)
    pairs = mine_pseudo_pairs(fpv, tpv)
    header = ["fpv_index", "tpv_index", "similarity"]
    rows = ([p.fpv_index, p.tpv_index, repr(p.similarity)] for p in pairs)
    write_files([(args.out, lambda fh: dump_csv(header, rows, fh))])
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _read_pairs_csv(path):
    pairs = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
            except UnicodeDecodeError as exc:
                raise DatasetParseError(f"pairs {path} is not UTF-8 text ({exc})") from exc
            except (KeyError, TypeError, ValueError, csv.Error) as exc:
                raise DatasetParseError(
                    f"{path} line {reader.line_num}: need numeric fpv_index, "
                    f"tpv_index and a similarity in [-1, 1] ({exc!r})"
                ) from exc
    except OSError as exc:
        raise DatasetIOError(f"cannot read pairs {path}: {exc}") from exc
    if not pairs:  # a fraction of zero pairs is undefined
        raise DatasetParseError(f"pairs {path} holds no pair rows")
    return pairs


def _parse_edges(text: str) -> tuple:
    try:
        return tuple(float(e) for e in text.split(","))
    except ValueError:
        raise BadEdgesError(f"--edges must be comma-separated numbers, got {text!r}") from None


def _cmd_stats(args) -> int:
    pairs = _read_pairs_csv(args.pairs)
    edges = DEFAULT_BUCKET_EDGES
    if args.edges is not None:
        edges = _parse_edges(args.edges)
    try:
        hist = similarity_histogram(pairs, edges)
    except BadEdgesError as exc:
        raise BadEdgesError(f"--edges: {exc}") from None
    buckets = zip(hist.bucket_edges, hist.bucket_edges[1:], hist.counts, hist.fractions)
    header = ["bucket_low", "bucket_high", "count", "fraction"]
    rows = ([repr(lo), repr(hi), int(count), repr(float(frac))] for lo, hi, count, frac in buckets)
    write_files([(args.out, lambda fh: dump_csv(header, rows, fh))])
    print(f"wrote histogram ({len(hist.counts)} buckets) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    world, train = parse_config(args.config, args.set)
    result = run_experiment(train, world, out_dir=args.out_dir)
    print(
        f"method={train.method} tpv_mode={train.tpv_mode} seed={train.seed} "
        f"final_fpv_test_acc={result.final_fpv_test_acc:.4f} "
        f"final_tpv_test_acc={result.final_tpv_test_acc:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    stack, stage = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.dataset)
    if len(dataset) and stack.view != dataset.view:
        raise InvalidViewError(f"the {stage} checkpoint encodes {stack.view} clips, "
                               f"the dataset holds {dataset.view} clips")
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
    world, train = parse_config(args.config, args.set)
    methods = args.methods.split(",")
    tpv_modes = args.tpv_modes.split(",")
    seeds = [schema.parse(TrainConfig, "seed", s, "--seeds") for s in args.seeds.split(",")]
    _, cells = run_ablation_grid(train, world, methods, tpv_modes, seeds, out_dir=args.out_dir)
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
