"""Two-stage training, evaluation and ablation grids, deterministic per seed.

Stage 1 trains the TPV encoder and task head with cross-entropy only.
Stage 2 mines pseudo-pairs over the full corpora, gates them by narration
similarity, and trains both views jointly under the combined objective.
Evaluation uses the FPV encoder and task head only.

Configs check their own rules, each field's and those that tie fields
together, when they are built, so every stage starts from a valid config.
:func:`effective_config` is the one document of every key a user can set:
runs write it, and the CLI reads exactly its keys.

Seed handling: the experiment seed feeds a SeedSequence whose spawned
children drive, in fixed order, world generation, FPV/TPV initialization,
the four dataset draws, and the per-stage shuffles.  Ablation cells with
equal seeds therefore share worlds and initializations while varying the
method, so the grid builds each seed's world, datasets and stage 1 once.
Given ``seeds``, both stages train one replica per seed at once (see
``model``), bitwise as each would train alone.  A single run is the grid's
one-cell, one-seed case with every epoch scored: both run ``_train_cells``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import losses, workers
from .atomic import dump_csv, output_dir, write_files
from .datagen import (
    CORPUS_COLUMNS,
    Corpus,
    SyntheticWorld,
    WorldSpec,
    generate_world,
    sample_dataset,
)
from .exceptions import (
    ConfigError,
    ConfigValidationError,
    DivergenceError,
    EmptySetError,
    LabelOutOfRangeError,
)
from .losses import ALIGN, VIDEO_TEXT, Contrastive, LossConfig, LossOutput
from .mining import mine_pseudo_pairs, select_pairs
from .model import (
    EncoderStack,
    ForwardCache,
    backward,
    clone_stack,
    cosine_lr,
    dump_checkpoint,
    encode_batch,
    init_stack,
    replica,
    sgd_momentum_step,
)
from .numerics import mean_rows
from .schema import check, rule


class _Batch(NamedTuple):
    """What the loss terms read from one batch, per replica; stage 1 fills ``t`` and ``labels_t``."""

    f: ForwardCache | None = None  # FPV forward pass
    t: ForwardCache | None = None  # TPV forward pass; None when no term reads it
    labels_f: np.ndarray | None = None
    labels_t: np.ndarray | None = None
    df: np.ndarray | None = None  # narrations, constants
    dt: np.ndarray | None = None
    gate: np.ndarray | None = None  # (replicas, rows) bool: the pairs whose similarity passes theta
    lc: LossConfig | None = None


class _Task(NamedTuple):
    """The task cross-entropy of the ``_Batch`` cache field ``view``."""

    view: str


_FPV_TASK, _TPV_TASK = _Task("f"), _Task("t")


def _task_losses(tasks, b: _Batch) -> list:
    """Each of ``tasks``' LossOutput from one ``cross_entropy`` call on their views'
    logits stacked along the replica axis: each view's slice is its own call, bitwise."""
    views = [t.view for t in tasks]
    stacked = lambda xs: np.concatenate(xs) if len(xs) > 1 else xs[0]
    ce = losses.cross_entropy(stacked([getattr(b, v).logits for v in views]),
                              stacked([getattr(b, f"labels_{v}") for v in views]))
    split = lambda x: x.reshape(len(views), -1, *x.shape[1:])
    return [LossOutput(value, {f"logits_{v}": g})
            for v, value, g in zip(views, split(ce.value), split(ce.grads["logits"]))]


def _triplet(b: _Batch) -> LossOutput:
    return losses.triplet_loss(b.f.z, b.t.z, b.lc.triplet_margin)


# Stage-2 terms of each method beyond the FPV task, as (record slot, term).
# A term in slot s is weighted by LossConfig.w_s; losses.contrastive_terms runs
# a batch's Contrastive terms as one kernel call, and _task_losses its _Task terms as one.
_STAGE2_TERMS = {
    "fpv_only": (),
    "typical_cl": (("t", _TPV_TASK), ("aw", Contrastive(ALIGN))),
    "triplet": (("t", _TPV_TASK), ("aw", _triplet)),
    "sum_l": (("t", _TPV_TASK), ("aw", Contrastive(ALIGN, True, True)), ("m", VIDEO_TEXT)),
    "sum_l_no_weighting": (("t", _TPV_TASK), ("aw", Contrastive(ALIGN, True)), ("m", VIDEO_TEXT)),
    "sum_l_no_multimodal": (("t", _TPV_TASK), ("aw", Contrastive(ALIGN, True, True))),
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

    def __post_init__(self) -> None:
        check(self, "train", ConfigValidationError)
        if self.epochs_stage2 and self.n_fpv_train < 2:
            raise ConfigValidationError(
                "stage 2 trains on batches of at least 2 pseudo-pairs, one per FPV clip, so "
                "train.n_fpv_train must be at least 2 when epochs_stage2 > 0, "
                f"got {self.n_fpv_train}"
            )


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


def evaluate_fpv(fpv_stack: EncoderStack, corpus: Corpus):
    """Top-1 action accuracy on ``corpus`` using the FPV encoder and task head only.

    A stacked ``fpv_stack`` takes a ``stack_datasets`` corpus and returns one
    accuracy per replica, as a list.
    """
    if len(corpus) == 0:
        raise EmptySetError("evaluation dataset is empty")
    n_classes, top = fpv_stack.dims[2][-1], int(corpus.labels.max())
    if top >= n_classes:
        raise LabelOutOfRangeError(f"label {top} is outside the task head's {n_classes} classes")
    pred = np.argmax(encode_batch(fpv_stack, corpus.frames, project=False).logits, axis=-1)
    return np.mean(pred == corpus.labels, axis=-1).tolist()


def stack_datasets(corpora) -> Corpus:
    """One corpus whose columns stack ``corpora`` (one per seed, of one size and
    view) on a leading replica axis, as the stages take them with ``seeds``; it
    is read through its columns (and ``_replica_corpus``) only."""
    if len({len(c) for c in corpora}) != 1:
        raise ConfigError("the seeds' datasets of one view must have one size")
    if len(corpora) == 1:  # views: a single run's data is not copied
        columns = (getattr(corpora[0], k)[None] for k in CORPUS_COLUMNS)
    else:
        columns = (np.stack([getattr(c, k) for c in corpora]) for k in CORPUS_COLUMNS)
    return Corpus(*columns, ids=[c.ids for c in corpora], view=corpora[0].view)


def _replica_corpus(corpus: Corpus, r: int) -> Corpus:
    """Replica ``r`` of a ``stack_datasets`` corpus, as views."""
    return Corpus(*(getattr(corpus, k)[r] for k in CORPUS_COLUMNS),
                  ids=corpus.ids[r], view=corpus.view)


def _as_replicas(config: TrainConfig, seeds, train_sets, test_sets):
    """(seeds, train sets, test sets) of a stage; a single run (``seeds`` None)
    is one replica on ``config.seed``, and its empty test set is not scored."""
    if seeds is not None:
        if any(len(d) != len(seeds) for d in train_sets):
            raise ConfigError(f"{len(seeds)} seeds need datasets of {len(seeds)} replicas")
        return seeds, train_sets, test_sets
    tests = [stack_datasets([d]) if d else None for d in test_sets]
    return [config.seed], [stack_datasets([d]) for d in train_sets], tests


def _new_stack(config: TrainConfig, world_spec: WorldSpec, view: str, seeds) -> EncoderStack:
    """Freshly initialized ``view`` stacks, one replica per seed, each seeded by
    its run's ``init_<view>`` stream; both views project to the narration width."""
    stacks = [
        init_stack(world_spec.feat_dim, world_spec.n_actions, world_spec.text_dim,
                   derive_seeds(seed)[f"init_{view}"], config.hidden_dim, view)
        for seed in seeds
    ]
    return replace(stacks[0], params=np.stack([s.params for s in stacks]))


def _train_stage(config, stage, seeds, views, n_rows, terms, batch_at, scored) -> list:
    """The epoch loop of both stages; returns the records, replica after replica.

    An epoch steps at the cosine rate through one shuffle of ``n_rows`` rows
    per seed (``stage<k>_shuffle``) in stacked batches, ``batch_at(idx,
    project)`` building each ``_Batch`` and ``terms`` its loss.  The stack of
    each ``_Batch`` cache field in ``views`` trains, on both fields' gradients
    under shared weights; ``backward`` writes each field's into a workspace of
    its own, made once per stage.  A record holds each slot's mean batch value,
    the share of the epoch's rows whose pair passes theta (stage 2's ``gate``),
    and per ``scored`` name -> (stack, corpus), ``evaluate_fpv`` of the stack as
    the epoch left it.  Given a second CPU, a forked scorer (``workers._Worker``)
    gets one request per epoch, every scored stack's params, and scores epoch e
    while epoch e + 1 trains.
    """
    epochs = getattr(config, f"epochs_stage{stage}")
    min_rows = 1 if stage == 1 else 2  # an alignment term needs two pairs
    # batches of batch_size rows; a last one under min_rows is dropped
    starts = range(0, n_rows - min_rows + 1, config.batch_size)
    if epochs and not starts:
        raise ConfigError(f"stage {stage} needs {min_rows} rows for a batch, got {n_rows}")
    streams = [derive_seeds(seed)[f"stage{stage}_shuffle"] for seed in seeds]
    rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in streams]
    project = any(not isinstance(term, _Task) for _, _, term in terms)  # a term reads z
    contrastive = [term for _, _, term in terms if isinstance(term, Contrastive)]
    tasks = [term for _, _, term in terms if isinstance(term, _Task)]
    lc, full_batch = config.loss, config.negative_set_mode == "full_batch"
    slots = [slot for slot, _, _ in terms] + ["total"]
    learners = {}  # per stack: its velocity and, per field, a gradient workspace (``backward``)
    for field, stack in views.items():
        learners.setdefault(id(stack), (stack, np.zeros_like(stack.params), {}))[2][field] = (
            EncoderStack(np.empty(stack.params.shape), stack.dims))
    epoch_records, pending = [], []  # per epoch: its loss means and fields; per epoch in flight

    def score(params):  # every scored field, its stack at ``params[name]``
        return {name: evaluate_fpv(replace(stack, params=params[name]), corpus)
                for name, (stack, corpus) in scored.items()}

    def collect():  # the oldest epoch in flight's scores, into its fields
        ok, value = scorer.reply(f"scoring stage {stage}")
        if not ok:
            raise value
        pending.pop(0).update(value)

    forks = epochs and scored and workers._usable_cpus() > 1
    scorer = workers._Worker(score) if forks else None  # it inherits ``scored``'s corpora
    try:
        for epoch in range(epochs):
            lr = cosine_lr(epoch, epochs, config.base_lr)
            order = np.stack([rng.permutation(n_rows) for rng in rngs])
            values = []  # per batch: each term's value, then the total's
            passed = np.zeros(len(seeds), dtype=int)  # per replica: gated rows (none in stage 1)
            for b, idx in enumerate(order[..., i : i + config.batch_size] for i in starts):
                batch = batch_at(idx, project)
                if batch.gate is not None:
                    passed += np.count_nonzero(batch.gate, axis=-1)
                fused = dict(zip(tasks, _task_losses(tasks, batch)))
                if contrastive:
                    fused.update(zip(contrastive, losses.contrastive_terms(contrastive, dict(
                        zf=batch.f.z, zt=batch.t.z, df=batch.df, dt=batch.dt, gate=batch.gate,
                    ), lc.tau, lc.sigma, full_batch)))
                outs = [fused[term] if term in fused else term(batch) for _, _, term in terms]
                total = losses.total_loss([(w, out) for (_, w, _), out in zip(terms, outs)])
                for seed, value in zip(seeds, total.value.tolist()):
                    if not math.isfinite(value):
                        raise DivergenceError(f"seed {seed}: stage {stage} diverged at epoch "
                                              f"{epoch} batch {b}: loss is {value}")
                g = total.grads
                for stack, velocity, workspaces in learners.values():
                    grads = [backward(stack, getattr(batch, v), g.get(f"z{v}"),
                                      g.get(f"logits_{v}"), out) for v, out in workspaces.items()]
                    sgd_momentum_step(stack, sum(grads[1:], grads[0]), lr, velocity, config.momentum)
                values.append([out.value for out in outs] + [total.value])
                del batch, fused, outs, total, g, grads  # freed before the next batch is built
            # one contiguous row of batch values per slot and replica: numpy's pairwise sum
            means = dict(zip(slots, mean_rows(np.stack(values, axis=-1)).tolist()))
            if stage == 1:  # the gradient is the bare task loss; the record weighs it as stage 2 does
                means["total"] = [config.loss.w_t * value for value in means["t"]]
            seen = min(n_rows, starts[-1] + config.batch_size)  # the rows the batches covered
            fields = {"selected_pair_fraction": (passed / seen).tolist()}
            epoch_records.append((epoch, means, fields))
            params = {name: stack.params for name, (stack, _) in scored.items()}
            if scorer is None:  # one usable CPU: scored here, on the stacks themselves
                fields.update(score(params))
            else:
                pending.append(fields)
                scorer.send(params)  # a copy of each stack's params, a shared stack's once
                if len(pending) > 1:  # no more than two epochs are ever in flight
                    collect()
        if scorer is not None:
            scorer.close()
        while pending:
            collect()
    finally:
        if scorer is not None:
            scorer.reap()
    return [
        MetricsRecord(epoch, stage, **{f"loss_{slot}": mean[r] for slot, mean in means.items()},
                      **{name: value[r] for name, value in fields.items()})
        for r in range(len(seeds)) for epoch, means, fields in epoch_records
    ]


def pretrain_tpv(
    config: TrainConfig,
    world_spec: WorldSpec,
    tpv_dataset,
    tpv_test=None,
    metrics_sink: list | None = None,
    seeds=None,
) -> EncoderStack:
    """Stage 1: task-only training of the TPV stack; deterministic per config seed.

    Each epoch scores ``tpv_test``, if given.  With ``seeds``, trains one
    replica per seed: the datasets are ``stack_datasets`` corpora, the stack
    returned is stacked and ``metrics_sink`` gets the records replica after replica.
    """
    if len(tpv_dataset) == 0:
        raise ConfigError("TPV dataset must be nonempty for stage 1")
    single = seeds is None
    seeds, (tpv,), (tpv_test,) = _as_replicas(config, seeds, (tpv_dataset,), (tpv_test,))
    stack = _new_stack(config, world_spec, "tpv", seeds)
    rows = np.arange(len(seeds))[:, None]

    def batch_at(idx, project) -> _Batch:
        cache = encode_batch(stack, tpv.frames[rows, idx], project=project)
        return _Batch(t=cache, labels_t=tpv.labels[rows, idx])

    scored = {"tpv_test_acc": (stack, tpv_test)} if tpv_test else {}
    records = _train_stage(config, 1, seeds, {"t": stack}, tpv.labels.shape[-1],
                           [("t", 1.0, _TPV_TASK)], batch_at, scored)
    if metrics_sink is not None:
        metrics_sink.extend(records)
    return replica(stack, 0) if single else stack


def _stage2_terms(method: str, lc: LossConfig) -> list:
    """(slot, weight, term) of every stage-2 term in use, the FPV task first.

    Zero-weight terms are dropped, so all-zero weights train exactly like
    fpv_only.
    """
    return [("f", 1.0, _FPV_TASK)] + [
        (slot, getattr(lc, f"w_{slot}"), term)
        for slot, term in _STAGE2_TERMS[method]
        if getattr(lc, f"w_{slot}") > 0
    ]


def _reads_stage1(config: TrainConfig, scored: bool) -> bool:
    """Whether a cell of ``config`` reads the stage-1 TPV stack: never under
    ``same_init``; else when a TPV test set scores its clone (``scored``), under
    ``shared_weights``, or when a stage-2 term beyond the FPV task is in use."""
    return config.tpv_mode != "same_init" and (
        scored or config.tpv_mode == "shared_weights"
        or len(_stage2_terms(config.method, config.loss)) > 1)


def joint_train(
    config: TrainConfig,
    world_spec: WorldSpec,
    fpv_dataset,
    tpv_dataset,
    tpv_stack: EncoderStack | None,
    fpv_test=None,
    tpv_test=None,
    seeds=None,
):
    """Stage 2: mine pairs, gate by theta, train under the combined objective.

    Trains a clone of ``tpv_stack``, which is left as it is given.  It may be
    None only where nothing reads it (``_reads_stage1``: ``same_init``, or an
    unscored cell that trains the FPV task alone); a copy of the FPV init then
    stands in.  Only the TPV stack's ``frozen`` flag says whether it trains, and
    it is set from ``tpv_mode``.  Returns (fpv_stack, tpv_stack, metrics records).

    With ``seeds``, trains one replica per seed: the datasets are
    ``stack_datasets`` corpora, the stacks are stacked and the records come
    replica after replica.  Each epoch scores exactly the test sets it is
    given, ``fpv_test`` with the FPV train set; the records hold 0.0 for the rest.
    """
    lc = config.loss
    single = seeds is None
    seeds, (fpv, tpv), (fpv_test, tpv_test) = _as_replicas(
        config, seeds, (fpv_dataset, tpv_dataset), (fpv_test, tpv_test)
    )
    if tpv_stack is not None:
        if single:
            tpv_stack = replace(tpv_stack, params=tpv_stack.params[None])
        tpv_stack = replace(clone_stack(tpv_stack), frozen=config.tpv_mode == "frozen")
    elif _reads_stage1(config, bool(tpv_test)):
        raise ConfigError(f"{config.tpv_mode} mode requires a stage-1 TPV stack")

    if config.tpv_mode == "shared_weights":
        fpv_stack = tpv_stack  # one parameter set serves both views
    else:
        fpv_stack = _new_stack(config, world_spec, "fpv", seeds)
        if tpv_stack is None:
            tpv_stack = replace(clone_stack(fpv_stack), view="tpv",
                                frozen=config.tpv_mode == "frozen")

    # Narrations are fixed inputs, so mining once equals mining every epoch;
    # mining gives pair i to FPV clip i, so a batch's indices are its FPV rows.
    pairs = [
        mine_pseudo_pairs(_replica_corpus(fpv, r), _replica_corpus(tpv, r))
        for r in range(len(seeds))
    ]
    gated = np.stack([select_pairs(p, lc.theta).selected for p in pairs])
    pair_tpv = np.asarray([[p.tpv_index for p in ps] for ps in pairs], dtype=int)

    rows = np.arange(len(seeds))[:, None]
    shared = fpv_stack is tpv_stack
    terms = _stage2_terms(config.method, lc)
    tpv_touched = len(terms) > 1
    views = {"f": fpv_stack}
    if tpv_touched and not tpv_stack.frozen:  # a frozen TPV stack skips its backward pass
        views["t"] = tpv_stack

    def batch_at(idx, project) -> _Batch:
        ti = pair_tpv[rows, idx]
        return _Batch(
            encode_batch(fpv_stack, fpv.frames[rows, idx], project=project),
            encode_batch(tpv_stack, tpv.frames[rows, ti], project=project) if tpv_touched else None,
            fpv.labels[rows, idx], tpv.labels[rows, ti], fpv.narrations[rows, idx],
            tpv.narrations[rows, ti], gated[rows, idx], lc,
        )

    scored = {"tpv_test_acc": (tpv_stack, tpv_test)} if tpv_test else {}
    if fpv_test:
        scored.update(fpv_train_acc=(fpv_stack, fpv), fpv_test_acc=(fpv_stack, fpv_test))
    records = _train_stage(config, 2, seeds, views, pair_tpv.shape[-1], terms, batch_at, scored)
    if single:
        fpv_stack = replica(fpv_stack, 0)
        tpv_stack = fpv_stack if shared else replica(tpv_stack, 0)
    return fpv_stack, tpv_stack, records


def dump_metrics(records, fh) -> None:
    """Write ``records`` to ``fh`` as JSON Lines, one epoch per line."""
    fh.writelines(json.dumps(r.to_dict()) + "\n" for r in records)


def write_metrics_jsonl(records, path) -> None:
    """:func:`dump_metrics` to ``path`` through ``write_files``."""
    write_files([(path, lambda fh: dump_metrics(records, fh))])


def effective_config(world_spec: WorldSpec, config: TrainConfig) -> dict:
    """Every key a user can set, as the run acted on it: the document ``--config``
    reads, with the loss in its own section and no world seed, which each run
    derives from ``train.seed`` (``build_world``)."""
    world, train = asdict(world_spec), asdict(config)
    del world["seed"]
    return {"world": world, "loss": train.pop("loss"), "train": train}


def dump_effective_config(world_spec: WorldSpec, config: TrainConfig, fh) -> None:
    """Write :func:`effective_config` to ``fh`` as indented JSON."""
    fh.write(json.dumps(effective_config(world_spec, config), indent=2) + "\n")


def _write_run(result: ExperimentResult, world_spec, stage1_stack, out_dir) -> None:
    """The run's artifacts, written all or none once the whole run has succeeded."""
    config = result.config
    fpv_stack = replace(result.fpv_stack, view="fpv")  # shared_weights: it is the TPV stack
    summary = {
        "method": config.method,
        "tpv_mode": config.tpv_mode,
        "seed": config.seed,
        "final_fpv_test_acc": result.final_fpv_test_acc,
        "final_tpv_test_acc": result.final_tpv_test_acc,
    }
    outputs = [
        ("effective_config.json", lambda fh: dump_effective_config(world_spec, config, fh)),
        ("metrics.jsonl", lambda fh: dump_metrics(result.records, fh)),
    ]
    if stage1_stack is not None:
        outputs.append(("checkpoint_stage1_tpv.json",
                        lambda fh: dump_checkpoint(stage1_stack, "stage1_tpv", fh)))
    outputs += [
        ("checkpoint_fpv.json", lambda fh: dump_checkpoint(fpv_stack, "stage2_fpv", fh)),
        ("checkpoint_tpv.json", lambda fh: dump_checkpoint(result.tpv_stack, "stage2_tpv", fh)),
        ("summary.json", lambda fh: json.dump(summary, fh, indent=2)),
    ]
    write_files((os.path.join(out_dir, name), write) for name, write in outputs)


def _train_cells(cell_configs: list, seed_configs: list, world_spec: WorldSpec, scored: bool):
    """Train every cell on every seed (``seed_configs``: the base config at each
    seed); return the stacked stage-1 stack, or None, and per cell [fpv_stack,
    tpv_stack, records, final FPV and TPV test accuracies per seed].  ``scored``,
    all four sets are drawn up front and every epoch scores its test sets.
    Unscored, no TPV test set is drawn, a cell keeps only its FPV stack and FPV
    accuracies (TPV ones None), and the train sets are freed before any FPV
    test set is drawn.

    Three ``workers._map_forked`` maps run each job once what it reads exists,
    bitwise as in one process: stage 1 (the parent's item 0), trained only if a
    cell reads it (``_reads_stage1``), beside the cells that do not; the other
    cells, which inherit it by fork; per seed, its FPV test draw (unscored) and
    its replica of every cell scored.  Failures are raised in that order, cells
    in grid order within a map.  A single run (one cell, one seed) forks none.
    """
    seeds = [cfg.seed for cfg in seed_configs]
    worlds = [build_world(world_spec, seed) for seed in seeds]

    def draw(split: str, r: int):  # split ``fpv_train``, ``tpv_test`` ... of seed r
        n = getattr(seed_configs[r], f"n_{split}")
        return sample_dataset(worlds[r], split[:3], n, derive_seeds(seeds[r])[split])

    splits = ("fpv_train", "tpv_train", "fpv_test", "tpv_test")[: 4 if scored else 2]
    sets = {split: stack_datasets([draw(split, r) for r in range(len(seeds))]) for split in splits}
    fpv_test, tpv_test = sets.get("fpv_test"), sets.get("tpv_test")
    reads = [_reads_stage1(cfg, scored) for cfg in cell_configs]
    stage1_config = next((c for c, r in zip(cell_configs, reads) if r), None)
    stage1_records = [] if scored else None
    stage1 = None  # the first map's cells do not read it; the second map's inherit it

    def train(cfg):  # stage 1 (None) or a cell, which unscored returns its FPV stack only
        if cfg is None:
            return pretrain_tpv(stage1_config, world_spec, sets["tpv_train"], tpv_test,
                                stage1_records, seeds)
        fpv, tpv, records = joint_train(cfg, world_spec, sets["fpv_train"], sets["tpv_train"],
                                        stage1, fpv_test, tpv_test, seeds)
        return (fpv, tpv, records) if scored else (fpv, None, None)

    cell = lambda c: f"training cell {c.method} x {c.tpv_mode}"  # stage 1 is the parent's
    first = [None] * (stage1_config is not None) + [c for c, r in zip(cell_configs, reads) if not r]
    done = workers._map_forked(train, first, cell)
    if stage1_config is not None:
        stage1 = done.pop(0)
    later = iter(workers._map_forked(train, [c for c, r in zip(cell_configs, reads) if r], cell))
    done = iter(done)
    trained = [next(later if r else done) for r in reads]  # back in grid order
    del sets  # no cell reads the train sets again: freed before any test set is drawn

    def score(r):  # seed r's final (FPV, TPV) test accuracies, per cell
        fpv_test_r = _replica_corpus(fpv_test, r) if scored else draw("fpv_test", r)
        return [(evaluate_fpv(replica(fpv, r), fpv_test_r),
                 evaluate_fpv(replica(tpv, r), _replica_corpus(tpv_test, r)) if scored else None)
                for fpv, tpv, _ in trained]

    scores = workers._map_forked(score, range(len(seeds)), lambda r: f"scoring seed {seeds[r]}")
    return stage1, [[fpv, tpv, stage1_records + records if scored else None, *zip(*accs)]
                    for (fpv, tpv, records), accs in zip(trained, zip(*scores))]


def run_experiment(
    config: TrainConfig, world_spec: WorldSpec, out_dir=None
) -> ExperimentResult:
    """Full stage-1 + stage-2 + evaluation run; deterministic per seed.  It is the
    grid's one-cell, one-seed case with every epoch scored (``_train_cells``).

    With ``out_dir``, the artifacts and the effective config are written after
    the run succeeds, so a failed run leaves no file, nor a directory it created.
    """
    with output_dir(out_dir):
        stage1, [[fpv, tpv, records, [fpv_acc], [tpv_acc]]] = _train_cells(
            [config], [config], world_spec, scored=True)
        fpv_stack = replica(fpv, 0)
        tpv_stack = fpv_stack if tpv is fpv else replica(tpv, 0)  # shared_weights: one stack
        result = ExperimentResult(config, records, fpv_stack, tpv_stack, fpv_acc, tpv_acc)
        if out_dir is not None:
            _write_run(result, world_spec, stage1 and replica(stage1, 0), out_dir)
    return result


def run_ablation_grid(
    base_config: TrainConfig,
    world_spec: WorldSpec,
    methods,
    tpv_modes,
    seeds,
    out_dir=None,
):
    """One run per {method x tpv_mode x seed}; returns (per-run rows, per-cell rows).

    Every cell's and seed's config is built from ``base_config``, and so
    checked, and each axis must hold distinct values, at least one, before any
    work starts.  Each cell trains its seeds as replicas of one stacked model and
    scores no epoch (``_train_cells``); each replica's accuracy equals
    ``run_experiment`` on its config, and rows keep method, tpv_mode, seed order.
    Stage 1, the cells and each seed's final scoring run in up to one process
    per usable CPU, this one among them, and the rows are bitwise those of one
    process; the first error in ``_train_cells``' schedule order is raised
    after every worker process has ended.
    ``out_dir`` gets the rows and the effective config, ``base_config``'s, once
    the grid succeeds; a failed grid leaves no ``out_dir`` it created.
    """
    for axis, values in (("methods", methods), ("tpv_modes", tpv_modes), ("seeds", seeds)):
        if len(values) == 0 or len(set(values)) != len(values):
            raise ConfigValidationError(
                f"an ablation grid needs one or more distinct {axis}, got {list(values)}")
    cell_keys = [(method, tpv_mode) for method in methods for tpv_mode in tpv_modes]
    cell_configs = [replace(base_config, method=m, tpv_mode=t) for m, t in cell_keys]
    seed_configs = [replace(base_config, seed=seed) for seed in seeds]
    with output_dir(out_dir):
        _, trained = _train_cells(cell_configs, seed_configs, world_spec, scored=False)
        runs = []
        cells = []
        for (method, tpv_mode), (_, _, _, accs, _) in zip(cell_keys, trained):
            runs.extend(
                {"method": method, "tpv_mode": tpv_mode, "seed": seed, "final_fpv_acc": acc}
                for seed, acc in zip(seeds, accs)
            )
            cells.append({
                "method": method, "tpv_mode": tpv_mode, "n_seeds": len(seeds),
                "mean_fpv_acc": float(np.mean(accs)), "std_fpv_acc": float(np.std(accs)),
            })
        if out_dir is not None:
            write_files([
                (os.path.join(out_dir, "effective_config.json"),
                 lambda fh: dump_effective_config(world_spec, base_config, fh)),
                (os.path.join(out_dir, "runs.csv"),
                 lambda fh: dump_csv(list(runs[0]), (r.values() for r in runs), fh)),
                (os.path.join(out_dir, "summary.csv"),
                 lambda fh: dump_csv(list(cells[0]), (c.values() for c in cells), fh)),
            ])
    return runs, cells
