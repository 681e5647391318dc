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
import pickle
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import losses
from .atomic import output_dir, write_atomic, write_csv
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
    WorkerError,
)
from .losses import ALIGN, VIDEO_TEXT, Contrastive, LossConfig, LossOutput
from .mining import mine_pseudo_pairs, select_pairs
from .model import (
    EncoderStack,
    ForwardCache,
    backward,
    clone_stack,
    cosine_lr,
    encode_batch,
    init_stack,
    replica,
    save_checkpoint,
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


def _fpv_task(b: _Batch) -> LossOutput:
    ce = losses.cross_entropy(b.f.logits, b.labels_f)
    return LossOutput(ce.value, {"logits_f": ce.grads["logits"]})


def _tpv_task(b: _Batch) -> LossOutput:
    ce = losses.cross_entropy(b.t.logits, b.labels_t)
    return LossOutput(ce.value, {"logits_t": ce.grads["logits"]})


def _triplet(b: _Batch) -> LossOutput:
    return losses.triplet_loss(b.f.z, b.t.z, b.lc.triplet_margin)


# Stage-2 terms of each method beyond the FPV task, as (record slot, term).
# A term in slot s is weighted by LossConfig.w_s; losses.contrastive_terms runs
# a batch's Contrastive terms as one kernel call.
_STAGE2_TERMS = {
    "fpv_only": (),
    "typical_cl": (("t", _tpv_task), ("aw", Contrastive(ALIGN))),
    "triplet": (("t", _tpv_task), ("aw", _triplet)),
    "sum_l": (("t", _tpv_task), ("aw", Contrastive(ALIGN, True, True)), ("m", VIDEO_TEXT)),
    "sum_l_no_weighting": (("t", _tpv_task), ("aw", Contrastive(ALIGN, True)), ("m", VIDEO_TEXT)),
    "sum_l_no_multimodal": (("t", _tpv_task), ("aw", Contrastive(ALIGN, True, True))),
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


def _train_stage(config, stage, seeds, views, n_rows, terms, batch_at, epoch_fields) -> list:
    """The epoch loop of both stages; returns the records, replica after replica.

    An epoch steps at the cosine rate through one shuffle of ``n_rows`` rows
    per seed (``stage<k>_shuffle``) in stacked batches, ``batch_at(idx,
    project)`` building each ``_Batch`` and ``terms`` its loss.  The stack of
    each ``_Batch`` cache field in ``views`` trains, on both fields' gradients
    under shared weights.  A record holds each slot's mean batch value and the
    fields ``epoch_fields(seen)`` returns, given the rows the epoch trained on.
    """
    epochs = getattr(config, f"epochs_stage{stage}")
    min_rows = 1 if stage == 1 else 2  # an alignment term needs two pairs
    # batches of batch_size rows; a last one under min_rows is dropped
    starts = range(0, n_rows - min_rows + 1, config.batch_size)
    if epochs and not starts:
        raise ConfigError(f"stage {stage} needs {min_rows} rows for a batch, got {n_rows}")
    streams = [derive_seeds(seed)[f"stage{stage}_shuffle"] for seed in seeds]
    rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in streams]
    project = any(term not in (_fpv_task, _tpv_task) for _, _, term in terms)  # a term reads z
    contrastive = [term for _, _, term in terms if isinstance(term, Contrastive)]
    lc, full_batch = config.loss, config.negative_set_mode == "full_batch"
    slots = [slot for slot, _, _ in terms] + ["total"]
    learners = {}  # per stack: its fields and its velocity
    for field, stack in views.items():
        learners.setdefault(id(stack), (stack, [], np.zeros_like(stack.params)))[1].append(field)
    records = [[] for _ in seeds]
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs, config.base_lr)
        order = np.stack([rng.permutation(n_rows) for rng in rngs])
        values = []  # per batch: each term's value, then the total's
        for b, idx in enumerate(order[..., i : i + config.batch_size] for i in starts):
            batch = batch_at(idx, project)
            fused = iter(losses.contrastive_terms(contrastive, dict(
                zf=batch.f.z, zt=batch.t.z, df=batch.df, dt=batch.dt, gate=batch.gate,
            ), lc.tau, lc.sigma, full_batch) if contrastive else ())
            outs = [next(fused) if term in contrastive else term(batch) for _, _, term in terms]
            total = losses.total_loss([(w, out) for (_, w, _), out in zip(terms, outs)])
            for seed, value in zip(seeds, total.value.tolist()):
                if not math.isfinite(value):
                    raise DivergenceError(f"seed {seed}: stage {stage} diverged at epoch "
                                          f"{epoch} batch {b}: loss is {value}")
            g = total.grads
            for stack, fields, velocity in learners.values():
                grads = [backward(stack, getattr(batch, v), g.get(f"z{v}"), g.get(f"logits_{v}"))
                         for v in fields]
                sgd_momentum_step(stack, sum(grads[1:], grads[0]), lr, velocity, config.momentum)
            values.append([out.value for out in outs] + [total.value])
            del batch, outs, total, g, grads  # freed before the next batch is built
        # one contiguous row of batch values per slot and replica: numpy's pairwise sum
        means = dict(zip(slots, mean_rows(np.stack(values, axis=-1)).tolist()))
        if stage == 1:  # the gradient is the bare task loss; the record weighs it as stage 2 does
            means["total"] = [config.loss.w_t * value for value in means["t"]]
        fields = epoch_fields(order[..., : starts[-1] + config.batch_size])
        for r, sink in enumerate(records):
            sink.append(MetricsRecord(
                epoch, stage, **{f"loss_{slot}": mean[r] for slot, mean in means.items()},
                **{name: value[r] for name, value in fields.items()},
            ))
    return [record for sink in records for record in sink]


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

    def epoch_fields(seen) -> dict:
        return {"tpv_test_acc": evaluate_fpv(stack, tpv_test)} if tpv_test else {}

    records = _train_stage(config, 1, seeds, {"t": stack}, tpv.labels.shape[-1],
                           [("t", 1.0, _tpv_task)], batch_at, epoch_fields)
    if metrics_sink is not None:
        metrics_sink.extend(records)
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
):
    """Stage 2: mine pairs, gate by theta, train under the combined objective.

    Trains a clone of ``tpv_stack``, which is left as it is given; under
    ``same_init`` a missing one starts as a copy of the FPV init.  Only the
    clone's ``frozen`` flag says whether the TPV stack trains, and it is set
    from ``tpv_mode``.  Returns (fpv_stack, tpv_stack, metrics records).

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
    elif config.tpv_mode != "same_init":
        raise ConfigError(f"{config.tpv_mode} mode requires a stage-1 TPV stack")

    if config.tpv_mode == "shared_weights":
        fpv_stack = tpv_stack  # one parameter set serves both views
    else:
        fpv_stack = _new_stack(config, world_spec, "fpv", seeds)
        if tpv_stack is None:
            tpv_stack = replace(clone_stack(fpv_stack), view="tpv")

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

    def epoch_fields(seen) -> dict:
        fields = {"selected_pair_fraction":
                  (np.count_nonzero(gated[rows, seen], axis=-1) / seen.shape[-1]).tolist()}
        if tpv_test:
            fields["tpv_test_acc"] = evaluate_fpv(tpv_stack, tpv_test)
        if fpv_test:
            fields["fpv_train_acc"] = evaluate_fpv(fpv_stack, fpv)
            fields["fpv_test_acc"] = evaluate_fpv(fpv_stack, fpv_test)
        return fields

    records = _train_stage(config, 2, seeds, views, pair_tpv.shape[-1], terms, batch_at,
                           epoch_fields)
    if single:
        fpv_stack = replica(fpv_stack, 0)
        tpv_stack = fpv_stack if shared else replica(tpv_stack, 0)
    return fpv_stack, tpv_stack, records


def write_metrics_jsonl(records, path) -> None:
    write_atomic(path, lambda fh: fh.writelines(json.dumps(r.to_dict()) + "\n" for r in records))


def effective_config(world_spec: WorldSpec, config: TrainConfig) -> dict:
    """Every key a user can set, as the run acted on it: the document ``--config``
    reads, with the loss in its own section and no world seed, which each run
    derives from ``train.seed`` (``build_world``)."""
    world, train = asdict(world_spec), asdict(config)
    del world["seed"]
    return {"world": world, "loss": train.pop("loss"), "train": train}


def write_effective_config(world_spec: WorldSpec, config: TrainConfig, path) -> None:
    doc = effective_config(world_spec, config)
    write_atomic(path, lambda fh: fh.write(json.dumps(doc, indent=2) + "\n"))


def _write_run(result: ExperimentResult, world_spec, stage1_stack, out_dir) -> None:
    """The run's artifacts, written only once the whole run has succeeded."""
    config = result.config
    write_effective_config(world_spec, config, os.path.join(out_dir, "effective_config.json"))
    write_metrics_jsonl(result.records, os.path.join(out_dir, "metrics.jsonl"))
    if stage1_stack is not None:
        path = os.path.join(out_dir, "checkpoint_stage1_tpv.json")
        save_checkpoint(stage1_stack, path, "stage1_tpv")
    fpv_stack = replace(result.fpv_stack, view="fpv")  # shared_weights: it is the TPV stack
    save_checkpoint(fpv_stack, os.path.join(out_dir, "checkpoint_fpv.json"), "stage2_fpv")
    save_checkpoint(result.tpv_stack, os.path.join(out_dir, "checkpoint_tpv.json"), "stage2_tpv")
    summary = {
        "method": config.method,
        "tpv_mode": config.tpv_mode,
        "seed": config.seed,
        "final_fpv_test_acc": result.final_fpv_test_acc,
        "final_tpv_test_acc": result.final_tpv_test_acc,
    }
    write_atomic(os.path.join(out_dir, "summary.json"), lambda fh: json.dump(summary, fh, indent=2))


_SIGKILL = 9  # signal.SIGKILL, without importing ``signal``


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(fn, items, first: int, step: int):
    """Fork the worker of items ``first``, ``first + step``, ...; return its pid
    and the read end of its pipe.

    The child pickles ``(ok, result or exception)`` per item onto the pipe, in
    item order, and stops after its first failure, as the serial loop would.
    Every path of the child ends in ``os._exit``: no frame of its caller (an
    ``output_dir`` cleanup, a test fixture) unwinds in it.
    """
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"cannot start a worker process: {exc}") from exc
    read_fd, write_fd = fds
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                for i in range(first, len(items), step):
                    try:
                        ok, value = True, fn(items[i])
                    except BaseException as exc:
                        ok, value = False, exc
                    pipe.write(pickle.dumps((ok, value)))
                    pipe.flush()
                    if not ok:
                        break
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _map_forked(fn, items, name) -> list:
    """``[fn(item) for item in items]``, in up to one process per usable CPU.

    The parent is one of ``W = min(len(items), _usable_cpus())`` workers and
    runs items 0, W, 2W, ...; each of the W - 1 forked children
    (``_fork_worker``) runs its own stride, so with W = 1 nothing is forked.
    ``fn`` need not pickle; its results and exceptions must.  The exception of
    the lowest failing index is raised, the one the serial loop raises first; a
    child that ends without the result it owes raises ``WorkerError`` naming
    ``name(item)`` and its exit status.  The parent reads each child's pipe up
    to the lowest failure before it waits for the child, and no child outlives
    the call: once the results below the lowest failure are in, or the parent
    itself is interrupted, every child still running is killed and reaped.
    """
    n = len(items)
    workers = min(n, _usable_cpus())
    results, failures = [None] * n, {}  # failures: item index -> exception
    children = {}  # pid -> (its first item, its pipe), until reaped
    try:
        for first in range(1, workers):
            pid, pipe = _fork_worker(fn, items, first, workers)
            children[pid] = (first, pipe)
        for i in range(0, n, workers):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failures[i] = exc
                break
        for pid, (i, pipe) in list(children.items()):
            with pipe:
                while i < min(failures, default=n):  # the child's items arrive in order
                    try:
                        ok, value = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the child exited or died
                        break
                    if ok:
                        results[i] = value
                    else:
                        failures[i] = value
                    i += workers
            if i < n:  # whatever the child still runs is past a failure, or it ended early
                os.kill(pid, _SIGKILL)
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if i < min(failures, default=n):
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                failures[i] = WorkerError(f"the worker process training {name(items[i])} "
                                          f"ended without its result ({how})")
        if failures:
            raise failures[min(failures)]
        return results
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)


def _train_cells(cell_configs: list, seed_configs: list, world_spec: WorldSpec, scored: bool):
    """Train every cell on every seed (``seed_configs``: the base config at each
    seed); return the stacked stage-1 stack, or None, and per cell [fpv_stack,
    tpv_stack, records, final FPV and TPV test accuracies per seed].  ``scored``,
    all four sets are drawn up front and every epoch scores its test sets.
    Unscored, no TPV test set is drawn, a cell keeps only its FPV stack and FPV
    accuracies, and the train sets are freed before any FPV test set is drawn.

    Once stage 1 is trained, the cells are independent: each reads the stage-1
    stack and the sets, and none reads another's output.  So they train in up
    to one process per usable CPU (``_map_forked``), bitwise as in one process;
    a one-cell grid, as a single run is, forks nothing.
    """
    seeds = [cfg.seed for cfg in seed_configs]
    worlds = [build_world(world_spec, seed) for seed in seeds]

    def draw(split: str, r: int):  # split ``fpv_train``, ``tpv_test`` ... of seed r
        n = getattr(seed_configs[r], f"n_{split}")
        return sample_dataset(worlds[r], split[:3], n, derive_seeds(seeds[r])[split])

    splits = ("fpv_train", "tpv_train", "fpv_test", "tpv_test")[: 4 if scored else 2]
    sets = {split: stack_datasets([draw(split, r) for r in range(len(seeds))]) for split in splits}
    fpv_test, tpv_test = sets.get("fpv_test"), sets.get("tpv_test")
    stage1_config = next((c for c in cell_configs if c.tpv_mode != "same_init"), None)
    stage1_records = [] if scored else None
    stage1 = None if stage1_config is None else pretrain_tpv(
        stage1_config, world_spec, sets["tpv_train"], tpv_test, stage1_records, seeds)

    def train_cell(cfg):  # unscored, what it returns is the FPV stack only
        fpv, tpv, records = joint_train(cfg, world_spec, sets["fpv_train"], sets["tpv_train"],
                                        None if cfg.tpv_mode == "same_init" else stage1,
                                        fpv_test, tpv_test, seeds)
        return (fpv, tpv, records) if scored else (fpv, None, None)

    trained = _map_forked(train_cell, cell_configs, lambda c: f"cell {c.method} x {c.tpv_mode}")
    cells = [[fpv, tpv, stage1_records + records, [], []] if scored else [fpv, None, None, [], None]
             for fpv, tpv, records in trained]
    del sets  # no cell reads the train sets again: freed before any test set is drawn
    for r in range(len(seeds)):
        fpv_test_r = _replica_corpus(fpv_test, r) if scored else draw("fpv_test", r)
        for fpv, tpv, _, fpv_accs, tpv_accs in cells:
            fpv_accs.append(evaluate_fpv(replica(fpv, r), fpv_test_r))
            if scored:
                tpv_accs.append(evaluate_fpv(replica(tpv, r), _replica_corpus(tpv_test, r)))
    return stage1, cells


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
    The cells train in up to one process per usable CPU, this one among them,
    and the rows are bitwise those of one process; a failing cell's error is
    raised after every worker process has ended.
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
            write_effective_config(world_spec, base_config,
                                   os.path.join(out_dir, "effective_config.json"))
            for name, rows in (("runs.csv", runs), ("summary.csv", cells)):
                write_csv(os.path.join(out_dir, name), list(rows[0]), (r.values() for r in rows))
    return runs, cells
