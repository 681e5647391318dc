"""Closed-loop benchmark of the suml package.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process runs one workload.  Each iteration is one
complete user command and the next starts only after it finishes (a closed
loop with one client).  An iteration starts while at least half of the
median iteration so far fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, untraced.
Wall and CPU time are reported in units of a reference loop timed during
each iteration (see ``HostSpeed``), because the host's speed drifts.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: self time and call counts of the package functions the
tracer wraps, work counters, and the tracing overhead.  The spans of the
last traced iteration are written to ``.bench_out/spans-<workload>.csv``.

Every metric is printed by name and unit, then the machine context; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
REFERENCE_LOOP = 130_000  # about 10 ms of pure Python on a 2020s x86 core
REFERENCE_PERIOD_S = 0.25
MAX_MEASURE_S = 150.0  # stay well inside the 180 s a run may take
LOSS_FUNCTIONS = (
    "info_nce_direction", "info_nce_symmetric", "dcl_direction", "semantic_weights",
    "alignment_loss_unweighted", "weighted_alignment_loss",
    "weighted_alignment_loss_pooled", "multimodal_loss", "cross_entropy",
    "triplet_loss", "total_loss",
)
ALIGNMENT_LOSSES = {
    "alignment_loss_unweighted", "weighted_alignment_loss",
    "weighted_alignment_loss_pooled", "triplet_loss",
}
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
BLAS_ENV_SEEN = {var: os.environ.get(var) for var in BLAS_ENV_VARS}


def default_blas_threads():
    """Give BLAS one thread unless the user chose a thread count.

    On a few shared cores, BLAS threads that spin-wait on these small matmuls
    make the timings much noisier whenever a neighbour is busy.  Any of
    ``BLAS_ENV_VARS`` set by the user leaves all of them alone.  Must run
    before numpy is imported.
    """
    if all(value is None for value in BLAS_ENV_SEEN.values()):
        for var in BLAS_ENV_VARS:
            os.environ[var] = "1"


# -- tracer hooks: counters taken at the layer boundaries ----------------------

def _in_aligning_joint_train(span):
    parent = span.parent
    return (parent is not None and parent.name == "pipeline.joint_train"
            and parent.args[0].method != "fpv_only")


def _on_mine(tracer, span, result):
    tracer.counts["mining.sims"] += len(span.args[0]) * len(span.args[1])


def _on_encode(tracer, span, result):
    tracer.counts["model.rows"] += len(span.args[1])
    if span.args[0].view == "fpv" and _in_aligning_joint_train(span):
        tracer.counts["losses.stage2_batches"] += 1


def _on_align(tracer, span, result):
    if _in_aligning_joint_train(span):
        tracer.counts["losses.align_calls"] += 1


def _on_joint_train(tracer, span, result):
    records = result[2]
    tracer.counts["pipeline.selected_sum"] += sum(r.selected_pair_fraction for r in records)
    tracer.counts["pipeline.selected_n"] += len(records)


def _bytes_hook(counter, arg_index):
    def hook(tracer, span, result):
        tracer.counts[counter] += os.path.getsize(span.args[arg_index])
    return hook


TRACED = {
    "datagen.generate_world": None,
    "datagen.sample_dataset": None,
    "datagen.write_dataset": _bytes_hook("datagen.bytes_written", 1),
    "datagen.read_dataset": _bytes_hook("datagen.bytes_read", 0),
    "mining.mine_pseudo_pairs": _on_mine,
    "mining.similarity_histogram": None,
    "model.encode_batch": _on_encode,
    "model.backward": None,
    "model.sgd_momentum_step": None,
    "model.save_checkpoint": _bytes_hook("model.checkpoint_bytes", 1),
    "model.load_checkpoint": None,
    **{f"losses.{fn}": (_on_align if fn in ALIGNMENT_LOSSES else None)
       for fn in LOSS_FUNCTIONS},
    "pipeline.run_ablation_grid": None,
    "pipeline.run_experiment": None,
    "pipeline.pretrain_tpv": None,
    "pipeline.joint_train": _on_joint_train,
    "pipeline.evaluate_fpv": None,
    "pipeline.write_metrics_jsonl": None,
    "cli.main": None,
    "cli.parse_config": None,
    "gradcheck.run_all": None,
    "gradcheck.check_loss_gradients": None,
    "gradcheck.check_model_gradients": None,
    "gradcheck.check_normalization_projector": None,
    "gradcheck.finite_difference": None,
}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))


def layer_metrics(tracer, quality):
    """Per-layer metrics of one traced iteration."""
    c = tracer.counts
    m = {}
    for name in TRACED:
        m[f"{name}.self_s"] = tracer.self_ns[name] / 1e9
        m[f"{name}.calls"] = tracer.calls[name]
    mine_s = m["mining.mine_pseudo_pairs.self_s"]
    m["mining.sims_per_s"] = c["mining.sims"] / mine_s if mine_s > 0 else 0.0
    encodes = tracer.calls["model.encode_batch"]
    m["model.rows_per_call"] = c["model.rows"] / encodes if encodes else 0.0
    batches = c["losses.stage2_batches"]
    m["losses.align_skip_frac"] = 1.0 - c["losses.align_calls"] / batches if batches else 0.0
    n_records = c["pipeline.selected_n"]
    m["pipeline.selected_pair_frac"] = (
        c["pipeline.selected_sum"] / n_records if n_records else 0.0)
    m["pipeline.fpv_test_acc"] = quality.get("fpv_test_acc", 0.0)
    for counter in ("datagen.bytes_written", "datagen.bytes_read", "model.checkpoint_bytes"):
        m[counter] = c[counter]
    for layer in LAYERS:
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m


# -- measurement ---------------------------------------------------------------

def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class HostSpeed:
    """Times a fixed pure-Python loop every ``REFERENCE_PERIOD_S`` of wall time.

    On a shared host the speed of one core drifts by a third within minutes.
    A timer signal runs the loop inside the timed iteration, so the samples see
    the host as the iteration sees it; the wall and CPU time the samples take
    are kept apart so that they can be taken back out of the iteration's.
    """

    def __init__(self):
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0
        self.running = False

    def sample(self, *_signal_args):
        if not self.running:
            return  # a signal that arrived as the iteration ended
        h0, c0 = time.perf_counter(), _cpu_seconds()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        end = time.perf_counter()
        self.samples.append(end - h0)
        self.wall += end - h0
        self.cpu += _cpu_seconds() - c0

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.running = False

    def loop_seconds(self):
        """Mean time of one loop during the iteration, sampling once if it was short."""
        if not self.samples:
            self.running = True
            self.sample()
            self.running = False
        return statistics.fmean(self.samples)


@dataclass
class Iteration:
    wall: float
    cpu: float
    problems: list
    quality: dict
    tracer: Tracer | None
    ref: float = math.nan  # reference loop seconds during the iteration


def run_iteration(workload, traced, host=None):
    """One timed user command; the output check runs after the clock stops.

    With ``host``, the host's speed is sampled during the command and the
    samples' own time is subtracted from the iteration's wall and CPU time.
    """
    workload.reset()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install("suml", TRACED)
    if host is not None:
        host.start()
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = workload.run()
        error = None
    except Exception as exc:  # a failed command is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if host is not None:
            host.stop()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    ref = math.nan
    if host is not None:
        wall, cpu = wall - host.wall, cpu - host.cpu
        ref = host.loop_seconds()
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return Iteration(wall, cpu, [error], {}, tracer, ref)
    try:
        problems = workload.check(result)
        quality = workload.quality(result)
    except Exception as exc:
        problems, quality = [f"output check raised {type(exc).__name__}: {exc}"], {}
    return Iteration(wall, cpu, problems, quality, tracer, ref)


def closed_loop(workload, seconds, kinds, measure_host):
    """Run iterations, cycling through ``kinds`` (traced flags), for ``seconds``.

    The next iteration starts only if at least half of the median wall time of
    its kind so far still fits, so that the run measures about ``seconds``
    however long one iteration is; every kind runs at least once.
    """
    done = {kind: [] for kind in kinds}
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        host = HostSpeed() if measure_host else None
        done[kind].append(run_iteration(workload, kind, host))
        i += 1
        elapsed = time.perf_counter() - start
        upcoming = done[kinds[i % len(kinds)]]
        if not upcoming:
            continue
        predicted_end = elapsed + statistics.median(it.wall for it in upcoming) / 2
        if predicted_end > seconds or elapsed > MAX_MEASURE_S:
            return done


def tail(walls):
    """Highest of p75/p90/p95/p99 with >= 10 iterations beyond it (nearest rank)."""
    ordered = sorted(walls)
    n = len(ordered)
    best = None
    for p in (75, 90, 95, 99):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n)
    return best


def setup_seconds(workload_name, seed):
    """Median over fresh processes of ``import suml`` plus input preparation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_package():
    """Import suml from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import suml

    if Path(suml.__file__).resolve().parent != SRC / "suml":
        raise ImportError(f"suml imported from {suml.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- context and reporting -----------------------------------------------------

def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_context():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env_seen": BLAS_ENV_SEEN,
        "blas_env_used": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "git_commit": git_commit(),
    }


def declared_metrics(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time import plus input preparation, print seconds, exit")
    args = parser.parse_args(argv)
    default_blas_threads()
    workdir = OUT / f"work-{os.getpid()}"

    if args.probe_setup:
        t0 = time.perf_counter()
        workloads = import_package()
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(time.perf_counter() - t0)
        return 0

    load_start = os.getloadavg()[0]
    if not (SRC / "suml" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup_s = setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    OUT.mkdir(exist_ok=True)
    try:
        kinds = (False, True) if args.trace else (False,)
        done = closed_loop(workload, args.seconds, kinds, measure_host=not args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced = done[False], done.get(True, [])
    everything = plain + traced
    failed = sum(1 for it in everything if it.problems)
    walls = [it.wall for it in plain]
    wall_s = statistics.median(walls)
    quality = next((it.quality for it in everything if not it.problems), {})

    if args.trace:
        declared = declared_metrics("per_layer")
        per_iter = [layer_metrics(it.tracer, it.quality) for it in traced]
        metrics = {name: statistics.median(m[name] for m in per_iter)
                   for name in per_iter[0]}
        metrics["trace_overhead_frac"] = (
            statistics.median(it.wall for it in traced) - wall_s) / wall_s
        traced[-1].tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        declared = declared_metrics("end_to_end")
        metrics = {
            "wall_ref": statistics.median(it.wall / it.ref for it in plain),
            "cpu_ref": statistics.median(it.cpu / it.ref for it in plain),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": setup_s,
        }
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced iterations, {failed} failed")
    for it in everything:
        for problem in it.problems:
            print(f"  check failed: {problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {declared[name]}")
    print(f"info wall_s = {wall_s!r} s")
    print(f"info cpu_s = {statistics.median(it.cpu for it in plain)!r} s")
    if not args.trace:
        print(f"info reference_s = {statistics.median(it.ref for it in plain)!r} s")
    print("info wall_s.samples = " + json.dumps([round(w, 6) for w in walls]))
    if traced:
        print("info traced wall_s.samples = "
              + json.dumps([round(it.wall, 6) for it in traced]))
    t = tail(walls)
    if t is not None:
        print(f"info wall_s.tail = {t[1]!r} s (p{t[0]}, n={t[2]})")
    print(f"info ops_failed_frac = {failed / len(everything)!r}")
    for name, value in quality.items():
        print(f"info {name} = {value!r}")
    context = machine_context()
    context["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
