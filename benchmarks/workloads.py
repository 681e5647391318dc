"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs when it is built (that
is part of set-up), runs one complete user command per ``run()`` call, and
checks the command's outputs in ``check()``.  Everything goes through the
package's public functions, looked up on the module at call time so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

from suml import cli, gradcheck, pipeline
from suml.datagen import WorldSpec

GRID_METHODS = ("fpv_only", "sum_l", "sum_l_no_multimodal")


class Workload:
    def reset(self):
        """Prepare for the next iteration, outside the timed region."""

    def quality(self, result):
        """Accuracy figures of one iteration's result."""
        return {}


class Grid5Seed(Workload):
    """``run_ablation_grid`` over three methods x trainable x seeds s..s+4."""

    def __init__(self, seed, workdir):
        self.config = pipeline.TrainConfig()
        self.world = WorldSpec()
        self.seeds = list(range(seed, seed + 5))
        self.first = None

    def run(self):
        return pipeline.run_ablation_grid(
            self.config, self.world, GRID_METHODS, ("trainable",), self.seeds
        )

    def check(self, result):
        runs, cells = result
        problems = []
        if len(runs) != len(GRID_METHODS) * len(self.seeds):
            problems.append(f"grid returned {len(runs)} runs")
        if any(not 0.0 <= r["final_fpv_acc"] <= 1.0 for r in runs):
            problems.append("an accuracy lies outside [0, 1]")
        mean = {c["method"]: c["mean_fpv_acc"] for c in cells}
        # sum_l beats both ablations on every 5-seed window measured; the
        # sum_l_no_multimodal > fpv_only step does not (see README).
        if not (mean["sum_l"] > mean["sum_l_no_multimodal"] and mean["sum_l"] > mean["fpv_only"]):
            problems.append(f"sum_l does not beat both ablations: {mean}")
        accs = [(r["method"], r["seed"], r["final_fpv_acc"]) for r in runs]
        if self.first is None:
            self.first = accs
        elif accs != self.first:
            problems.append("a grid cell changed accuracy between iterations")
        return problems

    def quality(self, result):
        mean = {c["method"]: c["mean_fpv_acc"] for c in result[1]}
        return {
            "fpv_test_acc": mean["sum_l"],
            "acc_gain_vs_fpv_only": mean["sum_l"] - mean["fpv_only"],
            "no_multimodal_beats_fpv_only": mean["sum_l_no_multimodal"] > mean["fpv_only"],
        }


class CorpusLarge(Workload):
    """One ``run_experiment`` with 1000 FPV and 4000 TPV training clips."""

    def __init__(self, seed, workdir):
        self.config = pipeline.TrainConfig(n_fpv_train=1000, n_tpv_train=4000, seed=seed)
        self.world = WorldSpec()
        self.first = None

    def run(self):
        return pipeline.run_experiment(self.config, self.world)

    def check(self, result):
        problems = []
        for r in result.records:
            losses = (r.loss_f, r.loss_t, r.loss_aw, r.loss_m, r.loss_total)
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"non-finite loss in stage {r.stage} epoch {r.epoch}")
                break
        acc = result.final_fpv_test_acc
        if not 0.0 <= acc <= 1.0:
            problems.append(f"fpv_test_acc {acc} outside [0, 1]")
        if self.first is None:
            self.first = acc
        elif acc != self.first:
            problems.append(f"fpv_test_acc changed between iterations: {self.first} -> {acc}")
        return problems

    def quality(self, result):
        return {"fpv_test_acc": result.final_fpv_test_acc}


class CliFiles(Workload):
    """The README file flow through ``cli.main``: synth, mine, stats, train, eval."""

    N_FPV = 480
    N_TPV = 240

    def __init__(self, seed, workdir):
        self.dir = Path(workdir) / "cli_files"
        self.seed_arg = f"train.seed={seed}"

    def reset(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def _paths(self):
        d = self.dir
        return {k: str(d / v) for k, v in (
            ("fpv", "fpv.jsonl"), ("tpv", "tpv.jsonl"), ("pairs", "pairs.csv"),
            ("hist", "hist.csv"), ("run", "run"),
            ("ckpt", "run/checkpoint_fpv.json"),
        )}

    def run(self):
        p = self._paths()
        commands = [
            ["synth", "--view", "fpv", "--n", str(self.N_FPV), "--out", p["fpv"],
             "--set", self.seed_arg],
            ["synth", "--view", "tpv", "--n", str(self.N_TPV), "--out", p["tpv"],
             "--set", self.seed_arg],
            ["mine", "--fpv", p["fpv"], "--tpv", p["tpv"], "--out", p["pairs"]],
            ["stats", "--pairs", p["pairs"], "--out", p["hist"]],
            ["train", "--out-dir", p["run"], "--set", self.seed_arg],
            ["eval", "--checkpoint", p["ckpt"], "--dataset", p["fpv"]],
        ]
        codes = []
        out, err = io.StringIO(), io.StringIO()
        for argv in commands:
            out.seek(0)
            out.truncate()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
        return codes, out.getvalue(), err.getvalue()

    def check(self, result):
        codes, eval_stdout, stderr = result
        if any(code != 0 for code in codes):
            return [f"a command exited non-zero: {codes}; stderr: {stderr.strip()}"]
        p = self._paths()
        problems = []
        with open(p["pairs"], newline="") as fh:
            n_pairs = sum(1 for _ in csv.DictReader(fh))
        if n_pairs != self.N_FPV:
            problems.append(f"pairs.csv has {n_pairs} rows, expected {self.N_FPV}")
        with open(p["hist"], newline="") as fh:
            n_hist = sum(int(row["count"]) for row in csv.DictReader(fh))
        if n_hist != n_pairs:
            problems.append(f"histogram counts sum to {n_hist}, expected {n_pairs}")
        try:
            with open(Path(p["run"]) / "metrics.jsonl") as fh:
                for line in fh:
                    json.loads(line)
        except ValueError as exc:
            problems.append(f"metrics.jsonl does not parse: {exc}")
        acc = json.loads(eval_stdout)["accuracy"]
        if not 0.0 <= acc <= 1.0:
            problems.append(f"eval accuracy {acc} outside [0, 1]")
        return problems

    def quality(self, result):
        return {"fpv_test_acc": json.loads(result[1])["accuracy"]}


class Gradcheck(Workload):
    """``gradcheck.run_all()``: the finite-difference suite on 3-6 row batches.

    The suite runs on its default instances, as the test suite runs it; the
    benchmark seed does not change them.  Instance sizes are drawn from the
    suite's own seed, and two seeds tried differed by about 10 % in work.
    """

    def __init__(self, seed, workdir):
        pass

    def run(self):
        return gradcheck.run_all()

    def check(self, result):
        ok, report = result
        return [] if ok else [f"gradient check failed: {report}"]


WORKLOADS = {
    "grid_5seed": Grid5Seed,
    "corpus_large": CorpusLarge,
    "cli_files": CliFiles,
    "gradcheck": Gradcheck,
}
