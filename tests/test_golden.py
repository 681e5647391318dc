"""Golden trajectory: the seed-0 default run and a small all-modes grid, pinned.

The pins were recorded with numpy 2.4 (bundled OpenBLAS, x86-64).  A change
that alters training numbers on purpose regenerates them with
``python tests/test_golden.py`` and says why; a refactor must leave them
untouched.  Another BLAS build may sum in another order, so a mismatch on a
different platform is a platform difference first, not necessarily a bug.
"""

import hashlib
import json
import sys
from dataclasses import replace

from suml.datagen import WorldSpec
from suml.pipeline import (
    METHODS,
    NEGATIVE_SET_MODES,
    TPV_MODES,
    TrainConfig,
    run_ablation_grid,
    run_experiment,
)

ARTIFACTS = (
    "metrics.jsonl",
    "checkpoint_stage1_tpv.json",
    "checkpoint_fpv.json",
    "checkpoint_tpv.json",
    "summary.json",
)

GRID_WORLD = WorldSpec(n_verbs=3, n_nouns=4, text_dim=16, feat_dim=12, frames_per_clip=2)
GRID_TRAIN = TrainConfig(
    epochs_stage1=2, epochs_stage2=3, n_fpv_train=24, n_tpv_train=32,
    n_fpv_test=40, n_tpv_test=24, batch_size=8, hidden_dim=12,
)

DEFAULT_RUN_SHA256 = {
    "metrics.jsonl": "77611806fb0b27284cac7788915c79b7dba3593850bcb69bf7a8a8df19648c59",
    "checkpoint_stage1_tpv.json": "a137a618c21560174e54559e8a721e98f6ca6bb1e3eeadfbad460fb031b42b1b",
    "checkpoint_fpv.json": "0baa310d952eb99691b11995525b3c3df273c1e59447b9bb6e80b7aaf3748c15",
    "checkpoint_tpv.json": "b8f9c2f603a1612d39ebecbf0f62f0291031d27f7026df3953d656a951be2045",
    "summary.json": "28bced51df7defee4914879845ec3db5cd96a5be533cf9fa80fda1b335273389",
}

GRID_ROWS_SHA256 = "194bdd04d545c66c44c82b4195a2817588bc31d1602f9d5714fc25749739bbb3"

CELL_RECORDS_SHA256 = "580bef3bc9fe1ae2fe6193d18ae6b1231bdeb41c551f628d0ba263c1e904e226"


def default_run_digests(out_dir) -> dict:
    run_experiment(TrainConfig(), WorldSpec(), out_dir=str(out_dir))
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def grid_rows() -> list:
    rows = []
    for mode in NEGATIVE_SET_MODES:
        runs, _ = run_ablation_grid(
            replace(GRID_TRAIN, negative_set_mode=mode), GRID_WORLD,
            METHODS, TPV_MODES, [0],
        )
        rows.extend({**r, "negative_set_mode": mode} for r in runs)
    return rows


def cell_records() -> list:
    """Every per-epoch record of each grid cell at seed 0, one run per cell."""
    cells = []
    for mode in NEGATIVE_SET_MODES:
        for method in METHODS:
            for tpv_mode in TPV_MODES:
                cfg = replace(GRID_TRAIN, method=method, tpv_mode=tpv_mode, negative_set_mode=mode)
                records = run_experiment(cfg, GRID_WORLD).records
                cells.append({
                    "method": method, "tpv_mode": tpv_mode, "negative_set_mode": mode,
                    "records": [r.to_dict() for r in records],
                })
    return cells


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_default_run_artifacts_match_pins(tmp_path):
    assert default_run_digests(tmp_path) == DEFAULT_RUN_SHA256


def test_all_modes_grid_matches_pin():
    rows = grid_rows()
    assert len(rows) == len(METHODS) * len(TPV_MODES) * len(NEGATIVE_SET_MODES)
    assert rows_digest(rows) == GRID_ROWS_SHA256


def test_all_modes_cell_records_match_pin():
    cells = cell_records()
    assert len(cells) == len(METHODS) * len(TPV_MODES) * len(NEGATIVE_SET_MODES)
    assert rows_digest(cells) == CELL_RECORDS_SHA256


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(default_run_digests(pathlib.Path(tmp)), sys.stdout, indent=4)
    print()
    print(rows_digest(grid_rows()))
    print(rows_digest(cell_records()))
