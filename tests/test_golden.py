"""Golden trajectory: the seed-0 default run, a small all-modes grid and the
gradient suite's report, pinned.

The pins were recorded, and hold, on numpy 2.4 with its bundled OpenBLAS
picking the ``SkylakeX`` kernels and numpy's AVX-512 loops (x86-64).  A change
that alters training numbers on purpose regenerates them with
``python tests/test_golden.py`` and says why; a refactor must leave them
untouched.  GEMM kernels and SIMD loops round differently on each instruction
set.  Under other OpenBLAS kernels (``OPENBLAS_CORETYPE=Haswell``, ``Zen``,
``Sandybridge`` or ``Prescott``) 3 of the 4 pins differ: ``GRID_ROWS_SHA256``
holds, while the default run, the cell records and the gradient report do
not.  With only numpy's AVX-512 loops off, the default run and the cell
records differ.  So a mismatch on a different platform is a platform
difference first, not necessarily a bug.
"""

import hashlib
import json
import sys
from dataclasses import replace

from suml import gradcheck
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
    "metrics.jsonl": "a5879a49b371ab3e71d632a85b266b96c110e79a3518946e6dbe64fbb1fde536",
    "checkpoint_stage1_tpv.json": "a137a618c21560174e54559e8a721e98f6ca6bb1e3eeadfbad460fb031b42b1b",
    "checkpoint_fpv.json": "4cb512b8dd5e017ff76938a8cb14c8b82c5a1433694021afdd8974846f700ac8",
    "checkpoint_tpv.json": "654f087979cf24ea78751aae1ed0b9659df188204dfce149b21cabe90a4fd477",
    "summary.json": "28bced51df7defee4914879845ec3db5cd96a5be533cf9fa80fda1b335273389",
}

GRID_ROWS_SHA256 = "194bdd04d545c66c44c82b4195a2817588bc31d1602f9d5714fc25749739bbb3"

CELL_RECORDS_SHA256 = "91754b29a159a492757cf04df17eda1746ee6bf1f8289d5754cb1214bdb8697c"

GRADCHECK_REPORT_SHA256 = "813fdb10c1d24adc7046b84e6c0822d73282d1b7a297fd35e8056f62cca0bbaa"


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


def gradcheck_report_digest() -> str:
    """Digest of the default gradient suite's report, every error to the last bit."""
    _, report = gradcheck.run_all()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


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


def test_gradcheck_report_matches_pin():
    assert gradcheck_report_digest() == GRADCHECK_REPORT_SHA256


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(default_run_digests(pathlib.Path(tmp)), sys.stdout, indent=4)
    print()
    print(rows_digest(grid_rows()))
    print(rows_digest(cell_records()))
    print(gradcheck_report_digest())
