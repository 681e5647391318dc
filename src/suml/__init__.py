"""Semantics-gated alignment of unpaired first-/third-person views on synthetic data."""

from .datagen import Corpus, SyntheticWorld, VideoSample, WorldSpec, generate_world, sample_dataset
from .losses import LossConfig, LossOutput
from .mining import PairBatch, PseudoPair, SimilarityHistogram
from .model import EncoderStack, MlpParams
from .pipeline import MetricsRecord, TrainConfig, evaluate_fpv, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "EncoderStack",
    "LossConfig",
    "LossOutput",
    "MetricsRecord",
    "MlpParams",
    "PairBatch",
    "PseudoPair",
    "SimilarityHistogram",
    "SyntheticWorld",
    "TrainConfig",
    "VideoSample",
    "WorldSpec",
    "evaluate_fpv",
    "generate_world",
    "run_experiment",
    "sample_dataset",
    "__version__",
]
