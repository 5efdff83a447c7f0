"""Micro-expression recognition from subtle-motion integral projections.

Pipeline: robust low-rank/sparse clip decomposition -> improved integral
projections -> spatiotemporal binary-pattern group features (STLBP-IIP) ->
optional Laplacian-score group selection (DiSTLBP-IIP) -> chi-square-kernel
SVM under leave-one-subject-out evaluation.
"""

from .config import RunConfig, format_config, parse_config, parse_synth_spec
from .dataset import (
    DatasetIndex,
    IndexEntry,
    SynthSpec,
    VideoClip,
    load_clip,
    load_dataset,
    loso_splits,
    read_index,
    synthesize_dataset,
    write_dataset,
)
from .descriptor import DescriptorConfig, extract_descriptor
from .pipeline import EvaluationReport, emit_report, run_loso, train_full
from .rpca import RpcaConfig, SparseDecomposition, decompose_clip, rpca_inexact_alm

__version__ = "0.1.0"

__all__ = [
    "DatasetIndex",
    "DescriptorConfig",
    "EvaluationReport",
    "IndexEntry",
    "RpcaConfig",
    "RunConfig",
    "SparseDecomposition",
    "SynthSpec",
    "VideoClip",
    "decompose_clip",
    "emit_report",
    "extract_descriptor",
    "format_config",
    "load_clip",
    "load_dataset",
    "loso_splits",
    "parse_config",
    "parse_synth_spec",
    "read_index",
    "rpca_inexact_alm",
    "run_loso",
    "synthesize_dataset",
    "train_full",
    "write_dataset",
    "__version__",
]
