"""Synthetic dataset generation and desk-scale scaling experiments."""

from .generate import (
    DEMO_SKIM,
    DEMO_TREE,
    DatasetManifest,
    FileEntry,
    GenSpec,
    demo_job,
    ensure_dataset,
    generate,
)
from .experiments import (
    VARIANTS,
    CoreRow,
    CoreScalingResult,
    ExperimentSpec,
    ReadaheadRow,
    ReadaheadResult,
    SizeRow,
    SizeScalingResult,
    linear_fit,
    run_experiment,
)
from .prng import GOLDEN, file_key, mix64, draw, draw_array, unit, unit_array
from .report import write_report

__all__ = [
    "DEMO_SKIM",
    "DEMO_TREE",
    "DatasetManifest",
    "FileEntry",
    "GenSpec",
    "demo_job",
    "ensure_dataset",
    "generate",
    "VARIANTS",
    "CoreRow",
    "CoreScalingResult",
    "ExperimentSpec",
    "ReadaheadRow",
    "ReadaheadResult",
    "SizeRow",
    "SizeScalingResult",
    "linear_fit",
    "run_experiment",
    "GOLDEN",
    "file_key",
    "mix64",
    "draw",
    "draw_array",
    "unit",
    "unit_array",
    "write_report",
]
