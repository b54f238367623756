"""Task-parallel reduction engine: plan entry-range tasks over input files,
skim on a worker pool, then slim/derive into part files (``run``) or fill
mergeable histograms (``fill``), and account for where the time went."""

from .job import EngineConfig, EngineError, JobSpec, load_job_file, read_settings, usable_cores
from .metrics import Manifest, ManifestEntry, TaskMetrics, WorkloadMetrics
from .planner import Task
from .runner import FillResult, RunResult, TaskFailure, fill, run

__all__ = [
    "EngineConfig",
    "EngineError",
    "JobSpec",
    "load_job_file",
    "read_settings",
    "usable_cores",
    "Manifest",
    "ManifestEntry",
    "TaskMetrics",
    "WorkloadMetrics",
    "Task",
    "FillResult",
    "RunResult",
    "TaskFailure",
    "fill",
    "run",
]
