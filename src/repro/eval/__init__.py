"""`repro.eval` — evaluation protocols for searched architectures.

Stand-alone proxy-task retraining (§4.1), Table-2-style ImageNet rows via
the accuracy oracle, the SSDLite/COCO transfer surrogate (Table 3), and
search-cost accounting (Table 1).
"""

from .cost import (
    IMPLICIT_RUNS,
    PAPER_REPORTED_GPU_HOURS,
    MethodCost,
    simulated_gpu_hours,
    total_design_cost,
)
from .detection import DetectionEvaluator, DetectionResult
from .imagenet import ImageNetEvaluator, ImageNetRow
from .pareto import FrontPoint, dominates, front_gap, pareto_front
from .trainer import TrainReport, accuracy, train_standalone

__all__ = [
    "train_standalone",
    "accuracy",
    "TrainReport",
    "ImageNetEvaluator",
    "ImageNetRow",
    "DetectionEvaluator",
    "DetectionResult",
    "FrontPoint",
    "dominates",
    "pareto_front",
    "front_gap",
    "MethodCost",
    "simulated_gpu_hours",
    "total_design_cost",
    "PAPER_REPORTED_GPU_HOURS",
    "IMPLICIT_RUNS",
]
