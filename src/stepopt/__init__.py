"""Optimized time-step schedules for multistep exponential-integrator
solvers of diffusion probability-flow ODEs.

The package computes solver weights exactly, evaluates the
score-error-weighted bound those weights induce, minimizes it over the
interior log-SNR nodes with scipy's L-BFGS-B over softmax gap logits,
which keep every node gap above the margin, and validates the resulting
schedules against analytic-score simulations.
"""

__version__ = "0.1.0"

from .schedules import (  # noqa: F401
    DomainError,
    LambdaGrid,
    NoiseSchedule,
    edm_grid,
    uniform_lambda_grid,
    uniform_t_grid,
)
from .weights import (  # noqa: F401
    OrderSchedule,
    WeightTable,
    aggregate,
    weights_lagrange,
    weights_taylor,
)
from .objective import (  # noqa: F401
    ConstraintViolationError,
    ObjectiveSpec,
    objective_gradient,
    objective_value,
    score_error_weight,
)
from .optimizer import (  # noqa: F401
    InfeasibleError,
    OptimizedSchedule,
    OptimizerConfig,
    optimize_steps,
)
from .simulator import (  # noqa: F401
    AnalyticModel,
    SamplerRun,
    SimulationReport,
    data_prediction,
    evaluate_schedules,
    load_model,
    multistep_sample,
    reference_solution,
    standard_test_mixture,
)
from .schedule_file import ScheduleFile  # noqa: F401
