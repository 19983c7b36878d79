"""Pareto-stationary points of bicriterial pointwise-tracking Poisson control.

P1 finite elements for states and adjoints, piecewise-constant controls
with bilateral bounds, and two scalarizations (weighted sums, reference
points) solved by a projected Barzilai-Borwein gradient method.

The package exports the study API: the entry points, the inputs a caller
builds and the error a caller catches.  Layer functions are imported from
their modules.
"""

from .control import BoxBounds, read_control, write_control
from .experiments import (
    ExperimentConfig,
    benchmark_problem,
    export_csv,
    run_convergence,
    run_front,
    shared_system,
)
from .fem import SolverError
from .objective import ProblemData
from .scalarize import BBConfig, ideal_vector, rpm_front, solve_rpm, solve_wsm, wsm_front

__version__ = "0.1.0"
