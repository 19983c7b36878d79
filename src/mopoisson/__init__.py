"""Pareto-stationary points of bicriterial pointwise-tracking Poisson control.

P1 finite elements for states and adjoints, piecewise-constant controls
with bilateral bounds, and two scalarizations (weighted sums, reference
points) solved by a projected Barzilai-Borwein gradient method.
"""

from .control import (
    BoxBounds,
    l2_error,
    pi0_project,
    prolong,
    read_control,
    write_control,
)
from .experiments import (
    ConvergenceTable,
    ExperimentConfig,
    benchmark_problem,
    estimate_rate,
    export_csv,
    run_convergence_rpm,
    run_convergence_wsm,
    run_front,
    shared_system,
)
from .fem import (
    SolverError,
    StiffnessSystem,
    assemble_load_pwc,
    assemble_point_load,
    assemble_stiffness,
    evaluate,
    solve_spd,
)
from .mesh import (
    MAX_LEVEL,
    TriMesh,
    build_uniform_mesh,
)
from .objective import (
    ObjectivePair,
    ProblemData,
    eval_objectives,
    grad_rpm,
    grad_wsm,
    solve_adjoints,
    solve_state,
)
from .scalarize import (
    BBConfig,
    FrontEntry,
    ParetoFront,
    SolveReport,
    bb_projected_gradient,
    ideal_vector,
    next_reference_point,
    rpm_front,
    solve_rpm,
    solve_wsm,
    wsm_front,
)

__version__ = "0.1.0"
