"""Dirichlet-form laboratory on a tree-like self-affine fractal."""

from .addressing import (
    Intersection,
    Vertex,
    apply_map,
    canonicalize,
    cell_intersection,
    coords,
    parse_vertex,
    vertex_str,
)
from .closed_forms import (
    CoefficientCase,
    HarmonicSpec,
    PsiCoefficients,
    energy_closed,
    eval_closed,
    psi_coefficients,
    u_down,
    u_minus,
    u_plus,
    u_up,
)
from .dirichlet import (
    VertexFunction,
    dirichlet_energy,
    effective_resistance,
    equilibrium_potential,
    green_g1,
    solve_dirichlet,
    solve_on_ball,
)
from .measure import (
    IntegralBounds,
    WeightVector,
    ball_measure,
    cell_measure,
    doubling_ratio,
    harmonic_weights,
    integrate_closed,
    integrate_pw_harmonic,
    measure_ball_bounds,
)
from .metric import Metric
from .network import (
    BallRegion,
    CapacityError,
    LevelGraph,
    Network,
    ball,
    ball_graph,
    build_level_graph,
    resistance_distance,
    schur_trace,
)

__version__ = "0.1.0"
