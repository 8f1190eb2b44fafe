"""ultragrid: discrete calculus on nested dyadic grids with a level-net solver.

The package realizes, at finite resolution, a calculus of grid functions
whose derivative is summation-by-parts exact, a measure theory built from
ball-averaged density functions, a classification of level-indexed nets by
their standard part, and a variational solver that minimizes a functional
level by level and splits the resulting net into a classical part plus a
remainder.  Three packaged studies (sawtooth oscillation, critical Sobolev
quotient, singular-potential interface problem) exercise the full stack.
"""

from .grid import (
    DEFAULT_NODE_CAP,
    Domain,
    GridLevel,
    NodeSet,
    ResourceLimitError,
    build_level,
)
from .calculus import (
    DiffOp,
    GridFunction,
    TestFunction,
    bump,
    derivative,
    derivative_kernel_dimension,
    diff_op,
    divergence,
    grid_function_from_binary,
    grid_function_to_binary,
    inner,
    integral,
    norm,
    restrict,
    standard_battery,
)
from .measure import (
    Ball,
    Box,
    GaussResult,
    HalfSpace,
    NodeMask,
    density,
    gauss_check,
    perimeter,
)
from .nets import (
    Classification,
    Kind,
    Net,
    classify,
    coarse_values,
    pointwise_standard_part,
)
from .solver import (
    ELReport,
    LevelObjective,
    MinResult,
    PairingReport,
    ProblemSpec,
    SolutionNet,
    Splitting,
    StartRecord,
    minimize_level,
    prolong,
    solve_net,
    split,
    verify_euler_lagrange,
)
from .problems import (
    BoundaryDataError,
    QuadraticWell,
    bubble,
    concentration_metric,
    sawtooth_pattern,
    sawtooth_spec,
    sign_perturbed_spec,
    singular_spec,
    sobolev_constant,
)

__version__ = "0.1.0"
