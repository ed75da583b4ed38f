"""Exact toolkit for signed k-domination, signed total k-domination, and
upper signed k-domination of graphs."""

from .bounds import (
    BoundValue,
    DegreeProfile,
    effective_bound,
    indicator,
    lower_bound,
    nearly_regular_bound,
    nonneg_check,
    threshold_check,
)
from .certify import (
    Mode,
    SignFunction,
    VerifyReport,
    emit_certificate,
    forced_plus_vertices,
    is_minimal_skdf,
    parse_certificate,
    verify,
)
from .extremal import ExtremalSpec, build_extremal, extremal_params
from .graph import (
    Graph,
    GraphFormatError,
    Matching,
    complete,
    complete_bipartite,
    cycle,
    emit_graph,
    one_factorization,
    parse_graph,
    path,
)
from .reductions import (
    ReductionArtifact,
    ThreeSatFormula,
    lift_solution,
    parse_cnf,
    project_solution,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
)
from .solve import (
    SolveResult,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
    gamma,
    gamma_t,
    one_in_three_sat,
)

__version__ = "0.1.0"
