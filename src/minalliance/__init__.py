"""Exact solvers for the minimum defensive alliance problem on undirected graphs."""

from .alliances import (
    BRUTE_MAX_N,
    AllianceSolution,
    BudgetExceeded,
    InternalVerificationError,
    SearchGuardError,
    brute_force_min_alliance,
    degree_alliance,
    protection_threshold,
    verify_alliance,
)
from .dimacs import emit_dimacs, parse_dimacs
from .fpt import (
    demand,
    normalize_partial_cliques,
    solve_dtc,
    solve_dtc_detailed,
    solve_twincover,
    solve_twincover_detailed,
)
from .generators import GeneratorSpec, generate, parse_generator_spec
from .graphs import (
    Graph,
    build_graph,
    distances_from,
    girth,
    is_connected,
)
from .ilp import (
    IlpBudgetExceeded,
    IlpProblem,
    IlpSolution,
    encode_min_alliance_ilp,
    solve_ilp,
    solve_min_alliance_ilp,
)
from .lowdeg import solve_min_alliance_lowdeg
from .params import (
    TwinClass,
    TwinPartition,
    distance_to_clique_set,
    is_twin_cover,
    partition_clique_sets,
    partition_twin_classes,
    twin_cover_set,
)
from .reduction import (
    CopyIds,
    GadgetBounds,
    ReductionInstance,
    alliance_from_dominating_set,
    build_reduction,
    extract_dominating_set,
    gadget_bounds,
    gadget_size_estimate,
    girth_lower_bound,
    is_dominating_set,
    minimum_dominating_set,
    moore_bound,
)
from .search import solve_min_alliance_search

__version__ = "0.1.0"
