"""Exact-arithmetic toolkit for fractional colouring of K_Delta-free graphs.

Everything numeric on a verification path is a fractions.Fraction; floats
appear only in statistical tolerance bands.
"""

from .bounds import (
    BoundReport,
    emit_p_curve,
    emit_table,
    main_bound,
    mu_values,
    p_value,
)
from .graphs import (
    CliqueStructure,
    Graph,
    block_graph,
    c5xk3_minus,
    clique_structure,
    complete_graph,
    cycle_graph,
    cycle_power,
    delete_vertices,
    generalized_petersen,
    read_edge_list,
    reed_weight,
    strong_product,
    write_edge_list,
)
from .intervals import (
    IntervalColouring,
    IntervalSet,
    StableSetWeighting,
    hall_extend,
    to_intervals,
    to_weighting,
    verify_certificate,
)
from .lp import LpResult, chi_f, chi_f_weighted, max_weight_stable_set
from .pipeline import end_to_end, initial_colouring, verify_theorem_initial
from .sampling import StableSetSampler, estimate
from .structure import (
    find_bump,
    find_near_clique,
    pipeline_eligibility,
)

__version__ = "0.1.0"
