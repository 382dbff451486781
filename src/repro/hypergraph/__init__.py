"""Query hypergraphs: acyclicity, elimination orders, widths, AGM bounds."""

from repro.hypergraph.agm import (
    CoverLP,
    agm_bound,
    edge_cover_lp,
    fractional_cover_number,
    fractional_edge_cover,
    solve_cover_lp,
)
from repro.hypergraph.acyclicity import (
    find_beta_cycle,
    gyo_reduction,
    is_alpha_acyclic,
    is_beta_acyclic,
    is_beta_acyclic_bruteforce,
    join_tree,
    nest_points,
    nested_elimination_order,
)
from repro.hypergraph.elimination import (
    choose_gao,
    elimination_width,
    is_chain,
    is_nested_elimination_order,
    min_fill_order,
    prefix_posets,
    tree_decomposition,
    validate_tree_decomposition,
)
from repro.hypergraph.hypergraph import Hypergraph, query_hypergraph
from repro.hypergraph.treewidth_exact import (
    best_elimination_order_bruteforce,
    exact_treewidth,
)

__all__ = [
    "CoverLP",
    "agm_bound",
    "edge_cover_lp",
    "fractional_cover_number",
    "fractional_edge_cover",
    "solve_cover_lp",
    "best_elimination_order_bruteforce",
    "exact_treewidth",
    "Hypergraph",
    "query_hypergraph",
    "find_beta_cycle",
    "gyo_reduction",
    "is_alpha_acyclic",
    "is_beta_acyclic",
    "is_beta_acyclic_bruteforce",
    "join_tree",
    "nest_points",
    "nested_elimination_order",
    "choose_gao",
    "elimination_width",
    "is_chain",
    "is_nested_elimination_order",
    "min_fill_order",
    "prefix_posets",
    "tree_decomposition",
    "validate_tree_decomposition",
]
