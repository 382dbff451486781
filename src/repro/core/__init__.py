"""Core: the Minesweeper join algorithm and its constraint data structure."""

from repro.core.cds import CDSNode, ConstraintTree
from repro.core.cds_arena import (
    ArenaChainProbeStrategy,
    ArenaConstraintTree,
    ArenaGeneralProbeStrategy,
    CDS_BACKENDS,
    DEFAULT_CDS_BACKEND,
    make_cds,
    make_probe_strategy,
    resolve_cds_backend,
)
from repro.core.constraints import (
    WILDCARD,
    Constraint,
    constraint_from_values,
    equality_count,
    generalizes_prefix,
    last_equality_position,
    meet,
    specializes,
)
from repro.core.bowtie import BowtieMinesweeper, bowtie_join
from repro.core.engine import ExecSpec, JoinResult, iterate_join, join, run_join
from repro.core.explain import Explanation, explain, format_explanation
from repro.core.gao_search import (
    GaoSearchResult,
    all_nested_elimination_orders,
    estimate_certificate,
    search_gao,
)
from repro.core.incremental import LiveJoin, consistent_gao
from repro.core.intersection import (
    intersect_sorted,
    intersection_certificate_size,
    partition_certificate,
    merge_intersection,
)
from repro.core.minesweeper import Minesweeper, MinesweeperError
from repro.core.probe_acyclic import ChainProbeStrategy, NotAChainError, sort_as_chain
from repro.core.probe_general import GeneralProbeStrategy
from repro.core.query import PreparedQuery, Query, naive_join
from repro.core.triangle import DyadicTree, TriangleMinesweeper, triangle_join
from repro.core.triangle_arena import ArenaTriangleMinesweeper

__all__ = [
    "ArenaChainProbeStrategy",
    "ArenaConstraintTree",
    "ArenaGeneralProbeStrategy",
    "ArenaTriangleMinesweeper",
    "CDS_BACKENDS",
    "DEFAULT_CDS_BACKEND",
    "make_cds",
    "make_probe_strategy",
    "resolve_cds_backend",
    "CDSNode",
    "ConstraintTree",
    "WILDCARD",
    "Constraint",
    "constraint_from_values",
    "equality_count",
    "generalizes_prefix",
    "last_equality_position",
    "meet",
    "specializes",
    "ExecSpec",
    "JoinResult",
    "iterate_join",
    "join",
    "run_join",
    "Explanation",
    "explain",
    "format_explanation",
    "GaoSearchResult",
    "all_nested_elimination_orders",
    "estimate_certificate",
    "search_gao",
    "partition_certificate",
    "LiveJoin",
    "consistent_gao",
    "Minesweeper",
    "MinesweeperError",
    "ChainProbeStrategy",
    "NotAChainError",
    "sort_as_chain",
    "GeneralProbeStrategy",
    "BowtieMinesweeper",
    "bowtie_join",
    "intersect_sorted",
    "intersection_certificate_size",
    "merge_intersection",
    "DyadicTree",
    "TriangleMinesweeper",
    "triangle_join",
    "PreparedQuery",
    "Query",
    "naive_join",
]
