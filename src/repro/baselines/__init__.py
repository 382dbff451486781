"""Baseline join algorithms the paper compares Minesweeper against."""

from repro.baselines.hash_join import hash_join_plan
from repro.baselines.leapfrog import leapfrog_triejoin
from repro.baselines.nested_loop import block_nested_loop_join, naive_multiway_join
from repro.baselines.semijoin import full_reducer, pairwise_reduce, semijoin
from repro.baselines.sort_merge import sort_merge_join
from repro.baselines.yannakakis import yannakakis_join

__all__ = [
    "hash_join_plan",
    "leapfrog_triejoin",
    "block_nested_loop_join",
    "full_reducer",
    "pairwise_reduce",
    "semijoin",
    "naive_multiway_join",
    "sort_merge_join",
    "yannakakis_join",
]
