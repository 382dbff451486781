"""Storage substrate: ordered indexes and the CDS building blocks."""

from repro.storage.delta import DeltaRelation
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.interval_list import (
    INSERT_DISJOINT,
    INSERT_MERGED,
    INSERT_NOCHANGE,
    IntervalList,
    NaiveIntervalList,
    interval_is_empty,
)
from repro.storage.interval_pool import IntervalPool
from repro.storage.relation import Relation
from repro.storage.sorted_list import SortedList
from repro.storage.trie import TrieRelation

__all__ = [
    "DeltaRelation",
    "FlatTrieRelation",
    "INSERT_DISJOINT",
    "INSERT_MERGED",
    "INSERT_NOCHANGE",
    "IntervalList",
    "IntervalPool",
    "NaiveIntervalList",
    "interval_is_empty",
    "Relation",
    "SortedList",
    "TrieRelation",
]
