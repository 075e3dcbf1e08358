"""Physical operators for the mini engine (batch streams + metrics)."""
from .aggregate import (
    HashAggregate,
    PartialHashAggregate,
    PartialStreamAggregate,
    StreamAggregate,
)
from .base import AggSpec, Metrics, Operator
from .basic import Filter, HashDistinct, Limit, Project, SortedDistinct
from .joins import HashJoin, MergeJoin, NestedLoopJoin
from .scans import IndexScan, SeqScan, qualified_schema
from .sort import Sort
from .topn import TopN

__all__ = [
    "Operator",
    "Metrics",
    "AggSpec",
    "SeqScan",
    "IndexScan",
    "qualified_schema",
    "Filter",
    "Project",
    "Limit",
    "HashDistinct",
    "SortedDistinct",
    "Sort",
    "TopN",
    "HashAggregate",
    "StreamAggregate",
    "PartialHashAggregate",
    "PartialStreamAggregate",
    "HashJoin",
    "MergeJoin",
    "NestedLoopJoin",
]
