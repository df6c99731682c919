"""Shared infrastructure of the baseline (event-centric) engines."""

from .expreval import eval_event_expr
from .operators import (
    ChopOperator,
    MergeJoinOperator,
    NestedLoopJoinOperator,
    SelectOperator,
    ShiftOperator,
    StatefulOperator,
    WhereOperator,
    WindowAggregateOperator,
)

__all__ = [
    "eval_event_expr",
    "StatefulOperator",
    "SelectOperator",
    "WhereOperator",
    "ShiftOperator",
    "ChopOperator",
    "WindowAggregateOperator",
    "MergeJoinOperator",
    "NestedLoopJoinOperator",
]
