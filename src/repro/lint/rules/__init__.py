"""The reprolint rule set — one module per invariant family."""

from __future__ import annotations

from typing import Tuple, Type

from ..engine import Rule
from .async_purity import AsyncPurityRule
from .bounded_decode import BoundedDecodeRule
from .endianness import ExplicitEndiannessRule
from .error_handling import BroadExceptRule
from .fault_paths import FaultPathDisciplineRule
from .pickle_guard import PickleGuardRule
from .plan_immutability import FrozenPlanPurityRule, ServiceStateDisciplineRule
from .shard_isolation import ShardIsolationRule
from .wire_format import WireFormatRule

ALL_RULES: Tuple[Type[Rule], ...] = (
    BoundedDecodeRule,  # RL001
    AsyncPurityRule,  # RL002
    WireFormatRule,  # RL003
    FrozenPlanPurityRule,  # RL004
    ServiceStateDisciplineRule,  # RL005
    BroadExceptRule,  # RL006
    ExplicitEndiannessRule,  # RL007
    PickleGuardRule,  # RL008
    FaultPathDisciplineRule,  # RL009
    ShardIsolationRule,  # RL011
)

__all__ = [
    "ALL_RULES",
    "AsyncPurityRule",
    "BoundedDecodeRule",
    "BroadExceptRule",
    "ExplicitEndiannessRule",
    "FaultPathDisciplineRule",
    "FrozenPlanPurityRule",
    "PickleGuardRule",
    "ServiceStateDisciplineRule",
    "ShardIsolationRule",
    "WireFormatRule",
]
