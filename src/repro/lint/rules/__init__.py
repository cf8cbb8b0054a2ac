"""The reprolint rule set — one module per invariant family."""

from __future__ import annotations

from typing import Tuple

from ..engine import Rule
from .bounded_decode import BoundedDecodeRule
from .wire_format import WireFormatRule

RULES: Tuple[Rule, ...] = (
    BoundedDecodeRule(),  # RL001
    WireFormatRule(),  # RL003
)

__all__ = ["RULES", "BoundedDecodeRule", "WireFormatRule"]
