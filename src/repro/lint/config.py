"""Per-rule configuration and the default rule set.

Each rule takes an options dict; the entries here are the repo's
calibrated defaults (which modules a rule guards, which names count as
bounded, which calls count as error-frame conversion, ...).  Tests
override them through :func:`build_rules` to lint fixture snippets
under controlled scoping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .engine import Rule
from .rules import ALL_RULES

__all__ = ["DEFAULT_OPTIONS", "build_rules", "rule_classes"]


#: repo-relative fnmatch globs per rule; merged over each rule's own
#: defaults, so this is the single place scoping decisions live.
DEFAULT_OPTIONS: Dict[str, Dict[str, object]] = {
    # Decode paths that parse attacker-controllable bytes: everything
    # that turns a blob back into arrays.  (PR 2 forged-stream contract.)
    "RL001": {
        "modules": [
            "repro/encoding/*",
            "repro/compressors/*",
            "repro/core/stream.py",
            "repro/core/header.py",
            "repro/chunked/*",
            "repro/service/*",
        ],
    },
    # The asyncio event loop lives in service/; nothing may block it.
    "RL002": {"modules": ["repro/service/*"]},
    # Wire modules are scoped by the registry itself (wire_registry.py);
    # the modules option only gates which files the rule bothers walking.
    "RL003": {
        "modules": [
            "repro/core/header.py",
            "repro/chunked/container.py",
            "repro/parallel/slab.py",
            "repro/service/protocol.py",
            "repro/service/planbus.py",
        ],
    },
    # FrozenPlan instances flow everywhere; check the whole tree.
    "RL004": {"modules": ["repro/*"]},
    "RL005": {"modules": ["repro/service/*"]},
    # Broad-except discipline: whole tree (worker + _respond paths are
    # where it bites hardest, but silent swallowing is wrong anywhere).
    "RL006": {"modules": ["repro/*"]},
    # Serialization code: anywhere bytes are produced/consumed for disk
    # or the wire.
    "RL007": {
        "modules": [
            "repro/encoding/*",
            "repro/compressors/*",
            "repro/core/stream.py",
            "repro/core/header.py",
            "repro/chunked/*",
            "repro/service/protocol.py",
        ],
    },
    # pickle is allowed only on the in-process plan-broadcast paths:
    # the pool executor (parent->worker) and the inter-shard plan bus
    # (shard->shard over a trusted private pipe).
    "RL008": {
        "modules": ["repro/*"],
        "allow_modules": [
            "repro/parallel/executor.py",
            "repro/service/planbus.py",
        ],
    },
    # Fault-recovery paths: pool breaks and deadline expiries must stay
    # typed — only where the self-healing supervisor lives.
    "RL009": {"modules": ["repro/service/*", "repro/parallel/*"]},
    # Shard-local state (admission, metrics, plan LRU) stays inside its
    # ShardRuntime; the plan bus is the only sanctioned crossing.
    "RL011": {
        "modules": ["repro/service/*", "repro/core/plan_cache.py"],
        "allow_modules": ["repro/service/planbus.py"],
    },
}


def rule_classes() -> Dict[str, type]:
    return {cls.rule_id: cls for cls in ALL_RULES}


def build_rules(
    select: Optional[Sequence[str]] = None,
    overrides: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[Rule]:
    """Instantiate the rule set.

    ``select`` limits to specific rule IDs; ``overrides`` merges per-rule
    option dicts over :data:`DEFAULT_OPTIONS` (tests use this to widen
    scoping onto fixture paths).
    """
    classes = rule_classes()
    chosen = list(select) if select else sorted(classes)
    rules: List[Rule] = []
    for rule_id in chosen:
        if rule_id not in classes:
            raise KeyError(f"unknown rule id: {rule_id}")
        options = dict(DEFAULT_OPTIONS.get(rule_id, {}))
        if overrides and rule_id in overrides:
            options.update(overrides[rule_id])
        rules.append(classes[rule_id](options))
    return rules
