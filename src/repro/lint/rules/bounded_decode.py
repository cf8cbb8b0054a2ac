"""RL001 — decode allocations must be bounded (PR 2 forged-stream contract).

A compressed stream is attacker-controllable input: a forged header can
declare a petabyte shape in eight bytes.  PR 2 established that every
allocation on a decode path is sized from a *validated* quantity — a
``max_size``/``max_values`` cap, a length derived from the actual blob,
or a value an earlier guard already range-checked and raised on — never
from a raw header field.  This rule re-checks that contract on every
commit.

Heuristics, tuned against the repo's own decode paths:

* only functions whose name looks like a decode/read entry point are
  scanned (``decode``/``decompress``/``unpack``/``parse``/``read``/...);
* an allocation size expression is *safe* when every free name in it is
  provably bounded: int literals, ALL-CAPS module constants, parameters
  matching ``max_*``, ``len(...)``/``.size``/``.shape`` of an existing
  object, ``min(...)`` with at least one safe arm, results of
  validator-shaped calls (``validate*``/``check*``/``normalize*``/
  ``slab_plan``/``grid_for``), and names an ``if ...: raise`` / assert /
  ``*check*(...)`` statement already guarded;
* safety propagates through local assignments to a fixpoint, so
  ``n = r.u64(); if n > max_size: raise; out = np.empty(n)`` passes
  while dropping the guard fails.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import (
    Finding,
    ModuleContext,
    Rule,
    call_args_with_keyword,
    dotted_name,
    names_in,
)

__all__ = ["BoundedDecodeRule"]

DECODE_FUNC_RE = re.compile(
    r"(^|_)(decode|decompress|unpack|deserialize|detokenize|parse|read)"
)
BOUNDED_NAME_RE = re.compile(
    r"(^|_)(max_size|max_values|max_points|max_bits|max_frame|expected_size)"
    r"|^MAX_|_MAX(_|$)|_BLOCK(_|$)"
)
TRUSTED_CALL_RE = re.compile(
    r"(^|_)(validate|normalize|check|clamp|slab_plan|grid_for|bounded)"
)

#: numpy allocators and the index/keyword of their size-determining arg
_ALLOCATORS: Dict[str, Tuple[int, str]] = {
    "empty": (0, "shape"),
    "zeros": (0, "shape"),
    "ones": (0, "shape"),
    "full": (0, "shape"),
    "repeat": (1, "repeats"),
}

_SIZE_ATTRS = {"size", "shape", "nbytes", "itemsize", "ndim"}

#: calls whose result is safe when every argument is safe — casts,
#: reductions of safe containers, and numpy scalar constructors
_CAST_OR_REDUCE = {
    "max", "abs", "int", "sum", "prod", "tuple", "list", "range",
    "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
}


def _is_all_caps(name: str) -> bool:
    return name.isupper() and len(name) > 1


class _FunctionFacts:
    """Safe-name analysis for one decode function."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.safe: Set[str] = set()
        self._collect_params()
        self._collect_guards()
        self._propagate_assignments()

    def _collect_params(self) -> None:
        args = self.func.args
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            if BOUNDED_NAME_RE.search(a.arg):
                self.safe.add(a.arg)

    def _collect_guards(self) -> None:
        # A raise-guard, assert, or bare validator call anywhere in the
        # function blesses the names it inspects.  Order is deliberately
        # ignored: this is a lint, and "guard exists in this function"
        # is the contract reviewers actually enforce.
        for node in ast.walk(self.func):
            if isinstance(node, ast.If) and any(
                isinstance(s, ast.Raise) for s in ast.walk(node)
            ):
                self.safe.update(names_in(node.test))
            elif isinstance(node, ast.Assert):
                self.safe.update(names_in(node.test))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                name = dotted_name(node.value.func)
                if name and TRUSTED_CALL_RE.search(name.rsplit(".", 1)[-1]):
                    for arg in node.value.args:
                        self.safe.update(names_in(arg))

    def _assign_targets(self, node: ast.AST) -> List[str]:
        out: List[str] = []
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                out.append(tgt.id)
            elif isinstance(tgt, (ast.Tuple, ast.List)):
                for el in tgt.elts:
                    if isinstance(el, ast.Name):
                        out.append(el.id)
                    elif isinstance(el, ast.Starred) and isinstance(
                        el.value, ast.Name
                    ):
                        out.append(el.value.id)
        return out

    def _propagate_assignments(self) -> None:
        assigns: List[Tuple[List[str], ast.expr]] = []
        for node in ast.walk(self.func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None:
                    continue
                targets = self._assign_targets(node)
                if targets:
                    assigns.append((targets, value))
        changed = True
        while changed:
            changed = False
            for targets, value in assigns:
                if all(t in self.safe for t in targets):
                    continue
                if self.is_safe_expr(value):
                    self.safe.update(targets)
                    changed = True

    # -- safety of a size expression ------------------------------------

    def is_safe_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) or node.value is None
        if isinstance(node, ast.Name):
            return (
                node.id in self.safe
                or _is_all_caps(node.id)
                or BOUNDED_NAME_RE.search(node.id) is not None
            )
        if isinstance(node, ast.Attribute):
            if node.attr in _SIZE_ATTRS:
                return True
            name = dotted_name(node)
            if name:
                last = name.rsplit(".", 1)[-1]
                if _is_all_caps(last) or BOUNDED_NAME_RE.search(last):
                    return True
                if name in self.safe:
                    return True
            return False
        if isinstance(node, ast.Subscript):
            return self.is_safe_expr(node.value)
        if isinstance(node, ast.Call):
            fname = dotted_name(node.func) or ""
            last = fname.rsplit(".", 1)[-1]
            if last == "len":
                return True
            if last == "min":
                return any(self.is_safe_expr(a) for a in node.args)
            if last in _CAST_OR_REDUCE:
                return all(self.is_safe_expr(a) for a in node.args)
            if TRUSTED_CALL_RE.search(last):
                return True
            return False
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(self.is_safe_expr(e) for e in node.elts)
        if isinstance(node, ast.Starred):
            return self.is_safe_expr(node.value)
        if isinstance(node, ast.BinOp):
            return self.is_safe_expr(node.left) and self.is_safe_expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.is_safe_expr(node.operand)
        if isinstance(node, ast.IfExp):
            return self.is_safe_expr(node.body) and self.is_safe_expr(node.orelse)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return all(
                self.is_safe_expr(gen.iter) for gen in node.generators
            )
        return False


class BoundedDecodeRule(Rule):
    rule_id = "RL001"
    name = "bounded-decode"
    description = (
        "decode-path allocations must be sized from bounded/validated "
        "expressions, never raw header fields"
    )
    #: decode paths that parse attacker-controllable bytes: everything
    #: that turns a blob back into arrays
    modules = (
        "repro/encoding/*",
        "repro/compressors/*",
        "repro/core/stream.py",
        "repro/core/header.py",
        "repro/chunked/*",
        "repro/service/*",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not DECODE_FUNC_RE.search(node.name):
                continue
            facts = _FunctionFacts(node)
            yield from self._check_function(ctx, node, facts)

    def _walk_own(self, func: ast.AST) -> Iterator[ast.AST]:
        """Walk a function's body without descending into nested defs
        (each nested decode function gets its own facts and pass)."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_function(
        self, ctx: ModuleContext, func: ast.AST, facts: _FunctionFacts
    ) -> Iterator[Finding]:
        for node in self._walk_own(func):
            if not isinstance(node, ast.Call):
                continue
            fname = dotted_name(node.func)
            if not fname:
                continue
            parts = fname.split(".")
            last = parts[-1]
            size_arg: Optional[ast.expr] = None
            if last in _ALLOCATORS and parts[0] in ("np", "numpy"):
                pos, kw = _ALLOCATORS[last]
                size_arg = call_args_with_keyword(node, pos, kw)
            elif last == "frombuffer" and parts[0] in ("np", "numpy"):
                # without count= the allocation is bounded by the buffer
                # itself; an explicit count is a declared header field
                size_arg = call_args_with_keyword(node, 2, "count")
            if size_arg is None:
                continue
            if facts.is_safe_expr(size_arg):
                continue
            expr_text = ast.unparse(size_arg)
            yield self.finding(
                ctx,
                node,
                f"allocation np.{last}(...) in decode path sized by "
                f"{expr_text!r}, which is not derived from a bounded or "
                f"validated expression (guard it against max_size or an "
                f"explicit range check that raises)",
            )
