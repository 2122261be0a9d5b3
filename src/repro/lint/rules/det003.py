"""DET003 — no float equality on simulated times or priorities.

Simulated timestamps are accumulated floats (``now + delay`` chains,
closed-form wake-up schedules); two code paths that are mathematically
simultaneous can differ in the last ulp, so ``==``/``!=`` on them
encodes an invariant the arithmetic does not guarantee.  Ordering
comparisons (``<``, ``<=``) are how the kernel itself sequences events
and remain allowed; identity checks should compare the *integer* tie
counter or an epsilon band instead.

Heuristic: a comparison is flagged when either operand is a
non-integral float literal, or a name/attribute whose terminal segment
looks time- or priority-valued (``now``, ``when``, ``deadline``,
``delay``, ``priority``, a ``*_s`` / ``*_at`` / ``*_time`` /
``*_until`` suffix, …).  String/None/bool comparisons are never
flagged.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from ..base import ModuleContext, Rule, rule
from ..findings import Finding

_TIMEY_EXACT = frozenset(
    {"now", "when", "deadline", "delay", "delays", "priority", "prio", "t0", "t1"}
)
_TIMEY_SUFFIX = re.compile(r"_(s|at|time|until|deadline|delay|priority)$")


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_timey(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    name = name.lower().lstrip("_")
    return name in _TIMEY_EXACT or bool(_TIMEY_SUFFIX.search(name))


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_exempt(node: ast.expr) -> bool:
    """Operands whose equality is exact whatever the other side is."""
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bool))
    )


@rule
class FloatTimeEquality(Rule):
    id = "DET003"
    title = "no ==/!= on simulated times, delays, or priorities"
    rationale = (
        "simulated timestamps are accumulated floats; exact equality is a "
        "last-ulp coin flip across platforms — compare ordering, "
        "the integer tie counter, or an epsilon band."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_deterministic_path():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:], strict=False):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_exempt(left) or _is_exempt(right):
                    continue
                pair = (left, right)
                if any(_is_float_literal(side) for side in pair) or any(
                    _is_timey(side) for side in pair
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        "float equality on a time/priority-valued operand; "
                        "use ordering, the tie counter, or an epsilon band",
                    )
                    break
