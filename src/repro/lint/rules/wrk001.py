"""WRK001 — work specs must be module-level and picklable.

The execution engine ships :class:`~repro.sim.execution.WorkSpec`
conforming objects (``TrialSpec``, ``PopulationSpec``, the driver
specs) to worker processes by pickling.  Pickle resolves classes and
functions *by qualified name*, so a spec class defined inside a
function, or a spec field carrying a lambda/closure, imports fine in
the parent and explodes (or silently falls back to serial) the moment
a process backend is selected.  The engine's runtime pickle-probe
catches this per run; this rule catches it at review time.

Flagged (repo-wide):

* a ``*Spec`` class defined anywhere but module top level;
* a ``lambda`` anywhere inside a ``*Spec`` class body (field defaults,
  ``default_factory``, method bodies that stash callables on self);
* a ``SomethingSpec(...)`` call passing a ``lambda`` or a function or
  class *defined inside an enclosing function* as an argument.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..base import ModuleContext, Rule, rule
from ..findings import Finding


def _spec_name(name: str) -> bool:
    return name.endswith("Spec") and name != "Spec"


def _nested_definitions(tree: ast.Module) -> frozenset[str]:
    """Names of functions/classes defined inside some function body."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if is_def and inside_function:
                nested.add(child.name)
            visit(
                child,
                inside_function
                or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
            )

    visit(tree, False)
    return frozenset(nested)


@rule
class UnpicklableWorkSpec(Rule):
    id = "WRK001"
    title = "*Spec classes must be module-level with picklable fields"
    rationale = (
        "work specs cross the process boundary by pickle, which resolves "
        "by qualified name: nested spec classes, lambdas, and closures "
        "break the worker protocol: a process engine refuses them."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested_defs = _nested_definitions(ctx.tree)
        module_level = {
            node for node in ctx.tree.body if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _spec_name(node.name):
                if node not in module_level:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"spec class {node.name!r} is not module-level; pickle "
                        "resolves specs by qualified name",
                    )
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Lambda):
                        yield ctx.finding(
                            self.id,
                            inner,
                            f"lambda inside spec class {node.name!r}; lambdas "
                            "do not pickle — use a module-level function",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                callee = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else ""
                )
                if not _spec_name(callee):
                    continue
                arguments = list(node.args) + [kw.value for kw in node.keywords]
                for argument in arguments:
                    if isinstance(argument, ast.Lambda):
                        yield ctx.finding(
                            self.id,
                            argument,
                            f"lambda passed to {callee}(); spec fields must "
                            "pickle — use a module-level function or a "
                            "declarative driver spec",
                        )
                    elif (
                        isinstance(argument, ast.Name)
                        and argument.id in nested_defs
                    ):
                        yield ctx.finding(
                            self.id,
                            argument,
                            f"{argument.id!r} is defined inside a function but "
                            f"passed to {callee}(); closures do not pickle — "
                            "hoist it to module level",
                        )
