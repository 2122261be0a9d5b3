"""Rule plugin protocol and registry.

A rule is a class with an ``id``, a one-line ``title``, a ``rationale``
paragraph (rendered by ``repro lint --list-rules``), and a ``check``
method that yields :class:`~repro.lint.findings.Finding` objects for one
parsed module.  Rules register themselves with the :func:`rule`
decorator; the engine instantiates every registered rule once per run.

Rules never see waivers or the baseline — filtering is the engine's
job — and they must be deterministic: findings for a given source text
are a pure function of that text.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator
from typing import Type

from ..errors import ConfigError
from .findings import Finding

#: Directory components whose files carry the cross-backend bit-identity
#: guarantee: ambient nondeterminism (DET001) is forbidden there.
#: ``http`` and ``baselines`` run inside the simulated world too (the
#: range-request client, the MPTCP driver).
DETERMINISTIC_DIRS = frozenset({"sim", "net", "core", "cdn", "ext", "http", "baselines"})

#: Directory components whose classes sit on the event-kernel hot path
#: and must declare ``__slots__`` (SLT001); ``core`` is restricted to
#: the buffer/chunk ledgers via HOT_CORE_STEMS.
HOT_DIRS = frozenset({"net"})
HOT_CORE_STEMS = ("buffer", "chunks")

#: Modules allowed to touch scheduler internals (KER001): the kernel
#: itself.  Matched on the trailing path components.
KERNEL_INTERNAL_SUFFIXES = (
    "net/env.py",
    "net/events.py",
)


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file."""

    path: str  #: repo-relative posix path
    tree: ast.Module
    lines: list[str] = field(repr=False)

    def source_line(self, lineno: int) -> str:
        """The stripped text of a 1-based source line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=lineno,
            col=col,
            rule=rule_id,
            message=message,
            context=self.source_line(lineno),
        )

    # -- path classification ------------------------------------------------

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.path.split("/"))

    def in_deterministic_path(self) -> bool:
        """True when the file carries the bit-identity guarantee."""
        return any(part in DETERMINISTIC_DIRS for part in self.parts[:-1])

    def in_hot_path(self) -> bool:
        """True for kernel-hot modules (``net/``, ``core/buffer|chunks``)."""
        directories = self.parts[:-1]
        if any(part in HOT_DIRS for part in directories):
            return True
        stem = self.parts[-1].rsplit(".", 1)[0]
        return "core" in directories and stem.startswith(HOT_CORE_STEMS)

    def is_kernel_internal(self) -> bool:
        """True for the modules that own the scheduler internals."""
        return self.path.endswith(KERNEL_INTERNAL_SUFFIXES)


class Rule:
    """Base class for rule plugins.  Subclass and decorate with @rule."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


#: The global rule registry, id -> rule class.  Populated at import of
#: :mod:`repro.lint.rules`; iteration is always over sorted ids so the
#: engine's finding order is independent of import order.
_REGISTRY: dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule plugin by its ``id``."""
    if not cls.id:
        raise ConfigError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)


def select_rules(selected: Callable[[str], bool] | None = None) -> list[Rule]:
    """Instances of registered rules whose id passes ``selected``."""
    rules = all_rules()
    if selected is None:
        return rules
    return [r for r in rules if selected(r.id)]
