"""Typed parameter schemas for registered experiments.

Every experiment in the registry (:mod:`repro.study.registry`)
declares its knobs as a :class:`ParamSchema` — an ordered collection
of :class:`Param` descriptors carrying the name, element type,
default, optional choices/minimum, and an optional string parser (so
``chunks=64KB`` works anywhere a value can arrive as text: the
generated CLI flags, ``--set key=value``, ``--grid key=v1,v2``, and
archive manifests).  The schema is the single validation point: the
:class:`~repro.study.study.Study` facade, the registry-generated CLI,
and archive loading all funnel values through :meth:`ParamSchema.
resolve`, so a nonsensical knob combination is a :class:`~repro.
errors.ConfigError` everywhere rather than a silently ignored kwarg in
one code path.

Design notes:

* ``many`` params hold a *tuple* of elements (``prebuffers=(20.0,
  40.0)``); a comma-separated string is accepted and split, so the CLI
  needs no per-param plumbing;
* ``cli_default`` lets the generated CLI keep its historical
  CI-friendly defaults (``--trials`` has always defaulted to 10 on the
  command line) without changing the library-level paper defaults
  (:data:`~repro.analysis.experiments.PAPER_TRIALS`);
* validation errors quote the offending param and constraint — these
  strings surface verbatim as one-line CLI errors, so they are part of
  the user interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from ..errors import ConfigError

__all__ = ["Param", "ParamSchema", "UNSET", "schema"]


class _Unset:
    """Sentinel: distinguishes "no CLI default" from ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNSET"


UNSET = _Unset()


@dataclass(frozen=True)
class Param:
    """One typed experiment knob.

    ``type`` is the *element* type (``int``/``float``/``str``/
    ``bool``); ``many=True`` makes the value a tuple of elements.
    ``parse`` converts a string token to an element (e.g.
    :func:`repro.units.parse_size` for ``"64KB"``); without it,
    ``type`` itself is applied to string input.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    choices: tuple | None = None
    minimum: Any = None
    many: bool = False
    parse: Callable[[str], Any] | None = None
    #: Default the generated CLI uses when the flag is omitted; UNSET
    #: means the CLI falls through to ``default`` like everyone else.
    cli_default: Any = UNSET
    #: Whether ``Study.grid`` may sweep this param across cells.
    sweepable: bool = True

    def _coerce_element(self, value: Any) -> Any:
        if isinstance(value, str):
            token = value.strip()
            if self.parse is not None:
                try:
                    value = self.parse(token)
                except ConfigError:
                    raise
                except (TypeError, ValueError) as exc:
                    # A parse callable that raises raw ValueError (plain
                    # int/float, or a third-party parser) must surface as
                    # the same one-line usage error the schema's own
                    # checks produce — these strings reach the CLI as
                    # exit-code-2 messages, never tracebacks.
                    raise ConfigError(
                        f"param {self.name!r}: cannot read {token!r}: {exc}"
                    ) from None
            elif self.type is bool:
                lowered = token.lower()
                if lowered in ("1", "true", "yes", "on"):
                    value = True
                elif lowered in ("0", "false", "no", "off"):
                    value = False
                else:
                    raise ConfigError(
                        f"param {self.name!r}: cannot read {token!r} as a boolean"
                    )
            else:
                try:
                    value = self.type(token)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"param {self.name!r}: cannot read {token!r} as "
                        f"{self.type.__name__}"
                    ) from None
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(
                    f"param {self.name!r} must be a finite number, got an "
                    "integer too large for a float"
                ) from None
        if not isinstance(value, self.type) or (
            self.type is not bool and isinstance(value, bool)
        ):
            raise ConfigError(
                f"param {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.type is float and not math.isfinite(value):
            raise ConfigError(
                f"param {self.name!r} must be a finite number, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"param {self.name!r}: {value!r} is not one of "
                f"{', '.join(map(repr, self.choices))}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(
                f"param {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        return value

    def coerce(self, value: Any) -> Any:
        """Validate and normalize one value for this param.

        ``None`` means "use the default" (the CLI's omitted-flag
        convention).  Raises :class:`ConfigError` on any mismatch.
        """
        if value is None:
            return self.default
        if not self.many:
            return self._coerce_element(value)
        if isinstance(value, str):
            value = [token for token in value.split(",") if token.strip()]
        elif not isinstance(value, Sequence):
            raise ConfigError(
                f"param {self.name!r} expects a sequence of "
                f"{self.type.__name__}, got {type(value).__name__}"
            )
        if not value:
            raise ConfigError(f"param {self.name!r} cannot be empty")
        return tuple(self._coerce_element(element) for element in value)

    @property
    def flag(self) -> str:
        """The generated CLI flag (``--initial-chunk`` style)."""
        return "--" + self.name.replace("_", "-")

    def describe(self) -> str:
        """One-line rendering for ``repro list`` / generated help."""
        kind = self.type.__name__ + ("…" if self.many else "")
        parts = [f"{self.name}: {kind} = {self.default!r}"]
        if self.choices is not None:
            parts.append(f"choices {', '.join(map(str, self.choices))}")
        if self.minimum is not None:
            parts.append(f">= {self.minimum}")
        return "; ".join(parts)


@dataclass(frozen=True)
class ParamSchema:
    """An ordered, name-addressable collection of :class:`Param`."""

    params: tuple[Param, ...] = ()

    def __post_init__(self) -> None:
        names = [param.name for param in self.params]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate param names in schema: {names}")

    def __iter__(self) -> Iterator[Param]:
        return iter(self.params)

    def __len__(self) -> int:
        return len(self.params)

    def __contains__(self, name: object) -> bool:
        return any(param.name == name for param in self.params)

    def __getitem__(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise ConfigError(
            f"unknown param {name!r}; valid params: "
            f"{', '.join(p.name for p in self.params) or '(none)'}"
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def resolve(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """The full, validated param dict: defaults + coerced overrides.

        Unknown names raise — this is where a ``--clients`` aimed at a
        non-population experiment, or a typo'd ``--set`` key, dies with
        a one-liner naming the valid knobs.
        """
        for name in overrides:
            self[name]  # raises with the valid-name list
        return {
            param.name: param.coerce(overrides.get(param.name))
            for param in self.params
        }


def schema(*params: Param) -> ParamSchema:
    """Build a :class:`ParamSchema` from positional params."""
    return ParamSchema(tuple(params))
