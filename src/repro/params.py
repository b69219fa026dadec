"""Declared parameters behind ``name[:k=v,...]`` specs.

Topology families (``waxman:size=40,seed=3``) and failure-scenario models
(``srlg:group_size=3``) both take named, typed parameters.  This module is
the one implementation of that grammar, shared by their owners:

* a :class:`Param` declares a name, a default and a doc line; the default's
  type is the parameter's type;
* :meth:`Param.coerce` converts an override to that type: ``bool`` accepts
  ``"true"``/``"false"``, ``int`` accepts integral floats and digit strings
  (never a bool), ``float`` accepts ints but rejects ``nan``/``inf``, and
  ``str`` accepts anything;
* :func:`resolve_params` merges overrides into the defaults, rejecting
  unknown names and uncoercible values with the owner's error type;
* :func:`parse_spec` splits ``name[:k=v,...]`` and :func:`parse_assignments`
  parses ``k=v`` strings, each value a JSON scalar when it parses as one
  and a plain string otherwise;
* :func:`format_value` renders a resolved value in canonical spelling.

A resolved parameter set always holds every declared parameter, so two
spellings of one instance (defaults implicit or explicit) resolve equal —
which is what keeps cell ids and cache keys stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Type, Union

from repro.errors import ReproError

#: Parameter values are JSON scalars so that specs round-trip losslessly
#: through campaign JSON files and result stores.
ParamValue = Union[int, float, str, bool]


@dataclass(frozen=True)
class Param:
    """One declared parameter; the default's type is the parameter's type."""

    name: str
    default: ParamValue
    doc: str = ""

    def coerce(self, value: object) -> ParamValue:
        """``value`` as this parameter's type; ``ValueError`` if it does not coerce."""
        kind = type(self.default)
        try:
            if kind is bool:
                if isinstance(value, bool):
                    return value
                if isinstance(value, str) and value.lower() in ("true", "false"):
                    return value.lower() == "true"
                raise ValueError(value)
            if kind is int:
                if isinstance(value, bool):
                    raise ValueError(value)
                coerced = int(str(value)) if isinstance(value, str) else int(value)
                if isinstance(value, float) and value != coerced:
                    raise ValueError(value)
                return coerced
            if kind is float:
                if isinstance(value, bool):
                    raise ValueError(value)
                coerced = float(value)
                # nan/inf satisfy no ordering constraint and would send the
                # generators' time loops spinning forever.
                if not math.isfinite(coerced):
                    raise ValueError(value)
                return coerced
            return str(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"parameter {self.name!r} expects a {kind.__name__}, got {value!r}"
            ) from None


def default_params(params: Sequence[Param]) -> Dict[str, ParamValue]:
    """The fully-resolved defaults, in declaration order."""
    return {param.name: param.default for param in params}


def resolve_params(
    params: Sequence[Param],
    overrides: Mapping[str, object],
    owner: str,
    error: Type[ReproError],
) -> Dict[str, ParamValue]:
    """Merge ``overrides`` into the defaults of ``params``.

    ``owner`` labels the messages (``"topology 'waxman'"``) and ``error``
    is the exception type raised for an unknown name or a bad value.
    """
    declared = {param.name: param for param in params}
    unknown = sorted(set(overrides) - set(declared))
    if unknown:
        if not declared:
            raise error(f"{owner} takes no parameters, got {unknown!r}")
        raise error(f"unknown parameters {unknown!r} for {owner}; declared: {sorted(declared)}")
    resolved = default_params(params)
    for name, value in overrides.items():
        try:
            resolved[name] = declared[name].coerce(value)
        except ValueError as exc:
            raise error(f"{owner} {exc}") from None
    return resolved


def parse_assignments(pairs: Iterable[str], error: Type[ReproError]) -> Dict[str, object]:
    """``k=v`` strings into overrides (values JSON scalars, else strings)."""
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise error(f"cannot parse parameter {pair.strip()!r}; use name=value")
        name, text = pair.split("=", 1)
        try:
            value: object = json.loads(text.strip())
        except json.JSONDecodeError:
            value = text.strip()
        overrides[name.strip()] = value
    return overrides


def parse_spec(text: str, error: Type[ReproError]) -> Tuple[str, Dict[str, object]]:
    """Split ``name[:k=v,...]`` into the stripped name and its overrides."""
    head, _, param_text = text.partition(":")
    pairs = param_text.split(",") if param_text.strip() else ()
    return head.strip(), parse_assignments(pairs, error)


def format_value(value: ParamValue) -> str:
    """A resolved value in the canonical spelling of a spec string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
