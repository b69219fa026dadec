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

JSON objects (campaign specs, execution policies, daemon requests) are
typed strictly by the annotations of their dataclass instead: an ``int``
takes an int (never a bool), a ``float`` an int or a float (kept as
given), a ``bool`` a bool, a ``str`` a string, a tuple a list (never a
string) and a tuple of ``(name, value)`` pairs a mapping.  :func:`decode`
checks the keys and :func:`check_fields` the values, at construction.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple, Type, TypeVar, Union

from repro.errors import ExperimentError, ReproError

#: Parameter values are JSON scalars so that specs round-trip losslessly
#: through campaign JSON files and result stores.
ParamValue = Union[int, float, str, bool]

T = TypeVar("T")


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


# ----------------------------------------------------------------------
# strict JSON fields
# ----------------------------------------------------------------------
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _accepts(kind: Any, value: object) -> bool:
    if isinstance(kind, type):
        # bool is an int subclass, but ``true`` is never a count or a delay.
        kinds = (int, float) if kind is float else kind
        return isinstance(value, kinds) and (kind is bool or not isinstance(value, bool))
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Union:  # Optional[X]
        return value is None or _accepts(args[0], value)
    if typing.get_origin(args[0]) is tuple:  # (name, value) pairs
        return isinstance(value, (Mapping, tuple))
    return isinstance(value, (list, tuple)) and all(_accepts(args[0], item) for item in value)


def _describe(kind: Any) -> str:
    if isinstance(kind, type):
        return _NOUNS.get(kind, f"a {kind.__name__}")
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Union:
        return f"{_describe(args[0])} or null"
    if typing.get_origin(args[0]) is tuple:
        return "a mapping"
    return f"a list of {_describe(args[0]).split(' ', 1)[1]}s"


def check_value(value: object, kind: Any, what: str, name: str) -> None:
    """An :class:`ExperimentError` naming ``what``'s field ``name`` unless ``value`` is a ``kind``.

    ``kind`` is an annotation: a class, ``Optional[X]`` or ``Tuple[X, ...]``.
    """
    if not _accepts(kind, value):
        raise ExperimentError(
            f"{what} field {name!r} must be {_describe(kind)}, got {reprlib.repr(value)}"
        )


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    return typing.get_type_hints(cls)  # ``from __future__`` leaves strings


def check_fields(instance: object, what: str) -> None:
    """Check every field of the dataclass ``instance`` against its annotation."""
    for name, kind in _hints(type(instance)).items():
        check_value(getattr(instance, name), kind, what, name)


def decode(cls: Type[T], payload: object, what: str, **items: Callable[[Any], Any]) -> T:
    """The dataclass ``cls`` from the JSON object ``payload``; absent fields keep defaults.

    ``items`` decodes each entry of the named list fields.
    """
    if not isinstance(payload, Mapping):
        raise ExperimentError(f"{what} must be a JSON object, got {reprlib.repr(payload)}")
    declared = {field.name: field for field in fields(cls)}
    unknown = sorted(set(payload) - set(declared))
    if unknown:
        raise ExperimentError(f"unknown {what} keys {unknown!r}; expected: {sorted(declared)}")
    for name, field in declared.items():
        if field.default is field.default_factory is MISSING and name not in payload:
            raise ExperimentError(f"{what} needs {name!r}")
    values = dict(payload)
    for name, item in items.items():
        if name in values:
            check_value(values[name], list, what, name)
            values[name] = tuple(map(item, values[name]))
    return cls(**values)
