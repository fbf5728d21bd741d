"""The schema validator as a plain recursive tree walk: the test oracle.

:func:`repro.obs.manifest.validate_manifest` compiles each schema once
into a tree of checks and builds a JSON path only for a document that
fails.  This walker visits the same nodes in the same order and formats
the path at every node; the compiled validator must accept and reject
exactly what it does, with the same message.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigError

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON distinguishes them.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(doc: Any, schema: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigError` on the first violation of ``schema``."""
    _validate_node(doc, schema, "$")


def _validate_node(value: Any, schema: Mapping[str, Any], path: str) -> None:
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](value) for t in allowed):
            raise ConfigError(
                f"manifest invalid at {path}: expected {'/'.join(allowed)}, "
                f"got {type(value).__name__}"
            )
    enum = schema.get("enum")
    if enum is not None and value not in enum:
        raise ConfigError(
            f"manifest invalid at {path}: {value!r} not in {enum}"
        )
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(
                    f"manifest invalid at {path}: missing required key {key!r}"
                )
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate_node(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(value):
                _validate_node(element, items, f"{path}[{i}]")
