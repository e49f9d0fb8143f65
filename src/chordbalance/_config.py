"""The one path from a parsed JSON object to a config dataclass, and back:
experiment configs, their ``augment`` object, ``select`` configs, corpus
specs and saved model params all load through :func:`load_config`, and
those saved as JSON echo themselves through :class:`JsonConfig`.  Every
JSON file is read by :func:`read_json` and written by :func:`write_json`,
and every CSV file is written by :func:`write_csv`.
"""

from __future__ import annotations

import csv
import json
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path


def read_json(path: str | Path) -> object:
    """The JSON value in the file ``path``; a syntax error or non-UTF-8
    text is a ``ValueError`` naming the file."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_text(value) -> str:
    """The stable JSON form of ``value``: sorted keys, indent 2, a trailing newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, value) -> None:
    """Write ``value`` to the file ``path`` in its stable JSON form."""
    Path(path).write_text(json_text(value), "utf-8")


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a CSV file: a header row, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_config(cls, raw, name: str, defaults: Mapping | None = None,
                extra: Mapping | None = None):
    """Build the dataclass ``cls`` from the JSON object ``raw``, or raise
    ``ValueError`` naming ``name`` and the unknown, missing or wrong-typed keys.

    ``defaults`` replaces the dataclass defaults (``{}``: every field is
    required).  ``extra`` types required keys of ``raw`` that are not
    fields of ``cls``; the caller reads them from ``raw``.
    """
    if not isinstance(raw, Mapping):
        raise ValueError(f"{name} must be a mapping of {cls.__name__} fields, got {raw!r}")
    extra = extra or {}
    hints = typing.get_type_hints(cls)
    expected = {f.name: hints[f.name] for f in fields(cls)} | extra
    unknown = sorted(set(raw) - set(expected))
    if unknown:
        raise ValueError(f"unknown {name} fields: {unknown}")
    if defaults is None:
        defaults = {}
        optional = {f.name for f in fields(cls)
                    if f.default is not MISSING or f.default_factory is not MISSING}
    else:
        optional = set(defaults)
    missing = [key for key in expected if key not in raw and key not in optional]
    if missing:
        raise ValueError(f"{name} lacks required fields: {missing}")
    for key, value in raw.items():
        hint = expected[key]
        if not _matches(value, hint):
            described = str(hint).replace("typing.", "") if typing.get_args(hint) else hint.__name__
            raise ValueError(f"{name} field {key!r} must be {described}, got {value!r}")
    return cls(**{**defaults, **{key: value for key, value in raw.items() if key not in extra}})


class JsonConfig:
    """Base of the config dataclasses that echo themselves as JSON."""

    def to_dict(self) -> dict:
        """The fields as the JSON values they load from: tuples become lists."""
        return json.loads(json.dumps(asdict(self)))


def _matches(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if is_dataclass(hint):
        return True  # a nested config: loading it checks the value
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # JSON writes whole numbers without a point
        hint = (int, float)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_matches(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_matches, value, args))
    if origin in (dict, Mapping):
        return isinstance(value, Mapping) and (not args or all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items()
        ))
    return isinstance(value, origin or hint)
