"""The toolkit's JSON file format: JSON-ready dicts for its dataclasses,
the one decoder of every JSON object it reads, run artifacts and config
sections alike, and the one writer and reader of its JSON files.

A record's layout is read from its dataclass fields, so the field list,
the array dtypes and the schema tag are each written once, in the class:

- an array field declares its dtype in the annotation, e.g.
  ``Annotated[np.ndarray, np.int32]``, and is stored as nested lists;
  an integer array comes back through :func:`int_array`;
- a dataclass field, itself a record, is stored as a dict of its own
  fields;
- ``list[...]`` fields nest, ``dict`` fields are copied, their values
  encoded like fields;
- a float array comes back through :func:`real_array`, the toolkit's
  one rule for real-valued arrays, which also holds their finite check;
- ``int``, ``float``, ``bool`` and ``str`` fields are stored as Python
  values, a numpy scalar as its ``.item()``;
- :func:`coerce` checks every JSON kind on the way back: the numbers,
  bools and strings above, a list for a ``list`` field and an object
  for a ``dict`` field;
- a class that sets ``SCHEMA`` gets a ``"schema"`` key, checked on decode.

On decode, each dataclass is read from an object that holds every one
of its fields and no other key (``schema`` aside), checked by
:func:`check_keys`; missing fields are named, before any field is
decoded, by the object's path (``evaluation is missing fields
['n_test']``), or by its class at the top. A decode error names a
nested field by its path, e.g. ``params.max_iter``, and so does a rule
that a class's ``__post_init__`` breaks: its message is prefixed with
the object's path, so a rule on two fields, such as ``goss_top_rate +
goss_other_rate must be < 1``, names the first by its path. A document
that is not an object is named by its class. Every decode error is a
``ValueError``.

Every JSON file, a config included, is written by :func:`json_bytes`
and read by :func:`read_json`. The writer's bytes are those of the
indented, key-sorted ``json.dumps`` plus a newline, and a NaN or an
infinity fails the write, as no decoder of an artifact takes one. The
reader raises a data error naming the file for a file that is not UTF-8
JSON, repeats a key in an object, is nested too deeply to parse, or
does not hold one object.
"""

import json
import math
import numbers
from dataclasses import fields, is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .errors import naming

__all__ = ["Record", "coerce", "check_keys", "int_array", "real_array", "check_int", "json_bytes",
           "read_json"]

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
               list: "a list", dict: "an object"}


def coerce(value, kind: type, name: str):
    """``value`` as ``kind`` (int, float, bool, str, list or dict), when
    nothing is lost.

    A bool, str, list or dict must already be one, and comes back as
    given. Numbers, numpy's scalars among them, must be finite, bools do
    not count as numbers, and an int accepts an integral float such as
    ``10.0``. Raises ValueError naming ``name`` otherwise.
    """
    if kind in (bool, str, list, dict):
        if isinstance(value, kind):
            return value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is int and isinstance(value, numbers.Integral):
            return int(value)
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def check_keys(d, name: str, allowed) -> None:
    """Raise ValueError unless ``d`` is an object whose keys are all in
    ``allowed``, so no key is dropped without a word."""
    unknown = set(coerce(d, dict, name)) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {name} fields {sorted(unknown)}; allowed: {sorted(allowed)}")


def int_array(values, dtype, name: str) -> np.ndarray:
    """``values`` as a C-ordered array of integer ``dtype``, when nothing
    is lost.

    An integer ndarray is taken as it is. Anything else is scanned once
    for its entries' types: entries that are all Python ints are kept,
    and otherwise each goes through :func:`coerce`'s int rule, since
    numpy would turn a fraction or a bool into an integer. Every entry
    must then fit ``dtype``. Raises ValueError naming ``name`` otherwise.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.asarray(values, dtype=object)
        if set(map(type, values.flat)) - {int}:
            entries = [coerce(v, int, name) for v in values.flat]
            values = np.array(entries, dtype=object).reshape(values.shape)
    if values.size and not np.can_cast(values.dtype, dtype):
        info = np.iinfo(dtype)
        for value in (int(values.min()), int(values.max())):
            if not info.min <= value <= info.max:
                raise ValueError(f"{name} must lie in {info.min}..{info.max}, got {value}")
    return np.ascontiguousarray(values, dtype=dtype)


def real_array(values, dtype, name: str, order: str = "C") -> np.ndarray:
    """``values`` as an array of float ``dtype`` in ``order`` ("C", or
    "K" to keep a view of values that already hold ``dtype``).

    The one rule for real-valued arrays, the finite check included:
    entries must be integers or floats, since numpy would turn strings,
    bools and complex values into floats, and all finite; each fault
    raises ValueError naming ``name``. An ndarray's dtype decides; any
    other input is also looked at entry by entry, as numpy reads
    ``[True, 0.5]`` as float64. The cast is the only copy made, and a
    value it overflows to infinity fails the finite check.
    """
    out = np.asarray(values)
    entries = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    found = np.dtype(bool) if {bool, np.bool_} & set(map(type, entries)) else out.dtype
    if found.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {found}")
    with np.errstate(over="ignore"):
        out = np.asarray(out, dtype=dtype, order=order)
    # min and max carry any NaN or infinity without a per-value mask,
    # so the check allocates nothing beside the values.
    if out.size and not np.isfinite([out.min(), out.max()]).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def check_int(value, name: str, minimum: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer,
    numpy's among them, of at least ``minimum`` when one is given; bools
    do not count, and neither does an integral float such as ``10.0`` or
    a string such as ``"3"``, since nothing converts it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):  # a numpy scalar, as settings accept
        return value.item()
    if is_dataclass(value):
        return value.to_dict()
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _decode(value, hint, name: str):
    origin = get_origin(hint)
    if origin is Annotated:
        dtype = np.dtype(get_args(hint)[1])
        read = int_array if dtype.kind in "iu" else real_array
        return read(value, dtype, name)
    if is_dataclass(hint):
        return hint.from_dict(value, name)
    if origin is list:
        (item,) = get_args(hint)
        return [_decode(v, item, name) for v in coerce(value, list, name)]
    if hint is dict:
        return dict(coerce(value, dict, name))
    return coerce(value, hint, name)


class Record:
    """Base of a dataclass stored as JSON; see the module docstring."""

    def to_dict(self) -> dict:
        out = {f.name: _encode(getattr(self, f.name)) for f in fields(self)}
        schema = getattr(self, "SCHEMA", None)
        if schema is not None:
            out["schema"] = schema
        return out

    @classmethod
    def from_dict(cls, d: dict, path: str = ""):
        """The record that ``d`` holds; ``path`` names ``d`` in errors,
        as the path of a nested field would."""
        names = [f.name for f in fields(cls)]
        schema = getattr(cls, "SCHEMA", None)
        check_keys(d, path or cls.__name__, names if schema is None else [*names, "schema"])
        missing = [name for name in names if name not in d]
        if missing:
            raise ValueError(f"{path or cls.__name__} is missing fields {missing}")
        if schema is not None and d.get("schema") != schema:
            raise ValueError(f"unsupported {cls.__name__} schema: {d.get('schema')!r}")
        prefix = f"{path}." if path else ""
        hints = get_type_hints(cls, include_extras=True)
        values = {name: _decode(d[name], hints[name], prefix + name) for name in names}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from None


def json_bytes(value) -> bytes:
    """``value`` as sorted, indented UTF-8 JSON, the bytes of
    ``json.dumps(value, indent=2, sort_keys=True) + "\n"``; a float that
    is not finite raises json's ValueError, as no decoder of an artifact
    takes one."""
    return (_json_text(value, "\n") + "\n").encode("utf-8")


def _json_text(value, newline: str) -> str:
    """``value`` as :func:`json_bytes` writes it, ``newline`` being the
    line break and indent of the line it starts on.

    The indented ``json.dumps`` runs json's pure-Python encoder, a call
    and a string per value. So objects with string keys and lists are
    written here: a list of floats alone (``float`` itself, so no numpy
    scalar) or of ints alone (so no bool) is one join of its values'
    reprs, json's own spelling of them. A list of floats whose sum is
    not finite, a NaN or an infinity among them, and every other value
    go through ``json.dumps``, whose line breaks take ``newline``'s
    indent: a JSON string holds no line break.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        items = (f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list) and value:
        kinds = set(map(type, value))
        if kinds == {float} and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", newline)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``pairs`` as a dict; a key given twice raises
    ValueError, as a container header's does, so no value is dropped."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeats key {key!r}")
        out[key] = value
    return out


def read_json(path, record=None):
    """The one JSON object that the file at ``path`` holds, decoded as
    the ``Record`` class ``record`` when one is given.

    The file is read under ``errors.naming``: text that is not UTF-8 or
    not JSON, a document nested too deeply to parse, an object that
    repeats a key, a document that is not an object, and a record that
    does not decode each raise DataFormatError whose message starts with
    ``path``. A failed open raises OSError.
    """
    with naming(path), open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(doc, dict):
            raise ValueError(f"not a JSON object, got {doc!r}")
        return doc if record is None else record.from_dict(doc)
