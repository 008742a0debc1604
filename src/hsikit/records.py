"""JSON-ready dicts for the toolkit's result dataclasses.

A record's layout is read from its dataclass fields, so the field list,
the array dtypes and the schema tag are each written once, in the class:

- an array field declares its dtype in the annotation, e.g.
  ``Annotated[np.ndarray, np.int32]``, and is stored as nested lists;
  an integer array comes back through :func:`int_array`;
- a dataclass field is stored as a dict of its own fields;
- ``list[...]`` fields nest, ``dict`` fields are copied;
- a float array comes back through :func:`real_array`, the toolkit's
  one rule for real-valued arrays;
- ``int``, ``float``, ``bool`` and ``str`` fields are stored as they
  are and checked by :func:`coerce` on the way back;
- a class that sets ``SCHEMA`` gets a ``"schema"`` key, checked on decode.
"""

import math
import numbers
from dataclasses import fields, is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["Record", "coerce", "int_array", "real_array", "check_int", "check_finite"]

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def coerce(value, kind: type, name: str):
    """``value`` as ``kind`` (int, float, bool or str), when nothing is lost.

    Numbers, numpy's scalars among them, must be finite, bools do not
    count as numbers, and an int accepts an integral float such as
    ``10.0``. Raises ValueError naming ``name`` otherwise.
    """
    if kind is bool or kind is str:
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


def int_array(values, dtype, name: str) -> np.ndarray:
    """``values`` as a C-ordered array of integer ``dtype``, when nothing
    is lost.

    An integer ndarray is taken as it is. Anything else goes entry by
    entry through :func:`coerce`'s int rule, since numpy would turn a
    fraction or a bool into an integer. Every entry must then fit
    ``dtype``. Raises ValueError naming ``name`` otherwise.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        entries = np.asarray(values, dtype=object)
        values = np.array([coerce(v, int, name) for v in entries.flat], dtype=object)
        values = values.reshape(entries.shape)
    if values.size and not np.can_cast(values.dtype, dtype):
        info = np.iinfo(dtype)
        for value in (int(values.min()), int(values.max())):
            if not info.min <= value <= info.max:
                raise ValueError(f"{name} must lie in {info.min}..{info.max}, got {value}")
    return np.ascontiguousarray(values, dtype=dtype)


def real_array(values, dtype, name: str, order: str = "C") -> np.ndarray:
    """``values`` as an array of float ``dtype`` in ``order`` ("C", or
    "K" to keep a view of values that already hold ``dtype``).

    The one rule for real-valued arrays: entries must be integers or
    floats, since numpy would turn strings, bools and complex values
    into floats, and all finite (:func:`check_finite`); each fault
    raises ValueError naming ``name``. The cast is the only copy made,
    and a value it overflows to infinity fails the finite check.
    """
    out = np.asarray(values)
    if out.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {out.dtype}")
    with np.errstate(over="ignore"):
        out = np.asarray(out, dtype=dtype, order=order)
    check_finite(out, name)
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


def check_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError naming ``name`` if the float array ``values``
    holds a NaN or an infinity."""
    # min and max carry any NaN or infinity without a per-value mask,
    # so the check allocates nothing beside the values.
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        raise ValueError(f"{name} contains non-finite values")


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return _fields_to_dict(value)
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _decode(value, hint, name: str):
    origin = get_origin(hint)
    if origin is Annotated:
        dtype = np.dtype(get_args(hint)[1])
        read = int_array if dtype.kind in "iu" else real_array
        return read(value, dtype, name)
    if is_dataclass(hint):
        return _fields_from_dict(hint, value)
    if origin is list:
        (item,) = get_args(hint)
        return [_decode(v, item, name) for v in value]
    if hint is dict:
        return dict(value)
    return coerce(value, hint, name)


def _fields_to_dict(obj) -> dict:
    out = {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}
    schema = getattr(obj, "SCHEMA", None)
    if schema is not None:
        out["schema"] = schema
    return out


def _fields_from_dict(cls, d: dict):
    schema = getattr(cls, "SCHEMA", None)
    if schema is not None and d.get("schema") != schema:
        raise ValueError(f"unsupported {cls.__name__} schema: {d.get('schema')!r}")
    hints = get_type_hints(cls, include_extras=True)
    return cls(**{f.name: _decode(d[f.name], hints[f.name], f.name) for f in fields(cls)})


class Record:
    """Base of a dataclass stored as JSON; see the module docstring."""

    def to_dict(self) -> dict:
        return _fields_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict):
        return _fields_from_dict(cls, d)
