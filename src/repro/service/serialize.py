"""JSON codec for the artifact-cache spill: one rule, exact round trips.

A restored cache key must hash and compare equal to a freshly
canonicalized submission, and a restored report must render
byte-identical hints, so the spill keeps full term/formula/query trees
rather than SQL text.  One rule encodes every value :func:`to_obj`
accepts:

* ``None``, booleans, ints, floats and strings are JSON-native;
* a tuple is a list;
* a ``Fraction`` is ``{"f": [num, den]}`` and a ``SqlType`` ``{"y": name}``;
* an instance of a class in :data:`CLASSES` is ``{"t": class name, field:
  value, ...}`` over its dataclass fields, except those declared with
  ``metadata={"spill": False}``.

:func:`from_obj` inverts the rule, building only classes in
:data:`CLASSES`, each through its own constructor and its checks.  Bump
:data:`VERSION` when the rule changes or a spilled class adds, removes,
renames or re-types a field, so ``load`` refuses spills of the old shape.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from repro.catalog import Column, SqlType, Table
from repro.core.hints import Hint
from repro.core.pipeline import Report, StageResult
from repro.logic.formulas import And, BoolConst, Comparison, Not, Or
from repro.logic.terms import AggCall, Arith, Const, Neg, Var
from repro.query import FromEntry, ResolvedQuery
from repro.witness.build import Witness

#: Format version written by ``AssignmentSession.save``; ``load`` accepts
#: no other.
VERSION = 5

#: The classes a spill may hold, by the name it records for them.
CLASSES = {
    cls.__name__: cls
    for cls in (Var, Const, Arith, Neg, AggCall, BoolConst, Comparison, Not,
                And, Or, FromEntry, ResolvedQuery, Hint, StageResult, Report,
                Witness, Table, Column)
}
#: The fields spilled per class.
_FIELDS = {
    cls: [f.name for f in fields(cls) if f.metadata.get("spill", True)]
    for cls in CLASSES.values()
}


def to_obj(value):
    """The JSON-ready form of ``value``; ``TypeError`` if the rule has none."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return [to_obj(item) for item in value]
    if isinstance(value, Fraction):
        return {"f": [value.numerator, value.denominator]}
    if isinstance(value, SqlType):
        return {"y": value.name}
    names = _FIELDS.get(type(value))
    if names is None:
        raise TypeError(f"cannot spill {value!r}")
    obj = {"t": type(value).__name__}
    for name in names:
        obj[name] = to_obj(getattr(value, name))
    return obj


def from_obj(obj):
    """The value :func:`to_obj` encoded as ``obj``; ``ValueError`` for an
    unknown tag or shape (a bad field raises what its constructor raises)."""
    if isinstance(obj, list):
        return tuple(from_obj(item) for item in obj)
    if not isinstance(obj, dict):
        return obj
    if "t" in obj:
        cls = CLASSES.get(obj["t"])
        if cls is None:
            raise ValueError(f"unknown spilled class {obj['t']!r}")
        return cls(**{k: from_obj(v) for k, v in obj.items() if k != "t"})
    if obj.keys() == {"f"}:
        num, den = obj["f"]
        return Fraction(num, den)
    if obj.keys() == {"y"}:
        return SqlType[obj["y"]]
    raise ValueError(f"unknown spilled object {obj!r}")
