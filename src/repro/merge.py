"""Exact merges of count payloads, by addition.

Every trace-derived payload (the per-benchmark summaries, the power
aggregates) is a tree of dataclasses, dicts and tuples over integers.
Counted over runs of whole warps, such a payload merges exactly: the
counts of a trace are the sum of its chunks' counts.  :func:`merge` is
that sum, field by field.  A field fixed by the kernel or the warp size
(a warp size, a static site count, a per-register table) is declared
with :func:`fixed` and must be equal on both sides instead.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any

_FIXED = "merge_fixed"


def fixed(**kwargs: Any) -> Any:
    """A dataclass field that every chunk of one trace shares: merged
    payloads must agree on it."""
    return dataclasses.field(metadata={_FIXED: True}, **kwargs)


def merge(a: Any, b: Any) -> Any:
    """The sum of two count payloads of one shape; ``None`` is the
    identity.

    Integers add; dicts add key by key (a key one side lacks counts as
    zero there); tuples add item by item; dataclasses add field by
    field, except :func:`fixed` fields, which must be equal.  Returns a
    new payload and changes neither argument.
    """
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, dict):
        return {key: merge(a.get(key), b.get(key)) for key in a | b}
    if isinstance(a, tuple):
        if len(a) != len(b):
            raise ValueError(f"cannot merge tuples of {len(a)} and {len(b)} items")
        return tuple(map(merge, a, b))
    if dataclasses.is_dataclass(a):
        merged = {}
        for spec in dataclasses.fields(a):
            x, y = getattr(a, spec.name), getattr(b, spec.name)
            if not spec.metadata.get(_FIXED):
                merged[spec.name] = merge(x, y)
            elif x != y:
                raise ValueError(f"merged payloads differ in {spec.name}: {x!r}, {y!r}")
        return dataclasses.replace(a, **merged)
    if isinstance(a, numbers.Integral):
        return a + b
    raise TypeError(f"cannot merge {type(a).__name__} values by addition")
