"""Structural comparison of parse results.

Concepts, axioms and ontologies compare by identity, so a test that asks
whether two separately built trees spell the same thing asks here.  The
comparison runs on explicit stacks (concepts through `walk`), so it works
at any depth, and a failure names the first difference in one short line
instead of printing either tree.
"""

from __future__ import annotations

import dataclasses

from ordsel.concepts import Concept, walk


def _shape(node: Concept) -> tuple:
    """``(type, name or role, and/or width)``: the pre-order sequence of a
    tree's shapes determines the tree, and no tree's sequence is a proper
    prefix of another's."""
    label = getattr(node, "name", getattr(node, "role", None))
    return type(node).__name__, label, len(getattr(node, "children", ()))


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def first_difference(a, b) -> str | None:
    """Where ``a`` and ``b`` first differ, None when they spell the same.

    Concepts compare node by node in pre-order, records (axioms,
    ontologies) field by field, tuples and lists item by item, anything
    else with ``==``.
    """
    todo = [("", a, b)]
    while todo:
        path, x, y = todo.pop()
        if x is y:
            continue
        if isinstance(x, Concept) and isinstance(y, Concept):
            for i, (p, q) in enumerate(zip(walk(x), walk(y))):
                if _shape(p[0]) != _shape(q[0]):
                    return f"{path or 'concept'} node {i}: {_shape(p[0])} against {_shape(q[0])}"
        elif type(x) is not type(y):
            return f"{path or 'value'}: {type(x).__name__} against {type(y).__name__}"
        elif isinstance(x, (tuple, list)):
            if len(x) != len(y):
                return f"{path or 'sequence'}: {len(x)} items against {len(y)}"
            todo.extend((f"{path}[{i}]", x[i], y[i]) for i in reversed(range(len(x))))
        elif dataclasses.is_dataclass(x):
            fields = [f.name for f in dataclasses.fields(x)]
            todo.extend((f"{path}.{f}", getattr(x, f), getattr(y, f)) for f in reversed(fields))
        elif x != y:
            return f"{path or 'value'}: {_short(x)} against {_short(y)}"
    return None


def assert_same(a, b) -> None:
    """Fail with `first_difference` unless ``a`` and ``b`` spell the same."""
    diff = first_difference(a, b)
    if diff is not None:
        raise AssertionError(diff)
