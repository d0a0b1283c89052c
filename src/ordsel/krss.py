"""Parser for the s-expression ontology text format.

Axiom forms, one s-expression per axiom, ``;`` starts a comment:

    (implies C D)        (equivalent C D)      (disjoint C D)
    (implies-role r s)   (transitive r)
    (instance a C)       (related a b r)

Concepts use ``*top*``, ``*bottom*``, bare names, ``(not C)``,
``(and C1 C2 ...)``, ``(or C1 C2 ...)``, ``(some r C)``, ``(all r C)``.
Binary and/or chains are flattened into n-ary nodes while parsing, each
chain once, when its outermost form closes.

The reader is one loop over the tokens with a stack of open forms; a form
becomes its concept or axiom when it closes.  A name is declared when its
token is read (first-mention order), as a class, role or individual by
its parent's head and position; each class name has one shared ``Atomic``.

Constructs outside ALC (``one-of``, ``at-least``, ...) raise
``UnsupportedConstruct``; malformed input raises ``ParseError`` with the
1-based line and column of the offending token.  The first axiom in
error decides.  Within it, an unclosed parenthesis wins; otherwise the
error nearest its start, so a form's own head and arity come before its
arguments.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, NamedTuple

from .concepts import (
    All,
    And,
    Atomic,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    NAME_RE,
    Not,
    Ontology,
    Or,
    RoleAssertion,
    RoleInclusion,
    Some,
    Subsumption,
    TOP,
    BOTTOM,
    Transitivity,
    gc_paused,
)


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self):
        # `args` holds only the formatted text; rebuild from the fields
        return type(self), (self.line, self.column, self.message)


class UnsupportedConstruct(ParseError):
    """A syntactically recognisable construct outside the supported logic."""


# operator heads that belong to richer logics than the one handled here
_NON_ALC = frozenset(
    {"one-of", "at-least", "at-most", "exactly", "inverse", "inv", "self", "domain", "range", "functional"}
)


# A comment, or a token: a parenthesis or a name (a run of anything but
# the four whitespace characters, the parentheses and ';').  Only the four
# whitespace characters fall between matches; `findall` yields '' for a
# comment, so token indices are match indices.
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")

# What a form or an argument slot holds; an argument of a form already in
# error is read for its parentheses only (slot None).
_AXIOM, _CLASS, _ROLE, _INDIVIDUAL = "axiom", "class", "role", "individual"
_FORM_NAME = {_AXIOM: "axiom form", _CLASS: "operator"}
_NAME_WANTED = {_ROLE: "a role name", _INDIVIDUAL: "an individual name"}


class _Form(NamedTuple):
    """One head: the slots of its arguments, the slot of any argument past
    those (None: the arity is exact), what its arity message says it
    takes, the constructor of its value and, for an axiom, its box."""

    slots: tuple[str, ...]
    rest: str | None
    takes: str
    build: Callable
    box: int = -1


def _leaves(args: tuple) -> list:
    """The arguments of a chain of nested same-operator forms, in order: an
    inner form's argument list stands in the chain for its arguments."""
    leaves, stack = [], [iter(args)]
    while stack:
        for arg in stack[-1]:
            if type(arg) is list:
                stack.append(iter(arg))
                break
            leaves.append(arg)
        else:
            stack.pop()
    return leaves


_TBOX, _RBOX, _ABOX = range(3)
# A nested and/or form directly inside one of its own kind hands its argument
# list up, and the chain's outermost form flattens it once: building every
# level would copy the flattened inner children at each (quadratic time).
_AND = _Form((_CLASS, _CLASS), _CLASS, "at least two concepts", lambda *a: And(tuple(_leaves(a))))
_OR = _Form((_CLASS, _CLASS), _CLASS, "at least two concepts", lambda *a: Or(tuple(_leaves(a))))
_CONCEPT_FORMS = {
    "not": _Form((_CLASS,), None, "one concept", Not),
    "and": _AND,
    "or": _OR,
    "some": _Form((_ROLE, _CLASS), None, "a role and a concept", Some),
    "all": _Form((_ROLE, _CLASS), None, "a role and a concept", All),
}
_AXIOM_FORMS = {
    "implies": _Form((_CLASS, _CLASS), None, "two concepts", Subsumption, _TBOX),
    "equivalent": _Form((_CLASS, _CLASS), None, "two concepts", Equivalence, _TBOX),
    "disjoint": _Form((_CLASS, _CLASS), None, "two concepts", Disjointness, _TBOX),
    "implies-role": _Form((_ROLE, _ROLE), None, "two roles", RoleInclusion, _RBOX),
    "transitive": _Form((_ROLE,), None, "one role", Transitivity, _RBOX),
    "instance": _Form((_INDIVIDUAL, _CLASS), None, "an individual and a concept", ConceptAssertion, _ABOX),
    "related": _Form(
        (_INDIVIDUAL, _INDIVIDUAL, _ROLE), None, "two individuals and a role", RoleAssertion, _ABOX
    ),
}
_IGNORED = _Form((), None, "", None)  # the head of a form already in error


def _error(text: str, index: int, cls: type[ParseError], message: str) -> ParseError:
    """The error at token ``index``, with that token's line and column."""
    pos = next(islice(_TOKEN.finditer(text), index, None)).start()
    return cls(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos), message)


@gc_paused
def parse_ontology(text: str) -> Ontology:
    # what each name read so far stands for; *top* and *bottom* come first
    concepts = {"*top*": TOP, "*bottom*": BOTTOM}
    declared = {_CLASS: concepts, _ROLE: {}, _INDIVIDUAL: {}}
    boxes: tuple[list, list, list] = ([], [], [])
    # open forms, innermost last: [slot, head form, arguments, index of '(', index of head]
    stack: list[list] = []
    frame: list | None = None
    first = None  # (token index, class, message) of the winning error in this axiom

    def fail(index: int, cls: type[ParseError], message: str) -> None:
        nonlocal first
        if first is None or index < first[0]:
            first = (index, cls, message)

    toks = _TOKEN.findall(text)
    for i, t in enumerate(toks):
        if t == "(":
            if frame is None:
                slot = _AXIOM
            elif frame[1] is None:  # a form in head position
                if frame[0] is not None:
                    fail(frame[3], ParseError, f"expected an {_FORM_NAME[frame[0]]}")
                    frame[0] = None
                frame[1] = _IGNORED
                slot = None
            else:
                form, n = frame[1], len(frame[2])
                slot = form.slots[n] if n < len(form.slots) else form.rest
                if slot is _ROLE or slot is _INDIVIDUAL:
                    fail(i, ParseError, f"expected {_NAME_WANTED[slot]}")
                    slot = None
            frame = [slot, None, [], i, i]
            stack.append(frame)
        elif t == ")":
            if frame is None:
                raise _error(text, i, ParseError, "unexpected ')'")
            slot, form, args, opened, head = stack.pop()
            value = None
            if slot is None:
                pass
            elif form is None:
                fail(opened, ParseError, f"expected an {_FORM_NAME[slot]}")
            elif len(args) < len(form.slots) or form.rest is None and len(args) > len(form.slots):
                fail(head, ParseError, f"'{toks[head]}' takes {form.takes}")
            elif first is None and stack and stack[-1][1] is form and (form is _AND or form is _OR):
                value = args  # flattened by the chain's outermost form
            elif first is None:
                value = form.build(*args)
            if stack:
                frame = stack[-1]
                frame[2].append(value)
            else:
                frame = None
                if first is not None:
                    raise _error(text, *first)
                boxes[form.box].append(value)
        elif t:
            if frame is None:
                raise _error(text, i, ParseError, f"expected an axiom, got {t!r}")
            form, slot = frame[1], frame[0]
            if form is None:  # the head
                form = (_AXIOM_FORMS if slot is _AXIOM else _CONCEPT_FORMS).get(t) if slot else _IGNORED
                if form is None:
                    if t in _NON_ALC:
                        fail(i, UnsupportedConstruct, f"unsupported construct {t!r}")
                    else:
                        fail(i, UnsupportedConstruct, f"unknown {_FORM_NAME[slot]} {t!r}")
                    frame[0], form = None, _IGNORED
                frame[1], frame[4] = form, i
                continue
            n = len(frame[2])
            slot = form.slots[n] if n < len(form.slots) else form.rest
            value = None
            if slot is not None:
                names = declared[slot]
                value = names.get(t)
                if value is None:
                    if slot is _CLASS and t in _NON_ALC:
                        fail(i, UnsupportedConstruct, f"unsupported construct {t!r}")
                    elif not NAME_RE.match(t):
                        fail(i, ParseError, f"invalid {slot} name {t!r}")
                    else:
                        value = names[t] = Atomic(t) if slot is _CLASS else t
            frame[2].append(value)
    if stack:
        raise _error(text, stack[-1][3], ParseError, "unclosed '('")
    return Ontology(
        tbox=tuple(boxes[_TBOX]),
        rbox=tuple(boxes[_RBOX]),
        abox=tuple(boxes[_ABOX]),
        classes=tuple(concepts)[2:],
        roles=tuple(declared[_ROLE]),
        source_size=len(text.encode("utf-8")),
    )
