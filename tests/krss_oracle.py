"""The ontology reader as it was before it became one iterative pass, kept
as an oracle for `ordsel.krss.parse_ontology`.

It tokenizes, reads every axiom whole into nested lists with a recursive
`_Reader`, then builds concepts from those lists with a recursive
`_Builder`.  It raises the same exception classes, from `ordsel.krss`,
with the same messages and positions.
"""

from __future__ import annotations

import re

from ordsel.concepts import (
    All,
    Atomic,
    Concept,
    ConceptAssertion,
    Disjointness,
    Equivalence,
    NAME_RE,
    Not,
    Ontology,
    RoleAssertion,
    RoleInclusion,
    Some,
    Subsumption,
    TOP,
    BOTTOM,
    Transitivity,
    conj,
    disj,
)
from ordsel.krss import ParseError, UnsupportedConstruct

# Deepest parenthesis nesting this reader takes.  `_Reader` and `_Builder`
# recurse once per level, so deeper text would meet the recursion limit
# rather than an answer to compare; it raises `RecursionError` instead.
MAX_DEPTH = 256


# operator heads that belong to richer logics than the one handled here
_NON_ALC = frozenset(
    {
        "one-of",
        "at-least",
        "at-most",
        "exactly",
        "inverse",
        "inv",
        "self",
        "domain",
        "range",
        "functional",
    }
)


# A parenthesis, a name (a run of anything but the four whitespace
# characters, the parentheses and ';') or a comment; only the four
# whitespace characters fall between matches.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


class _Tok:
    """A token and its offset in the source.  Its 1-based line and column
    are worked out from the offset, which only an error message needs."""

    __slots__ = ("text", "pos", "source")

    def __init__(self, text: str, pos: int, source: str):
        self.text = text
        self.pos = pos
        self.source = source

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.pos) + 1

    @property
    def column(self) -> int:
        return self.pos - self.source.rfind("\n", 0, self.pos)


def _tokenize(text: str) -> list[_Tok]:
    return [_Tok(t, m.start(), text) for m in _TOKEN.finditer(text) if (t := m[0])[0] != ";"]


class _Reader:
    def __init__(self, toks: list[_Tok], end_line: int):
        self.toks = toks
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.end_line, 1, "unexpected end of input")
        self.pos += 1
        return tok

    def read_form(self, depth: int = 1):
        """One s-expression at nesting ``depth``: either a _Tok atom or an
        (items, open paren token) pair."""
        tok = self.next()
        if tok.text == ")":
            raise ParseError(tok.line, tok.column, "unexpected ')'")
        if tok.text != "(":
            return tok
        if depth > MAX_DEPTH:
            raise RecursionError(f"the oracle reads at most {MAX_DEPTH} levels")
        items = []
        while True:
            nxt = self.peek()
            if nxt is None:
                raise ParseError(tok.line, tok.column, "unclosed '('")
            if nxt.text == ")":
                self.next()
                return (items, tok)
            items.append(self.read_form(depth + 1))


class _Builder:
    def __init__(self):
        self.classes: dict[str, None] = {}
        self.roles: dict[str, None] = {}

    def name(self, form, kind: str) -> str:
        if not isinstance(form, _Tok):
            line, col = form[1].line, form[1].column
            article = "an" if kind == "individual" else "a"
            raise ParseError(line, col, f"expected {article} {kind} name")
        if not NAME_RE.match(form.text):
            raise ParseError(form.line, form.column, f"invalid {kind} name {form.text!r}")
        return form.text

    def role(self, form) -> str:
        r = self.name(form, "role")
        self.roles.setdefault(r)
        return r

    def individual(self, form) -> str:
        return self.name(form, "individual")

    def concept(self, form) -> Concept:
        if isinstance(form, _Tok):
            if form.text == "*top*":
                return TOP
            if form.text == "*bottom*":
                return BOTTOM
            if form.text in _NON_ALC:
                raise UnsupportedConstruct(form.line, form.column, f"unsupported construct {form.text!r}")
            if not NAME_RE.match(form.text):
                raise ParseError(form.line, form.column, f"invalid class name {form.text!r}")
            self.classes.setdefault(form.text)
            return Atomic(form.text)
        items, open_tok = form
        if not items or not isinstance(items[0], _Tok):
            raise ParseError(open_tok.line, open_tok.column, "expected an operator")
        head = items[0]
        args = items[1:]
        if head.text == "not":
            if len(args) != 1:
                raise ParseError(head.line, head.column, "'not' takes one concept")
            return Not(self.concept(args[0]))
        if head.text in ("and", "or"):
            if len(args) < 2:
                raise ParseError(head.line, head.column, f"'{head.text}' takes at least two concepts")
            parts = [self.concept(a) for a in args]
            return conj(parts) if head.text == "and" else disj(parts)
        if head.text in ("some", "all"):
            if len(args) != 2:
                raise ParseError(head.line, head.column, f"'{head.text}' takes a role and a concept")
            role = self.role(args[0])
            child = self.concept(args[1])
            return Some(role, child) if head.text == "some" else All(role, child)
        if head.text in _NON_ALC:
            raise UnsupportedConstruct(head.line, head.column, f"unsupported construct {head.text!r}")
        raise UnsupportedConstruct(head.line, head.column, f"unknown operator {head.text!r}")


def parse_ontology(text: str) -> Ontology:
    toks = _tokenize(text)
    end_line = text.count("\n") + 1
    reader = _Reader(toks, end_line)
    b = _Builder()
    tbox = []
    rbox = []
    abox = []
    while reader.peek() is not None:
        form = reader.read_form()
        if isinstance(form, _Tok):
            raise ParseError(form.line, form.column, f"expected an axiom, got {form.text!r}")
        items, open_tok = form
        if not items or not isinstance(items[0], _Tok):
            raise ParseError(open_tok.line, open_tok.column, "expected an axiom form")
        head = items[0]
        args = items[1:]
        if head.text == "implies":
            if len(args) != 2:
                raise ParseError(head.line, head.column, "'implies' takes two concepts")
            tbox.append(Subsumption(b.concept(args[0]), b.concept(args[1])))
        elif head.text == "equivalent":
            if len(args) != 2:
                raise ParseError(head.line, head.column, "'equivalent' takes two concepts")
            tbox.append(Equivalence(b.concept(args[0]), b.concept(args[1])))
        elif head.text == "disjoint":
            if len(args) != 2:
                raise ParseError(head.line, head.column, "'disjoint' takes two concepts")
            tbox.append(Disjointness(b.concept(args[0]), b.concept(args[1])))
        elif head.text == "implies-role":
            if len(args) != 2:
                raise ParseError(head.line, head.column, "'implies-role' takes two roles")
            rbox.append(RoleInclusion(b.role(args[0]), b.role(args[1])))
        elif head.text == "transitive":
            if len(args) != 1:
                raise ParseError(head.line, head.column, "'transitive' takes one role")
            rbox.append(Transitivity(b.role(args[0])))
        elif head.text == "instance":
            if len(args) != 2:
                raise ParseError(head.line, head.column, "'instance' takes an individual and a concept")
            abox.append(ConceptAssertion(b.individual(args[0]), b.concept(args[1])))
        elif head.text == "related":
            if len(args) != 3:
                raise ParseError(head.line, head.column, "'related' takes two individuals and a role")
            abox.append(
                RoleAssertion(b.individual(args[0]), b.individual(args[1]), b.role(args[2]))
            )
        elif head.text in _NON_ALC:
            raise UnsupportedConstruct(head.line, head.column, f"unsupported construct {head.text!r}")
        else:
            raise UnsupportedConstruct(head.line, head.column, f"unknown axiom form {head.text!r}")
    return Ontology(
        tbox=tuple(tbox),
        rbox=tuple(rbox),
        abox=tuple(abox),
        classes=tuple(b.classes),
        roles=tuple(b.roles),
        source_size=len(text.encode("utf-8")),
    )
