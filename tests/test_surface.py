"""Every name the package defines is read somewhere in the package.

An AST scan over `src/ordsel` lists each top-level function, class and
constant, each field of a dataclass or NamedTuple, and each method or
property of a top-level class whose name is not a dunder, and fails on
any that no code under `src/ordsel` reads: something only the tests read
or set is surface the program computes, or carries, for nothing.

A top-level name is read when it is loaded, as a bare name or as an
attribute, outside its own definition.  A field is read when an attribute
of its name is loaded anywhere, whatever the object; the orderings read
the `ConceptStats` fields through `getattr` with the metric names, so a
string constant equal to a field's name counts as a read too.  A method
or property is read as a field is, but not by a load inside its own body.

A parameter of a function, method or lambda, at any depth, is read when
its name is loaded inside the body of that function; a parameter no body
reads is an argument every caller passes for nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordsel"

# Names kept though the package never reads them, each with its reason.
ALLOWED = {
    "cross_validate": "the benchmark's span tracer wraps it (see test_tracer_names)",
    "CorpusInstance.family": "the benchmark's trap-order check reads it",
    "FAMILY_FAST": "the benchmark's trap-order check reads it",
    "__version__": "the package's version, for whoever imports it",
    "HeuristicConfig.number": "the benchmark's span tracer reads it (perfbench/spans.py)",
}


def _modules() -> list[ast.Module]:
    return [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass (bare or called decorator) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = [getattr(n, "id", getattr(n, "attr", None)) for n in decorators + cls.bases]
    return "dataclass" in names or "NamedTuple" in names


def _definitions(stmt: ast.stmt) -> list[str]:
    """The top-level names one module statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    out = []
    for t in targets:
        for node in [t] if isinstance(t, ast.Name) else getattr(t, "elts", []):
            if isinstance(node, ast.Name):
                out.append(node.id)
    return out


def _fields(cls: ast.ClassDef) -> list[str]:
    return [
        s.target.id
        for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and "ClassVar" not in ast.unparse(s.annotation)
    ]


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The methods and properties of a class, dunders left out."""
    return [
        s for s in cls.body
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (s.name.startswith("__") and s.name.endswith("__"))
    ]


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def unread_names(modules: list[ast.Module]) -> list[str]:
    """Every top-level name, record field and method that no package code
    reads, as ``name`` or ``Class.member``."""
    defined: list[tuple[str, ast.stmt]] = []  # (name, the statement binding it)
    fields: list[tuple[str, str]] = []  # (class, field)
    methods: list[tuple[str, ast.AST]] = []  # (class, method)
    loads: list[tuple[str, ast.stmt]] = []  # (name, enclosing top-level statement)
    attr_loads: list[tuple[str, ast.Attribute]] = []
    strings: set[str] = set()  # string constants other than docstrings
    for tree in modules:
        docs = _docstrings(tree)
        for stmt in tree.body:
            for name in _definitions(stmt):
                defined.append((name, stmt))
            if isinstance(stmt, ast.ClassDef):
                methods += [(stmt.name, m) for m in _methods(stmt)]
                if _is_record(stmt):
                    fields += [(stmt.name, f) for f in _fields(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.append((node.id, stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.append((node.attr, stmt))
                    attr_loads.append((node.attr, node))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                    strings.add(node.value)
    attrs = {a for a, _ in attr_loads} | strings
    unread = [
        name for name, stmt in defined
        if not any(n == name and s is not stmt for n, s in loads)
    ]
    unread += [f"{cls}.{f}" for cls, f in fields if f not in attrs]
    for cls, m in methods:
        inside = set(map(id, ast.walk(m)))
        if m.name not in strings and not any(a == m.name and id(n) not in inside for a, n in attr_loads):
            unread.append(f"{cls}.{m.name}")
    return sorted(unread)


def unread_parameters(modules: list[ast.Module]) -> list[str]:
    """Every parameter that its function's body never loads, as
    ``function.parameter`` (``<lambda>`` for a lambda's)."""
    out = []
    for tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            out += [f"{name}.{p}" for p in params if p not in read]
    return sorted(out)


def test_every_name_and_field_is_read_by_the_package():
    assert unread_names(_modules()) == sorted(ALLOWED)


def test_the_scan_finds_an_unread_field_and_function():
    source = '''
from dataclasses import dataclass

@dataclass
class Row:
    used: int
    spare: int

    @property
    def shown(self):
        return self.used

    @property
    def hidden(self):
        return self.spare

    def again(self):
        return self.again() if self.shown else self.__class__

def helper(r):
    return helper(r) if r.used else r.used

def main():
    return Row(1, 2).used

if __name__ == "__main__":
    main()
'''
    got = unread_names([ast.parse(source)])
    assert got == ["Row.again", "Row.hidden", "helper"]


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters(_modules()) == []


def test_the_scan_finds_an_unread_parameter():
    source = '''
class Table:
    def show(self, rows, width=8, *extra, **options):
        width = 0
        return [r for r in rows if options]

def outer(a, b):
    def inner(c):
        return a
    return inner, lambda d, e: e
'''
    got = unread_parameters([ast.parse(source)])
    assert got == ["<lambda>.d", "inner.c", "outer.b", "show.extra", "show.self", "show.width"]
