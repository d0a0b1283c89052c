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

A parameter of a function that is not a method is an option in use when
its calls in the package give it more than one value.  One that every
call passes, as the same constant, is a constant in the wrong place.  A
function is left out when its name is also loaded other than as a
callee (it may be called from elsewhere), when two functions share its
name, or when a call unpacks ``*`` or ``**`` arguments.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordsel"
PERFBENCH = SRC.parent.parent / "perfbench"

# Names kept though the package never reads them, each with its reason;
# every one but `__version__` must still be read under perfbench/.
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


def constant_parameters(modules: list[ast.Module]) -> list[str]:
    """Every parameter that each call of its function passes, as the same
    constant, as ``function.parameter``."""
    methods = {
        id(m) for tree in modules for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body
    }
    defs: dict[str, list[ast.AST]] = {}
    calls: dict[str, list[ast.Call]] = {}
    loaded: set[str] = set()  # names loaded other than as a callee
    for tree in modules:
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(node) not in methods:
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                if id(node) not in callees:
                    loaded.add(getattr(node, "id", getattr(node, "attr", None)))
    out = []
    for name, nodes in defs.items():
        if len(nodes) != 1 or name in loaded or name not in calls:
            continue
        a = nodes[0].args
        positional = [p.arg for p in a.posonlyargs + a.args]
        passed: dict[str, list] = {p: [] for p in positional + [p.arg for p in a.kwonlyargs]}
        unpacked = False
        for call in calls[name]:
            unpacked |= any(isinstance(x, ast.Starred) for x in call.args)
            unpacked |= any(k.arg is None for k in call.keywords)
            given = dict(zip(positional, call.args)) | {k.arg: k.value for k in call.keywords}
            for p, values in passed.items():
                v = given.get(p)
                values.append((type(v.value), v.value) if isinstance(v, ast.Constant) else None)
        if not unpacked:
            out += [f"{name}.{p}" for p, v in passed.items() if v[0] is not None and v.count(v[0]) == len(v)]
    return sorted(out)


def test_every_name_and_field_is_read_by_the_package():
    assert unread_names(_modules()) == sorted(ALLOWED)


def benchmark_reads() -> set[str]:
    """Every name, attribute and string constant loaded under perfbench/."""
    out = set()
    for p in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_allowed_name_is_still_read_by_the_benchmark():
    # a name the benchmark stops reading is dead code, not an exception
    reads = benchmark_reads()
    stale = [n for n in ALLOWED if n != "__version__" and n.rsplit(".", 1)[-1] not in reads]
    assert stale == []


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


def test_no_parameter_takes_one_constant_at_every_call():
    assert constant_parameters(_modules()) == []


def test_the_scan_finds_a_parameter_every_call_passes_one_constant():
    source = '''
def pad(text, width, fill=" ", *, sep="|"):
    return text

def run(f):
    return f

def hook(x):
    return x

def main(argv=None):
    pad("a", 3, sep="|")
    pad("b", 3, fill="-", sep="|")
    hook(1)
    run(4)
    return run(hook)

if __name__ == "__main__":
    main()
'''
    assert constant_parameters([ast.parse(source)]) == ["pad.sep", "pad.width"]
