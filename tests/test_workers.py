"""The one pool of worker processes: how it fails, what it leaves behind,
and that it needs neither `multiprocessing` nor `concurrent.futures`."""

import ast
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordsel
from conftest import assert_no_children, set_workers
from ordsel import workers
from ordsel.krss import ParseError, UnsupportedConstruct

SRC = Path(ordsel.__file__).resolve().parent
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _run_python(code: str) -> str:
    """The standard output of `code` run in a fresh interpreter whose pools
    have two workers, whatever the host's CPU count, and whose standard
    output, a pipe, is block-buffered."""
    setup = "from ordsel import workers\nworkers._worker_count = lambda n: min(2, n)\n"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC.parent)
    return subprocess.run(
        [sys.executable, "-c", setup + code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def test_no_module_imports_multiprocessing():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(
            name == mod or name.startswith(mod + ".")
            for name in _imports(path)
            for mod in POOL_MODULES
        )
    }
    assert importers == set()


# Imports the harness, as every run's set-up does, then runs a pooled map
# and a pooled pipeline: a sweep and a training pool.
_LOADED_PROBE = f"""
import sys
from ordsel.bench.corpus import CorpusSpec, generate_corpus
from ordsel.bench.harness import run_pipeline
from ordsel.learn.pipeline import GridPoint
assert workers.ordered_map(abs, [(-1,), (-2,), (3,)]) == [1, 2, 3]
corpus = [(i.ontology_id, i.text) for i in generate_corpus(CorpusSpec(count=24, seed=11))]
run_pipeline(corpus, budget=2000, seed=9, grid=[GridPoint(5, 2, "linear", 1.0)], n_folds=3)
print([m for m in {POOL_MODULES!r} if m in sys.modules])
"""


def test_pooled_runs_load_no_pool_module():
    assert _run_python(_LOADED_PROBE) == "[]\n"


# The parent's "before" sits in its buffer (stdout is a pipe) when the
# workers fork, and each worker's line in that worker's buffer when it
# answers.
_PRINT_PROBE = """
print("before")
workers.ordered_map(print, [(f"task {i}",) for i in range(6)])
print("after")
"""


def test_worker_prints_are_neither_lost_nor_repeated():
    lines = _run_python(_PRINT_PROBE).splitlines()
    assert lines[0] == "before" and lines[-1] == "after"
    assert sorted(lines[1:-1]) == [f"task {i}" for i in range(6)]


def _exit_in_worker(i, parent):
    if os.getpid() == parent:
        raise AssertionError("a worker's task ran in the calling process")
    if i >= 1:
        os._exit(3)
    return i


def test_a_worker_that_dies_raises_child_process_error(monkeypatch):
    set_workers(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="a worker died running task 1$"):
        workers.ordered_map(_exit_in_worker, [(i, os.getpid()) for i in range(5)])
    assert_no_children()


def _started(i, tmp):
    """Task `i` marks that it started; task 0 fails, and task 1 answers only
    once the parent has read that failure."""
    (tmp / str(i)).touch()
    if i == 0:
        raise ValueError("task 0 fails")
    deadline = time.monotonic() + 60
    while i == 1 and not (tmp / "read").exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return i


def test_no_task_starts_after_a_failure(monkeypatch, tmp_path):
    parent, loads = os.getpid(), pickle.loads

    def reading(data):  # marks when the parent has read a failure
        message = loads(data)
        if os.getpid() == parent and not message[1]:
            (tmp_path / "read").touch()
        return message

    monkeypatch.setattr(pickle, "loads", reading)
    set_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="task 0 fails"):
        workers.ordered_map(_started, [(i, tmp_path) for i in range(6)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "read"]
    assert_no_children()


class _Unpicklable(Exception):
    """Holds a lambda, which pickle cannot send."""

    def __init__(self, i):
        super().__init__(f"task says {i}")
        self.hook = lambda: i


class _Unloadable(Exception):
    """Pickles, but cannot be rebuilt from its args alone."""

    def __init__(self, i, why):
        super().__init__(f"task says {i}")


def _raise(cls, i):
    raise cls(i) if cls is _Unpicklable else cls(i, "why")


@pytest.mark.parametrize("cls", [_Unpicklable, _Unloadable])
def test_an_exception_pickle_cannot_send_still_reaches_the_caller(monkeypatch, cls):
    set_workers(monkeypatch, 2)
    with pytest.raises(pickle.PicklingError) as info:
        workers.ordered_map(_raise, [(cls, i) for i in range(4)])
    # the first failing task, named, with its exception's repr
    assert str(info.value).startswith(f"task 0: cannot send back {cls.__name__}('task says 0'): ")
    assert_no_children()


def _parse_error(cls, i):
    if i == 1:
        raise cls(3, 4, "boom")
    return i


@pytest.mark.parametrize("cls", [ParseError, UnsupportedConstruct])
def test_a_parse_error_in_a_worker_reaches_the_caller_as_itself(monkeypatch, cls):
    set_workers(monkeypatch, 2)
    with pytest.raises(cls) as info:
        workers.ordered_map(_parse_error, [(cls, i) for i in range(4)])
    assert type(info.value) is cls
    assert (info.value.line, info.value.column, str(info.value)) == (3, 4, "3:4: boom")
    assert_no_children()


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


def test_an_interrupted_caller_leaves_no_worker(monkeypatch):
    set_workers(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(_Interrupted):
            workers.ordered_map(time.sleep, [(60,), (60,), (60,)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the sleeping workers were killed, not waited for
    assert time.monotonic() - start < 30
    assert_no_children()
