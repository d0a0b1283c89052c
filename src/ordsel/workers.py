"""One pool of forked worker processes, for the benchmark sweep and training.

`ordered_map` runs tasks in one worker per usable CPU, at most one per task,
each with BLAS on one thread.  Workers inherit the function and the tasks
through the fork: a 4-byte task index goes out on a worker's task pipe and a
length-prefixed pickle of the result comes back on its result pipe."""

import contextlib
import os
import pickle
import sys

# OpenBLAS's thread-count setter, plain and as numpy's wheels build it.
_BLAS_THREAD_SETTERS = tuple(
    f"{p}openblas_set_num_threads{s}" for p in ("", "scipy_") for s in ("", "64_", "_64")
)


def _one_blas_thread() -> None:
    """Run this worker's BLAS on one thread: the workers fill the CPUs, and a
    second thread in each made `QUICK_GRID` training 2.5 times slower on 2
    CPUs.  Finds OpenBLAS among the mapped libraries (Linux), if it can: a
    mapped path is the sixth field and may hold spaces, and a deleted file
    or a library that will not load counts as absent."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return
    paths = {
        f[5] for f in fields
        if len(f) == 6 and "openblas" in f[5].lower() and not f[5].endswith(" (deleted)")
    }
    import ctypes

    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _worker_count(n_tasks: int) -> int:
    """Workers for `n_tasks` tasks: one per usable CPU, at most one per task;
    1 (inline) where this platform cannot fork."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks)) if hasattr(os, "fork") else 1


def _serve(fn, tasks: list[tuple], inbox: int, outbox: int) -> None:
    """A worker: answer each task index read from `inbox` with the pickled
    `(index, ok, value)` on `outbox`, and exit once `inbox` closes."""
    try:
        _one_blas_thread()
        with open(inbox, "rb") as indices, open(outbox, "wb") as out:
            while len(raw := indices.read(4)) == 4:
                i = int.from_bytes(raw, "little")
                try:
                    message = (i, True, fn(*tasks[i]))
                except Exception as exc:
                    message = (i, False, exc)
                try:
                    data = pickle.dumps(message)
                    if not message[1]:  # an exception must also load back
                        pickle.loads(data)
                except Exception as exc:
                    error = pickle.PicklingError(f"task {i}: cannot send back {message[2]!r}: {exc}")
                    data = pickle.dumps((i, False, error))
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
    finally:
        with contextlib.suppress(Exception):
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(0)


def _pool_map(fn, tasks: list[tuple], workers: int) -> list:
    """`ordered_map` in `workers` forked processes, the tasks sent in order."""
    import selectors  # here, like `signal`: a process that never pools skips them
    import signal
    sys.stdout.flush()  # else every worker writes what is buffered again
    sys.stderr.flush()
    results, failed = [None] * len(tasks), len(tasks)  # values or errors; lowest failed
    pids, ends = [], []  # each worker's pid; its task and result pipes, in turn
    done = False
    try:
        for _ in range(workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            ends += (open(task_w, "wb", buffering=0), open(result_r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    for end in ends:  # the parent's
                        end.close()
                    _serve(fn, tasks, task_r, result_w)
                pids.append(pid)
            finally:
                os.close(task_r)
                os.close(result_w)
        with selectors.DefaultSelector() as selector:
            # a worker that has exited breaks its task pipe; its result pipe
            # then ends, and the read below records that it died on the task
            for sent, (task, result) in enumerate(zip(ends[::2], ends[1::2])):
                with contextlib.suppress(BrokenPipeError):
                    task.write(sent.to_bytes(4, "little"))
                selector.register(result, selectors.EVENT_READ, [task, sent])
            while selector.get_map():
                for key, _ in selector.select():
                    task, i = key.data
                    size = int.from_bytes(header := key.fileobj.read(8), "little")
                    if len(header) == 8 and len(data := key.fileobj.read(size)) == size:
                        ok, results[i] = pickle.loads(data)[1:]
                    else:
                        ok, results[i] = False, ChildProcessError(f"a worker died running task {i}")
                    failed = failed if ok else min(failed, i)
                    if (sent := sent + 1) < failed:
                        with contextlib.suppress(BrokenPipeError):
                            task.write(sent.to_bytes(4, "little"))
                        key.data[1] = sent
                    else:
                        selector.unregister(key.fileobj)
        done = True
    finally:
        for end in ends:
            end.close()
        for pid in pids:
            if not done:  # the caller was interrupted: no answer will be read
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed < len(tasks):
        raise results[failed]
    return results


def ordered_map(fn, tasks: list[tuple]) -> list:
    """`fn(*task)` for every task, in task order.  A failing task raises its
    own exception, the first in task order as inline, once the tasks before
    it have finished; no later task starts.  A worker that dies raises
    `ChildProcessError` naming its task.  No worker outlives the call."""
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    return _pool_map(fn, tasks, workers)
