"""One pool of forked worker processes, for the benchmark sweep and training.

`ordered_map` runs tasks in one worker per CPU this process may use, at most
one per task, each with BLAS on one thread.  Workers are forked, not
spawned: a spawned one would import numpy and ordsel again (about 0.2 s).
Results are those of running inline, which happens with one task, one usable
CPU, no `fork` start method, or a daemonic caller (which may have no
children).  There is no option for it.
"""

from __future__ import annotations

import os

# Names of OpenBLAS's thread-count setter: plain, and as numpy's wheels
# build it (64-bit integers, `scipy_` prefix).
_BLAS_THREAD_SETTERS = tuple(
    f"{prefix}openblas_set_num_threads{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
)


def _one_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS on one thread.  The workers
    already fill the CPUs, and a second OpenBLAS thread in each spins on a
    CPU another worker needs (`QUICK_GRID` training ran about 2.5 times
    slower than inline on 2 CPUs).  Finds OpenBLAS among the mapped
    libraries (Linux); does nothing where it cannot."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    import ctypes

    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _worker_count(n_tasks: int) -> int:
    """Worker processes for `n_tasks` independent tasks: one per CPU this
    process may use, at most one per task.  1 means run inline: also when
    there is no `fork` start method or the caller is a daemonic process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, n_tasks)
    if workers < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return workers


def ordered_map(fn, tasks: list[tuple]) -> list:
    """`fn(*task)` for every task, in task order; workers get `fn` pickled by
    name.  A failing task raises its own exception, the first in task order
    as inline, once the running tasks have finished; the others are
    cancelled.  No worker outlives the call, and none is ever killed: one
    killed while it sends a result would leave its queue locked."""
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, *zip(*tasks)))
