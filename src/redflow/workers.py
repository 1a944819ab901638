"""The pool of forked worker processes that ``cli`` and ``synth`` share.

A pool runs a list of tasks (callables without arguments) in forked
workers where more than one CPU is usable, and in-process otherwise; the
caller reads the results in task order either way (:func:`_pool`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial


def _worker_count(n_groups: int) -> int:
    """Worker processes for ``n_groups`` groups: one per usable CPU, at
    most one per group. 1 (run in-process) where ``fork`` or CPU affinity
    is unavailable, where the caller runs other threads (forking a threaded
    process can deadlock), or inside a daemonic process, which may not
    start children."""
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), n_groups)


#: The tasks of the pool a worker process was forked for; set only in the
#: worker, by the pool's initializer.
_worker_tasks = None


def _start_worker(tasks) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_job(index: int):
    return _worker_tasks[index]()


@contextmanager
def _pool(tasks):
    """Yields, for each task (a callable without arguments), a callable that
    returns its result or raises its error. With more than one usable CPU
    the tasks are dispatched in order to forked workers, which inherit them
    (nothing but results is pickled), and a call waits for its result;
    otherwise a call runs its task in-process. Either way the caller meets
    the errors in the order it reads the results. No worker outlives the
    block: the pool is shut down, its queued tasks cancelled."""
    workers = _worker_count(len(tasks))
    if workers <= 1:
        yield tasks
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(tasks,),
    ) as pool:
        futures = [pool.submit(_run_job, i) for i in range(len(tasks))]
        try:
            yield [future.result for future in futures]
        finally:
            for future in futures:
                future.cancel()


def _map_groups(fn, args, groups) -> list:
    """``[fn(*args, group) for group in groups]`` through :func:`_pool`, read
    in group order: the error raised is the one a serial run meets first."""
    with _pool([partial(fn, *args, group) for group in groups]) as results:
        return [result() for result in results]
