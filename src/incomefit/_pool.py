"""Independent units of work on forked worker processes, results in order.

A task is a module-level function ``task(shared, item)``, or
``task(shared, group)`` for ``map_groups``. ``shared`` holds the large
read-only inputs; the pool initializer hands it to each worker, and a
forked worker inherits it, so only the items and the results are
pickled. There is one worker per CPU in the affinity mask, at most one
per item. The task runs in-process with one worker, where ``fork`` is
unavailable, and in a process running other threads, whose locks a fork
would copy held. A result never depends on the worker count. The
earliest item's error is the one raised, and once it is raised, no
further item starts.
"""

from __future__ import annotations

import os
import threading

# Items a group holds at most. A live fit holds about 1.3 MB at 2e5 incomes;
# groups of 10 fit 10% faster than groups of 5, whole bootstrap runs as fast.
GROUP_MAX = 10

_task = None
_shared = None
_stop = None


def cpu_count() -> int:
    """CPUs this process may run on: the affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _install(task, shared, stop):
    global _task, _shared, _stop
    _task, _shared, _stop = task, shared, stop


def _run(item):
    if _stop.is_set():      # an earlier item's error is being raised: no one reads this
        return None
    return _task(_shared, item)


def map_in_order(task, items: list, shared) -> list:
    """``[task(shared, item) for item in items]``, spread over worker processes."""
    workers = min(cpu_count(), len(items))
    if workers > 1 and threading.active_count() == 1:
        # imported here: ``import incomefit`` does not otherwise load them
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            stop = context.Event()
            with ProcessPoolExecutor(workers, context, initializer=_install,
                                     initargs=(task, shared, stop)) as pool:
                futures = [pool.submit(_run, item) for item in items]
                try:
                    return [future.result() for future in futures]
                except BaseException:
                    # the executor queues items ahead of its workers, past cancelling
                    stop.set()
                    pool.shutdown(cancel_futures=True)
                    raise
    return [task(shared, item) for item in items]


def map_groups(task, items: list, shared) -> list:
    """``map_in_order`` over consecutive groups of ``items``, one result per item.

    ``task(shared, group)`` fits a group together and returns one result
    per item. A group holds the items per CPU, rounded up, at most
    ``GROUP_MAX``; a failed item's group-mates finish before its error.
    """
    size = min(GROUP_MAX, max(1, -(-len(items) // cpu_count())))
    groups = [items[start:start + size] for start in range(0, len(items), size)]
    return [result for group in map_in_order(task, groups, shared) for result in group]
