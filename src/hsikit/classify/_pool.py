"""Independent classifier work spread over the CPUs the process may use.

``spread`` runs the (C, gamma, fold) fits of ``grid_search_cv``, the
class pairs of ``svm_train``, the machines of ``svm_predict`` and the
class trees of each ``gbdt_train`` round over the CPUs the process may
run on (``os.sched_getaffinity``; ``taskset`` limits them). The items
are dealt in turn into one bin per CPU, with no cost model: timed pair
by pair, the SVM's slowest bin trained faster dealt than packed by row
count, and predicted as fast as when packed by support-vector count.
A pool of one ``fork`` worker per CPU runs every bin, while the calling
process only hands the bins out and collects their results. The pool is
made on first use, with ``multiprocessing`` and ``concurrent.futures``
imported only then, and kept by the process that made it, so both
classifiers share it. The pool keeps the size it was made with: should
the CPU count change later, the bins follow the new count and the pool
runs them with the workers it has. Every item runs the same code on the
same inputs wherever it runs, so the results are bit-identical to a
serial run, and with one CPU or one item the same function runs
in-process with no pool. A process forked from a pool's owner (a
worker running a grid fit's pairs, say) and a daemonic multiprocessing
worker (which may not start children) run serially. A worker that dies
raises ``WorkerError``. A worker ends itself when its owner ends,
however the owner ends (SIGKILL included). Each worker watches, from a
thread, the sentinel pipe that ``multiprocessing`` opens for every child
it forks (``multiprocessing.parent_process().sentinel``): the owner
holds the write end of each worker's sentinel, and a worker forked
later inherits those of the workers forked before it. So once the owner
is gone, the last worker reads EOF first, and its end closes the write
ends that the one before it waits on, down to the first. When the
owner exits normally or is interrupted, ``concurrent.futures``' own
exit hook joins the workers as the interpreter begins to shut down.
"""

import os
import sys

from ..errors import WorkerError

__all__ = ["spread"]

# (owner pid, executor) of the process pool; None until first use.
_current = None


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _exit_at_eof() -> None:
    import multiprocessing

    # Nothing is written to the sentinel: this read returns at EOF.
    os.read(multiprocessing.parent_process().sentinel, 1)
    os._exit(1)


def _watch_owner() -> None:
    """A worker's initializer: end the worker from a daemon thread at EOF
    on its sentinel, the read end of a pipe whose write ends only the
    owner and the workers forked after this one hold. So the last worker
    reads EOF once the owner is gone, and each worker's end lets the one
    forked before it read EOF. Only workers start the thread, so the
    owner forks from no thread of its own."""
    import threading

    threading.Thread(target=_exit_at_eof, daemon=True).start()


def _executor():
    """This process's pool, made with one worker per CPU on first use, or
    None to run serially.

    A process forked from a pool's owner (one of the pool's own workers,
    say) runs serially, as the owner's pool already fills the CPUs; so
    does a daemonic multiprocessing worker, which may not start children.
    """
    global _current
    if _current is not None and _current[0] != os.getpid():
        return None
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return None
    if _current is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(_cpu_count(), mp_context=context, initializer=_watch_owner)
        _current = (os.getpid(), executor)
    return _current[1]


def _drop_pool() -> None:
    """Shut down the pool this process made; the next ``_executor`` makes a
    new one."""
    global _current
    if _current is not None and _current[0] == os.getpid():
        _current[1].shutdown(cancel_futures=True)
        _current = None


def spread(fn, items: list, *args) -> list:
    """``fn(bin, *args)`` over ``items`` dealt into one bin per CPU.

    ``fn`` returns one result per item of its bin; ``spread`` returns
    them in item order. With ``n`` bins, bin ``b`` is ``items[b::n]``,
    and the pool's workers run them all; with one CPU or one item, or
    where ``_executor`` gives no pool, ``fn`` runs here once over all
    items.
    """
    n_bins = min(_cpu_count(), len(items))
    executor = _executor() if n_bins > 1 else None
    if executor is None:
        return fn(items, *args)
    from concurrent.futures.process import BrokenProcessPool

    try:
        futures = [executor.submit(fn, items[b::n_bins], *args) for b in range(n_bins)]
        outputs = [future.result() for future in futures]
    except BrokenProcessPool as exc:
        _drop_pool()
        raise WorkerError("a worker process died before returning its result") from exc
    results = [None] * len(items)
    for b, output in enumerate(outputs):
        results[b::n_bins] = output
    return results
