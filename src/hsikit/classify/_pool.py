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
however the owner ends (SIGKILL included): the owner alone holds the
write end of a pipe whose read end each worker watches from a thread,
which reads EOF once the owner is gone.
"""

import atexit
import os
import sys

from ..errors import WorkerError

__all__ = ["spread"]

# (owner pid, executor, read end, write end of the owner's pipe) of the
# process pool; None until first use.
_current = None


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _exit_at_eof(read_end: int) -> None:
    os.read(read_end, 1)  # nothing is written: this returns at EOF
    os._exit(1)


def _watch_owner(read_end: int, write_end: int) -> None:
    """A worker's initializer: drop the inherited write end, then end the
    worker from a daemon thread at EOF on the read end, once the owner's
    write end closes. Only workers start the thread, so the owner forks
    from no thread of its own."""
    import threading

    os.close(write_end)
    threading.Thread(target=_exit_at_eof, args=(read_end,), daemon=True).start()


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
        pipe = os.pipe()
        executor = ProcessPoolExecutor(
            _cpu_count(), mp_context=context, initializer=_watch_owner, initargs=pipe
        )
        _current = (os.getpid(), executor, *pipe)
    return _current[1]


@atexit.register
def _drop_pool() -> None:
    """Shut down the pool this process made; the next ``_executor`` makes a
    new one. Run at exit too, so the pool goes while its modules are whole."""
    global _current
    if _current is not None and _current[0] == os.getpid():
        _current[1].shutdown(cancel_futures=True)
        for end in _current[2:]:
            os.close(end)
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
