"""Independent classifier work spread over the CPUs the process may use.

``spread`` runs the (C, gamma, fold) fits of ``grid_search_cv``, the
class pairs of ``svm_train``, the machines of ``svm_predict`` and the
class trees of each ``gbdt_train`` round over the CPUs the process may
run on (``os.sched_getaffinity``; ``taskset`` limits them). The items
are dealt in turn into one bin per CPU, with no cost model: timed pair
by pair, the SVM's slowest bin trained faster dealt than packed by row
count, and predicted as fast as when packed by support-vector count. The
calling process runs bin 0 and a pool of CPUs - 1 ``fork`` workers runs
the others; the pool is made on first use, with
``multiprocessing`` and ``concurrent.futures`` imported only then, and
kept by the process that made it, so both classifiers share it. The
pool keeps the size it was made with: should the CPU count change
later, the bins follow the new count and the pool runs them with the
workers it has. Every item runs the same code on the same inputs
wherever it runs, so the results are bit-identical to a serial run, and
with one CPU the same function runs in-process with no pool. A process
forked from a pool's owner, and a daemonic multiprocessing worker (which
may not start children), run serially. So does a ``spread`` called
while this process runs its own bin 0 (a grid fit's pairs, say): the
pool's workers are busy with the outer call's other bins, and bins
handed to them would only queue behind those. A worker that dies raises
``WorkerError``.
"""

import atexit
import os
import sys

from ..errors import WorkerError

__all__ = ["spread"]

# (owner pid, executor) of the process pool; None until first use.
_current = None

# True while this process runs bin 0 of a spread.
_in_own_bin = False


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _executor(workers: int):
    """This process's pool, made with ``workers`` processes on first use,
    or None to run serially.

    A process forked from a pool's owner (one of the pool's own workers,
    say) runs serially, as the owner's pool already fills the CPUs; so
    does this process while it runs its own bin of a spread, whose other
    bins fill the pool; so does a daemonic multiprocessing worker, which
    may not start children.
    """
    global _current
    if _in_own_bin or (_current is not None and _current[0] != os.getpid()):
        return None
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return None
    if _current is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        _current = (os.getpid(), ProcessPoolExecutor(workers, mp_context=context))
    return _current[1]


@atexit.register
def _drop_pool() -> None:
    """Shut down the pool this process made; the next ``_executor`` makes a
    new one. Run at exit too, so the pool goes while its modules are whole."""
    global _current
    if _current is not None and _current[0] == os.getpid():
        _current[1].shutdown(cancel_futures=True)
        _current = None


def spread(fn, items: list, *args) -> list:
    """``fn(bin, *args)`` over ``items`` dealt into one bin per CPU.

    ``fn`` returns one result per item of its bin; ``spread`` returns
    them in item order. With ``n`` bins, bin ``b`` is ``items[b::n]``.
    This process runs bin 0 while the pool runs the others; with one CPU
    or one item, or when called from inside this process's bin 0, ``fn``
    runs here once over all items.
    """
    global _in_own_bin
    cpus = _cpu_count()
    n_bins = min(cpus, len(items))
    executor = _executor(cpus - 1) if n_bins > 1 else None
    if executor is None:
        return fn(items, *args)
    from concurrent.futures.process import BrokenProcessPool

    try:
        futures = [executor.submit(fn, items[b::n_bins], *args) for b in range(1, n_bins)]
        _in_own_bin = True
        outputs = [fn(items[::n_bins], *args)]
        outputs += [future.result() for future in futures]
    except BrokenProcessPool as exc:
        _drop_pool()
        raise WorkerError("a worker process died before returning its result") from exc
    finally:
        _in_own_bin = False
    results = [None] * len(items)
    for b, output in enumerate(outputs):
        results[b::n_bins] = output
    return results
