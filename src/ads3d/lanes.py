"""Independent blocks of work on up to two threads.

A caller cuts its work into ``(lo, hi)`` blocks with ``plan``, which looks
at sizes and constants only, and hands ``run`` a function of one block.
Each block is computed on its own, so the results are the same bits
whatever the number of threads; ``run`` only decides how many blocks are in
flight at once. numpy, ``scipy.fft`` and ``scipy.signal`` release the GIL
while they work.

Work that fits in one block runs on the calling thread and never makes the
pool. So does a ``run`` called from inside a lane: the pool has only
``LANES`` threads, and a lane that waited on it for more lanes could wait
forever.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Blocks that run at once. It is fixed, so block boundaries, and with them
# every output bit, depend on the shapes alone, never on the number of CPUs
# or threads.
LANES = 2

serial = False       # set in fold worker processes, which run one per CPU
_pool = None         # (pid, ThreadPoolExecutor) of the process that made it
_in_lane = threading.local()


def _executor() -> ThreadPoolExecutor:
    """The thread pool of this process, made again after a fork, whose
    child inherits the parent's pool object but none of its threads."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=LANES,
                                                 thread_name_prefix="ads3d-lane"))
    return _pool[1]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count(blocks) -> int:
    """Blocks that run at once: at most LANES and the usable CPUs; 1 in a
    fold worker and inside a lane."""
    if serial or getattr(_in_lane, "active", False):
        return 1
    return min(LANES, len(blocks), _cpus())


def plan(items: int, item_size: int, budget: int) -> list:
    """(lo, hi) blocks over `items` of `item_size` each, `budget` in flight.

    All items in one block when they fit in the budget; else blocks of
    budget // LANES (at least one item), one per lane at a time. No items,
    no blocks."""
    step = max(1, items if items * item_size <= budget else budget // (LANES * item_size))
    return [(lo, min(items, lo + step)) for lo in range(0, items, step)]


def run(fn, blocks) -> list:
    """[fn(lo, hi) for each block] in block order, on count(blocks) threads.

    Lane j runs blocks j, j + lanes, ... one after another, so no more
    block workspaces than lanes exist at once."""
    width = count(blocks)
    if width <= 1:
        return [fn(lo, hi) for lo, hi in blocks]

    def lane(j):
        _in_lane.active = True
        try:
            return [fn(*blocks[i]) for i in range(j, len(blocks), width)]
        finally:
            _in_lane.active = False

    results = [None] * len(blocks)
    for j, done in enumerate(_executor().map(lane, range(width))):
        results[j::width] = done
    return results
