"""Block scheduling: consecutive indices, one stacked solve per block.

Every indexed unit of work (a realization of a run, a dataset row) depends
on its index alone. Consecutive indices are grouped into blocks, so that
the swarms of a whole block step in one stacked solve, and the blocks run
serially or one per task on a process pool. Either way each block's
result arrives in index order, so no output depends on the worker count.
"""

from __future__ import annotations

import math

# swarms per stacked solve: on desk arrays (2-core x86-64, one BLAS thread)
# dataset rows (one swarm each) label 4-5x faster in blocks of 16 to 64 than
# one at a time, and 128 is slower again
_SWARMS_PER_BLOCK = 32


def map_blocks(fn, indices: range, swarms: int, workers: int):
    """Yield ``fn(block)`` for consecutive blocks of ``indices``, in order.

    ``swarms`` is the number of swarms one index adds to a stacked solve
    (0 when it has none). A block holds ``_SWARMS_PER_BLOCK // swarms``
    indices, at least one (exactly one without swarms), and at most
    ``ceil(len(indices) / workers)``, so every worker gets a block. The
    blocks run on ``min(workers, blocks)`` processes, serially when that
    is one; a pool hands out one block per task, and each result is
    yielded as soon as it and those before it are done.
    """
    size = max(1, _SWARMS_PER_BLOCK // swarms) if swarms else 1
    size = max(1, min(size, math.ceil(len(indices) / workers)))
    blocks = [indices[i:i + size] for i in range(0, len(indices), size)]
    processes = min(workers, len(blocks))
    if processes <= 1:
        yield from map(fn, blocks)
        return
    import multiprocessing      # here: a serial run never pays its import
    with multiprocessing.Pool(processes) as pool:
        yield from pool.imap(fn, blocks, chunksize=1)
