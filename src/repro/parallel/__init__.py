"""Process fan-out for ``Session.solve_many``.

One piece survives here: :mod:`repro.parallel.pool`, a persistent
``multiprocessing`` worker pool.  A session built with ``workers=N > 1``
starts it lazily and dispatches the distinct **hard-leaf** query groups of
a ``solve_many`` batch to it, one ``solve_group`` task per group.  Each
worker holds the bound database (shipped once per version token) with its
interning tables seeded in the parent's interned row order, so worker
solutions are byte-identical to the serial path.  Evaluation itself always
runs the serial columnar join; any pool problem falls back silently to the
serial ``solve_many`` path.

The entry point for users is ``Session(db, workers=N)``; nothing in this
package needs to be called directly.
"""

from repro.parallel.pool import (
    PoolBrokenError,
    WorkerPool,
    WorkerStoreMiss,
    WorkerTaskError,
)

__all__ = [
    "PoolBrokenError",
    "WorkerPool",
    "WorkerStoreMiss",
    "WorkerTaskError",
]
