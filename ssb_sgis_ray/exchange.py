"""The co-group exchange: every row of a key in one Arrow block, one
kernel call per block.

``co_group(ds, key, kernel)`` is the engine's key-co-locating shuffle.
One Ray ``sort`` on ``key`` puts every row of a key value into one
sorted block, and one ``map_batches`` over whole blocks calls
``kernel(block)`` once per non-empty block. A kernel takes and returns a
``pa.Table``; it sees many complete keys at once, already sorted, and
regroups them with ``runs``. This replaces ``groupby(k).map_groups``,
which calls its UDF once per group (~0.3 ms each), and with it the coarse
"super key" (``k % 256``) that was hashed onto rows to keep the group
count low. A kernel that is clearest per key is wrapped in ``per_key``:
a Python loop over the block's key slices, still one task per block.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray

_INT64_MAX = int(np.iinfo(np.int64).max)


def co_group(ds, key, kernel, boundaries=None):
    """Co-group exchange: ``kernel`` runs on key-sorted Arrow tables, each
    holding every row of its ``key`` values; no key value reaches two
    calls. ``key`` is a column name or a list of names (the key is then
    the tuple of their values).

    One Ray ``sort`` co-locates the keys. Given ``boundaries`` (values of
    a one-column int key where a new partition starts) it runs
    ``len(boundaries) + 1`` reducers and no sampling pass; ``None``
    samples boundaries and runs one reducer per input block. A sort
    reducer emits one sorted block, so a key never straddles blocks, and
    one ``map_batches`` over whole blocks calls ``kernel`` on each
    non-empty block (``_whole``); with ``boundaries``, on its two halves
    (``_halves``).

    Why halves: Ray Data starts the map stage behind the sort one task at
    a time until a task reports its output size (until then it sizes each
    task's output at the target block size against the operator's memory
    budget). A sized exchange has about one reducer block per CPU, so its
    kernel tasks ran back to back on one worker; each now spans two CPUs.
    """
    if boundaries is None:
        ds = ds.sort(key)
        fn = _whole
    else:
        # Ray samples when it gets no boundaries: one partition is the
        # range below int64 max (a second reducer gets only that value)
        ds = ds.sort(key, boundaries=[int(b) for b in boundaries] or [_INT64_MAX])
        fn = _halves
    return ds.map_batches(fn, fn_args=(key, kernel), batch_format="pyarrow",
                          batch_size=None)


def runs(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of equal rows in aligned, sorted
    columns: a run ends where any column changes value."""
    n = len(cols[0])
    if not n:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    return starts, np.append(starts[1:], n)


def _key_runs(block: pa.Table, key) -> tuple[np.ndarray, np.ndarray]:
    names = [key] if isinstance(key, str) else key
    return runs(*(block[c].to_numpy() for c in names))


def per_key(key, kernel):
    """Block kernel that calls ``kernel`` once per ``key`` value of a
    key-sorted block and concatenates the outputs (they must share a
    schema)."""
    return functools.partial(_run_keys, key=key, kernel=kernel)


def _run_keys(block: pa.Table, key, kernel) -> pa.Table:
    starts, ends = _key_runs(block, key)
    return pa.concat_tables([kernel(block.slice(a, b - a))
                             for a, b in zip(starts.tolist(), ends.tolist())])


def _whole(block: pa.Table, key, kernel):
    """Yield ``kernel(block)``; an empty block yields nothing."""
    if block.num_rows:
        yield kernel(block)


@ray.remote
def _kernel_task(block: pa.Table, kernel) -> pa.Table:
    return kernel(block)


def _halves(block: pa.Table, key, kernel):
    """``_whole`` on two CPUs: the rows before the key edge nearest the
    block's middle row go to ``kernel`` in a nested Ray task while this
    task runs it on the rest; one table out, in key order. A block of
    one key runs here whole."""
    if not block.num_rows:
        return
    cuts = _key_runs(block, key)[0][1:]
    if not len(cuts):
        yield kernel(block)
        return
    j = int(cuts[np.argmin(np.abs(cuts - block.num_rows // 2))])
    head = _kernel_task.remote(block.slice(0, j), kernel)
    tail = kernel(block.slice(j))
    yield pa.concat_tables([ray.get(head), tail])
