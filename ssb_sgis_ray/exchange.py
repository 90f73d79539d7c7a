"""The co-group exchange: every row of a key in one Arrow block, one
kernel call per block.

``co_group(ds, key, kernel)`` is the engine's key-co-locating shuffle.
A kernel takes and returns a ``pa.Table``; it sees many complete keys at
once, already sorted, and regroups them with ``runs``. This replaces
``groupby(k).map_groups``, which calls its UDF once per group (~0.3 ms
each), and with it the coarse "super key" (``k % 256``) that was hashed
onto rows to keep the group count low. A kernel that is clearest per key
is wrapped in ``per_key``: a Python loop over the block's key slices,
still one call per block.

One path runs it, on plain Ray tasks with no Ray Data sort or groupby:
one task per input block cuts it into P partitions (``_cut``,
``num_returns=P``), and P reducer tasks each concatenate their slices,
sort them on the key and call the kernel once (``_reduce``). A row's
partition is ``splitmix64(key) % P`` (a hash cut: no sample pass, and
the block is grouped by partition, not sorted on its key) unless the
caller gives key boundaries it already counted (a sized cut: the block
is sorted and cut with ``np.searchsorted``). Co-grouping needs whole
keys in each call, not a global key order, so a hash cut suffices
wherever no caller sizes the partitions.

The sized cut's inputs come from the helpers below: ``key_counts``
(one task per non-empty block counts its rows per key), then
``balanced_boundaries`` over ``n_partitions`` ranges of about equal row
weight. The salted cell join and the partitioned sink size their
exchanges with them.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def co_group(ds, key, kernel, boundaries=None, prepare=None):
    """Co-group exchange: ``kernel`` runs on key-sorted Arrow tables, each
    holding every row of its ``key`` values; no key value reaches two
    calls. ``key`` is an integer column name or a list of them (the key
    is then the tuple of their values); another column type raises
    ``TypeError`` naming the column.

    ``ds`` executes once (it is materialized unless it already is). Each
    non-empty block is mapped by ``prepare`` if given (it may rewrite
    ``key`` or replicate rows) and cut into P slices in one Ray task
    (``_cut``):

    - ``boundaries=None``: a hash cut. P is ``n_partitions`` of the
      input's bytes and rows, and a row goes to partition
      ``splitmix64(key) % P`` (the columns of a list key folded into one
      hash).
    - ``boundaries`` (values of a one-column int key where a new
      partition starts, ascending): a sized cut into
      ``len(boundaries) + 1`` key ranges; the block is sorted on ``key``
      and cut at the boundaries.

    Partition i's reducer (``_reduce``) concatenates its slices, sorts
    them on ``key`` and calls ``kernel`` once; a partition no row
    reached calls it on a typed 0-row slice, so every kernel must accept
    0 rows. When no input block has rows, that 0-row input is built from
    ``ds.schema()``; a Dataset whose schema is unknown (a filter that
    dropped every row) gives a 0-row answer with no columns. Reducers
    run side by side as CPUs allow, with no executor admitting them one
    at a time; their inputs are object refs, which Ray spills past the
    object store's capacity. Returns a materialized Dataset of the
    partitions' answers: one block per partition whose answer has rows
    (in key order for a sized cut), or the first partition's typed 0-row
    answer when none has. No block of a non-empty answer is empty: Ray
    2.49's ``Dataset.join`` sends a side's schema to its partitions with
    the side's first block only, and a 0-row first block sends none.
    """
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    blocks = [ref for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    if not blocks:
        schema = ds.schema()
        if schema is None:
            return ray.data.from_arrow(pa.table({}))
        blocks = [ray.put(schema.base_schema.empty_table())]
    if boundaries is None:
        n = n_partitions(ds.size_bytes(), max(ds.count(), 1))
        cuts = None
    else:
        n = len(boundaries) + 1
        cuts = np.asarray(boundaries, np.int64)
    parts = [_cut.options(num_returns=n).remote(ref, key, n, cuts, prepare)
             for ref in blocks]
    # submitted tasks pin their arguments: let go of the input here and of
    # the slices below, so each is freed once its consumer finishes
    del ds, blocks
    if n == 1:
        parts = [[p] for p in parts]
    outs = [_reduce.remote(key, kernel, *(p[i] for p in parts)) for i in range(n)]
    del parts
    rows = ray.get([r for _, r in outs])
    return ray.data.from_arrow_refs([t for (t, _), k in zip(outs, rows) if k]
                                    or [outs[0][0]])


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


def _names(key) -> list[str]:
    return [key] if isinstance(key, str) else list(key)


def per_key(key, kernel):
    """Block kernel that calls ``kernel`` once per ``key`` value of a
    key-sorted block and concatenates the outputs (they must share a
    schema); on a 0-row block it calls ``kernel`` once on that block."""
    return functools.partial(_run_keys, key=key, kernel=kernel)


def _run_keys(block: pa.Table, key, kernel) -> pa.Table:
    if not block.num_rows:
        return kernel(block)
    starts, ends = runs(*(block[c].to_numpy() for c in _names(key)))
    return pa.concat_tables([kernel(block.slice(a, b - a))
                             for a, b in zip(starts.tolist(), ends.tolist())])


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over the uint64 view of int64 ``x``: every
    input bit reaches every output bit, so structured ids (a composite
    ``orderkey*10 + linenumber``) spread evenly modulo any count."""
    z = np.ascontiguousarray(x, np.int64).view(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_partition(block: pa.Table, key, n: int) -> np.ndarray:
    """Each row's partition, ``splitmix64`` of its key modulo ``n``; the
    columns of a list key fold into one hash. A key column must be an
    integer (a uint64 is reinterpreted as int64); another type raises
    ``TypeError`` naming it."""
    h = np.zeros(block.num_rows, np.int64)
    for name in _names(key):
        col = block[name]
        if not pa.types.is_integer(col.type):
            raise TypeError(f"co_group key column {name!r} is {col.type}, not an integer")
        h = splitmix64(h ^ col.to_numpy().astype(np.int64, copy=False)).view(np.int64)
    return (h.view(np.uint64) % np.uint64(n)).astype(np.int64)


def _sort(block: pa.Table, key) -> tuple[pa.Table, np.ndarray]:
    """``block`` sorted on ``key`` (stable), and its sorted key column (of
    a one-column key; the sorted first column of a list key)."""
    if isinstance(key, str):
        k = block[key].to_numpy()
        order = np.argsort(k, kind="stable")
        return block.take(order), k[order]
    cols = [block[c].to_numpy() for c in key]
    order = np.lexsort(cols[::-1])
    return block.take(order), cols[0][order]


@ray.remote
def _cut(block: pa.Table, key, n: int, boundaries: np.ndarray | None, prepare):
    """``prepare(block)`` cut into ``n`` slices, one per partition: by
    ``_hash_partition`` without ``boundaries``; else sorted on ``key``,
    slice i holding the keys in [boundaries[i-1], boundaries[i])."""
    if prepare is not None:
        block = prepare(block)
    if boundaries is None:
        part = _hash_partition(block, key, n)
        block = block.take(np.argsort(part, kind="stable"))
        edges = np.r_[0, np.cumsum(np.bincount(part, minlength=n))].tolist()
    else:
        block, k = _sort(block, key)
        edges = np.r_[0, np.searchsorted(k, boundaries), len(k)].tolist()
    slices = [block.slice(a, b - a) for a, b in zip(edges[:-1], edges[1:])]
    return slices if len(slices) > 1 else slices[0]


@ray.remote(num_returns=2)
def _reduce(key, kernel, *slices: pa.Table) -> tuple[pa.Table, int]:
    """``kernel`` over one partition's slices, concatenated and sorted, and
    its answer's row count; a partition no row reached calls it on one
    typed 0-row slice."""
    rows = [s for s in slices if s.num_rows] or list(slices[:1])
    out = kernel(_sort(pa.concat_tables(rows), key)[0])
    return out, out.num_rows


@ray.remote
def _count_block(block: pa.Table, key: str, side: int | None):
    col = block[key]
    if side is not None:
        col = col.filter(pc.equal(block["side"], side))
    counts = pc.value_counts(col)
    return counts.field("values"), counts.field("counts").to_numpy()


def key_counts(ds, key: str, side: int | None = None) -> tuple[pa.Array, np.ndarray]:
    """Distinct values of ``key`` in ``ds`` and their row counts; with
    ``side`` (0 left, 1 right), only of the rows whose ``side`` column
    holds it.

    One plain Ray task per non-empty block of ``ds`` counts its keys (a
    0-row block, which may carry no columns, is skipped by its
    metadata); the calling process merges the small per-block counts in
    block order. On a materialized Dataset no Ray Data execution runs; a
    lazy one executes once, projected to the columns counted. No
    exchange runs either way, and the calling process holds O(distinct
    keys) at a time. Returns (keys, counts): the keys ascending with a
    null key last, the counts int64.
    """
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.select_columns([key] if side is None else [key, "side"])
    parts = [_count_block.remote(ref, key, side)
             for bundle in ds.iter_internal_ref_bundles()
             for ref, meta in bundle.blocks if meta.num_rows != 0]
    keys, n = pa.array([], pa.int64()), np.empty(0, np.int64)
    for part in parts:
        k, c = ray.get(part)
        merged = pa.table({"k": pa.concat_arrays([keys.cast(k.type), k]),
                           "n": np.concatenate([n, c])}).group_by("k").aggregate([("n", "sum")])
        keys, n = merged["k"].combine_chunks(), merged["n_sum"].to_numpy()
    order = pc.sort_indices(keys, null_placement="at_end")
    return keys.take(order), n[order.to_numpy()]


def balanced_boundaries(keys, weights, n_parts: int) -> list[int]:
    """Cut sorted int ``keys`` into at most ``n_parts`` contiguous ranges
    of about equal total ``weight``; returns the key starting each range
    after the first (empty for one range): the ``boundaries`` of a sized
    ``co_group``.

    Each cut sits at the key edge nearest its cumulative-weight quantile,
    so no range exceeds mean + the largest single key weight. With at
    least as many parts as keys every key is its own range.
    """
    keys = np.asarray(keys, np.int64)
    if n_parts <= 1 or len(keys) <= 1:
        return []
    if n_parts >= len(keys):
        return keys[1:].tolist()
    cum = np.concatenate(([0.0], np.cumsum(np.asarray(weights, np.float64))))
    target = cum[-1] * np.arange(1, n_parts) / n_parts
    hi = np.searchsorted(cum, target)
    lo = np.maximum(hi - 1, 0)
    edge = np.where(cum[hi] - target <= target - cum[lo], hi, lo)
    edge = np.unique(edge[(edge > 0) & (edge < len(keys))])
    return keys[edge].tolist()


def partition_loads(keys, weights, boundaries) -> np.ndarray:
    """Total weight per range of ``balanced_boundaries``' cut."""
    part = np.searchsorted(np.asarray(boundaries, np.int64), keys, side="right")
    return np.bincount(part, weights=weights, minlength=len(boundaries) + 1)


def n_partitions(est_bytes: int, n_keys: int) -> int:
    """Partition count of a sized exchange: one per session CPU, more when
    the estimated bytes exceed one Ray block each, at most one per key."""
    from ray.data import DataContext

    cpus = int(ray.cluster_resources().get("CPU", 1))
    block = DataContext.get_current().target_max_block_size or 128 << 20
    return max(1, min(n_keys, max(cpus, -(-est_bytes // block))))
