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

Two branches share that contract. With sampled boundaries one Ray Data
``sort`` on ``key`` puts every row of a key into one sorted block and
one ``map_batches`` over whole blocks calls the kernel. With boundaries
known up front (a histogram the caller already counted) no sort operator
runs: one plain Ray task per input block cuts it into the P key ranges
(``np.searchsorted``, ``num_returns=P``), and P reducer tasks each
concatenate their slices, sort them and call the kernel once.

The sized branch's inputs come from the helpers below: ``key_counts``
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
    calls. ``key`` is a column name or a list of names (the key is then
    the tuple of their values).

    ``boundaries=None``: one Ray ``sort`` samples its boundaries and runs
    one reducer per input block; a sort reducer emits one sorted block,
    so a key never straddles blocks, and one ``map_batches`` calls
    ``kernel`` on each non-empty block (``_whole``). Returns a lazy
    Dataset.

    ``boundaries`` (values of a one-column int key where a new partition
    starts, ascending): a sized exchange of ``len(boundaries) + 1``
    partitions on plain Ray tasks, no sample and no sort operator. Each
    block of ``ds`` (executed once if lazy) is mapped by ``prepare`` if
    given (it may rewrite ``key`` or replicate rows), sorted on ``key``
    and cut at the boundaries in one task (``_cut``); partition i's
    reducer (``_reduce``) concatenates its slices, sorts them and calls
    ``kernel`` once, or returns an empty table without calling it when
    no row reached it. Reducers run side by side as CPUs allow, with
    no executor admitting them one at a time; their inputs are object
    refs, which Ray spills past the object store's capacity. Returns a
    materialized Dataset, one block per partition in key order.
    """
    if boundaries is None:
        return ds.sort(key).map_batches(_whole, fn_args=(key, kernel),
                                        batch_format="pyarrow", batch_size=None)
    n = len(boundaries) + 1
    cuts = np.asarray(boundaries, np.int64)
    parts = [_cut.options(num_returns=n).remote(ref, key, cuts, prepare)
             for bundle in ds.iter_internal_ref_bundles()
             for ref, meta in bundle.blocks if meta.num_rows != 0]
    if n == 1:
        parts = [[p] for p in parts]
    return ray.data.from_arrow_refs(
        [_reduce.remote(key, kernel, *(p[i] for p in parts)) for i in range(n)])


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


def _sort(block: pa.Table, key: str) -> tuple[pa.Table, np.ndarray]:
    k = block[key].to_numpy()
    order = np.argsort(k, kind="stable")
    return block.take(order), k[order]


@ray.remote
def _cut(block: pa.Table, key: str, boundaries: np.ndarray, prepare):
    """``prepare(block)`` sorted on ``key`` and cut into one slice per
    partition: slice i holds the keys in [boundaries[i-1], boundaries[i])."""
    if prepare is not None:
        block = prepare(block)
    block, k = _sort(block, key)
    edges = np.r_[0, np.searchsorted(k, boundaries), len(k)].tolist()
    slices = [block.slice(a, b - a) for a, b in zip(edges[:-1], edges[1:])]
    return slices if len(slices) > 1 else slices[0]


@ray.remote
def _reduce(key: str, kernel, *slices: pa.Table) -> pa.Table:
    """``kernel`` over one partition's slices, concatenated and sorted; a
    partition no row reached returns an empty table and calls nothing."""
    slices = [s for s in slices if s.num_rows]
    if not slices:
        return pa.table({})
    return kernel(_sort(pa.concat_tables(slices), key)[0])


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
