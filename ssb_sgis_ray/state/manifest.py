"""Checkpoint manifest: per-partition lineage + metrics, exact resume.

Generalizes two reference features into one mechanism: the per-run log of
``NetworkAnalysis`` (/root/reference/src/sgis/networkanalysis/
networkanalysis.py:1259-1329 — per-call rows with timing and result
stats) and the name-by-region output layout of ``write_municipality_data``
(io/write_municipality_data.py:52-99 — one file per partition key, so a
re-run can skip finished keys).

Layout:
    out_dir/
      part=<key>/data.parquet      (written atomically: tmp + os.replace)
      _manifest.jsonl              (one row per completed partition)
      plan_metrics.jsonl           (one sizing row per sink run, state.skew)

Manifest row: {stage, partition, n_rows, n_bytes, input_hash, wall_s,
path}. Resume contract: a partition is DONE iff its manifest row exists,
the file exists, and the stored input_hash matches the current input hash
for that partition — changed inputs invalidate just that partition.

The sink moves rows to their writers on the sized exchange of
``exchange.co_group``: it counts rows per partition key from the
materialized input, cuts the sorted keys into ranges of balanced row
weight, and runs the writer once per key in one plain Ray reducer task
per range. No Ray Data sort or groupby runs, so the reducers (and the
writers in them) run side by side as the session's CPUs allow.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .. import exchange
from . import skew


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.jsonl")


# one explicit schema for every metrics row the sink emits — schema-stable
# blocks keep the streaming executor's operator fusion happy
_METRICS_SCHEMA = pa.schema(
    [
        ("stage", pa.string()),
        ("partition", pa.string()),
        ("n_rows", pa.int64()),
        ("n_bytes", pa.int64()),
        ("input_hash", pa.string()),
        ("wall_s", pa.float64()),
        ("path", pa.string()),
        ("resumed", pa.bool_()),
    ]
)


def _metrics_row(row: dict) -> pa.Table:
    return pa.table(
        {f.name: [row[f.name]] for f in _METRICS_SCHEMA}, schema=_METRICS_SCHEMA
    )


def load_manifest(out_dir: str) -> dict[str, dict]:
    """partition -> manifest row, for completed (file-exists) partitions."""
    path = manifest_path(out_dir)
    done: dict[str, dict] = {}
    if not os.path.exists(path):
        return done
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if os.path.exists(row["path"]):
                done[str(row["partition"])] = row
    return done


def append_manifest(out_dir: str, rows: list[dict]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(manifest_path(out_dir), "a") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


def partition_input_hash(g, id_col: str) -> str:
    """Content hash of a partition's input row ids (order-insensitive).

    ``g`` is a ``pa.Table`` or a pandas DataFrame; the same ids give the
    same digest from either, so output dirs stay resumable across both."""
    col = g[id_col]
    vals = col.to_pylist() if isinstance(col, pa.ChunkedArray) else col
    ids = sorted(str(v) for v in vals)
    return hashlib.md5("\n".join(ids).encode()).hexdigest()


def make_partition_writer(out_dir: str, partition_col: str, id_col: str,
                          stage: str = "partitioned_write",
                          done: dict[str, dict] | None = None):
    """Per-key kernel of the sink: called with every row of one
    ``partition_col`` value (one ``pa.Table``), writes that partition
    atomically and RETURNS its manifest/metrics row as a one-row table
    (the lineage record the sink collects). The writer also appends the
    row to the manifest file itself.

    When ``done`` (a loaded manifest) is given, a partition whose stored
    input_hash equals the current group's hash is NOT rewritten — the
    stored row is returned instead; a hash mismatch (changed inputs)
    invalidates just that partition and rewrites it. This is the resume
    contract from the module docstring, enforced where the data actually
    is (the group kernel) rather than trusted from keys alone."""

    def write_one(g: pa.Table) -> pa.Table:
        t0 = time.time()
        key = str(g[partition_col][0].as_py())
        cur_hash = partition_input_hash(g, id_col)
        if done is not None and key in done:
            prev = done[key]
            if prev.get("input_hash") == cur_hash and os.path.exists(prev["path"]):
                row = {k: v for k, v in prev.items() if k != "resumed"}
                row["resumed"] = True
                return _metrics_row(row)
        pdir = os.path.join(out_dir, f"part={key}")
        os.makedirs(pdir, exist_ok=True)
        final = os.path.join(pdir, "data.parquet")
        tmp = os.path.join(pdir, f".tmp-{os.getpid()}")
        # deterministic TOTAL row order inside the file (resume => byte-
        # stable): id first, then every other column as tiebreak
        sort_cols = [id_col] + [c for c in g.column_names if c != id_col]
        g = g.take(pc.sort_indices(g, [(c, "ascending") for c in sort_cols]))
        pq.write_table(g, tmp)
        os.replace(tmp, final)  # atomic publish
        row = {
            "stage": stage,
            "partition": key,
            "n_rows": g.num_rows,
            "n_bytes": os.path.getsize(final),
            "input_hash": cur_hash,
            "wall_s": round(time.time() - t0, 4),
            "path": final,
            "resumed": False,
        }
        # the WORKER records its own completion immediately (O_APPEND line
        # writes are atomic for lines < PIPE_BUF), so a driver killed
        # mid-job still leaves finished partitions resumable — true
        # mid-pipeline checkpointing, not end-of-job bookkeeping
        with open(manifest_path(out_dir), "a") as f:
            f.write(json.dumps(row) + "\n")
        return _metrics_row(row)

    return write_one


def write_partitioned_resumable(ds, out_dir: str, partition_col: str,
                                id_col: str, stage: str = "partitioned_write",
                                skip_by_key: bool = False):
    """Partitioned parquet sink with exact resume.

    1. load manifest -> completed partitions; with ``skip_by_key`` drop
       their keys (see below);
    2. materialize ``ds`` (its one Ray Data execution) and count its rows
       per partition key, one task per non-empty block
       (``exchange.key_counts``);
    3. cut the sorted keys into P ranges of about equal rows
       (``exchange.balanced_boundaries``): one per session CPU, more when
       the bytes exceed one Ray block each, at most one per key; one
       sizing row goes to ``<out_dir>/plan_metrics.jsonl``
       (``state.skew.record_plan``);
    4. the sized ``exchange.co_group`` cuts each block into the P ranges
       and P reducer tasks call the writer once per key
       (``exchange.per_key``). The writer compares the partition's
       input_hash against the manifest row — matching partitions return
       the stored row WITHOUT rewriting, changed inputs invalidate just
       that partition (the documented resume contract) — and appends
       its own manifest row (mid-job kill safe).

    ``skip_by_key=True`` drops completed partition keys BEFORE the
    exchange — cheaper (finished partitions never move), but only sound
    when partition inputs are immutable between runs; the hash check in
    the writer still covers everything that remains.

    Returns the list of manifest rows for partitions seen this run.
    """
    done = load_manifest(out_dir)
    if skip_by_key and done:
        done_keys = pa.array(sorted(done), pa.string())

        # a key whose Arrow string form differs from str(value) (floats,
        # bools) is just not dropped here; the writer's hash check resumes it
        def drop_done(batch: pa.Table) -> pa.Table:
            key = pc.cast(batch[partition_col], pa.string())
            return batch.filter(pc.invert(pc.is_in(key, value_set=done_keys)))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    os.makedirs(out_dir, exist_ok=True)
    ds = ds.materialize()
    keys, n = exchange.key_counts(ds, partition_col)
    codes = np.arange(len(keys))
    boundaries = exchange.balanced_boundaries(
        codes, n, exchange.n_partitions(ds.size_bytes(), len(keys)))
    loads = exchange.partition_loads(codes, n, boundaries)
    skew.record_plan(out_dir, {"op": stage, "est_rows": int(n.sum()), "keys": len(keys),
                               "partitions": len(loads),
                               "max_partition_rows_est": int(loads.max())})
    if not len(keys):
        return []
    writer = make_partition_writer(out_dir, partition_col, id_col, stage,
                                   done=done or None)
    kernel = functools.partial(_write_group, writer=writer)
    metrics = exchange.co_group(
        ds, _KEY_CODE, exchange.per_key(_KEY_CODE, kernel), boundaries,
        prepare=functools.partial(_add_key_code, col=partition_col, keys=keys))
    # workers already appended their own manifest rows (mid-job kill safe);
    # the reducers' metrics rows are returned as this run's lineage record
    tables = [t for t in ray.get(metrics.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables).to_pylist()


# the exchange key: a partition key's rank among the sorted keys, so keys
# of any Arrow type (strings, nulls) cut at int boundaries
_KEY_CODE = "__part_code"


def _add_key_code(block: pa.Table, col: str, keys: pa.Array) -> pa.Table:
    code = pc.index_in(block[col], value_set=keys, skip_nulls=False)
    return block.append_column(_KEY_CODE, pc.cast(code, pa.int64()))


def _write_group(group: pa.Table, writer) -> pa.Table:
    return writer(group.drop_columns([_KEY_CODE]))


def verify_manifest(out_dir: str) -> dict:
    """Audit a completed output: for every manifest row check the file
    exists, its parquet row count matches n_rows, and its byte size
    matches n_bytes. Returns {partition: 'ok' | reason}."""
    out: dict[str, str] = {}
    for key, row in load_manifest(out_dir).items():
        path = row["path"]
        if not os.path.exists(path):
            out[key] = "missing"
            continue
        if os.path.getsize(path) != row["n_bytes"]:
            out[key] = "size mismatch"
            continue
        meta = pq.read_metadata(path)
        out[key] = "ok" if meta.num_rows == row["n_rows"] else "row count mismatch"
    return out
