"""General relational operators (aggregation with partial pre-aggregation).

The engine's wide aggregates follow the pre-aggregate pattern: a
``map_batches`` stage combines rows to one partial row per key per batch
(C-speed pandas groupby inside the batch), then a small
``groupby().aggregate(Sum(...))`` merges partials — so the all-to-all
shuffle moves one row per (key, batch) instead of every input row.

Money/metric math is done in scaled int64 (cents) on BOTH the engine and
the DuckDB oracle side, so float summation order can never flip a value:
``cents = round(price * 100)`` is exact because prices carry 2 decimals.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def lineitem_enrich(batch: pa.Table) -> pa.Table:
    """Add exact scaled-int measure columns to lineitem."""
    price_c = np.round(batch["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    disc100 = np.round(batch["l_discount"].to_numpy() * 100).astype(np.int64)
    tax100 = np.round(batch["l_tax"].to_numpy() * 100).astype(np.int64)
    qty = np.round(batch["l_quantity"].to_numpy()).astype(np.int64)
    t = batch.append_column("qty_i", pa.array(qty, pa.int64()))
    t = t.append_column("price_c", pa.array(price_c, pa.int64()))
    # revenue in 1e-4 units: cents * (100 - disc100)
    t = t.append_column("revenue_c4", pa.array(price_c * (100 - disc100), pa.int64()))
    t = t.append_column(
        "charge_c6",
        pa.array(price_c * (100 - disc100) * (100 + tax100), pa.int64()),
    )
    return t


def partial_sum_stage(keys: list[str], sums: list[str]):
    """Build a map_batches fn computing per-batch partial sums + count."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, as_index=False, sort=False)[sums].sum()
        cnt = batch.groupby(keys, as_index=False, sort=False).size()
        out = g.merge(cnt, on=keys)
        out = out.rename(columns={"size": "n_rows"})
        return out

    return fn


def grouped_sums(ds, keys: list[str], sums: list[str], driver_merge_limit: int = 2_000_000):
    """Pre-aggregated grouped sum: partial per batch, then merge.

    The partial stage bounds the merge input to (#keys × #batches) rows, so
    the final combine is a driver-side pandas groupby when that stays under
    ``driver_merge_limit`` (this sandbox's Ray multi-key groupby carries a
    ~12 s fixed shuffle overhead even on a handful of rows); the
    distributed groupby path remains for genuinely high-cardinality keys.
    """
    import pyarrow as _pa

    partials = ds.map_batches(
        partial_sum_stage(keys, sums), batch_format="pandas", batch_size=65536
    )
    pm = partials.materialize()
    if pm.count() <= driver_merge_limit:
        df = pm.to_pandas()
        out = df.groupby(keys, as_index=False)[sums + ["n_rows"]].sum()
        return _pa.Table.from_pandas(out, preserve_index=False)
    from ray.data.aggregate import Sum

    aggs = [Sum(c, alias_name=c) for c in sums] + [Sum("n_rows", alias_name="n_rows")]
    return pm.groupby(keys[0] if len(keys) == 1 else keys).aggregate(*aggs)


def events_enrich(batch: pa.Table) -> pa.Table:
    """Add exact hour bucket (epoch hours) + scaled value to events."""
    ts = batch["ts"].cast(pa.int64()).to_numpy()  # microseconds since epoch
    hour = ts // 3_600_000_000
    value_c = np.round(batch["value"].to_numpy() * 100).astype(np.int64)
    t = batch.append_column("hour_epoch", pa.array(hour, pa.int64()))
    return t.append_column("value_c", pa.array(value_c, pa.int64()))


SESSION_GAP_US = 1_800_000_000  # 30 min


def sessionize_user(g: pd.DataFrame) -> pd.DataFrame:
    """Session windows per user: a gap > 30 min starts a new session.

    The engine's stream-shaped pattern (no event-time runtime in Ray Data):
    events are an ordered, partitioned log — partition by user, sort by ts
    within the group, sessionize with vectorized pandas. Emits one row per
    session: (user_id, session_no, n_events, start_us, end_us).
    """
    ts = np.sort(g["ts_us"].to_numpy())
    new_session = np.ones(len(ts), dtype=np.int64)
    new_session[1:] = (np.diff(ts) > SESSION_GAP_US).astype(np.int64)
    sid = np.cumsum(new_session)
    out = pd.DataFrame({"ts_us": ts, "session_no": sid})
    agg = out.groupby("session_no", as_index=False).agg(
        n_events=("ts_us", "size"), start_us=("ts_us", "min"), end_us=("ts_us", "max")
    )
    agg.insert(0, "user_id", g["user_id"].iloc[0])
    return agg


def sessionize(events_ds):
    """events -> session windows: groupby(user).map_groups(sessionize)."""

    def add_ts_us(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64())
        return pa.table({"user_id": batch["user_id"], "ts_us": ts})

    prepared = events_ds.map_batches(add_ts_us, batch_format="pyarrow")
    return prepared.groupby("user_id").map_groups(
        sessionize_user, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# distributed as-of join
# ---------------------------------------------------------------------------

_FINE_BITS = 21  # bucket fits 21 bits (2M day-buckets ~ 5,700 years of days)


def _last_per_fine(f: np.ndarray, t: np.ndarray, i: np.ndarray):
    """Keep the (max ts, then max id) row per fine key. Inputs unsorted."""
    if len(f) == 0:  # an upstream filter can empty a whole batch
        return f, t, i
    order = np.lexsort((i, t, f))
    f, t, i = f[order], t[order], i[order]
    last = np.r_[f[1:] != f[:-1], True]
    return f[last], t[last], i[last]


class _AsofGroupKernel:
    """Vectorized per-super-group as-of kernel.

    Rows of both sides, co-partitioned on hash(fine) so every
    (key, bucket) fine group is complete in one call. Sort by
    (fine, ts, side, id) — right rows sort before left rows at equal ts,
    so ties match (ASOF's `l.ts >= r.ts`) and duplicate right timestamps
    resolve to max id deterministically. A segment-reset
    ``maximum.accumulate`` forward-fills the last right row; left rows
    with no in-bucket predecessor fall back to the broadcast carry table
    (per-(key,bucket) last right row; the latest earlier bucket holds the
    overall latest earlier row, so one searchsorted finds it).
    """

    def __init__(self, carry_ref):
        import ray

        self.agg_fine, self.agg_ts, self.agg_id = ray.get(carry_ref)

    def __call__(self, g: pa.Table) -> pa.Table:
        f = g["fine"].to_numpy(zero_copy_only=False)
        t = g["ts_us"].to_numpy(zero_copy_only=False)
        i = g["id"].to_numpy(zero_copy_only=False)
        s = g["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, s, t, f))
        f, t, i, s = f[order], t[order], i[order], s[order]
        n = len(f)

        starts = np.flatnonzero(np.r_[True, f[1:] != f[:-1]])
        seg_id = np.cumsum(np.r_[True, f[1:] != f[:-1]]) - 1
        seg_start = starts[seg_id]
        marker = np.where(s == 0, np.arange(n), -1)
        last = np.maximum.accumulate(marker)
        left = s == 1
        in_seg = left & (last >= seg_start)

        m_ts = np.zeros(n, dtype=np.int64)
        m_id = np.zeros(n, dtype=np.int64)
        idx = last[in_seg]
        m_ts[in_seg] = t[idx]
        m_id[in_seg] = i[idx]

        need = left & ~in_seg
        keep = in_seg.copy()
        if need.any() and len(self.agg_fine):
            fn = f[need]
            pos = np.searchsorted(self.agg_fine, fn, side="left") - 1
            ok = pos >= 0
            ok[ok] &= (
                self.agg_fine[pos[ok]] >> _FINE_BITS
            ) == (fn[ok] >> _FINE_BITS)
            tgt = np.flatnonzero(need)[ok]
            m_ts[tgt] = self.agg_ts[pos[ok]]
            m_id[tgt] = self.agg_id[pos[ok]]
            keep[tgt] = True

        return pa.table(
            {
                "event_id": pa.array(i[keep], pa.int64()),
                "user_id": pa.array(f[keep] >> _FINE_BITS, pa.int64()),
                "ts_us": pa.array(t[keep], pa.int64()),
                "matched_id": pa.array(m_id[keep], pa.int64()),
                "lag_us": pa.array(t[keep] - m_ts[keep], pa.int64()),
            }
        )


def asof_join(
    left_ds,
    right_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts_us",
    id_col: str = "id",
    bucket_us: int = 86_400_000_000,
    num_groups: int = 256,
    carry_limit: int = 5_000_000,
):
    """Backward as-of join: for each left row, the latest right row with
    the same key and ``r.ts <= l.ts`` (inner semantics — unmatched left
    rows drop, like DuckDB/pandas ``ASOF JOIN``).

    Ray Data has no asof operator; this is the composition plan the
    module docstring describes, scaled for 100 TB:

    1. right side pre-aggregates to one row per (key, time-bucket) — the
       last right row of the bucket — via per-batch partials + one small
       super-group shuffle; the result (one row per active key-bucket,
       ``carry_limit``-guarded) broadcasts via ``ray.put``;
    2. both full sides co-partition ONCE on hash(key, bucket) into
       ``num_groups`` super groups (single-int64 key; no per-fine-group
       call overhead) and a vectorized kernel forward-fills in-bucket
       predecessors, falling back to the carry table across buckets.

    Only the per-bucket aggregate is ever centralized; full rows shuffle
    exactly once each. The right side is READ twice (carry pass + union
    pass) — deliberate at scale: re-reading pruned columns from storage
    beats materializing the tagged rows in the object store.
    """
    import ray

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
            t = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
            i = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(k) and int(k.max()) >= 1 << (63 - _FINE_BITS):
                raise ValueError("key too large to pack with bucket")
            b = t // bucket_us
            if len(b) and not (0 <= int(b.min()) and int(b.max()) < 1 << _FINE_BITS):
                raise ValueError(
                    "bucket index out of the 21-bit pack range — bucket_us "
                    "is too small for these timestamps (epoch-us data needs "
                    "bucket_us >= ~1e9); rebase ts or enlarge bucket_us"
                )
            fine = (k << _FINE_BITS) | b
            sg = (
                (fine.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ).astype(np.int64) % num_groups
            return pa.table(
                {
                    "sg": pa.array(sg, pa.int64()),
                    "fine": pa.array(fine, pa.int64()),
                    "ts_us": pa.array(t, pa.int64()),
                    "id": pa.array(i, pa.int64()),
                    "side": pa.array(np.full(len(k), side, np.int8)),
                }
            )

        return fn

    def _typed_seed():
        # a 0-row typed block unioned into every tagged dataset: when a
        # side is entirely empty, map_batches skips its 0-row input blocks
        # and the tagged schema (sg/fine/...) would never exist — the
        # downstream groupby then dies with KeyError. The seed pins the
        # schema at zero cost.
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "sg": pa.array([], pa.int64()),
                    "fine": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "id": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                }
            )
        )

    right_tagged = (
        right_ds.map_batches(tag(0), batch_format="pyarrow").union(_typed_seed())
    )

    def partial_last(batch: pa.Table) -> pa.Table:
        f, t, i = _last_per_fine(
            batch["fine"].to_numpy(zero_copy_only=False),
            batch["ts_us"].to_numpy(zero_copy_only=False),
            batch["id"].to_numpy(zero_copy_only=False),
        )
        sg = (
            (f.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            >> np.uint64(40)
        ).astype(np.int64) % num_groups
        return pa.table(
            {
                "sg": pa.array(sg, pa.int64()),
                "fine": pa.array(f, pa.int64()),
                "ts_us": pa.array(t, pa.int64()),
                "id": pa.array(i, pa.int64()),
            }
        )

    def merge_last(g: pa.Table) -> pa.Table:
        f, t, i = _last_per_fine(
            g["fine"].to_numpy(zero_copy_only=False),
            g["ts_us"].to_numpy(zero_copy_only=False),
            g["id"].to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "fine": pa.array(f, pa.int64()),
                "ts_us": pa.array(t, pa.int64()),
                "id": pa.array(i, pa.int64()),
            }
        )

    agg_rows = (
        right_tagged.map_batches(partial_last, batch_format="pyarrow")
        .groupby("sg")
        .map_groups(merge_last, batch_format="pyarrow")
    )
    agg_mat = agg_rows.materialize()  # small: one row per active (key, bucket)
    if agg_mat.count() > carry_limit:
        raise RuntimeError(
            "as-of carry table exceeds carry_limit; raise the limit or use "
            "a larger bucket_us so fewer (key, bucket) pairs are active"
        )
    blocks = [ray.get(r) for r in agg_mat.to_arrow_refs()]
    blocks = [
        b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
        for b in blocks
    ]
    # drop 0-row blocks: empty hash partitions emit schema-LESS empties
    # that poison concat_tables (same Ray quirk as overlay's join-back)
    blocks = [b for b in blocks if b.num_rows > 0]
    if blocks:
        agg_tbl = pa.concat_tables(blocks)
        af = agg_tbl["fine"].to_numpy(zero_copy_only=False)
        at = agg_tbl["ts_us"].to_numpy(zero_copy_only=False)
        ai = agg_tbl["id"].to_numpy(zero_copy_only=False)
    else:  # right side entirely empty: empty carry, inner join yields 0 rows
        af = at = ai = np.empty(0, dtype=np.int64)
    order = np.argsort(af, kind="stable")
    carry_ref = ray.put((af[order], at[order], ai[order]))

    left_tagged = (
        left_ds.map_batches(tag(1), batch_format="pyarrow").union(_typed_seed())
    )
    union = left_tagged.union(right_tagged)
    return union.groupby("sg").map_groups(
        _AsofGroupKernel, batch_format="pyarrow",
        fn_constructor_args=(carry_ref,), concurrency=(1, 8),
    )


def sum_by_small_key(ds, key_col: str, val_col: str, keys) -> pa.Table:
    """Grouped int64 sum for a column whose key set is SMALL and KNOWN
    (e.g. the 3 overlay legs): ONE tree-merged AggregateFn pass with a
    fixed numpy accumulator — no hash shuffle, and no schema-less empty
    blocks (a Ray groupby over a 3-key column emits untyped empties for
    empty hash partitions, which trip the executor's schema check and
    poison downstream joins/concats). Keys absent from the data sum to 0
    and are dropped from the result."""
    from ray.data.aggregate import AggregateFn

    keys = list(keys)
    idx = {k: i for i, k in enumerate(keys)}

    def init(_):
        return np.zeros(len(keys) + 1, dtype=np.int64)  # last slot: row count

    def acc(a, block):
        if isinstance(block, pa.Table):
            kv = block[key_col].to_numpy(zero_copy_only=False)
            vv = block[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            kv = block[key_col].to_numpy()
            vv = block[val_col].to_numpy().astype(np.int64)
        if len(vv) == 0:
            return a
        u, inv = np.unique(kv, return_inverse=True)
        slots = np.array([idx[k] for k in u], dtype=np.int64)
        out = a.copy()
        out[: len(keys)] += np.bincount(
            slots[inv], weights=vv, minlength=len(keys)
        ).astype(np.int64)
        out[-1] += len(vv)
        return out

    def merge(a, b):
        return a + b

    res = ds.aggregate(
        AggregateFn(init=init, merge=merge, name="ksum", accumulate_block=acc)
    )["ksum"]
    seen = res[-1] > 0
    mask = res[: len(keys)] != 0
    # keep keys with non-zero sums (matches the groupby result on data
    # where every present key has a positive sum — true for areas)
    return pa.table(
        {
            key_col: pa.array([k for k, m in zip(keys, mask) if m and seen], pa.string()),
            "total_area": pa.array(res[: len(keys)][mask] if seen else [], pa.int64()),
        }
    )


def windowed_heavy_hitters(events_ds, window_us: int = 86_400_000_000,
                           k: int = 3, ts_col: str = "ts",
                           key_col: str = "user_id"):
    """Per-window top-k heavy hitters — the "trending entities per day"
    statistic every event pipeline serves. Exact, deterministic ties
    (count DESC, key ASC).

    Plan (top_tokens' shape with the window as the super-group): each
    batch emits unique ((window, key), partial count) rows — map-side
    combine, so the shuffle moves at most (distinct pairs x batches)
    rows, not events — then ONE window-keyed groupby; the in-group
    kernel merges partials by key and keeps k. A window's group size is
    bounded by its distinct-key count (not its event count), so the only
    skew risk is a window with ~all keys active, which is the output's
    natural lower bound anyway.
    """

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].cast(pa.int64()).to_numpy()
        win = ts // np.int64(window_us)
        key = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(np.stack([win, key], axis=1), axis=0,
                         return_counts=True)
        return pa.table({
            "win": pa.array(u[:, 0], pa.int64()),
            "hkey": pa.array(u[:, 1], pa.int64()),
            "c": pa.array(c.astype(np.int64), pa.int64()),
        })

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("hkey", as_index=False)["c"].sum()
        agg = agg.sort_values(["c", "hkey"], ascending=[False, True]).head(k)
        out = pd.DataFrame({
            "win": np.full(len(agg), g["win"].iloc[0], np.int64),
            "hkey": agg["hkey"].to_numpy(np.int64),
            "n_events": agg["c"].to_numpy(np.int64),
            "hh_rank": np.arange(1, len(agg) + 1, dtype=np.int64),
        })
        return out

    return (events_ds.map_batches(partial, batch_format="pyarrow",
                                  batch_size=8192)
            .groupby("win")
            .map_groups(topk, batch_format="pandas"))


def conversion_funnel(events_ds, stages, ts_col: str = "ts",
                      key_col: str = "user_id",
                      type_col: str = "event_type",
                      num_buckets: int = 256):
    """Ordered conversion funnel: for each funnel stage k, count the users
    who performed stages[0..k] IN ORDER (each stage strictly after the
    earliest completion time of the previous one). The product-analytics
    staple (view -> click -> purchase) the reference's event tooling has
    no equivalent for; reference event-stream scope per SURVEY §2.13.

    Plan: project to funnel-stage rows only (the filter prunes before the
    exchange), ONE user-bucket-keyed shuffle, then a vectorized multi-user
    chain inside each bucket group — S rounds of pandas groupby-min, never
    a per-user Python loop. Each group emits <= S partial rows
    (stage, n_users), so the finalize merges <= S x num_buckets bounded
    rows on the driver. Returns pandas (stage, n_users) with every stage
    present (0 if nobody converted).
    """
    stages = list(stages)
    sidx_of = {s: i for i, s in enumerate(stages)}
    n_stages = len(stages)

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # C-level stage lookup (a python dict .get per row would make the
        # projection the slowest part of the pipeline)
        sidx = pc.fill_null(
            pc.index_in(b[type_col], value_set=pa.array(stages)), -1
        ).cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = sidx >= 0
        uid = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        ts = b[ts_col].cast(pa.int64()).to_numpy()[keep]
        return pa.table({
            "ub": pa.array(uid % np.int64(num_buckets), pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "ts_us": pa.array(ts, pa.int64()),
            "sidx": pa.array(sidx[keep], pa.int64()),
        })

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        # t: per-user earliest completion time of the previous stage.
        reached = np.zeros(n_stages, dtype=np.int64)
        t = None
        for k in range(n_stages):
            sub = g[g["sidx"] == k]
            if k > 0:
                prev = t.reindex(sub["user_id"].to_numpy()).to_numpy()
                sub = sub[sub["ts_us"].to_numpy() > prev]  # NaN -> False
            if len(sub) == 0:
                break
            t = sub.groupby("user_id")["ts_us"].min()
            reached[k] = len(t)
        return pd.DataFrame({
            "stage": np.arange(1, n_stages + 1, dtype=np.int64),
            "n_users": reached,
        })

    partials = (events_ds.map_batches(project, batch_format="pyarrow",
                                      batch_size=65536)
                .groupby("ub")
                .map_groups(chain, batch_format="pandas"))
    df = partials.to_pandas()  # bounded: <= n_stages * num_buckets rows
    out = (df.groupby("stage", as_index=False)["n_users"].sum()
           if len(df) else
           pd.DataFrame({"stage": pd.Series(dtype="int64"),
                         "n_users": pd.Series(dtype="int64")}))
    out = (out.set_index("stage")
           .reindex(np.arange(1, n_stages + 1, dtype=np.int64), fill_value=0)
           .reset_index())
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


def json_int_field_agg(events_ds, field: str = "k",
                       group_col: str = "event_type",
                       props_col: str = "props"):
    """Semi-structured extraction + rollup: pull an integer field out of a
    JSON string column with a vectorized RE2 kernel (pyarrow
    extract_regex — no per-row json.loads) and aggregate count + sum per
    group. The everyday "parse the props blob" stage of event pipelines.

    Scale: map-side combine bounds the exchange to (#groups x #batches)
    rows; grouped_sums picks driver-merge vs distributed groupby.
    """
    import pyarrow.compute as pc

    import re as _re
    pat = '"' + _re.escape(field) + '":\\s*(?P<v>-?\\d+)'

    def ext(b: pa.Table) -> pa.Table:
        s = pc.extract_regex(b[props_col], pat)
        v = pc.cast(pc.struct_field(s, "v"), pa.int64())
        # rows without the field contribute 0 (and stay int64 — a null
        # reaching the pandas partial stage would flip k_sum to float64
        # and silently NaN-skip)
        v = pc.fill_null(v, 0)
        return pa.table({group_col: b[group_col], "k_sum": v})

    ds = events_ds.map_batches(ext, batch_format="pyarrow", batch_size=65536)
    return grouped_sums(ds, [group_col], ["k_sum"])


def hash_join(left_ds, right_ds, *, on: str, right_on: str | None = None,
              join_type: str = "inner", num_partitions: int | None = None,
              left_cols=None, right_cols=None):
    """General large x large equi-join — the shuffle-join complement to
    lookup_join's broadcast plan (small right sides should keep using
    lookup_join; this one exchanges BOTH inputs through a hash shuffle).

    Delegates to Ray Data's native hash-shuffle ``Dataset.join`` (the
    idiomatic path: streaming aggregators, spillable partitions) after
    pruning both sides to the requested columns — a join that ships
    columns the caller never reads is wrong at any scale. Skewed hot keys
    inflate single partitions; salt upstream (the pip_pairs_salted
    pattern) when one key dominates."""
    if num_partitions is None:
        # Size aggregator-actor count to the session: 32 hash-shuffle
        # aggregators deadlock outright on a 4-CPU session (DEVNOTES),
        # so derive from cluster CPUs the way the pagerank join plan does.
        import ray
        cpus = int(ray.cluster_resources().get("CPU", 4))
        num_partitions = max(2, min(32, cpus // 2))
    right_on = right_on or on
    if left_cols is not None:
        left_ds = left_ds.select_columns(
            [on] + [c for c in left_cols if c != on])
    if right_cols is not None:
        right_ds = right_ds.select_columns(
            [right_on] + [c for c in right_cols if c != right_on])
    return left_ds.join(
        right_ds, join_type, num_partitions,
        on=(on,), right_on=(right_on,),
        left_suffix="_l", right_suffix="_r",
    )


def burst_windows(events_ds, window_us: int = 3_600_000_000,
                  factor: int = 2, ts_col: str = "ts",
                  type_col: str = "event_type"):
    """Burst detection: per (type, window) event counts, flagging windows
    whose count exceeds ``factor`` x the PREVIOUS PRESENT window of the
    same type (strict >, integer predicate; a type's first window is
    never a burst). The rate-anomaly monitor every event pipeline runs.

    Plan: map-side (window, type) count partials — the shuffle-free
    heavy_hitters shape — then the bounded (windows x types) partial set
    merges and lag-compares in one vectorized pass. Partial volume is
    bounded by distinct pairs x batches, never by events."""

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].cast(pa.int64()).to_numpy()
        win = ts // np.int64(window_us)
        df = pd.DataFrame({
            "win": win,
            type_col: b[type_col].to_numpy(zero_copy_only=False),
        })
        agg = df.groupby(["win", type_col], as_index=False).size()
        return pa.Table.from_pandas(
            agg.rename(columns={"size": "n"}), preserve_index=False)

    from ray.data.aggregate import Sum

    pm = events_ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536).materialize()
    if pm.count() <= 2_000_000:
        df = pm.to_pandas()  # (win, type) x batches, under the bound
    else:
        # shuffled/wide inputs can make (win,type) x batches large:
        # pre-merge distributedly; the result is bounded by the TRUE
        # (type x window) cardinality
        df = (pm.groupby([type_col, "win"]).aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    agg = df.groupby([type_col, "win"], as_index=False)["n"].sum()
    agg = agg.sort_values([type_col, "win"]).reset_index(drop=True)
    prev = agg.groupby(type_col)["n"].shift(1)
    burst = (prev.notna()
             & (agg["n"].to_numpy() > factor * prev.fillna(0).to_numpy()))
    agg["burst"] = burst.to_numpy()
    agg["n"] = agg["n"].astype(np.int64)
    return agg[[type_col, "win", "n", "burst"]]


def redact_pattern(ds, pattern: str = r"\d", repl: str = "#",
                   cols=("event_id",), text_col: str = "props"):
    """PII-style redaction: replace every regex match in a text column
    and count the redactions — the scrub stage of a curation pipeline
    (emails/phones/IPs in production; the pattern is a parameter). One
    streaming pass, RE2-vectorized (replace_substring_regex +
    count_substring_regex), no Python row loop, no shuffle."""
    import pyarrow.compute as pc

    cols = list(cols)

    def scrub(b: pa.Table) -> pa.Table:
        arrs = {c: b[c] for c in cols}
        arrs["redacted"] = pc.replace_substring_regex(
            b[text_col], pattern, replacement=repl)
        arrs["n_redacted"] = pc.count_substring_regex(
            b[text_col], pattern).cast(pa.int64())
        return pa.table(arrs)

    return ds.map_batches(scrub, batch_format="pyarrow", batch_size=65536)


def active_users(events_ds, window_us: int = 86_400_000_000,
                 ts_col: str = "ts", key_col: str = "user_id",
                 num_buckets: int = 1024):
    """Exact windowed distinct users (the DAU statistic) without ever
    shuffling raw events OR hot windows: batches emit unique
    (window, user) pairs (map-side dedup), the exchange is keyed on
    hash(window, user) mod B — a fixed B groups regardless of window
    count (one (win, bucket) group per key would mean tens of thousands
    of per-group kernel calls), and a window's users spread across all B
    so no group carries a hot window — each shard dedups and counts its
    pairs vectorized, and a bounded second pass sums per window."""

    def pairs(b: pa.Table) -> pa.Table:
        ts = b[ts_col].cast(pa.int64()).to_numpy()
        uid = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        win = ts // np.int64(window_us)
        u = np.unique(np.stack([win, uid], axis=1), axis=0)
        mix = (u[:, 0].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + u[:, 1].astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        return pa.table({
            "sh": pa.array((mix % np.uint64(num_buckets)).astype(np.int64),
                           pa.int64()),
            "win": pa.array(u[:, 0], pa.int64()),
            "uid": pa.array(u[:, 1], pa.int64()),
        })

    def count_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["win", "uid"])
        agg = d.groupby("win", as_index=False).size() \
            .rename(columns={"size": "n_users"})
        return agg

    from ray.data.aggregate import Sum

    pm = (events_ds.map_batches(pairs, batch_format="pyarrow",
                                batch_size=65536)
          .groupby("sh")
          .map_groups(count_shard, batch_format="pandas")).materialize()
    if pm.count() <= 2_000_000:  # <= windows x num_buckets rows
        df = pm.to_pandas()
    else:  # decade-scale window counts: pre-merge per window distributedly
        df = (pm.groupby("win")
              .aggregate(Sum("n_users", alias_name="n_users")).to_pandas())
    out = (df.groupby("win", as_index=False)["n_users"].sum()
           if len(df) else
           pd.DataFrame({"win": pd.Series(dtype="int64"),
                         "n_users": pd.Series(dtype="int64")}))
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


def retention(events_ds, window_us: int = 86_400_000_000,
              ts_col: str = "ts", key_col: str = "user_id",
              num_buckets: int = 256):
    """Next-window retention (the cohort curve's first step): per window,
    how many active users are ALSO active in the following window. One
    user-bucket-keyed shuffle of map-side-deduped (window, user) pairs —
    a user's whole window set lands in one group, so the
    consecutive-window scan is exact — then a bounded per-window merge.
    """

    def pairs(b: pa.Table) -> pa.Table:
        ts = b[ts_col].cast(pa.int64()).to_numpy()
        uid = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        win = ts // np.int64(window_us)
        u = np.unique(np.stack([uid, win], axis=1), axis=0)
        return pa.table({
            "ub": pa.array(u[:, 0] % np.int64(num_buckets), pa.int64()),
            "uid": pa.array(u[:, 0], pa.int64()),
            "win": pa.array(u[:, 1], pa.int64()),
        })

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["uid", "win"]).sort_values(["uid", "win"])
        uid = g["uid"].to_numpy(np.int64)
        win = g["win"].to_numpy(np.int64)
        same_next = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            same_next[:-1] = (uid[1:] == uid[:-1]) & (win[1:] == win[:-1] + 1)
        df = pd.DataFrame({"win": win, "ret": same_next.astype(np.int64)})
        agg = df.groupby("win", as_index=False).agg(
            n_active=("ret", "size"), n_retained=("ret", "sum"))
        return agg

    from ray.data.aggregate import Sum

    pm = (events_ds.map_batches(pairs, batch_format="pyarrow",
                                batch_size=65536)
          .groupby("ub")
          .map_groups(scan, batch_format="pandas")).materialize()
    if pm.count() <= 2_000_000:  # <= windows x num_buckets rows
        df = pm.to_pandas()
    else:  # decade-scale window counts: pre-merge per window distributedly
        df = (pm.groupby("win")
              .aggregate(Sum("n_active", alias_name="n_active"),
                         Sum("n_retained", alias_name="n_retained"))
              .to_pandas())
    if not len(df):
        return pd.DataFrame({c: pd.Series(dtype="int64")
                             for c in ("win", "n_active", "n_retained")})
    out = df.groupby("win", as_index=False)[["n_active", "n_retained"]].sum()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def event_pattern_count(events_ds, pattern: str, initials: dict,
                        ts_col: str = "ts", key_col: str = "user_id",
                        type_col: str = "event_type",
                        id_col: str = "event_id"):
    """Complex-event-processing lite (the MATCH_RECOGNIZE shape): encode
    each user's event history as a character sequence — one initial per
    event type, ordered by (ts, event_id) so equal timestamps are
    deterministic — and count non-overlapping regex matches of
    ``pattern`` per user. One user-keyed shuffle; the per-group kernel
    is a C-level regex over one string per user.

    ``initials`` maps event_type -> single char; unmapped types are
    dropped before the exchange (pattern chars can't match them anyway),
    which also prunes the shuffle."""
    import re as _re

    import pyarrow.compute as pc

    types = list(initials)
    chars = [initials[t] for t in types]
    rx = _re.compile(pattern)

    def project(b: pa.Table) -> pa.Table:
        ti = pc.fill_null(
            pc.index_in(b[type_col], value_set=pa.array(types)), -1
        ).cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ti >= 0
        return pa.table({
            key_col: pa.array(
                b[key_col].to_numpy(zero_copy_only=False)
                .astype(np.int64)[keep], pa.int64()),
            "ts_us": pa.array(
                b[ts_col].cast(pa.int64()).to_numpy()[keep], pa.int64()),
            "eid": pa.array(
                b[id_col].to_numpy(zero_copy_only=False)
                .astype(np.int64)[keep], pa.int64()),
            "ci": pa.array(ti[keep], pa.int64()),
        })

    lut = np.array(chars)

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", "eid"])
        seq = "".join(lut[g["ci"].to_numpy(np.int64)])
        return pd.DataFrame({
            key_col: [np.int64(g[key_col].iloc[0])],
            "n_matches": [np.int64(len(rx.findall(seq)))],
        })

    return (events_ds.map_batches(project, batch_format="pyarrow",
                                  batch_size=65536)
            .groupby(key_col)
            .map_groups(per_user, batch_format="pandas"))


def salted_join(left_ds, right_ds, *, on: str, right_on: str | None = None,
                salt: int = 8, left_salt_col: str | None = None,
                num_partitions: int | None = None,
                left_cols=None, right_cols=None):
    """Hot-key-safe equi-join: when one join key carries a large share of
    the left side (a hub vertex, a null-like default, a celebrity user),
    a plain hash join lands that key's entire mass on ONE partition.
    Salting splits it: left rows get a deterministic salt in [0, salt)
    (hashed from ``left_salt_col``, or from the row's own key when
    omitted — pass a high-cardinality column for real skew relief),
    right rows REPLICATE once per salt value, and the join runs on the
    packed (key, salt) composite — same rows out, 1/salt of the hot
    key's mass per partition, at the cost of a salt-times-larger right
    side (use only when the right side is the small one).
    """
    import pyarrow.compute as pc

    right_on = right_on or on
    if left_cols is not None:
        left_ds = left_ds.select_columns(
            [on] + [c for c in left_cols if c != on and c != left_salt_col]
            + ([left_salt_col] if left_salt_col else []))
    if right_cols is not None:
        right_ds = right_ds.select_columns(
            [right_on] + [c for c in right_cols if c != right_on])

    mult = np.int64(salt)

    def _guard_range(k: np.ndarray) -> None:
        # k * salt + sid (0 <= sid < salt) must stay inside int64, else it
        # wraps silently and joins wrong rows (mirrors triangle_count's
        # packed-key guard): -2^63//salt <= key < 2^63//salt. No np.abs:
        # it wraps at int64 min.
        bound = 2**63 // salt
        if len(k) and (int(k.min()) < -bound or int(k.max()) >= bound):
            raise ValueError(
                f"salted_join: key range [{k.min()}, {k.max()}] exceeds the "
                f"int64 packing range [-2**63//salt, 2**63//salt) with "
                f"2**63//salt = {bound}; reduce salt or pre-hash keys into "
                "a narrower range")

    def tag_left(b: pa.Table) -> pa.Table:
        k = b[on].to_numpy(zero_copy_only=False).astype(np.int64)
        _guard_range(k)
        src = (b[left_salt_col].to_numpy(zero_copy_only=False).astype(np.int64)
               if left_salt_col else k)
        sid = ((src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
               >> np.uint64(33)).astype(np.int64) % mult
        out = {"_sk": pa.array(k * mult + sid, pa.int64())}
        for name in b.column_names:
            out[name] = b[name]
        return pa.table(out)

    def expand_right(b: pa.Table) -> pa.Table:
        k = b[right_on].to_numpy(zero_copy_only=False).astype(np.int64)
        _guard_range(k)
        n = len(k)
        idx = np.repeat(np.arange(n), salt)
        sid = np.tile(np.arange(salt, dtype=np.int64), n)
        out = {"_sk": pa.array(k[idx] * mult + sid, pa.int64())}
        for name in b.column_names:
            if name != right_on:
                out[name] = b[name].take(pa.array(idx))
        return pa.table(out)

    lt = left_ds.map_batches(tag_left, batch_format="pyarrow")
    rt = right_ds.map_batches(expand_right, batch_format="pyarrow")
    joined = hash_join(lt, rt, on="_sk", num_partitions=num_partitions)
    return joined.drop_columns(["_sk"])


def interval_join(points_ds, intervals_ds, *, t_col: str = "ts_us",
                  point_id: str = "event_id", interval_id: str = "iid",
                  start_col: str = "s", end_col: str = "e",
                  bucket_us: int = 3_600_000_000):
    """Range (interval) join — the operator class Ray Data has no native
    form of: every (point, interval) pair with start <= t < end
    (half-open, int64 microseconds). The maintenance-window /
    validity-period join.

    Plan: intervals REPLICATE to every time bucket they overlap (cost
    ~len/bucket_us + 1 replicas — pick bucket_us at or above the typical
    interval length), points map to their one bucket, both sides
    co-partition in ONE bucket-keyed shuffle (tagged union), and the
    in-group kernel emits matches with one vectorized mask per in-bucket
    interval — linear in (intervals x points-in-their-buckets), never an
    all-pairs cross. Output: (point_id, interval_id, t_us)."""
    import ray.data as rd

    def tag_points(b: pa.Table) -> pa.Table:
        t = b[t_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pid = b[point_id].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bk": pa.array(t // np.int64(bucket_us), pa.int64()),
            "side": pa.array(np.zeros(len(t), np.int8), pa.int8()),
            "rid": pa.array(pid, pa.int64()),
            "lo": pa.array(t, pa.int64()),
            "hi": pa.array(np.zeros(len(t), np.int64), pa.int64()),
        })

    def tag_intervals(b: pa.Table) -> pa.Table:
        s = b[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = b[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        iid = b[interval_id].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = e > s
        s, e, iid = s[ok], e[ok], iid[ok]
        b0 = s // np.int64(bucket_us)
        b1 = (e - 1) // np.int64(bucket_us)
        reps = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s)), reps)
        off = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
        return pa.table({
            "bk": pa.array(b0[idx] + off, pa.int64()),
            "side": pa.array(np.ones(len(idx), np.int8), pa.int8()),
            "rid": pa.array(iid[idx], pa.int64()),
            "lo": pa.array(s[idx], pa.int64()),
            "hi": pa.array(e[idx], pa.int64()),
        })

    seed = rd.from_arrow(pa.table({
        "bk": pa.array([], pa.int64()),
        "side": pa.array([], pa.int8()),
        "rid": pa.array([], pa.int64()),
        "lo": pa.array([], pa.int64()),
        "hi": pa.array([], pa.int64()),
    }))
    tagged = (points_ds.map_batches(tag_points, batch_format="pyarrow")
              .union(intervals_ds.map_batches(tag_intervals,
                                              batch_format="pyarrow"))
              .union(seed))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        pts = g[g["side"] == 0]
        ivs = g[g["side"] == 1]
        if pts.empty or ivs.empty:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in (point_id, interval_id, "t_us")})
        t = pts["lo"].to_numpy(np.int64)
        pid = pts["rid"].to_numpy(np.int64)
        out_p, out_i, out_t = [], [], []
        for s, e, iid in zip(ivs["lo"].to_numpy(np.int64),
                             ivs["hi"].to_numpy(np.int64),
                             ivs["rid"].to_numpy(np.int64)):
            m = (t >= s) & (t < e)
            if m.any():
                out_p.append(pid[m])
                out_i.append(np.full(int(m.sum()), iid, np.int64))
                out_t.append(t[m])
        if not out_p:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in (point_id, interval_id, "t_us")})
        return pd.DataFrame({
            point_id: np.concatenate(out_p),
            interval_id: np.concatenate(out_i),
            "t_us": np.concatenate(out_t),
        })

    return tagged.groupby("bk").map_groups(kernel, batch_format="pandas")


def running_totals(events_ds, ts_col: str = "ts", key_col: str = "user_id",
                   id_col: str = "event_id", val_col: str = "value",
                   num_buckets: int = 256):
    """Cumulative window aggregates — the ROWS UNBOUNDED PRECEDING class:
    per event, the running count and running value total of its user's
    history up to and including it, ordered by (ts, id) so equal
    timestamps are deterministic. ONE user-bucket shuffle; the kernel
    sorts each bucket once and computes every user's cumsum in a single
    C-level grouped pass (a bucket holds whole users, so prefixes are
    complete)."""

    def project(b: pa.Table) -> pa.Table:
        uid = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.floor(
            b[val_col].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "ub": pa.array(uid % np.int64(num_buckets), pa.int64()),
            key_col: pa.array(uid, pa.int64()),
            "ts_us": pa.array(b[ts_col].cast(pa.int64()).to_numpy(),
                              pa.int64()),
            id_col: pa.array(
                b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64()),
            "value_c": pa.array(v, pa.int64()),
        })

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "ts_us", id_col])
        grp = g.groupby(key_col, sort=False)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            key_col: g[key_col].to_numpy(np.int64),
            "run_n": grp.cumcount().to_numpy() + 1,
            "run_value_c": grp["value_c"].cumsum().to_numpy(np.int64),
        })

    return (events_ds.map_batches(project, batch_format="pyarrow",
                                  batch_size=65536)
            .groupby("ub")
            .map_groups(kernel, batch_format="pandas"))
