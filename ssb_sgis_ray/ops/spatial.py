"""Spatial joins: sfilter (semi/anti/split), sjoin pairs, tile assignment.

Reproduces the semantics of the reference's ``sfilter`` family
(/root/reference/src/sgis/geopandas_tools/sfilter.py:67-268 — semi-join
keeps left rows matching ANY right geometry, deduplicated; anti is the
complement; split returns a matched flag) and the sjoin-pairs projection of
``get_neighbor_indices`` (neighbors.py:19-116), as Ray Data plans:

* **broadcast path** (small right side): the right geometry table is
  ``ray.put`` once, and one stage, ``SFilter``, answers every left kind
  (point, polygon, line) and every mode (semi, anti, split, pairs) from
  one STRtree query and one predicate kernel call per batch. It decodes
  the right side and builds its STRtree when constructed: once per actor
  in an actor pool, but once per batch where the input runs as tasks
  (small inputs and 1-CPU sessions, pool.broadcast_map_batches) and once
  per block in the flagship's fused task. This is the "broadcast small
  side" plan from SURVEY.md §2.4.
* **cell co-partition path** (both sides large): both sides are flat-mapped
  to their covering cells (cells.cover_bbox), tagged, unioned, and joined
  per cell over Arrow groups (``exchange.co_group``: a hash cut on plain
  tasks, or, for the salted pairs join, a cut sized from its own cell
  histogram). Pair duplicates from multi-cell geometries are removed by
  a distinct on the left id (``sfilter_cell``) — the halo-dedup
  discipline of the reference's ``gridloop`` (bounds.py:16-173); a point
  lies in one cell, so the point-left pairs join has none.

Predicates: the reference's vocabulary (geo.kernels.PREDICATES), default
'intersects' (boundary-inclusive). ``sfilter`` takes one name or, in split
mode, a sequence of names answered from one candidate pass.
"""

from __future__ import annotations

import functools
from typing import Literal

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import exchange
from ..geo import cells, kernels, wkb
from ..geo.strtree import NODE_CAP, STRtree
from ..pool import broadcast_map_batches

Mode = Literal["semi", "anti", "split", "pairs"]


class _BroadcastIndex:
    """Decoded right side + STRtree, built from a ray.put'd table."""

    def __init__(self, right_ref):
        right: pa.Table = ray.get(right_ref)
        self.table = right
        self.pg = wkb.decode_polygons(right["geometry_wkb"])
        self.tree = STRtree(kernels.polygon_bounds(self.pg))


def _left_points(cols):
    px, py = (c.to_numpy(zero_copy_only=False).astype(np.float64) for c in cols)
    return (px, py), np.stack([px, py, px, py], axis=1)


def _left_polygons(cols):
    pg = wkb.decode_polygons(cols[0])
    return (pg,), kernels.polygon_bounds(pg)


def _left_lines(cols):
    la = wkb.decode_lines(cols[0])
    return (la,), kernels.line_bounds(la)


# left_kind -> (decode: the kernel's left arguments and their (n, 4)
# bounds from the left's geometry columns, predicate kernel in geo.kernels).
# The kernel is looked up by name when a filter is built, so wrappers put
# on geo.kernels in a worker process apply.
_LEFT_KINDS = {
    "point": (_left_points, "points_in_polygon_pairs_predicate"),
    "polygon": (_left_polygons, "polygon_predicate_pairs"),
    "line": (_left_lines, "lines_in_polygon_pairs_predicate"),
}


def _candidate_masks(decode, kernel, left_cols, right_pg, tree, predicate):
    """One STRtree query and one kernel call: the left row count, the
    candidate (left, right) index pairs ``qi, pi`` and the (k, n_pairs)
    bool masks of predicate name k on them."""
    left, boxes = decode(left_cols)
    k = len(kernels.predicate_names(predicate))
    qi, pi = tree.query_bbox(boxes)
    masks = np.zeros((k, 0), dtype=bool)
    if len(qi):
        masks = np.reshape(kernel(*left, right_pg, qi, pi, predicate), (k, len(qi)))
    return len(boxes), qi, pi, masks


def _match_masks(decode, kernel, left_cols, right_pg, tree, predicate):
    """(k, n_left) bool: left row i satisfies predicate name k against
    some right geometry."""
    n, qi, _, masks = _candidate_masks(
        decode, kernel, left_cols, right_pg, tree, predicate)
    matched = np.zeros((len(masks), n), dtype=bool)
    k, pair = np.nonzero(masks)
    matched[k, qi[pair]] = True  # any match keeps the row
    return matched


class SFilter:
    """Broadcast join stage of point, polygon or line lefts (``px``/``py``
    or ``geometry_wkb`` columns) against the ray.put'd polygons.

    The decoded polygons and their STRtree are built in ``__init__``, so
    once per actor in a pool and once per batch or block where the stage
    runs as tasks; ``__call__`` handles one Arrow batch, fully
    vectorized. Modes: semi / anti keep the left rows that match / do not
    match; split appends a ``matched`` column, or with a sequence of
    predicate names one ``matched_<name>`` column per name from the same
    candidate pairs; pairs emits one row per matching (left, right) pair,
    the left row's columns plus ``right_cols`` (``<name>_2`` on a clash
    with a left column)."""

    def __init__(self, right_ref, mode: Mode = "semi",
                 left_kind: str = "point", predicate="intersects",
                 right_cols=()):
        self.idx = _BroadcastIndex(right_ref)
        self.decode, kernel = _LEFT_KINDS[left_kind]
        self.kernel = getattr(kernels, kernel)
        self.cols = ("px", "py") if left_kind == "point" else ("geometry_wkb",)
        self.mode = mode
        self.predicate = predicate
        self.right_cols = right_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        args = (self.decode, self.kernel, [batch[c] for c in self.cols],
                self.idx.pg, self.idx.tree, self.predicate)
        if self.mode == "pairs":
            _, qi, pi, masks = _candidate_masks(*args)
            out = batch.take(pa.array(qi[masks[0]], pa.int64()))
            right = pa.array(pi[masks[0]], pa.int64())
            for c in self.right_cols:
                name = f"{c}_2" if c in out.column_names else c
                out = out.append_column(name, self.idx.table[c].take(right))
            return out
        matched = _match_masks(*args)
        if self.mode == "semi":
            return batch.filter(pa.array(matched[0]))
        if self.mode == "anti":
            return batch.filter(pa.array(~matched[0]))
        if isinstance(self.predicate, str):
            return batch.append_column("matched", pa.array(matched[0]))
        for name, m in zip(self.predicate, matched):
            batch = batch.append_column(f"matched_{name}", pa.array(m))
        return batch


def _check_left_kind(left_kind, kinds):
    """Plan-time check of a join's ``left_kind`` against ``kinds``."""
    if left_kind not in kinds:
        raise ValueError(
            f"left_kind must be one of {tuple(kinds)}, got {left_kind!r}")


def _check_predicate(predicate, mode, modes):
    """Plan-time check of an sfilter's mode and predicate name(s); returns
    the predicate as one name or a tuple of names."""
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}, got {mode!r}")
    names = kernels.predicate_names(predicate)
    if isinstance(predicate, str):
        return predicate
    if mode != "split":
        raise ValueError(
            f"a predicate sequence needs mode='split', got mode={mode!r}")
    return names


def sfilter(
    left,
    right_table: pa.Table,
    mode: Mode = "semi",
    left_kind: Literal["point", "polygon", "line"] = "point",
    concurrency=None,
    batch_size: int = 32768,
    nrows=None,
    predicate="intersects",
):
    """Spatial semi/anti/split filter of a Dataset against a small polygon
    table (broadcast plan). ``left`` must carry px/py (points) or
    geometry_wkb (polygons, lines). ``nrows``: optional left row-count
    hint to size the actor pool (see pool.default_pool).

    ``predicate``: a name from the full reference vocabulary
    (sfilter.py:67-134, geo.kernels.PREDICATES) — intersects / within /
    touches / overlaps / covers / contains / covered_by / crosses; see
    geo.kernels.points_in_polygon_pairs_predicate,
    lines_in_polygon_pairs_predicate and polygon_predicate_pairs for the
    per-kind semantics. With ``mode='split'`` it may also be a sequence
    of names: every left row is kept and gets one bool column
    ``matched_<name>`` per name, all computed from one STRtree query and
    one kernel pass (a single name adds the column ``matched``). Bad
    names, an empty or duplicate sequence, or a sequence outside split
    mode raise ValueError here, before anything executes."""
    predicate = _check_predicate(predicate, mode, ("semi", "anti", "split"))
    _check_left_kind(left_kind, _LEFT_KINDS)
    return broadcast_map_batches(
        left,
        SFilter,
        fn_constructor_kwargs={"right_ref": ray.put(right_table), "mode": mode,
                               "left_kind": left_kind,
                               "predicate": predicate},
        batch_size=batch_size,
        concurrency=concurrency,
        nrows=nrows,
    )


def sjoin_pairs(
    left,
    right_table: pa.Table,
    right_cols: list[str],
    left_kind: Literal["point", "polygon", "line"] = "point",
    concurrency=None,
    batch_size: int = 32768,
    nrows=None,
):
    """Inner 'intersects' spatial join, broadcast plan: one row per
    matching (left, right) pair, the left row's columns plus
    ``right_cols`` (``SFilter`` in pairs mode). A ``left_kind`` outside
    ``_LEFT_KINDS`` raises ValueError here, before anything executes."""
    _check_left_kind(left_kind, _LEFT_KINDS)
    return broadcast_map_batches(
        left,
        SFilter,
        fn_constructor_kwargs={"right_ref": ray.put(right_table),
                               "mode": "pairs", "left_kind": left_kind,
                               "right_cols": right_cols},
        batch_size=batch_size,
        concurrency=concurrency,
        nrows=nrows,
    )


# ---------------------------------------------------------------------------
# Cell co-partition join (both sides large) — the shuffle plan
# ---------------------------------------------------------------------------


def _tag_points_with_cells(batch: pa.Table, res: int, id_col: str, x_col, y_col) -> pa.Table:
    px = batch[x_col].to_numpy(zero_copy_only=False)
    py = batch[y_col].to_numpy(zero_copy_only=False)
    cell = cells.xy_to_cell(px.astype(np.float64), py.astype(np.float64), res)
    return pa.table(
        {
            "cell": pa.array(cell, pa.int64()),
            "side": pa.array(np.zeros(len(batch), dtype=np.int8)),
            "left_id": batch[id_col],
            "px": pa.array(px, pa.int64()),
            "py": pa.array(py, pa.int64()),
            "right_id": pa.array(np.full(len(batch), -1, dtype=np.int64)),
            "geometry_wkb": pa.array([None] * len(batch), pa.binary()),
        }
    )


def _tag_polys_with_cells(batch: pa.Table, res: int, id_col: str) -> pa.Table:
    pg = wkb.decode_polygons(batch["geometry_wkb"])
    b = kernels.polygon_bounds(pg)
    rows, cell = cells.cover_bbox(b[:, 0], b[:, 1], b[:, 2] + 1e-9, b[:, 3] + 1e-9, res)
    # +1e-9: polygon footprints are closed sets — a polygon whose max edge
    # lies exactly on a cell boundary can still touch points in the next
    # cell (boundary-inclusive 'intersects'), so pad the half-open cover.
    ids = batch[id_col].to_numpy(zero_copy_only=False)[rows]
    geom = batch["geometry_wkb"].take(pa.array(rows, pa.int64()))
    n = len(rows)
    return pa.table(
        {
            "cell": pa.array(cell, pa.int64()),
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "left_id": pa.array(np.full(n, -1, dtype=np.int64)),
            "px": pa.array(np.zeros(n, dtype=np.int64)),
            "py": pa.array(np.zeros(n, dtype=np.int64)),
            "right_id": pa.array(ids, pa.int64()),
            "geometry_wkb": geom,
        }
    )


_PAIRS_SCHEMA = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])


def _point_bbox_pairs(px: np.ndarray, py: np.ndarray, boxes: np.ndarray):
    """(point, box) index pairs whose closed bbox holds the point.

    Up to ``NODE_CAP`` boxes this is one dense ``(points, boxes)``
    compare, the STRtree's only level, with no tree built; more boxes go
    through the STRtree. A NaN box (an empty polygon) never matches.
    Pairs are the same set either way; the order may differ.
    """
    if len(boxes) <= NODE_CAP:
        hit = (px[:, None] >= boxes[:, 0]) & (px[:, None] <= boxes[:, 2])
        hit &= (py[:, None] >= boxes[:, 1]) & (py[:, None] <= boxes[:, 3])
        return np.nonzero(hit)
    return STRtree(boxes).query_bbox(np.stack([px, py, px, py], axis=1))


def _per_cell_pip(group: pa.Table) -> pa.Table:
    """Join one cell's points with its polygons -> int64 (left_id, right_id).

    One numpy mask splits the sides, and only the polygon rows' WKB is
    decoded."""
    is_pt = group["side"].to_numpy() == 0
    pt, pl = np.flatnonzero(is_pt), np.flatnonzero(~is_pt)
    if len(pt) == 0 or len(pl) == 0:
        return _PAIRS_SCHEMA.empty_table()
    pg = wkb.decode_polygons(group["geometry_wkb"].take(pl))
    px = group["px"].to_numpy()[pt].astype(np.float64)
    py = group["py"].to_numpy()[pt].astype(np.float64)
    qi, pi = _point_bbox_pairs(px, py, kernels.polygon_bounds(pg))
    if len(qi):
        keep = kernels.points_in_polygon_pairs(px, py, pg, qi, pi)
        qi, pi = qi[keep], pi[keep]
    return pa.table(
        {
            "left_id": pa.array(group["left_id"].to_numpy()[pt[qi]], pa.int64()),
            "right_id": pa.array(group["right_id"].to_numpy()[pl[pi]], pa.int64()),
        }
    )


# bytes one tagged left row carries through the exchange: five int64
# columns, the int8 side and a null WKB (a 4-byte offset)
_TAGGED_ROW_BYTES = 45


def _replicate(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index and salt (0..reps-1) of each copy when row i is repeated
    ``reps[i]`` times."""
    rows = np.repeat(np.arange(len(reps)), reps)
    salt = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
    return rows, salt


def _shuffle_keys(cell, n, hot, n_salts: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle keys of the salted plan, sorted, with their left-row
    weights: a cold cell's key is cell*n_salts, a hot cell's keys are
    cell*n_salts + s for each salt s, weighted count/n_salts. With no hot
    cell nothing is salted and the keys are the cells."""
    if len(hot) == 0:
        return cell, n.astype(np.float64)
    reps = np.where(_is_hot(cell, hot), n_salts, 1)
    rows, salt = _replicate(reps)
    keys = cell[rows] * n_salts + salt  # wraps like _salt_left's keys
    order = np.argsort(keys, kind="stable")
    return keys[order], (n / reps)[rows][order]


def sjoin_cell_partitioned(
    left,
    right,
    res: int = 7,
    left_id: str = "left_id",
    right_id: str = "right_id",
    x_col: str = "px",
    y_col: str = "py",
    salt_threshold: int | None = None,
    n_salts: int = 8,
    skew_report_dir: str | None = None,
):
    """Large×large PIP join: co-partition by covering cell, join per cell.

    Points land in exactly one cell; polygons are replicated to every cell
    their bbox overlaps, so a pair can match in at most one cell for PIP
    (the point's cell) — no dedup leg needed for the point-left case.
    Returns a Dataset of int64 (left_id, right_id) pairs; each shuffle key
    is joined over its Arrow group (``_per_cell_pip``). Results are
    identical with or without salting.

    The salted plan (``salt_threshold`` set) sizes its exchange from its
    own histogram and runs it before this function returns:

    1. tag: one Ray Data execution materializes the tagged left and
       right together (``lt.union(rt)``); the histogram, the salting and
       the exchange read these blocks, so each side is read and tagged
       once per query;
    2. histogram: one Ray task per non-empty block counts its left rows
       per cell and the calling process merges the counts
       (``exchange.key_counts`` with ``side=0``, no shuffle);
    3. salts and boundaries: cells above the threshold ("urban
       hotspots") are hot. Their left rows will split into ``n_salts``
       sub-keys by a hash of the left id (``_salt_left``) and their right
       rows be replicated to every sub-key (``_salt_right``); the shuffle
       keys, weighted by their left rows, are cut at cumulative-weight
       quantiles (``exchange.balanced_boundaries``) into P partitions:
       one per session CPU, more when the estimated exchange bytes
       exceed one Ray block each, at most one per key;
    4. cut: one Ray task per tagged block salts it (``_salt``), sorts it
       on the shuffle key and cuts it into P slices (``exchange.co_group``
       with ``boundaries`` and ``prepare``; no sort operator, no sample);
    5. reduce: P tasks each concatenate and sort their slices and call
       ``_per_cell_pip`` once per shuffle key (``exchange.per_key``).
       The result is a materialized Dataset of the P reducers' tables;
       the tagged blocks are released when this function returns.

    Without ``salt_threshold`` nothing is counted: the exchange hashes
    the cells into P partitions (``exchange.co_group`` without
    ``boundaries``).

    ``skew_report_dir``: when set, the post-salting per-cell row
    histogram is summarized into <dir>/skew_metrics.jsonl (straggler
    telemetry — state.skew) at the cost of one extra execution (of the
    salting over the tagged blocks; of both tagging maps when nothing is
    salted), and the plan's sizing is appended to
    <dir>/plan_metrics.jsonl.
    """
    lt = left.map_batches(
        lambda b: _tag_points_with_cells(b, res, left_id, x_col, y_col),
        batch_format="pyarrow",
    )
    rt = right.map_batches(
        lambda b: _tag_polys_with_cells(b, res, right_id), batch_format="pyarrow"
    )

    plan = {"est_rows": None, "hot_cells": 0, "n_salts": n_salts,
            "partitions": None, "max_partition_rows_est": None}
    both = lt.union(rt)
    boundaries = prepare = None
    if salt_threshold is not None:
        # tagged once: the histogram and the exchange read these blocks
        both = both.materialize()
        cell, n = exchange.key_counts(both, "cell", side=0)  # no shuffle
        cell = cell.to_numpy()
        hot = cell[n > salt_threshold]
        keys, weights = _shuffle_keys(cell, n, hot, n_salts)
        n_parts = exchange.n_partitions(int(n.sum()) * _TAGGED_ROW_BYTES, len(keys))
        boundaries = exchange.balanced_boundaries(keys, weights, n_parts)
        plan.update(est_rows=int(n.sum()), hot_cells=len(hot),
                    partitions=len(boundaries) + 1,
                    max_partition_rows_est=int(np.ceil(
                        exchange.partition_loads(keys, weights, boundaries).max())))
        if len(hot):
            prepare = functools.partial(_salt, hot_cells=hot, n_salts=n_salts)

    if skew_report_dir is not None:
        from ..state import skew as skew_mod

        stage = f"pip_pairs_cell(res={res}, salt_threshold={salt_threshold})"
        salted = both if prepare is None else both.map_batches(
            prepare, batch_format="pyarrow", batch_size=None)
        skew_mod.record_cell_skew(
            skew_report_dir, skew_mod.cell_skew_summary(salted, stage=stage))
        skew_mod.record_plan(skew_report_dir, {"op": stage, **plan})
    return exchange.co_group(both, "cell", exchange.per_key("cell", _per_cell_pip),
                             boundaries, prepare)


def _is_hot(cell: np.ndarray, hot_cells: np.ndarray) -> np.ndarray:
    """Membership of ``cell`` in the sorted int64 ``hot_cells``."""
    if len(hot_cells) == 0:
        return np.zeros(len(cell), bool)
    i = np.minimum(np.searchsorted(hot_cells, cell), len(hot_cells) - 1)
    return hot_cells[i] == cell


def _salt_left(batch: pa.Table, hot_cells: np.ndarray, n_salts: int) -> pa.Table:
    """Shuffle key := cell*n_salts + salt(left_id), salt 0 for cells not in
    the sorted int64 ``hot_cells``."""
    cell = batch["cell"].to_numpy(zero_copy_only=False)
    lid = batch["left_id"].to_numpy(zero_copy_only=False)
    salt = exchange.splitmix64(lid) % np.uint64(n_salts)
    key = cell * n_salts + np.where(_is_hot(cell, hot_cells), salt.astype(np.int64), 0)
    return batch.set_column(0, "cell", pa.array(key, pa.int64()))


def _salt_right(batch: pa.Table, hot_cells: np.ndarray, n_salts: int) -> pa.Table:
    """Replicate right rows covering a hot cell to every salt sub-key."""
    cell = batch["cell"].to_numpy(zero_copy_only=False)
    rows, salt = _replicate(np.where(_is_hot(cell, hot_cells), n_salts, 1))
    out = batch.take(pa.array(rows, pa.int64()))
    return out.set_column(0, "cell", pa.array(cell[rows] * n_salts + salt, pa.int64()))


def _salt(block: pa.Table, hot_cells: np.ndarray, n_salts: int) -> pa.Table:
    """A tagged block's shuffle keys: its left rows through ``_salt_left``,
    its right rows through ``_salt_right`` (looked up at call time, so a
    wrapped module attribute is the one called)."""
    is_left = block["side"].to_numpy(zero_copy_only=False) == 0
    if is_left.all():
        return _salt_left(block, hot_cells, n_salts)
    if not is_left.any():
        return _salt_right(block, hot_cells, n_salts)
    return pa.concat_tables([_salt_left(block.filter(is_left), hot_cells, n_salts),
                             _salt_right(block.filter(~is_left), hot_cells, n_salts)])


# ---------------------------------------------------------------------------
# Tile assignment (raster<->vector half of the north-star metric)
# ---------------------------------------------------------------------------


def assign_point_tiles(batch: pa.Table, gridsize: int, x_col="px", y_col="py") -> pa.Table:
    """Point -> containing tile (tile_x, tile_y, ssb_id). Mirrors the
    reference's add_grid_id (bounds.py:341-372)."""
    px = batch[x_col].to_numpy(zero_copy_only=False)
    py = batch[y_col].to_numpy(zero_copy_only=False)
    tx, ty = cells.tile_xy(px, py, gridsize)
    t = batch.append_column("tile_x", pa.array(tx, pa.int64()))
    t = t.append_column("tile_y", pa.array(ty, pa.int64()))
    sid = pc.binary_join_element_wise(
        pc.cast(t["tile_x"], pa.string()), pc.cast(t["tile_y"], pa.string()), "_"
    )
    return t.append_column("ssb_id", sid)


def cover_tiles_flatmap(
    batch: pa.Table, gridsize: int, id_col: str, bbox_cols=("minx", "miny", "maxx", "maxy")
) -> pa.Table:
    """Footprint bbox -> one output row per covering tile (half-open).

    This is the raster<->vector assignment: an image footprint spanning k
    tiles appears k times, keyed (id, tile_x, tile_y)."""
    minx = batch[bbox_cols[0]].to_numpy(zero_copy_only=False).astype(np.int64)
    miny = batch[bbox_cols[1]].to_numpy(zero_copy_only=False).astype(np.int64)
    maxx = batch[bbox_cols[2]].to_numpy(zero_copy_only=False).astype(np.int64)
    maxy = batch[bbox_cols[3]].to_numpy(zero_copy_only=False).astype(np.int64)
    x0 = minx // gridsize
    y0 = miny // gridsize
    x1 = (maxx - 1) // gridsize
    y1 = (maxy - 1) // gridsize
    nx = x1 - x0 + 1
    ny = y1 - y0 + 1
    counts = nx * ny
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(batch)), counts)
    base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(base, counts)
    tx = np.repeat(x0, counts) + within % np.repeat(nx, counts)
    ty = np.repeat(y0, counts) + within // np.repeat(nx, counts)
    out = pa.table(
        {
            id_col: batch[id_col].take(pa.array(rows, pa.int64())),
            "tile_x": pa.array(tx, pa.int64()),
            "tile_y": pa.array(ty, pa.int64()),
        }
    )
    return out


def map_tiles(
    ds,
    func,
    gridsize: int,
    x_col: str = "px",
    y_col: str = "py",
    halo: float = 0.0,
    batch_format: str = "pandas",
):
    """gridloop-style per-tile UDF (the reference's user-extension surface,
    /root/reference/src/sgis/geopandas_tools/bounds.py:16-173): run ``func``
    once per grid tile over the rows that fall in the tile, optionally with
    a ``halo``-meter margin (rows within ``halo`` of a tile boundary are
    replicated into the neighboring tile, like gridloop's ``gridbuffer``).

    ``func(group)`` receives the tile's rows (tile_x/tile_y columns
    included, halo copies flagged ``in_halo=True``) and returns a
    DataFrame; results are concatenated across tiles. The UDF is
    responsible for halo discipline (e.g. clip results back to the tile),
    exactly as with gridloop's clip=True.
    """

    def tag(batch: pa.Table) -> pa.Table:
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        rows, tx, ty, in_halo = _halo_tiles(px, py, gridsize, halo)
        out = batch.take(pa.array(rows, pa.int64()))
        out = out.append_column("tile_x", pa.array(tx, pa.int64()))
        out = out.append_column("tile_y", pa.array(ty, pa.int64()))
        return out.append_column("in_halo", pa.array(in_halo))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return tagged.groupby(["tile_x", "tile_y"]).map_groups(
        func, batch_format=batch_format
    )


def _halo_tiles(px, py, gridsize, halo):
    """Row -> (containing tile) plus neighbor tiles within ``halo``."""
    minx = px - halo
    maxx = px + halo
    miny = py - halo
    maxy = py + halo
    x0 = np.floor(minx / gridsize).astype(np.int64)
    x1 = np.floor(maxx / gridsize).astype(np.int64)
    y0 = np.floor(miny / gridsize).astype(np.int64)
    y1 = np.floor(maxy / gridsize).astype(np.int64)
    home_x = np.floor(px / gridsize).astype(np.int64)
    home_y = np.floor(py / gridsize).astype(np.int64)
    nx = x1 - x0 + 1
    ny = y1 - y0 + 1
    counts = nx * ny
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(px)), counts)
    base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(base, counts)
    tx = np.repeat(x0, counts) + within % np.repeat(nx, counts)
    ty = np.repeat(y0, counts) + within // np.repeat(nx, counts)
    in_halo = (tx != home_x[rows]) | (ty != home_y[rows])
    return rows, tx, ty, in_halo


def make_ssb_grid(points_ds, gridsize: int, x_col: str = "px", y_col: str = "py"):
    """Polygon grid with SSB ids covering a layer's total bounds —
    the reference's make_ssb_grid/make_grid_from_bbox
    (bounds.py:176-372) as a two-stage Dataset plan:

      1. total bounds via a distributed Min/Max aggregate (tiny result)
      2. the cell lattice synthesized as a streamed ``rd.range`` over the
         cell count — each row becomes one grid polygon (WKB) with its
         Statistics-Norway SSBID (east component offset by +2,000,000,
         both components floored to gridsize multiples, concatenated as
         unpadded int strings)

    The grid is never materialized on the driver; at a national 1 km
    grid (~3.2M cells) stage 2 is an ordinary streamed synthesis."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    from ..geo import wkb as wkb_mod

    b = points_ds.aggregate(
        Min(x_col, alias_name="mnx"), Min(y_col, alias_name="mny"),
        Max(x_col, alias_name="mxx"), Max(y_col, alias_name="mxy"),
    )
    gs = int(gridsize)
    gx0 = int(np.floor((b["mnx"] + 2_000_000) / gs))
    gx1 = int(np.floor((b["mxx"] + 2_000_000) / gs))
    gy0 = int(np.floor(b["mny"] / gs))
    gy1 = int(np.floor(b["mxy"] / gs))
    nx = gx1 - gx0 + 1
    ny = gy1 - gy0 + 1

    def build(batch: dict) -> pa.Table:
        i = batch["id"].astype(np.int64)
        gx = gx0 + i // ny
        gy = gy0 + i % ny
        east = gx * gs
        north = gy * gs
        minx = east - 2_000_000
        miny = north
        blobs = [
            wkb_mod.encode_polygon([np.array(
                [[x0, y0], [x0 + gs, y0], [x0 + gs, y0 + gs],
                 [x0, y0 + gs], [x0, y0]], dtype=float)])
            for x0, y0 in zip(minx, miny)
        ]
        return pa.table(
            {
                "ssb_id": pa.array(
                    [f"{e}{n}" for e, n in zip(east, north)], pa.string()
                ),
                "cell_minx": pa.array(minx, pa.int64()),
                "cell_miny": pa.array(miny, pa.int64()),
                "geometry_wkb": pa.array(blobs, pa.binary()),
            }
        )

    return rd.range(nx * ny).map_batches(build, batch_format="numpy")


# ---------------------------------------------------------------------------
# Tile pyramid: multi-zoom tile counts in one pass
# ---------------------------------------------------------------------------


def tile_pyramid(tiles_ds, levels: int = 4, x_col: str = "tile_x",
                 y_col: str = "tile_y", driver_limit: int = 4_000_000):
    """Zoom-pyramid aggregation over tile rows: for every level
    ``l in [0, levels)`` the level-l cell of a tile is
    ``(x >> l, y >> l)`` and the output is (level, tile_x, tile_y, n) —
    the tile-pyramid build a serving stack runs after tile assignment.

    ALL levels aggregate in ONE pass: each batch emits unique
    (packed_key, count) partials for every level (the map-side combine
    discipline), packed as level<<48 | x<<24 | y into a single int64
    shuffle key. Below ``driver_limit`` partial rows the final sum is
    one driver np pass (the groupby exchange is pure fixed machinery at
    that size — same dual plan as duplicated_spans); beyond it, one
    narrow int64-keyed distributed groupby. Tile ids must be in
    [0, 2^24) (nonnegative domain grid ids; asserted per batch).
    """
    from ray.data.aggregate import Sum

    mask24 = (1 << 24) - 1

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and (x.min() < 0 or y.min() < 0 or
                       x.max() > mask24 or y.max() > mask24):
            raise ValueError("tile ids must be in [0, 2^24)")
        keys = []
        for lv in range(levels):
            keys.append((np.int64(lv) << np.int64(48))
                        | ((x >> lv) << np.int64(24)) | (y >> lv))
        u, c = np.unique(np.concatenate(keys) if keys
                         else np.empty(0, np.int64), return_counts=True)
        return pa.table({"key": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    def unpack(key: np.ndarray, n: np.ndarray) -> pa.Table:
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        return pa.table({
            "level": pa.array(key >> np.int64(48), pa.int64()),
            "tile_x": pa.array((key >> np.int64(24)) & mask24, pa.int64()),
            "tile_y": pa.array(key & mask24, pa.int64()),
            "n": pa.array(n, pa.int64()),
        })

    partials = tiles_ds.map_batches(
        partial, batch_format="pyarrow", batch_size=8192
    ).materialize()

    if partials.count() <= driver_limit:
        df = partials.to_pandas()
        k = df["key"].to_numpy().astype(np.int64)
        c = df["c"].to_numpy().astype(np.int64)
        u, inv = np.unique(k, return_inverse=True)
        tot = np.bincount(inv, weights=c.astype(np.float64)).astype(np.int64)
        return unpack(u, tot)

    agg = partials.groupby("key").aggregate(Sum(on="c", alias_name="n"))
    return agg.map_batches(
        lambda b: unpack(
            b["key"].to_numpy(zero_copy_only=False).astype(np.int64),
            b["n"].to_numpy(zero_copy_only=False).astype(np.int64),
        ),
        batch_format="pyarrow",
    )


def focal_hotspots(points_ds, cell_size: int, x_col: str = "px",
                   y_col: str = "py", hot_threshold: int = 0,
                   driver_limit: int = 4_000_000):
    """3x3 focal (moving-window) count statistic over grid cells with a
    Getis-Ord-flavored hotspot flag — the classic raster focal-sum /
    hotspot-detection op (reference raster.py zonal/aggregate family),
    expressed as scatter-gather aggregation instead of array windows so
    it runs over an unbounded streaming point table.

    Plan: per-batch (packed cell key, count) partials (map-side
    combine) -> cell counts (driver np pass below ``driver_limit``
    partial rows, one int64 groupby beyond — the tile_pyramid dual
    plan) -> each cell SCATTERS its count to its 9 neighbors tagged
    with a self marker -> one more key-sum -> cells with their own
    points emit (cnt, focal, is_hot). No join: the self marker rides
    the same aggregation that builds the focal sum. Cells with zero
    points contribute nothing and are absent from the output (exactly
    the sparse-raster semantics); no wraparound — out-of-domain
    neighbors are dropped.

    Scale shape: two narrow int64-keyed exchanges at most, partials
    bounded by (distinct cells x batches), neighbor expansion is a
    fixed x9 on the ALREADY-AGGREGATED cell table (|cells|, not
    |points|).
    """
    from ray.data.aggregate import Sum

    mask24 = (1 << 24) - 1
    cs = np.int64(cell_size)

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64) // cs
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64) // cs
        if len(x) and (x.min() < 0 or y.min() < 0 or
                       x.max() > mask24 or y.max() > mask24):
            raise ValueError("cell ids must be in [0, 2^24)")
        u, c = np.unique((x << np.int64(24)) | y, return_counts=True)
        return pa.table({"key": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]

    def scatter(key: np.ndarray, cnt: np.ndarray) -> pa.Table:
        cx, cy = key >> np.int64(24), key & np.int64(mask24)
        ks, contrib, selfc = [], [], []
        for dx, dy in offsets:
            nx, ny = cx + dx, cy + dy
            ok = (nx >= 0) & (ny >= 0)
            ks.append((nx[ok] << np.int64(24)) | ny[ok])
            contrib.append(cnt[ok])
            selfc.append(cnt[ok] if (dx == 0 and dy == 0)
                         else np.zeros(ok.sum(), np.int64))
        return pa.table({
            "key": pa.array(np.concatenate(ks), pa.int64()),
            "contrib": pa.array(np.concatenate(contrib), pa.int64()),
            "selfc": pa.array(np.concatenate(selfc), pa.int64()),
        })

    def emit(key: np.ndarray, focal: np.ndarray, cnt: np.ndarray) -> pa.Table:
        keep = cnt > 0
        key, focal, cnt = key[keep], focal[keep], cnt[keep]
        order = np.argsort(key, kind="stable")
        key, focal, cnt = key[order], focal[order], cnt[order]
        return pa.table({
            "cell_x": pa.array(key >> np.int64(24), pa.int64()),
            "cell_y": pa.array(key & np.int64(mask24), pa.int64()),
            "cnt": pa.array(cnt, pa.int64()),
            "focal": pa.array(focal, pa.int64()),
            "is_hot": pa.array(focal >= np.int64(hot_threshold), pa.bool_()),
        })

    partials = points_ds.map_batches(
        partial, batch_format="pyarrow", batch_size=8192
    ).materialize()

    if partials.count() <= driver_limit:
        df = partials.to_pandas()
        k = df["key"].to_numpy().astype(np.int64)
        c = df["c"].to_numpy().astype(np.int64)
        u, inv = np.unique(k, return_inverse=True)
        cnt = np.bincount(inv, weights=c.astype(np.float64)).astype(np.int64)
        sc = scatter(u, cnt)
        sk = sc["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        u2, inv2 = np.unique(np.concatenate([u, sk]), return_inverse=True)
        focal = np.bincount(
            inv2[len(u):], weights=sc["contrib"].to_numpy(
                zero_copy_only=False).astype(np.float64),
            minlength=len(u2)).astype(np.int64)
        selfcnt = np.zeros(len(u2), np.int64)
        selfcnt[inv2[:len(u)]] = cnt
        return emit(u2, focal, selfcnt)

    cells = partials.groupby("key").aggregate(Sum(on="c", alias_name="cnt"))
    scattered = cells.map_batches(
        lambda b: scatter(
            b["key"].to_numpy(zero_copy_only=False).astype(np.int64),
            b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)),
        batch_format="pyarrow",
    )
    agg = scattered.groupby("key").aggregate(
        Sum(on="contrib", alias_name="focal"),
        Sum(on="selfc", alias_name="cnt"),
    )
    return agg.map_batches(
        lambda b: emit(
            b["key"].to_numpy(zero_copy_only=False).astype(np.int64),
            b["focal"].to_numpy(zero_copy_only=False).astype(np.int64),
            b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Cell co-partitioned predicate sfilter (both sides large)
# ---------------------------------------------------------------------------


def _tag_generic(batch: pa.Table, res: int, id_col: str, side: int,
                 kind: str) -> pa.Table:
    """(cell, side, gid, geometry_wkb) rows — each polygon or line
    replicated to every cell its bbox covers, full geometry riding along
    (predicates need the whole shape in every shared cell)."""
    decode, _ = _LEFT_KINDS[kind]
    _, b = decode([batch["geometry_wkb"]])
    rows, cell = cells.cover_bbox(
        b[:, 0], b[:, 1], b[:, 2] + 1e-9, b[:, 3] + 1e-9, res)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[rows]
    return pa.table({
        "cell": pa.array(cell, pa.int64()),
        "side": pa.array(np.full(len(rows), side, np.int8), pa.int8()),
        "gid": pa.array(ids, pa.int64()),
        "geometry_wkb": batch["geometry_wkb"].take(pa.array(rows, pa.int64())),
    })


def sfilter_cell(left_ds, right_ds, *, left_id: str = "left_id",
                 right_id: str = "right_id",
                 predicate: str = "intersects", mode: Mode = "semi",
                 res: int = 7,
                 left_kind: Literal["polygon", "line"] = "polygon"):
    """Large×large predicate sfilter — the scale path when the right
    side exceeds the broadcast envelope (SFilter decodes the whole right
    table and builds its STRtree in every actor; at 10^6+ geometries that
    init dominates). Both sides stream as Datasets tagged with their
    covering cells and are co-grouped by cell (``exchange.co_group``);
    each cell's kernel evaluates one predicate name of the full
    vocabulary with the broadcast plan's left-kind table
    (polygon_predicate_pairs, or lines_in_polygon_pairs_predicate for
    ``left_kind='line'``) and returns the cell's distinct matched left
    ids. A second co-group on the left id keeps the distinct matched ids
    (semi) or, with the left id universe tagged alongside, the ids never
    matched (anti), one kernel call per partition. Every group is an
    Arrow table. Bad
    names, modes and left kinds raise ValueError here, before anything
    executes.

    Pair completeness: any pair satisfying any predicate has overlapping
    bboxes and therefore shares at least one covering cell; multi-cell
    duplicates collapse in the distinct. Output is the ID-CENTRIC
    surface (distinct int64 left ids kept by the filter — semi: matched,
    anti: unmatched); callers re-join attributes by id, keeping the
    exchange narrow (same contract as clean_overlay_cell). An empty
    result (e.g. anti over an all-matching fixture) comes back as a
    Dataset that keeps its ``left_id`` column."""
    _check_predicate(predicate, mode, ("semi", "anti"))
    _check_left_kind(left_kind, ("polygon", "line"))
    lt = left_ds.map_batches(
        lambda b: _tag_generic(b, res, left_id, 0, left_kind),
        batch_format="pyarrow")
    rt = right_ds.map_batches(
        lambda b: _tag_generic(b, res, right_id, 1, "polygon"),
        batch_format="pyarrow")
    decode, kernel = _LEFT_KINDS[left_kind]

    def cell_kernel(g: pa.Table) -> pa.Table:
        is_left = g["side"].to_numpy() == 0
        li, ri = np.flatnonzero(is_left), np.flatnonzero(~is_left)
        if len(li) == 0 or len(ri) == 0:
            return pa.table({"gid": pa.array([], pa.int64())})
        rg = wkb.decode_polygons(g["geometry_wkb"].take(ri))
        tree = STRtree(kernels.polygon_bounds(rg))
        matched = _match_masks(decode, getattr(kernels, kernel),
                               [g["geometry_wkb"].take(li)], rg, tree,
                               predicate)[0]
        gid = g["gid"].to_numpy()[li]
        return pa.table({"gid": pa.array(np.unique(gid[matched]), pa.int64())})

    matched = exchange.co_group(lt.union(rt), "cell",
                                exchange.per_key("cell", cell_kernel))
    if mode == "semi":
        # distinct matched ids (multi-cell duplicates collapse here)
        def distinct_ids(b: pa.Table) -> pa.Table:
            return pa.table(
                {left_id: pa.array(np.unique(b["gid"].to_numpy()), pa.int64())})

        return exchange.co_group(matched, "gid", distinct_ids)

    # anti: the left id universe (flag 0) minus the matched ids (flag 1)
    def flagged(flag: int):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({
                "gid": b["gid" if flag else left_id].cast(pa.int64()),
                "flag": pa.array(np.full(b.num_rows, flag, np.int8), pa.int8()),
            })
        return fn

    universe = left_ds.select_columns([left_id]).map_batches(
        flagged(0), batch_format="pyarrow")

    def unmatched_ids(b: pa.Table) -> pa.Table:
        gid, flag = b["gid"].to_numpy(), b["flag"].to_numpy()
        return pa.table({left_id: pa.array(
            np.setdiff1d(gid[flag == 0], gid[flag == 1]), pa.int64())})

    return exchange.co_group(
        universe.union(matched.map_batches(flagged(1), batch_format="pyarrow")),
        "gid", unmatched_ids)
