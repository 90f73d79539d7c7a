"""The salted cell join's exchange: salt evenness, histogram-sized
partition boundaries, the co-group step and its reducer tasks, the
per-cell kernel against a brute-force reference, tagging each side once,
the recorded sizing and skew rows, a spill at Ray's minimum object
store, and pair equality across plans."""

import json
import os
import signal
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ssb_sgis_ray import exchange, synth
from ssb_sgis_ray.geo import cells, wkb
from ssb_sgis_ray.geo.strtree import NODE_CAP
from ssb_sgis_ray.ops import spatial
from ssb_sgis_ray.queries import lineitems, nations_ds, orders_tbl, parts
from test_ops_spatial import SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# salts
# ---------------------------------------------------------------------------


def test_salt_splits_lineitem_hot_cells_evenly():
    """Composite lineitem ids (l_orderkey*10 + l_linenumber) in each hot
    cell land within 5% of an even split over the 8 sub-keys. The cells
    hold 55k-180k rows, so a fair hash stays well inside 5%; the former
    multiplicative hash put +14% to +17% on one sub-key."""
    sf01 = os.path.join(os.path.dirname(SF), "sf0.1")
    t = synth.add_lineitem_points(pq.read_table(
        f"{sf01}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]))
    lid = (t["l_orderkey"].to_numpy() * 10 + t["l_linenumber"].to_numpy()).astype(np.int64)
    cell = cells.xy_to_cell(t["px"].to_numpy().astype(np.float64),
                            t["py"].to_numpy().astype(np.float64), 9)
    u, n = np.unique(cell, return_counts=True)
    hot = u[n > 50_000]
    assert len(hot) >= 2
    n_salts = 8
    batch = pa.table({"cell": pa.array(cell, pa.int64()),
                      "left_id": pa.array(lid, pa.int64())})
    key = spatial._salt_left(batch, hot, n_salts)["cell"].to_numpy()
    cold = ~np.isin(cell, hot)
    assert (key[cold] == cell[cold] * n_salts).all()
    for h in hot:
        sub = key[cell == h] - cell[cell == h] * n_salts
        counts = np.bincount(sub, minlength=n_salts)
        assert len(counts) == n_salts
        even = counts.sum() / n_salts
        assert np.abs(counts / even - 1).max() < 0.05, (h, counts)


def test_salt_int64_extremes_and_membership():
    ids = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 7],
                   np.int64)
    s = exchange.splitmix64(ids) % np.uint64(8)
    assert ((s >= 0) & (s < 8)).all()
    hot = np.array([-5, 3, 2**40], np.int64)
    cell = np.array([-5, -4, 3, 4, 2**40, 2**41, np.iinfo(np.int64).max], np.int64)
    assert spatial._is_hot(cell, hot).tolist() == np.isin(cell, hot).tolist()
    assert not spatial._is_hot(cell, hot[:0]).any()


def test_salt_right_replicates_hot_rows_per_sub_key():
    batch = pa.table({"cell": pa.array([3, 5, 3, 9], pa.int64()),
                      "right_id": pa.array([10, 11, 12, 13], pa.int64())})
    out = spatial._salt_right(batch, np.array([3, 9], np.int64), 4)
    got = sorted(zip(out["cell"].to_pylist(), out["right_id"].to_pylist()))
    want = sorted([(3 * 4 + s, 10) for s in range(4)] + [(5 * 4, 11)]
                  + [(3 * 4 + s, 12) for s in range(4)]
                  + [(9 * 4 + s, 13) for s in range(4)])
    assert got == want


def test_shuffle_keys_match_the_salted_rows():
    """The planned key list is exactly the keys the salting maps emit,
    sorted, weighted by the left rows each receives on average."""
    cell = np.array([2, 5, 7], np.int64)
    n = np.array([10, 80, 3], np.int64)
    keys, w = spatial._shuffle_keys(cell, n, np.array([5], np.int64), 8)
    assert keys.tolist() == [16] + [40 + s for s in range(8)] + [56]
    assert w.tolist() == [10.0] + [10.0] * 8 + [3.0]
    keys, w = spatial._shuffle_keys(cell, n, np.empty(0, np.int64), 8)
    assert keys.tolist() == cell.tolist() and w.tolist() == [10.0, 80.0, 3.0]


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------


def _loads(keys, w, n_parts):
    b = exchange.balanced_boundaries(keys, w, n_parts)
    assert b == sorted(set(b)) and set(b) <= set(np.asarray(keys).tolist())
    assert len(b) + 1 <= max(n_parts, 1)
    return b, exchange.partition_loads(keys, w, b)


def _plan_histogram(seed: int, n_cells: int = 120, hot: int = 3, n_salts: int = 8):
    """A salted plan's key histogram: small cold cells plus hot cells
    holding half the rows, split over n_salts sub-keys."""
    rng = np.random.default_rng(seed)
    cell = np.sort(rng.choice(2**20, n_cells, replace=False)).astype(np.int64)
    n = rng.integers(50, 800, n_cells)
    hot_idx = rng.choice(n_cells, hot, replace=False)
    n[hot_idx] = n.sum() // hot
    return spatial._shuffle_keys(cell, n, np.sort(cell[hot_idx]), n_salts)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n_parts", [2, 3, 4, 8])
def test_boundaries_balance_plan_histograms(seed, n_parts):
    """On salted plan histograms no partition exceeds
    max(largest key weight, 1.25 x mean)."""
    keys, w = _plan_histogram(seed)
    b, loads = _loads(keys, w, n_parts)
    assert len(b) + 1 == n_parts
    assert loads.sum() == pytest.approx(w.sum())
    assert loads.max() <= max(w.max(), 1.25 * w.sum() / n_parts)


@pytest.mark.parametrize("seed", range(20))
def test_boundaries_never_exceed_mean_plus_largest_key(seed):
    """Any histogram: each cut sits within half the largest key weight of
    its quantile. (No contiguous cut meets max(largest, 1.25 x mean) for
    every histogram: weights [1, 10, 1] in 2 parts give 11.)"""
    rng = np.random.default_rng(100 + seed)
    n_keys = int(rng.integers(2, 300))
    keys = np.sort(rng.choice(2**40, n_keys, replace=False)).astype(np.int64) - 2**39
    w = rng.pareto(1.2, n_keys) * rng.integers(0, 2, n_keys)
    n_parts = int(rng.integers(2, 40))
    _, loads = _loads(keys, w, n_parts)
    assert loads.max() <= w.sum() / n_parts + w.max() + 1e-9


def test_boundaries_edge_cases():
    keys = np.array([-7, 0, 4, 9, 30], np.int64)
    w = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
    # one partition: no boundary (the co-group step handles P = 1)
    assert exchange.balanced_boundaries(keys, w, 1) == []
    # more partitions than keys: every key its own range
    b, loads = _loads(keys, w, 12)
    assert b == [0, 4, 9, 30] and loads.tolist() == w.tolist()
    # one key holding every row
    lone = np.array([0.0, 0.0, 100.0, 0.0, 0.0])
    _, loads = _loads(keys, lone, 3)
    assert loads.max() == 100.0 and loads.sum() == 100.0
    # a heavy last key still gets a range of its own: its cut is nearer
    # the quantile than the end of the key list
    b, loads = _loads(keys, np.array([1.0, 1.0, 1.0, 1.0, 100.0]), 2)
    assert b == [30] and loads.tolist() == [4.0, 100.0]
    assert exchange.balanced_boundaries(keys[:1], w[:1], 4) == []
    # empty histogram
    assert exchange.balanced_boundaries(np.empty(0, np.int64), np.empty(0), 4) == []
    assert exchange.partition_loads(np.empty(0, np.int64), np.empty(0), []).tolist() == [0.0]


# ---------------------------------------------------------------------------
# co-group, and pair equality in a 1-CPU session
# ---------------------------------------------------------------------------


def test_co_group_calls_kernel_once_per_key(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    blocks = [pa.table({"k": pa.array(rng.integers(-3, 40, 300), pa.int64()),
                        "v": pa.array(np.arange(300) + 300 * i, pa.int64())})
              for i in range(4)]
    want = {}
    for b in blocks:
        for k, v in zip(b["k"].to_pylist(), b["v"].to_pylist()):
            want.setdefault(k, []).append(v)

    def kernel(g: pa.Table) -> pa.Table:  # an empty partition calls it on 0 rows
        k = g["k"].to_numpy()
        assert (k == k[:1]).all()
        one = slice(0, min(g.num_rows, 1))
        return pa.table({"k": pa.array(k[one], pa.int64()),
                         "n": pa.array([g.num_rows][one], pa.int64()),
                         "s": pa.array([int(g["v"].to_numpy().sum())][one], pa.int64())})

    for boundaries in (None, [], [10], [0, 5, 20, 39], [-100, 1000]):
        out = exchange.co_group(rd.from_arrow(blocks), "k", exchange.per_key("k", kernel),
                                boundaries).to_pandas()
        assert sorted(out["k"]) == sorted(want)  # one call per key
        for k, n, s in zip(out["k"], out["n"], out["s"]):
            assert (n, s) == (len(want[k]), sum(want[k]))


def test_co_group_emits_one_table_per_block():
    """A ``per_key`` block kernel calls the kernel once per key and
    returns one table holding every key's output; on a 0-row block it
    calls the kernel once, on that block, and returns its typed answer."""
    calls = []

    def kernel(g: pa.Table) -> pa.Table:
        calls.append(g.num_rows)
        return pa.table({"k": g["k"].slice(0, 1),
                         "n": pa.array([g.num_rows][:g.num_rows], pa.int64())})

    keys = np.repeat(np.array([-4, 0, 3, 9, 2**40], np.int64), [3, 1, 5, 2, 4])
    block = pa.concat_tables([pa.table({"k": keys[:6]}), pa.table({"k": keys[6:]})])
    per_key = exchange.per_key("k", kernel)
    out = per_key(block)
    assert calls == [3, 1, 5, 2, 4]
    assert out.to_pydict() == {"k": [-4, 0, 3, 9, 2**40], "n": [3, 1, 5, 2, 4]}
    calls.clear()
    empty = per_key(block.slice(0, 0))
    assert calls == [0]
    assert empty.num_rows == 0 and empty.schema == out.schema


def test_sized_co_group_runs_one_reducer_task_per_partition(ray_session):
    """Given boundaries, the exchange returns one block per non-empty
    partition in key order: partition i holds the keys in [b[i-1], b[i]),
    and each key reaches exactly one kernel call. A partition no row
    reached (all boundaries below or above every key) calls the kernel
    once on a typed 0-row slice, and its 0-row answer leaves no block;
    no boundaries give one partition. A ``prepare`` step rewrites the
    key inside the exchange."""
    import ray
    import ray.data as rd

    rng = np.random.default_rng(11)
    blocks = [pa.table({"k": pa.array(rng.integers(-3, 40, 300), pa.int64()),
                        "v": pa.array(np.arange(300) + 300 * i, pa.int64())})
              for i in range(4)]
    k = np.concatenate([b["k"].to_numpy() for b in blocks])

    def kernel(b: pa.Table) -> pa.Table:
        keys = b["k"].to_numpy()
        assert (np.diff(keys) >= 0).all()  # key-sorted
        starts, ends = exchange.runs(keys)
        return pa.table({"k": b["k"].take(starts),
                         "n": pa.array(ends - starts, pa.int64()),
                         "call": pa.array(np.full(len(starts), os.urandom(4).hex()))})

    for boundaries, empty in (([0, 5, 20, 39], []), ([-100], [0]),
                              ([1000, 2000], [1, 2]), ([], [])):
        parts = ray.get(exchange.co_group(rd.from_arrow(blocks), "k", kernel,
                                          boundaries).to_arrow_refs())
        full = [i for i in range(len(boundaries) + 1) if i not in empty]
        assert len(parts) == len(full)
        edges = [-np.inf, *boundaries, np.inf]
        for i, t in zip(full, parts):
            assert len(set(t["call"].to_pylist())) == 1  # one call per partition
            assert all(edges[i] <= x < edges[i + 1] for x in t["k"].to_pylist())
        got = pa.concat_tables(parts)
        want_k, want_n = np.unique(k, return_counts=True)
        assert got["k"].to_pylist() == want_k.tolist()  # each key once, in order
        assert got["n"].to_pylist() == want_n.tolist()

    def shift(b: pa.Table) -> pa.Table:
        return b.set_column(0, "k", pc.add(b["k"], 100))

    parts = ray.get(exchange.co_group(rd.from_arrow(blocks), "k", kernel, [120],
                                      prepare=shift).to_arrow_refs())
    assert [t["k"].to_pylist() for t in parts] == [
        [x + 100 for x in range(-3, 20)], [x + 100 for x in range(20, 40)]]

    # the reducer of an empty partition: the kernel's typed answer to 0 rows
    out, meta = ray.get(exchange._reduce.remote("k", kernel, blocks[0].slice(0, 0)))
    assert meta.num_rows == 0 and out.num_rows == 0 and out.column_names == ["k", "n", "call"]
    assert meta.schema.names == ["k", "n", "call"]


def test_salted_plan_tags_its_left_once(ray_session, tmp_path, monkeypatch):
    """The salted plan runs a left-side map once per left block and a
    right-side map once per right block: the histogram and the exchange
    read the same tagged blocks. Its one Ray Data execution is the
    tagging; no sort runs, and it returns a materialized Dataset. Its
    pairs equal the unsalted and broadcast plans'."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data.dataset import MaterializedDataset

    table = pa.Table.from_pandas(lineitems(SF).to_pandas(), preserve_index=False)
    blocks = [table.slice(i, 2000) for i in range(0, table.num_rows, 2000)]
    assert len(blocks) == 3
    nat = synth.add_nation_diamonds(
        pq.read_table(f"{SF}/nation.parquet", columns=["n_nationkey"]))

    def counted(log):
        def fn(b: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write(f"{b.num_rows}\n")
            return b
        return fn

    def calls(log):
        with open(log) as f:
            return sorted(int(x) for x in f)

    def pairs(ds, left="left_id", right="right_id"):
        df = ds.to_pandas()
        return sorted(zip(df[left].tolist(), df[right].tolist()))

    left_log, right_log = str(tmp_path / "left"), str(tmp_path / "right")
    left = rd.from_arrow(blocks).map_batches(counted(left_log), batch_format="pyarrow",
                                             batch_size=None)
    right = rd.from_arrow([nat.slice(0, 13), nat.slice(13)]).map_batches(
        counted(right_log), batch_format="pyarrow", batch_size=None)
    executions = []
    execute = StreamingExecutor.execute

    def counted_execute(self, *a, **k):
        executions.append(1)
        return execute(self, *a, **k)

    def no_sort(*a, **k):
        raise AssertionError("the salted plan ran a Ray Data sort")

    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted_execute)
        m.setattr(rd.Dataset, "sort", no_sort)
        out = spatial.sjoin_cell_partitioned(
            left, right, res=9, left_id="l_key", right_id="n_nationkey",
            salt_threshold=500, n_salts=8)
        assert isinstance(out, MaterializedDataset) and len(executions) == 1
    salted = pairs(out, "l_key", "n_nationkey")
    assert calls(left_log) == [2000, 2000, 2000]
    assert calls(right_log) == [12, 13]

    plain = pairs(spatial.sjoin_cell_partitioned(
        rd.from_arrow(blocks), nations_ds(SF), res=9, left_id="l_key",
        right_id="n_nationkey"), "l_key", "n_nationkey")
    bcast = pairs(spatial.sjoin_pairs(rd.from_arrow(blocks), nat,
                                      right_cols=["n_nationkey"]),
                  "l_key", "n_nationkey")
    assert len(bcast) > 1000
    assert salted == plain == bcast


def test_salted_pairs_query_runs_one_execution(ray_session, monkeypatch):
    """``q_pip_pairs_salted`` through ``to_pandas`` runs one Ray Data
    execution, the tagging: the reducers name the pairs after the query's
    ids, so no rename map runs over the answer, and reading the answer
    starts no executor."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from ssb_sgis_ray.queries import q_pip_pairs_salted

    executions = []
    execute = StreamingExecutor.execute

    def counted_execute(self, *a, **k):
        executions.append(1)
        return execute(self, *a, **k)

    def no_map(*a, **k):
        raise AssertionError("a map_batches ran over the join's answer")

    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted_execute)
        out = q_pip_pairs_salted(SF)
        m.setattr(rd.Dataset, "map_batches", no_map)
        df = out.to_pandas()
    assert len(executions) == 1
    assert list(df.columns) == ["l_key", "n_nationkey"] and len(df) > 1000


def test_salted_plan_telemetry_on_the_skew_fixture(ray_session, tmp_path):
    """The sizing row and the post-salting skew summary the salted plan
    records: the histogram counts left rows only (``exchange.key_counts``
    with ``side=0``), the summary counts every salted row of both sides. Both
    equal a numpy evaluation over the collected sides and the values the
    plan recorded when it salted in Ray Data maps (4-CPU session)."""
    import ray.data as rd

    from ssb_sgis_ray.state import skew

    report = str(tmp_path / "report")
    spatial.sjoin_cell_partitioned(
        lineitems(SF), nations_ds(SF), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8, skew_report_dir=report)
    (plan,) = skew.load_plans(report)
    (summary,) = skew.load_cell_skew(report)

    lt = spatial._tag_points_with_cells(pa.Table.from_pandas(
        lineitems(SF).to_pandas(), preserve_index=False), 9, "l_key", "px", "py")
    rt = spatial._tag_polys_with_cells(pa.Table.from_pandas(
        nations_ds(SF).to_pandas(), preserve_index=False), 9, "n_nationkey")
    cell, n = np.unique(lt["cell"].to_numpy(), return_counts=True)
    hot = cell[n > 500]
    keys, weights = spatial._shuffle_keys(cell, n, hot, 8)
    bounds = exchange.balanced_boundaries(keys, weights, 4)
    salted = np.concatenate([spatial._salt_left(lt, hot, 8)["cell"].to_numpy(),
                             spatial._salt_right(rt, hot, 8)["cell"].to_numpy()])
    want = skew.cell_skew_summary(rd.from_arrow(pa.table({"cell": salted})),
                                  stage="pip_pairs_cell(res=9, salt_threshold=500)")

    assert {k: plan[k] for k in ("est_rows", "hot_cells", "partitions",
                                 "max_partition_rows_est")} == {
        "est_rows": len(lt), "hot_cells": len(hot), "partitions": len(bounds) + 1,
        "max_partition_rows_est": int(np.ceil(
            exchange.partition_loads(keys, weights, bounds).max()))}
    assert summary == want
    assert plan == {"op": "pip_pairs_cell(res=9, salt_threshold=500)", "est_rows": 6000,
                    "hot_cells": 3, "n_salts": 8, "partitions": 4,
                    "max_partition_rows_est": 1599}
    assert {k: summary[k] for k in ("n_cells", "rows", "max", "median", "p90", "p99")} == {
        "n_cells": 125, "rows": 6291, "max": 257, "median": 34, "p90": 81, "p99": 248}


# ---------------------------------------------------------------------------
# the per-cell kernel against a brute-force reference
# ---------------------------------------------------------------------------


def _on_segment(x, y, a, b) -> bool:
    (x1, y1), (x2, y2) = a, b
    return ((x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)
            and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2))


def _covers(rings, x, y) -> bool:
    """Boundary-inclusive point-in-polygon, one edge at a time: on an edge
    of any ring, or inside by even-odd ray crossings over all rings."""
    inside = False
    for ring in rings:
        for a, b in zip(ring[:-1].tolist(), ring[1:].tolist()):
            if _on_segment(x, y, a, b):
                return True
            (x1, y1), (x2, y2) = a, b
            if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                inside = not inside
    return inside


def _ring(*xy) -> np.ndarray:
    return np.array(list(xy) + [xy[0]], np.float64)


def _diamond(cx, cy, r) -> list[np.ndarray]:
    return [_ring((cx + r, cy), (cx, cy + r), (cx - r, cy), (cx, cy - r))]


def _cell_group(points, polys, seed: int) -> pa.Table:
    """One exchange group in the tagged row layout: point rows (left_id,
    x, y) and polygon rows (right_id, rings) in shuffled order, as two
    chunks."""
    n_pt, n_pl = len(points), len(polys)
    lid, px, py = np.array(points, np.int64).reshape(n_pt, 3).T
    rid = np.array([r for r, _ in polys], np.int64)
    t = pa.table({
        "cell": pa.array(np.zeros(n_pt + n_pl, np.int64)),
        "side": pa.array(np.r_[np.zeros(n_pt), np.ones(n_pl)].astype(np.int8)),
        "left_id": pa.array(np.r_[lid, np.full(n_pl, -1)], pa.int64()),
        "px": pa.array(np.r_[px, np.zeros(n_pl, np.int64)], pa.int64()),
        "py": pa.array(np.r_[py, np.zeros(n_pl, np.int64)], pa.int64()),
        "right_id": pa.array(np.r_[np.full(n_pt, -1), rid], pa.int64()),
        "geometry_wkb": pa.array([None] * n_pt + [wkb.encode_polygon(g) for _, g in polys],
                                 pa.binary()),
    })
    t = t.take(np.random.default_rng(seed).permutation(t.num_rows))
    return pa.concat_tables([t.slice(0, t.num_rows // 2), t.slice(t.num_rows // 2)])


def _grid_points(x0, x1, y0, y1):
    """Every integer point of the box: on edges and vertices of the
    integer-vertex fixtures, inside and outside them."""
    xs, ys = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    return [(1000 + i, int(x), int(y)) for i, (x, y) in enumerate(zip(xs.ravel(), ys.ravel()))]


def _assert_kernel_matches_reference(points, polys, monkeypatch, trees: int):
    built = []

    class CountingTree(spatial.STRtree):
        def __init__(self, boxes):
            built.append(len(boxes))
            super().__init__(boxes)

    monkeypatch.setattr(spatial, "STRtree", CountingTree)
    out = spatial._per_cell_pip(_cell_group(points, polys, seed=len(polys)))
    assert out.schema == spatial._PAIRS_SCHEMA
    want = Counter((lid, rid) for lid, x, y in points for rid, rings in polys
                   if _covers(rings, x, y))
    assert Counter(zip(out["left_id"].to_pylist(), out["right_id"].to_pylist())) == want
    assert len(built) == trees
    return want


_HOLED = [_ring((0, 0), (40, 0), (40, 40), (0, 40)),
          _ring((10, 10), (10, 30), (30, 30), (30, 10))]


def test_per_cell_pip_one_node_of_polygons(monkeypatch):
    """At most NODE_CAP polygons: one dense bbox compare, no tree. Edges
    and vertices match, the hole does not (its boundary does), the empty
    polygon never matches."""
    polys = [(1, _diamond(20, 20, 10)), (2, _diamond(30, 20, 10)), (3, _HOLED),
             (4, []), (5, [_ring((50, 0), (60, 0), (50, 10))])]
    want = _assert_kernel_matches_reference(
        _grid_points(-2, 62, -2, 42), polys, monkeypatch, trees=0)
    by_poly = Counter(rid for _, rid in want)
    assert 4 not in by_poly and min(by_poly.values()) > 20
    assert (1000 + 2 * 65 + 2, 3) in want  # vertex (0, 0) of the holed square
    hole_centre = 1000 + 22 * 65 + 22
    assert (hole_centre, 3) not in want and (hole_centre, 1) in want
    # a full node still takes the dense compare
    node = [(10 + i, _diamond(4 * i, 0, 3)) for i in range(NODE_CAP)]
    _assert_kernel_matches_reference(_grid_points(-4, 64, -4, 4), node, monkeypatch, trees=0)


def test_per_cell_pip_twenty_overlapping_diamonds(monkeypatch):
    """More than NODE_CAP polygons in one cell go through the STRtree;
    the pair multiset is the reference's either way."""
    polys = [(100 + i, _diamond(10 + 3 * i, 20 + 2 * (i % 4), 6 + i % 5))
             for i in range(20)] + [(200, []), (201, _HOLED)]
    want = _assert_kernel_matches_reference(
        _grid_points(-2, 80, 8, 42), polys, monkeypatch, trees=1)
    assert len({rid for _, rid in want}) == 21


def test_per_cell_pip_only_an_empty_polygon():
    """Points beside nothing but an empty polygon (NaN bounds) give typed
    empty int64 pairs, as one-sided groups do
    (``test_ops_spatial.test_per_cell_pip_arrow_groups``)."""
    group = _cell_group([(1, 5, 5), (2, 6, 6)], [(8, [])], seed=0)
    assert spatial._per_cell_pip(group).equals(spatial._PAIRS_SCHEMA.empty_table())


_ONE_CPU = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow.parquet as pq
from ssb_sgis_ray import synth
from ssb_sgis_ray.ops import spatial
from ssb_sgis_ray.queries import lineitems, nations_ds
from ssb_sgis_ray.state import skew
sf, report = sys.argv[1], sys.argv[2]
def pairs(ds, l="left_id", r="right_id"):
    df = ds.to_pandas()
    return sorted(zip(df[l].tolist(), df[r].tolist()))
nat = synth.add_nation_diamonds(pq.read_table(f"{sf}/nation.parquet", columns=["n_nationkey"]))
# with its row count the broadcast join runs as tasks: its actor pool
# would hold the only CPU its own read tasks wait for
rows = pq.read_metadata(f"{sf}/lineitem.parquet").num_rows
out = {
    "bcast": pairs(spatial.sjoin_pairs(lineitems(sf), nat, right_cols=["n_nationkey"],
                                       nrows=rows), "l_key", "n_nationkey"),
    "plain": pairs(spatial.sjoin_cell_partitioned(
        lineitems(sf), nations_ds(sf), res=9, left_id="l_key", right_id="n_nationkey"),
        "l_key", "n_nationkey"),
    "salted": pairs(spatial.sjoin_cell_partitioned(
        lineitems(sf), nations_ds(sf), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8, skew_report_dir=report), "l_key", "n_nationkey"),
    "plan": skew.load_plans(report),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_salted_plan_in_one_cpu_session(tmp_path):
    """A 1-CPU session sizes the exchange to one partition (one reducer
    task) and the salted plan still matches the unsalted and broadcast
    plans (``test_salted_join_equals_unsalted``
    checks the same in the 4-CPU test session)."""
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run(
        [sys.executable, "-c", _ONE_CPU, SF, str(tmp_path / "report")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-3000:]
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert len(out["bcast"]) > 1000
    assert out["salted"] == out["plain"] == out["bcast"]
    (plan,) = out["plan"]
    assert plan["partitions"] == 1 and plan["max_partition_rows_est"] == 6000


_SPILL = r"""
import glob, json, re, sys
import numpy as np
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=2, object_store_memory=78_643_200,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from ssb_sgis_ray import synth
from ssb_sgis_ray.ops import spatial
n = int(sys.argv[1])
def points(k):
    # even ids in a 2 km hotspot (a few res-9 cells), odd ids over 40 km;
    # coordinates = 2 (mod 4), as in synth
    hot, j = k % 2 == 0, k // 2
    px = np.where(hot, 20000 + 4 * ((j * 2239) % 500), 4 * ((j * 2239) % 10000)) + 2
    py = np.where(hot, 20000 + 4 * (((j // 500) * 3571) % 500),
                  4 * (((j // 10000) * 3571) % 10000)) + 2
    return px, py
def left_block(b):
    k = b["id"].to_numpy()
    px, py = points(k)
    return pa.table({"left_id": k, "px": px, "py": py})
# diamonds: centres = 0 (mod 4), radii = 1 (mod 4), so no point is on an edge
g = np.arange(5) * 8000 + 4000
sx = np.r_[np.repeat(g, 5), 20800, 21200, 20400]
sy = np.r_[np.tile(g, 5), 20800, 21200, 21600]
r = np.r_[np.full(25, 1201), 801, 401, 1601]
right = rd.from_arrow(pa.table({"right_id": np.arange(len(r)),
                                "geometry_wkb": pa.array(synth.diamond_wkb(sx, sy, r),
                                                         pa.binary())}))
left = rd.range(n, override_num_blocks=16).map_batches(left_block, batch_format="pyarrow")
out = spatial.sjoin_cell_partitioned(left, right, res=9, salt_threshold=50_000, n_salts=8)
got = pa.concat_tables([t for t in ray.get(out.to_arrow_refs()) if t.num_rows])
got = np.sort(got["left_id"].to_numpy() * 64 + got["right_id"].to_numpy())
# the raylet logs each spill ("Spilled 86 MiB, 35 objects, ...")
logs = glob.glob(ray._private.worker._global_node.get_session_dir_path() + "/logs/raylet*.out")
spilled = max([int(m) for f in logs for m in re.findall(r"Spilled (\d+) MiB", open(f).read())],
              default=0)
k = np.arange(n)
px, py = points(k)
want = np.sort(np.concatenate([k[np.abs(px - x) + np.abs(py - y) <= d] * 64 + i
                               for i, (x, y, d) in enumerate(zip(sx, sy, r))]))
ray.shutdown()
print(json.dumps({"pairs": len(got), "equal": bool(np.array_equal(got, want)),
                  "spilled_mib": spilled}))
"""


def test_salted_plan_spills_past_a_minimum_object_store():
    """The salted join over 2M skewed points built on the workers, in a
    session whose object store is Ray's minimum (75 MiB): the tagged
    blocks (~45 B a row, ~90 MB) and their cut slices do not fit, Ray
    spills them, and the join finishes with the pairs of a numpy
    evaluation of the diamond predicate |px - sx| + |py - sy| <= r."""
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SPILL, str(2_000_000)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=420)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet and workers too
        proc.communicate()
        pytest.fail("the salted join did not finish in 420 s at the minimum object store")
    assert proc.returncode == 0, stderr[-3000:]
    out = json.loads(stdout.strip().splitlines()[-1])
    assert out["pairs"] > 100_000 and out["equal"]
    assert out["spilled_mib"] > 0


_ONE_CPU_NO_HINT = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow.parquet as pq
from ssb_sgis_ray import synth
from ssb_sgis_ray.ops import spatial
from ssb_sgis_ray.queries import lineitems, orders_tbl, parts
sf = sys.argv[1]
def pairs(ds):
    df = ds.to_pandas()
    return sorted(zip(df["l_key"].tolist(), df["n_nationkey"].tolist()))
nat = synth.add_nation_diamonds(pq.read_table(f"{sf}/nation.parquet", columns=["n_nationkey"]))
rows = pq.read_metadata(f"{sf}/lineitem.parquet").num_rows
preds = ["touches", "overlaps", "within", "covers"]
split = spatial.sfilter(parts(sf), orders_tbl(sf), mode="split", left_kind="polygon",
                        predicate=preds).to_pandas()
out = {
    "no_hint": pairs(spatial.sjoin_pairs(lineitems(sf), nat, right_cols=["n_nationkey"],
                                         batch_size=1024)),
    "hint": pairs(spatial.sjoin_pairs(lineitems(sf), nat, right_cols=["n_nationkey"],
                                      nrows=rows)),
    "split": sorted(zip(split["p_partkey"].tolist(),
                        *(split[f"matched_{p}"].tolist() for p in preds))),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_broadcast_join_without_row_hint_in_one_cpu_session(ray_session):
    """Without ``nrows`` a broadcast join used to start a (1, 8) actor
    pool, which in a 1-CPU session holds the only CPU its read tasks
    wait for, and never finished. ``pool_cap`` is 0 there and the join
    runs as tasks, here over several 1024-row batches; its pairs equal
    the hinted join's. Each broadcast call also runs its index build as
    a task of its own: the joins and a polygon-left split sfilter
    finish there, and the split equals this session's."""
    preds = ["touches", "overlaps", "within", "covers"]
    split = spatial.sfilter(parts(SF), orders_tbl(SF), mode="split", left_kind="polygon",
                            predicate=preds).to_pandas()
    want_split = sorted(zip(split["p_partkey"].tolist(),
                            *(split[f"matched_{p}"].tolist() for p in preds)))
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_NO_HINT, SF], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet and workers too
        proc.communicate()
        pytest.fail("the unhinted broadcast join did not finish in 240 s")
    assert proc.returncode == 0, stderr[-3000:]
    out = json.loads(stdout.strip().splitlines()[-1])
    assert len(out["hint"]) > 1000
    assert out["no_hint"] == out["hint"]
    assert out["split"] == [list(r) for r in want_split]
    assert any(any(r[1:]) for r in want_split)
