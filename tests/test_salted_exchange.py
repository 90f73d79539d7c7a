"""The salted cell join's exchange: salt evenness, histogram-sized
partition boundaries, the co-group step, the per-cell kernel against a
brute-force reference, tagging the left once, and pair equality across
plans."""

import json
import os
import signal
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ssb_sgis_ray import exchange, synth
from ssb_sgis_ray.geo import cells, wkb
from ssb_sgis_ray.geo.strtree import NODE_CAP
from ssb_sgis_ray.ops import spatial
from ssb_sgis_ray.queries import lineitems, nations_ds
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
    s = spatial._splitmix64(ids) % np.uint64(8)
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
    b = spatial._partition_boundaries(keys, w, n_parts)
    assert b == sorted(set(b)) and set(b) <= set(np.asarray(keys).tolist())
    assert len(b) + 1 <= max(n_parts, 1)
    return b, spatial._partition_loads(keys, w, b)


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
    assert spatial._partition_boundaries(keys, w, 1) == []
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
    assert spatial._partition_boundaries(keys[:1], w[:1], 4) == []
    # empty histogram
    assert spatial._partition_boundaries(np.empty(0, np.int64), np.empty(0), 4) == []
    assert spatial._partition_loads(np.empty(0, np.int64), np.empty(0), []).tolist() == [0.0]


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

    def kernel(g: pa.Table) -> pa.Table:
        k = g["k"].to_numpy()
        assert (k == k[0]).all()
        return pa.table({"k": pa.array([k[0]], pa.int64()),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([int(g["v"].to_numpy().sum())], pa.int64())})

    for boundaries in (None, [], [10], [0, 5, 20, 39], [-100, 1000]):
        out = exchange.co_group(rd.from_arrow(blocks), "k", exchange.per_key("k", kernel),
                                boundaries).to_pandas()
        assert sorted(out["k"]) == sorted(want)  # one call per key
        for k, n, s in zip(out["k"], out["n"], out["s"]):
            assert (n, s) == (len(want[k]), sum(want[k]))


def test_co_group_emits_one_table_per_block():
    """The whole-block step calls the kernel once per key and yields one
    table per block holding every key's output; an empty block yields
    nothing."""
    calls = []

    def kernel(g: pa.Table) -> pa.Table:
        calls.append(g.num_rows)
        return pa.table({"k": pa.array([g["k"][0].as_py()], pa.int64()),
                         "n": pa.array([g.num_rows], pa.int64())})

    keys = np.repeat(np.array([-4, 0, 3, 9, 2**40], np.int64), [3, 1, 5, 2, 4])
    block = pa.concat_tables([pa.table({"k": keys[:6]}), pa.table({"k": keys[6:]})])
    per_key = exchange.per_key("k", kernel)
    (out,) = list(exchange._whole(block, "k", per_key))
    assert calls == [3, 1, 5, 2, 4]
    assert out.to_pydict() == {"k": [-4, 0, 3, 9, 2**40], "n": [3, 1, 5, 2, 4]}
    assert list(exchange._whole(block.slice(0, 0), "k", per_key)) == []


def test_per_key_halves_runs_the_head_keys_in_a_nested_task(ray_session):
    """The sized exchange's step makes the same kernel calls as
    ``_whole`` and yields one table in key order; the keys before the
    middle row's key edge run in another process, the rest in the caller.
    A one-key block and an empty block stay in the caller / yield nothing."""
    def kernel(g: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array([g["k"][0].as_py()], pa.int64()),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "pid": pa.array([os.getpid()], pa.int64())})

    keys = np.repeat(np.array([-4, 0, 3, 9, 2**40], np.int64), [3, 1, 5, 2, 4])
    block = pa.table({"k": keys})
    per_key = exchange.per_key("k", kernel)
    (out,) = list(exchange._halves(block, "k", per_key))
    (ref,) = list(exchange._whole(block, "k", per_key))
    assert out.select(["k", "n"]).equals(ref.select(["k", "n"]))
    # key edges at rows 3, 4, 9, 11; row 9 is nearest to 15 // 2 = 7, so
    # the head is keys -4, 0, 3
    pid = out["pid"].to_pylist()
    assert pid[3:] == [os.getpid()] * 2 and os.getpid() not in pid[:3]

    (one,) = list(exchange._halves(block.slice(4, 5), "k", per_key))
    assert one.to_pydict() == {"k": [3], "n": [5], "pid": [os.getpid()]}
    assert list(exchange._halves(block.slice(0, 0), "k", per_key)) == []


def test_salted_plan_tags_its_left_once(ray_session, tmp_path):
    """The salted plan runs a left-side map once per left block: the
    histogram and the join read the same tagged blocks. Its pairs equal
    the unsalted and broadcast plans'."""
    import ray.data as rd

    table = pa.Table.from_pandas(lineitems(SF).to_pandas(), preserve_index=False)
    blocks = [table.slice(i, 2000) for i in range(0, table.num_rows, 2000)]
    assert len(blocks) == 3
    log = str(tmp_path / "calls")

    def counted(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{b.num_rows}\n")
        return b

    def pairs(ds, left="left_id", right="right_id"):
        df = ds.to_pandas()
        return sorted(zip(df[left].tolist(), df[right].tolist()))

    left = rd.from_arrow(blocks).map_batches(counted, batch_format="pyarrow",
                                             batch_size=None)
    salted = pairs(spatial.sjoin_cell_partitioned(
        left, nations_ds(SF), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8))
    with open(log) as f:
        assert sorted(int(x) for x in f) == [2000, 2000, 2000]

    plain = pairs(spatial.sjoin_cell_partitioned(
        rd.from_arrow(blocks), nations_ds(SF), res=9, left_id="l_key",
        right_id="n_nationkey"))
    nat = synth.add_nation_diamonds(
        pq.read_table(f"{SF}/nation.parquet", columns=["n_nationkey"]))
    bcast = pairs(spatial.sjoin_pairs(rd.from_arrow(blocks), nat,
                                      right_cols=["n_nationkey"]),
                  "l_key", "n_nationkey")
    assert len(bcast) > 1000
    assert salted == plain == bcast


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
        lineitems(sf), nations_ds(sf), res=9, left_id="l_key", right_id="n_nationkey")),
    "salted": pairs(spatial.sjoin_cell_partitioned(
        lineitems(sf), nations_ds(sf), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8, skew_report_dir=report)),
    "plan": skew.load_plans(report),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_salted_plan_in_one_cpu_session(tmp_path):
    """A 1-CPU session sizes the exchange to one partition (the sort's
    single range below int64 max) and the salted plan still matches the
    unsalted and broadcast plans (``test_salted_join_equals_unsalted``
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


_ONE_CPU_NO_HINT = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow.parquet as pq
from ssb_sgis_ray import synth
from ssb_sgis_ray.ops import spatial
from ssb_sgis_ray.queries import lineitems
sf = sys.argv[1]
def pairs(ds):
    df = ds.to_pandas()
    return sorted(zip(df["l_key"].tolist(), df["n_nationkey"].tolist()))
nat = synth.add_nation_diamonds(pq.read_table(f"{sf}/nation.parquet", columns=["n_nationkey"]))
rows = pq.read_metadata(f"{sf}/lineitem.parquet").num_rows
out = {
    "no_hint": pairs(spatial.sjoin_pairs(lineitems(sf), nat, right_cols=["n_nationkey"],
                                         batch_size=1024)),
    "hint": pairs(spatial.sjoin_pairs(lineitems(sf), nat, right_cols=["n_nationkey"],
                                      nrows=rows)),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_broadcast_join_without_row_hint_in_one_cpu_session():
    """Without ``nrows`` a broadcast join used to start a (1, 8) actor
    pool, which in a 1-CPU session holds the only CPU its read tasks
    wait for, and never finished. ``pool_cap`` is 0 there and the join
    runs as tasks, here over several 1024-row batches; its pairs equal
    the hinted join's."""
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
