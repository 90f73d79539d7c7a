"""The co-group exchange (``ssb_sgis_ray.exchange``): block kernel calls
hold whole keys, the distributed exchanges finish in a 1-CPU session,
and the super-key groupby idiom stays out of the modules that dropped
it."""

import ast
import json
import os
import signal
import subprocess
import sys
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ssb_sgis_ray import exchange
from test_ops_spatial import SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("case", ["sampled", "given", "hot_sampled", "hot_given",
                                  "two_columns"])
def test_co_group_block_kernel_holds_every_row_of_its_keys(ray_session, case):
    """Each kernel call gets a key-sorted block with every row of its
    keys, and each key reaches exactly one call: with sampled and given
    boundaries, with one key holding 80% of the rows, and with a
    two-column key whose first column has a hub value on half the rows."""
    import ray.data as rd

    rng = np.random.default_rng(len(case))
    n = 6000
    cols = {"k": rng.integers(-50, 200, n)}
    key, boundaries = "k", None
    if case.startswith("hot"):
        cols["k"][rng.random(n) < 0.8] = 7
    if case.endswith("given"):
        boundaries = [0, 7, 8, 120]
    if case == "two_columns":
        a = rng.integers(0, 40, n)
        a[: n // 2] = 2**40
        cols = {"a": a, "b": rng.integers(0, 60, n)}
        key = ["a", "b"]
    names = [key] if isinstance(key, str) else key
    t = pa.table({**{c: pa.array(v, pa.int64()) for c, v in cols.items()},
                  "v": pa.array(np.arange(n), pa.int64())})
    blocks = [t.slice(i, 1000) for i in range(0, n, 1000)]

    def kernel(b: pa.Table) -> pa.Table:
        keys = [b[c].to_numpy() for c in names]
        assert (np.lexsort(keys[::-1]) == np.arange(b.num_rows)).all()  # key-sorted
        starts, ends = exchange.runs(*keys)
        call = uuid.uuid4().int >> 66
        return pa.table({
            **{c: b[c].take(starts) for c in names},
            "n": pa.array(ends - starts, pa.int64()),
            "s": pa.array(np.add.reduceat(b["v"].to_numpy(), starts), pa.int64()),
            "call": pa.array(np.full(len(starts), call), pa.int64()),
        })

    out = exchange.co_group(rd.from_arrow(blocks), key, kernel, boundaries).to_pandas()
    got = out.set_index(names).sort_index()
    assert not got.index.duplicated().any()  # each key in exactly one call
    want = (pd.DataFrame({**cols, "v": np.arange(n)}).groupby(names)
            .agg(n=("v", "size"), s=("v", "sum")))
    pd.testing.assert_frame_equal(got[["n", "s"]], want, check_dtype=False)
    assert out["call"].nunique() > 1


_ONE_CPU = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import numpy as np, pyarrow as pa, ray.data as rd
from ssb_sgis_ray.geo import wkb
from ssb_sgis_ray.ops import dedup, overlay, spatial
from ssb_sgis_ray.queries import lineitems, nations_ds, orders_ds, parts
from ssb_sgis_ray.state import manifest as mf
sf, pairs_path, sink_dir = sys.argv[1], sys.argv[2], sys.argv[3]
dedup.SMALL_VERIFY_PAIRS = 0
def rows(ds, *cols):
    df = ds.to_pandas()
    return sorted(zip(*(df[c].tolist() for c in cols)))
def boxes(specs, key):
    return pa.table({key: pa.array(range(len(specs)), pa.int64()),
                     "geometry_wkb": wkb.encode_boxes_arrow(np.array(specs, float))})
def legs(ds):
    return sorted(([r["leg"], r["lid"], r["rid"], r["geometry_wkb"].hex()]
                   for r in ds.take_all()), key=json.dumps)
out = {
    "overlay_cell": rows(overlay.overlay_pairs_cell(
        parts(sf), orders_ds(sf), "p_partkey", "o_orderkey", res=10, emit="area"),
        "left_id", "right_id", "piece_area"),
    "union_legs": legs(overlay.overlay_union_legs(
        rd.from_arrow(boxes([(0, 0, 10, 10), (20, 0, 30, 10)], "lid")),
        boxes([(5, 0, 25, 10)], "rid"))),
    "survivor_pairs": rows(overlay._broadcast_survivor_pairs(
        parts(sf).limit(50).materialize(), orders_ds(sf), "p_partkey", "o_orderkey"),
        "left_id", "right_id"),
    "sink": sorted((r["partition"], r["n_rows"], r["input_hash"])
                   for r in mf.write_partitioned_resumable(
                       rd.read_parquet(pairs_path).repartition(4), sink_dir, "id_b", "id_a")),
    "distinct": rows(dedup.distinct_pairs(rd.read_parquet(pairs_path).repartition(4)),
                     "id_a", "id_b"),
    "salted": rows(spatial.sjoin_cell_partitioned(
        lineitems(sf), nations_ds(sf), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8), "left_id", "right_id"),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_distributed_exchanges_in_one_cpu_session(ray_session, tmp_path, monkeypatch):
    """In a 1-CPU session the distributed pair distinct (a sampled
    co-group on (id_a, id_b)), the salted cell join, the partitioned
    sink (task exchanges with one sized partition), the cell overlay (a
    sampled co-group on cell), the overlay union legs (task stages and a
    co-group on the right row) and the difference's survivor pair stage
    (a task stage) finish and equal the 4-CPU session's answers."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb
    from ssb_sgis_ray.ops import dedup, overlay, spatial
    from ssb_sgis_ray.queries import lineitems, nations_ds, orders_ds, parts
    from ssb_sgis_ray.state import manifest as mf

    rng = np.random.default_rng(7)
    a = rng.integers(0, 300, 30_000)
    b = rng.integers(0, 300, 30_000)
    a[:8000] = 2**40  # a hub id beyond 31 bits
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    path = str(tmp_path / "pairs.parquet")
    pq.write_table(pa.table({"id_a": lo, "id_b": hi}), path)

    def rows(ds, *cols):
        df = ds.to_pandas()
        return sorted(zip(*(df[c].tolist() for c in cols)))

    def boxes(specs, key):
        return pa.table({key: pa.array(range(len(specs)), pa.int64()),
                         "geometry_wkb": wkb.encode_boxes_arrow(np.array(specs, float))})

    def legs(ds):
        return sorted(([r["leg"], r["lid"], r["rid"], r["geometry_wkb"].hex()]
                       for r in ds.take_all()), key=json.dumps)

    monkeypatch.setattr(dedup, "SMALL_VERIFY_PAIRS", 0)
    want = {
        "overlay_cell": rows(overlay.overlay_pairs_cell(
            parts(SF), orders_ds(SF), "p_partkey", "o_orderkey", res=10, emit="area"),
            "left_id", "right_id", "piece_area"),
        "union_legs": legs(overlay.overlay_union_legs(
            rd.from_arrow(boxes([(0, 0, 10, 10), (20, 0, 30, 10)], "lid")),
            boxes([(5, 0, 25, 10)], "rid"))),
        "survivor_pairs": rows(overlay._broadcast_survivor_pairs(
            parts(SF).limit(50).materialize(), orders_ds(SF), "p_partkey", "o_orderkey"),
            "left_id", "right_id"),
        "sink": sorted((r["partition"], r["n_rows"], r["input_hash"])
                       for r in mf.write_partitioned_resumable(
                           rd.read_parquet(path).repartition(4), str(tmp_path / "sink"),
                           "id_b", "id_a")),
        "distinct": rows(dedup.distinct_pairs(rd.read_parquet(path).repartition(4)),
                         "id_a", "id_b"),
        "salted": rows(spatial.sjoin_cell_partitioned(
            lineitems(SF), nations_ds(SF), res=9, left_id="l_key",
            right_id="n_nationkey", salt_threshold=500, n_salts=8),
            "left_id", "right_id"),
    }
    assert want["distinct"] == sorted(set(zip(lo.tolist(), hi.tolist())))
    assert len(want["salted"]) > 1000
    assert len(want["overlay_cell"]) > 1000
    assert len(want["survivor_pairs"]) > 100
    assert [leg[:3] for leg in want["union_legs"]] == [
        ["inter", 0, 0], ["inter", 1, 0], ["left", 0, None], ["left", 1, None],
        ["right", None, 0]]
    assert {p: n for p, n, _ in want["sink"]} == {
        str(k): int(n) for k, n in zip(*np.unique(hi, return_counts=True))}

    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU, SF, path, str(tmp_path / "sink_1cpu")],
        cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet and workers too
        proc.communicate()
        pytest.fail("the 1-CPU exchanges did not finish in 300 s")
    assert proc.returncode == 0, stderr[-3000:]
    got = json.loads(stdout.strip().splitlines()[-1])
    assert got == {k: [list(p) for p in v] for k, v in want.items()}


@pytest.mark.parametrize("path", ["ssb_sgis_ray/ops/dedup.py", "ssb_sgis_ray/ops/network.py",
                                  "ssb_sgis_ray/ops/overlay.py",
                                  "ssb_sgis_ray/state/manifest.py"])
def test_no_super_key_groupby(path):
    """These modules exchange through ``co_group`` on their real keys:
    no ``map_groups`` call and no coarse ``super``/``sg``/``cg`` key
    column."""
    src = open(os.path.join(ROOT, path)).read()
    assert ".map_groups(" not in src
    coarse = {n.value for n in ast.walk(ast.parse(src))
              if isinstance(n, ast.Constant) and n.value in ("super", "sg", "cg")}
    assert not coarse
