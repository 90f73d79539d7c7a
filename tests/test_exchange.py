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


@pytest.mark.parametrize("case", ["hash", "given", "hot_hash", "hot_given",
                                  "two_columns", "empty"])
def test_co_group_block_kernel_holds_every_row_of_its_keys(ray_session, case):
    """Each kernel call gets a key-sorted block with every row of its
    keys, and each key reaches exactly one call: with a hash cut and with
    given boundaries, with one key holding 80% of the rows, and with a
    two-column key whose first column has a hub value on half the rows.
    A typed 0-row input gives a typed 0-row answer."""
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

    if case == "empty":
        out = exchange.co_group(rd.from_arrow(t.slice(0, 0)), key, kernel)
        assert out.count() == 0
        assert out.schema().names == ["k", "n", "s", "call"]
        return
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
from ssb_sgis_ray.ops import dedup, network, overlay, spatial
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
def chains():
    x = np.arange(0, 4000, 4.0)
    return pa.table({"seg_id": pa.array(np.arange(1, len(x) + 1), pa.int64()),
                     "geometry_wkb": wkb.encode_segments_arrow(
                         x, x % 40, x + 4, x % 40 + 4)})
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
        salt_threshold=500, n_salts=8), "l_key", "n_nationkey"),
    "sfilter_semi": rows(spatial.sfilter_cell(
        parts(sf), orders_ds(sf), left_id="p_partkey", right_id="o_orderkey",
        mode="semi", predicate="touches", res=10), "p_partkey"),
    "sfilter_anti": rows(spatial.sfilter_cell(
        parts(sf), orders_ds(sf), left_id="p_partkey", right_id="o_orderkey",
        mode="anti", predicate="touches", res=10), "p_partkey"),
    "line_merge": rows(network.line_merge(rd.from_arrow(chains()), "seg_id", 0.5),
                       "merge_label", "n_points"),
}
ray.shutdown()
print(json.dumps(out))
"""


def test_distributed_exchanges_in_one_cpu_session(ray_session, tmp_path, monkeypatch):
    """In a 1-CPU session the distributed pair distinct (a co-group on
    (id_a, id_b)), the salted cell join, the partitioned sink (task
    exchanges with one sized partition), the cell overlay (a co-group on
    cell), the overlay union legs (task stages and a co-group on the
    right row), the difference's survivor pair stage (a task stage),
    the cell sfilter (semi and anti) and the line merge finish and equal
    the 4-CPU session's answers. The minhash candidate pairs are not
    here: their ``MinHashStage`` actor pool alone never finishes in a
    1-CPU session."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb
    from ssb_sgis_ray.ops import dedup, network, overlay, spatial
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

    def chains():  # zigzag segments that merge into chains of ten
        x = np.arange(0, 4000, 4.0)
        return pa.table({"seg_id": pa.array(np.arange(1, len(x) + 1), pa.int64()),
                         "geometry_wkb": wkb.encode_segments_arrow(
                             x, x % 40, x + 4, x % 40 + 4)})

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
            "l_key", "n_nationkey"),
        "sfilter_semi": rows(spatial.sfilter_cell(
            parts(SF), orders_ds(SF), left_id="p_partkey", right_id="o_orderkey",
            mode="semi", predicate="touches", res=10), "p_partkey"),
        "sfilter_anti": rows(spatial.sfilter_cell(
            parts(SF), orders_ds(SF), left_id="p_partkey", right_id="o_orderkey",
            mode="anti", predicate="touches", res=10), "p_partkey"),
        "line_merge": rows(network.line_merge(rd.from_arrow(chains()), "seg_id", 0.5),
                           "merge_label", "n_points"),
    }
    assert want["distinct"] == sorted(set(zip(lo.tolist(), hi.tolist())))
    assert len(want["salted"]) > 1000
    assert len(want["overlay_cell"]) > 1000
    assert len(want["survivor_pairs"]) > 100
    assert want["sfilter_semi"] and want["sfilter_anti"]
    assert len(want["sfilter_semi"]) + len(want["sfilter_anti"]) == parts(SF).count()
    assert {n for _, n in want["line_merge"]} == {11}
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


def test_no_dataset_sort():
    """The engine co-groups on plain tasks: no ``.sort(`` call in
    ``ssb_sgis_ray/`` other than ``np.sort``."""
    calls = []
    for d, _, files in os.walk(os.path.join(ROOT, "ssb_sgis_ray")):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(d, f)
            for n in ast.walk(ast.parse(open(path).read())):
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "sort"
                        and not (isinstance(n.func.value, ast.Name)
                                 and n.func.value.id == "np")):
                    calls.append(f"{os.path.relpath(path, ROOT)}:{n.lineno}")
    assert not calls


def test_hash_co_group_plan_shape(ray_session, monkeypatch):
    """A co-group without boundaries runs one Ray Data execution (its
    lazy input's), no sort and no groupby, and one reducer task per
    partition: ``n_partitions`` of the input, one per session CPU here.
    Its answer is materialized, and consuming it starts no executor:
    not ``to_pandas``, not ``to_arrow_refs``, not a co-group over it;
    nor do the typed 0-row and column-less answers."""
    import ray
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    rng = np.random.default_rng(3)
    blocks = [pa.table({"k": pa.array(rng.integers(0, 500, 400), pa.int64())})
              for _ in range(3)]
    ds = rd.from_arrow(blocks).map_batches(lambda b: b, batch_format="pyarrow")

    def kernel(b: pa.Table) -> pa.Table:
        starts, ends = exchange.runs(b["k"].to_numpy())
        return pa.table({"k": b["k"].take(starts), "n": pa.array(ends - starts, pa.int64())})

    executions, reducers = [], []
    execute = StreamingExecutor.execute

    def counted_execute(self, *a, **k):
        executions.append(1)
        return execute(self, *a, **k)

    reduce = exchange._reduce

    class CountedReduce:
        def remote(self, *a):
            reducers.append(1)
            return reduce.remote(*a)

    def refuse(*a, **k):
        raise AssertionError("co_group ran a Ray Data sort or groupby")

    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted_execute)
        m.setattr(exchange, "_reduce", CountedReduce())
        m.setattr(rd.Dataset, "sort", refuse)
        m.setattr(rd.Dataset, "groupby", refuse)
        out = exchange.co_group(ds, "k", kernel)
        assert len(executions) == 1
        n_reducers = len(reducers)
        df = out.to_pandas()
        parts = ray.get(out.to_arrow_refs())
        again = exchange.co_group(out, "k", lambda b: b).to_pandas()
        assert len(executions) == 1
        empty = exchange.co_group(rd.from_arrow(blocks[0].slice(0, 0)).materialize(),
                                  "k", kernel)
        no_cols = exchange.co_group(rd.from_arrow(blocks[0]).filter(lambda r: False),
                                    "k", kernel)
        before = len(executions)
        assert len(empty.to_pandas()) == 0 and empty.schema().names == ["k", "n"]
        assert len(no_cols.to_pandas()) == 0 and no_cols.count() == 0
        assert len(executions) == before
    assert isinstance(out, rd.dataset.MaterializedDataset)
    assert len(df) == len(again) == sum(p.num_rows for p in parts)
    assert n_reducers == len(parts) == int(ray.cluster_resources()["CPU"])
    got = pa.concat_tables(parts).sort_by("k")
    k, n = np.unique(np.concatenate([b["k"].to_numpy() for b in blocks]), return_counts=True)
    assert got["k"].to_pylist() == k.tolist()  # each key in one call
    assert got["n"].to_pylist() == n.tolist()


def test_co_group_answer_from_reducer_metadata(ray_session, monkeypatch):
    """The answer is built from the metadata each reducer returns with its
    block: no ``from_arrow_refs`` and so no metadata task runs, and the
    answer's schema, row count and blocks equal what ``from_arrow_refs``
    makes of the same blocks. The empty answers keep their shape too."""
    import ray
    import ray.data as rd

    rng = np.random.default_rng(5)
    blocks = [pa.table({"k": pa.array(rng.integers(0, 200, 300), pa.int64())})
              for _ in range(3)]

    def kernel(b: pa.Table) -> pa.Table:
        starts, ends = exchange.runs(b["k"].to_numpy())
        return pa.table({"k": b["k"].take(starts), "n": pa.array(ends - starts, pa.int64())})

    def refuse(*a, **k):
        raise AssertionError("co_group called from_arrow_refs")

    with monkeypatch.context() as m:
        m.setattr(rd, "from_arrow_refs", refuse)
        out = exchange.co_group(rd.from_arrow(blocks), "k", kernel)
        sized = exchange.co_group(rd.from_arrow(blocks), "k", kernel, [50, 120])
        empty = exchange.co_group(rd.from_arrow(blocks[0].slice(0, 0)), "k", kernel)
    for got in (out, sized, empty):
        refs = got.to_arrow_refs()
        ref_ds = rd.from_arrow_refs(refs)
        assert got.schema() == ref_ds.schema()
        assert got.count() == ref_ds.count()
        assert ray.get(refs) == ray.get(ref_ds.to_arrow_refs())
    assert out.count() == len(np.unique(np.concatenate([b["k"].to_numpy() for b in blocks])))
    assert empty.count() == 0 and empty.schema().names == ["k", "n"]


def test_bare_from_arrow_inputs_start_no_executor(ray_session, monkeypatch):
    """A bare ``from_arrow`` Dataset is a ``MaterializedDataset`` whose
    plan has not run: ``co_group`` and ``key_counts`` materialize it
    (no executor) instead of iterating it (one executor each), and the
    driver-merge branch of the dedup pair distinct returns an answer
    whose reading starts none either."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from ssb_sgis_ray.ops import dedup

    t = pa.table({"k": pa.array(np.arange(1000) % 37, pa.int64())})
    pairs = pa.table({"id_a": pa.array([1, 1, 2], pa.int64()),
                      "id_b": pa.array([5, 5, 7], pa.int64())})
    executions = []
    execute = StreamingExecutor.execute

    def counted_execute(self, *a, **k):
        executions.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(dedup, "SMALL_VERIFY_PAIRS", 10)
    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted_execute)
        grouped = exchange.co_group(rd.from_arrow(t), "k", lambda b: b)
        keys, counts = exchange.key_counts(rd.from_arrow(t), "k")
        merged = dedup._merge_distinct(rd.from_arrow(pairs).materialize())
        got = merged.to_pandas()
        assert not executions
    assert grouped.count() == 1000
    assert keys.to_pylist() == list(range(37))
    assert counts.tolist() == np.bincount(np.arange(1000) % 37).tolist()
    assert sorted(zip(got["id_a"], got["id_b"])) == [(1, 5), (2, 7)]


def test_co_group_answer_joins_with_an_empty_partition(ray_session):
    """An answer whose first partition is empty still joins: Ray 2.49's
    ``Dataset.join`` takes a side's schema from its first block only,
    and no block of a non-empty co_group answer has 0 rows."""
    import ray.data as rd

    t = pa.table({"k": pa.array([3, 5, 5, 9], pa.int64())})

    def kernel(b: pa.Table) -> pa.Table:
        starts, ends = exchange.runs(b["k"].to_numpy())
        return pa.table({"k": b["k"].take(starts), "n": pa.array(ends - starts, pa.int64())})

    for boundaries in ([-1, 4], None):  # partition 0 empty; hash cut of 3 keys
        out = exchange.co_group(rd.from_arrow(t), "k", kernel, boundaries)
        other = rd.from_arrow(pa.table({"id": pa.array(range(12), pa.int64())}))
        got = other.join(out, join_type="inner", num_partitions=4, on=("id",),
                         right_on=("k",)).to_pandas()
        assert sorted(zip(got["id"], got["n"])) == [(3, 1), (5, 2), (9, 1)]


def test_hash_co_group_key_types(ray_session):
    """The hash cut takes any integer key (uint64 reinterpreted) and
    raises TypeError naming a column of another type."""
    import ray.data as rd

    big = np.array([0, 2**63, 2**64 - 1, 5, 2**63], np.uint64)
    t = pa.table({"u": pa.array(big, pa.uint64()), "i8": pa.array([1, -1, 1, 3, -1], pa.int8()),
                  "f": pa.array([0.5] * 5)})

    def count(key):
        def kernel(b: pa.Table) -> pa.Table:
            starts, ends = exchange.runs(*(b[c].to_numpy() for c in key))
            return b.select(key).take(starts).append_column(
                "n", pa.array(ends - starts, pa.int64()))
        return kernel

    for key in (["u"], ["i8"], ["u", "i8"]):
        got = exchange.co_group(rd.from_arrow([t.slice(0, 2), t.slice(2)]), key,
                                count(key)).to_pandas()
        want = t.select(key).to_pandas().value_counts().rename("n").reset_index()
        pd.testing.assert_frame_equal(got.sort_values(key).reset_index(drop=True),
                                      want.sort_values(key).reset_index(drop=True),
                                      check_dtype=False)
    with pytest.raises(TypeError, match="'f'"):
        exchange.co_group(rd.from_arrow(t), "f", count(["f"])).to_pandas()


def _zero_rows(**types) -> pa.Table:
    return pa.schema(list(types.items())).empty_table()


@pytest.mark.parametrize("case", ["subtract_partners", "right_diff", "union_areas",
                                  "video_set_collapse"])
def test_kernels_accept_zero_rows(case):
    """A co-group partition that no row reached calls its kernel on a
    typed 0-row table; these kernels answer it with a typed 0-row table."""
    from ssb_sgis_ray.geo import wkb
    from ssb_sgis_ray.ops import dedup, overlay

    right = pa.table({"rid": pa.array([7], pa.int64()),
                      "geometry_wkb": wkb.encode_boxes_arrow(np.array([[0, 0, 1, 1]], float))})
    kernel, g, names = {
        "subtract_partners": (
            overlay._subtract_partners,
            _zero_rows(left_id=pa.int64(), left_geom=pa.binary(), right_geom=pa.binary()),
            ["__lid", "diff_geom", "has_diff"]),
        "right_diff": (
            overlay._right_diff_kernel(right),
            _zero_rows(right_row=pa.int64(), left_geom=pa.binary()),
            ["rid", "geometry_wkb"]),
        "union_areas": (
            overlay._cell_union_areas_kernel("union", 7),
            _zero_rows(cell=pa.int64(), side=pa.int8(), geometry_wkb=pa.binary()),
            ["leg", "area_i"]),
        "video_set_collapse": (
            dedup._video_set_collapse,
            _zero_rows(doc_id=pa.int64(), fh=pa.int64(), nfu=pa.int64(), sig=pa.int64()),
            ["kind", "doc_id", "rep", "fh", "nfu"]),
    }[case]
    out = kernel(g)
    assert out.num_rows == 0 and out.column_names == names
