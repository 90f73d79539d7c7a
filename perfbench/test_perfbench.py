"""Self-tests of the benchmark (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import gen, trace
from perfbench.workloads import Flagship, PolyPredicates, SkewJoin, frame_digest

SMALL = gen.Sizes(documents=50, lineitem=400, part=60, orders=300)


def _digests(d: str) -> dict[str, str]:
    return {fn: hashlib.sha256(open(os.path.join(d, fn), "rb").read()).hexdigest()
            for fn in sorted(os.listdir(d))}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    info_a = gen.generate(a, 7, SMALL)
    info_b = gen.generate(b, 7, SMALL)
    assert info_a == info_b
    assert _digests(a) == _digests(b)
    assert sorted(os.listdir(a)) == [f"{t}.parquet" for t in
                                     ("documents", "lineitem", "nation", "orders", "part")]


def test_other_seed_changes_ids_not_counts(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    info_a = gen.generate(a, 7, SMALL)
    info_b = gen.generate(b, 8, SMALL)
    assert {k: v for k, v in info_a.items() if k.startswith("rows.")} == \
        {k: v for k, v in info_b.items() if k.startswith("rows.")}
    for table, col in (("documents", "doc_id"), ("part", "p_partkey"),
                       ("orders", "o_orderkey"), ("lineitem", "l_orderkey")):
        ids_a = pq.read_table(f"{a}/{table}.parquet")[col].to_pylist()
        ids_b = pq.read_table(f"{b}/{table}.parquet")[col].to_pylist()
        assert ids_a != ids_b, table


def test_ids_unique_and_schemas_match_test_tables(tmp_path):
    d = str(tmp_path)
    info = gen.generate(d, 3, SMALL)
    li = pq.read_table(f"{d}/lineitem.parquet")
    l_key = [o * 10 + n for o, n in zip(li["l_orderkey"].to_pylist(),
                                         li["l_linenumber"].to_pylist())]
    assert len(set(l_key)) == len(l_key)
    for table, col in (("documents", "doc_id"), ("part", "p_partkey"),
                       ("orders", "o_orderkey")):
        ids = pq.read_table(f"{d}/{table}.parquet")[col].to_pylist()
        assert len(set(ids)) == len(ids)
    assert li.schema.field("l_linenumber").type == pa.int32()
    assert li.schema.field("l_shipdate").type == pa.timestamp("us")
    assert pq.read_table(f"{d}/nation.parquet").schema.field("n_nationkey").type == pa.int32()
    assert 0.4 < info["lineitem.hot_share"] < 0.6


def test_median():
    assert trace.median([3, 1, 2]) == 2
    assert trace.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        trace.median([])


def _span(sid, parent, c0, c1, pid=1):
    return {"id": sid, "parent": parent, "pid": pid, "c0": c0, "c1": c1}


def test_child_covering_parent_leaves_zero_self_time():
    spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 0.0, 2.0)]
    assert trace.self_times(spans) == [0.0, 2.0]


def test_self_time_subtracts_union_of_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 5.0),   # overlaps span 2: union is [1, 5]
        _span(4, 2, 1.0, 2.0),   # grandchild: counted against span 2 only
        _span(5, 1, 0.0, 9.0, pid=2),  # same id space, other process
    ]
    assert trace.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 1.0, 9.0])


def test_covered_length_clips_to_interval():
    assert trace.covered_length([(-1.0, 1.0), (0.5, 3.0)], 0.0, 2.0) == 2.0
    assert trace.covered_length([], 0.0, 2.0) == 0.0


def test_skew_join_verification_catches_a_dropped_pair():
    df = pd.DataFrame({"l_key": [11, 12, 13], "n_nationkey": [0, 3, 3]})
    expected = frame_digest(df)
    w = SkewJoin(name="skew_join", sizes=gen.Sizes(), input_rows=3)
    assert w.verify(df.iloc[::-1].reset_index(drop=True), expected, "")[0] is None
    assert w.verify(df.iloc[:2], expected, "")[0] is not None
    assert w.verify(df.assign(n_nationkey=[0, 3, 4]), expected, "")[0] is not None


def test_poly_verification_catches_a_wrong_count():
    df = pd.DataFrame({"predicate": ["touches", "overlaps", "within", "covers"],
                       "n_kept": [5, 9, 2, 1]})
    expected = frame_digest(df)
    w = PolyPredicates(name="p", sizes=gen.Sizes(), input_rows=4)
    assert w.verify(df, expected, "")[0] is None
    assert w.verify(df.assign(n_kept=[5, 9, 2, 0]), expected, "")[0] is not None


def test_flagship_verification_catches_bad_sink(tmp_path):
    from ssb_sgis_ray.state.manifest import append_manifest

    out = str(tmp_path)
    pdir = os.path.join(out, "part=0")
    os.makedirs(pdir)
    path = os.path.join(pdir, "data.parquet")
    pq.write_table(pa.table({"image_id": ["a", "b", "c"]}), path)
    append_manifest(out, [{"stage": "s", "partition": "0", "n_rows": 3,
                           "n_bytes": os.path.getsize(path), "input_hash": "",
                           "wall_s": 0.0, "path": path, "resumed": False}])
    w = Flagship(name="f", copies=1, sizes=gen.Sizes(), input_rows=3)
    summary = {"partitions_written": 1, "rows_written": 3}
    assert w.verify(summary, 3, out)[0] is None
    assert w.verify(summary, 4, out)[0] is not None  # one row short
    pq.write_table(pa.table({"image_id": ["a", "b"]}), path)  # a row lost on disk
    assert "manifest audit" in w.verify(summary, 3, out)[0]


def test_benchmark_json_lists_every_layer_metric():
    from perfbench.layers import PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, *_ in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: u for n, u, *_ in PER_LAYER}


def test_benchmark_json_workloads_exist():
    from perfbench.workloads import WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_memory_probe_sees_the_driver_peak():
    import numpy as np

    from perfbench.run import MemoryProbe, _proc_status

    probe = MemoryProbe()
    probe.start()
    rss_mb = int(_proc_status(os.getpid())["VmRSS"].split()[0]) / 1024.0
    block = np.ones(64 * 1024 * 1024 // 8)  # 64 MB, touched
    probe.sample()
    del block
    assert probe.peak_mb >= rss_mb + 60
