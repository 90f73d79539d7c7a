"""The partitioned sink (``state.manifest.write_partitioned_resumable``) on
the sized co-group exchange: inputs with no rows, the plan it runs (one
Ray Data execution, no sort, one writer call per key, P reducer tasks),
the sizing row it records, and the flagship at Ray's minimum object
store."""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from ssb_sgis_ray import exchange
from ssb_sgis_ray.state import manifest as mf
from ssb_sgis_ray.state import skew
from test_ops_spatial import SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _table(n=600, n_keys=10):
    rng = np.random.default_rng(n_keys)
    return pa.table({
        "image_id": pa.array([f"img{i:05d}" for i in range(n)]),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
        "part_key": pa.array(rng.integers(0, n_keys, n), pa.int64()),
    })


def _files(out):
    """Every file under ``out`` with its modification time."""
    return {os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for d, _, fs in os.walk(out) for f in fs}


def _partition_files(out):
    return sorted(p for p in _files(out) if p.endswith("data.parquet"))


@pytest.mark.parametrize("case", ["filtered", "limit0"])
def test_sink_of_an_input_with_no_rows(ray_session, tmp_path, case):
    """A filter-emptied Dataset (0-row blocks with no columns) and
    ``limit(0)`` return no rows and write no partition file."""
    import ray.data as rd

    ds = rd.from_arrow(_table())
    ds = ds.filter(lambda r: False) if case == "filtered" else ds.limit(0)
    out = str(tmp_path / "sink")
    assert mf.write_partitioned_resumable(ds, out, "part_key", "image_id") == []
    assert _partition_files(out) == []
    assert mf.load_manifest(out) == {}


def test_sink_second_run_with_every_partition_done(ray_session, tmp_path):
    """With every partition done, a ``skip_by_key`` run drops every key
    before the exchange: it returns no rows and writes no file."""
    import ray.data as rd

    out = str(tmp_path / "sink")
    ds = rd.from_arrow(_table()).repartition(3)
    first = mf.write_partitioned_resumable(ds, out, "part_key", "image_id")
    assert len(first) == 10
    before = _files(out)
    assert mf.write_partitioned_resumable(ds, out, "part_key", "image_id",
                                          skip_by_key=True) == []
    after = _files(out)
    parts = [p for p in before if p.endswith("data.parquet")]
    assert len(parts) == 10 and {p: after[p] for p in parts} == {p: before[p] for p in parts}
    assert _partition_files(out) == sorted(parts)
    assert set(mf.verify_manifest(out).values()) == {"ok"}


def test_sink_plan_shape(ray_session, tmp_path, monkeypatch):
    """The sink runs no Ray Data execution beyond its input's
    materialize (none for this ``from_arrow`` input; reading the
    reducers' rows starts no executor either), no sort and no groupby;
    the writer is called once per partition key, and P reducer tasks
    run: one per session CPU when there are more keys than CPUs. Its
    rows equal the written files."""
    import ray
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    log = str(tmp_path / "calls")
    make = mf.make_partition_writer

    def counted_make(*a, **k):
        writer = make(*a, **k)

        def write(g: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write(f"{g['part_key'][0].as_py()} {g.num_rows}\n")
            return writer(g)
        return write

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
        raise AssertionError("the sink ran a Ray Data sort or groupby")

    t = _table()
    ds = rd.from_arrow([t.slice(i, 150) for i in range(0, 600, 150)])
    out = str(tmp_path / "sink")
    with monkeypatch.context() as m:
        m.setattr(mf, "make_partition_writer", counted_make)
        m.setattr(StreamingExecutor, "execute", counted_execute)
        m.setattr(exchange, "_reduce", CountedReduce())
        m.setattr(rd.Dataset, "sort", refuse)
        m.setattr(rd.Dataset, "groupby", refuse)
        rows = mf.write_partitioned_resumable(ds, out, "part_key", "image_id")
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(executions) == 0
    assert len(reducers) == cpus == 4
    with open(log) as f:
        calls = sorted(tuple(int(x) for x in line.split()) for line in f)
    keys, n = np.unique(t["part_key"].to_numpy(), return_counts=True)
    assert calls == list(zip(keys.tolist(), n.tolist()))  # once per key
    assert [r["partition"] for r in rows] == [str(k) for k in keys]
    assert [r["n_rows"] for r in rows] == n.tolist()
    assert set(mf.verify_manifest(out).values()) == {"ok"}


def test_sink_records_its_sizing_row(ray_session, tmp_path):
    """One plan row per sink run in ``<out_dir>/plan_metrics.jsonl``, from
    the key counts the sink takes: the rows, the keys, the partitions
    and the largest estimated partition of the balanced cut; string
    keys and a null key are partitions of their own."""
    import ray.data as rd

    t = _table(n=900, n_keys=7)
    out = str(tmp_path / "sink")
    mf.write_partitioned_resumable(rd.from_arrow(t), out, "part_key", "image_id",
                                   stage="tiles")
    keys, n = np.unique(t["part_key"].to_numpy(), return_counts=True)
    codes = np.arange(len(keys))
    bounds = exchange.balanced_boundaries(codes, n, 4)
    (plan,) = skew.load_plans(out)
    assert plan == {"op": "tiles", "est_rows": 900, "keys": 7,
                    "partitions": len(bounds) + 1,
                    "max_partition_rows_est": int(exchange.partition_loads(
                        codes, n, bounds).max())}
    assert plan["partitions"] == 4 and plan["max_partition_rows_est"] < 900 // 2

    names = pa.table({"image_id": ["a", "b", "c", "d", "e"],
                      "part": pa.array(["x", None, "y", "x", None])})
    out = str(tmp_path / "names")
    rows = mf.write_partitioned_resumable(rd.from_arrow(names), out, "part", "image_id")
    assert sorted((r["partition"], r["n_rows"]) for r in rows) == [
        ("None", 2), ("x", 2), ("y", 1)]
    (plan,) = skew.load_plans(out)
    assert (plan["est_rows"], plan["keys"], plan["partitions"]) == (5, 3, 3)


_SPILL = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=2, object_store_memory=78_643_200,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ssb_sgis_ray.pipelines import flagship as fl
from ssb_sgis_ray.state import manifest as mf
sf, src, out = sys.argv[1:4]
res = fl.flagship(sf, out, source_path=src)
ray.shutdown()
print(json.dumps({"res": res, "verify": mf.verify_manifest(out)}))
"""


def test_flagship_at_a_minimum_object_store(ray_session, tmp_path):
    """The flagship over its materialized 1000-image table (500 documents
    x 2 copies, the benchmark's shape) in a session whose object store is
    Ray's minimum (75 MiB): it completes, every partition verifies
    ``ok``, and it writes the rows of a run in the test session."""
    from ssb_sgis_ray.pipelines import flagship as fl

    src = str(tmp_path / "images")
    fl.materialize_images(SF, src, copies=2)
    want = fl.flagship(SF, str(tmp_path / "want"), source_path=src)
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SPILL, SF, src, str(tmp_path / "got")], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet and workers too
        proc.communicate()
        pytest.fail("the flagship did not finish in 300 s at the minimum object store")
    assert proc.returncode == 0, stderr[-3000:]
    got = json.loads(stdout.strip().splitlines()[-1])
    assert got["res"]["rows_written"] == want["rows_written"] > 0
    assert got["res"]["partitions_written"] == want["partitions_written"] > 25
    assert len(got["verify"]) == want["partitions_written"]
    assert set(got["verify"].values()) == {"ok"}
