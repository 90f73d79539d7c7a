"""Seeded input generator for the benchmark.

Writes ``documents`` / ``nation`` / ``lineitem`` / ``part`` / ``orders``
parquet files with the column names and Arrow types of the TPC-H-style
test tables, so the engine's registry helpers (``queries.lineitems``,
``queries.parts``, ``queries.orders_tbl``) and ``pipelines.flagship`` read
nothing but generated files.

The seed chooses WHICH keys exist; geometry stays a pure function of the
key (``synth.py``), so the mod-4 parity rules that keep float kernels and
integer SQL tie-free still hold for every seed. Keys are sampled without
replacement, so ids are unique (``l_key = l_orderkey*10 + l_linenumber``
included).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_WORDS = np.array(
    "the fast key order sort table scan merge part window small hash join "
    "batch stream spark dup agg line value row column data query filter "
    "customer vector slow big group a".split()
)


@dataclass(frozen=True)
class Sizes:
    """Row counts of the generated tables (nation is always 25)."""

    documents: int = 0
    lineitem: int = 0
    part: int = 0
    orders: int = 0


def _distinct(rng: np.random.Generator, n: int, space: int) -> np.ndarray:
    """``n`` distinct int64 keys drawn from ``[0, space)``, sorted."""
    if n > space:
        raise ValueError(f"cannot draw {n} distinct keys from {space}")
    return np.sort(rng.choice(space, size=n, replace=False)).astype(np.int64)


def _pick(rng: np.random.Generator, values, n: int) -> pa.Array:
    return pa.array(np.asarray(values)[rng.integers(0, len(values), n)], pa.string())


def _dates(rng: np.random.Generator, n: int) -> pa.Array:
    days = rng.integers(0, 365 * 8, n).astype("timedelta64[D]")
    return pa.array(np.datetime64("1992-01-01", "us") + days, pa.timestamp("us"))


def _money(rng: np.random.Generator, n: int, lo: float, hi: float) -> pa.Array:
    return pa.array(np.round(rng.uniform(lo, hi, n), 2), pa.float64())


def documents(rng: np.random.Generator, n: int) -> pa.Table:
    doc_id = _distinct(rng, n, 20 * n)
    n_tok = rng.integers(8, 40, n)
    words = _WORDS[rng.integers(0, len(_WORDS), int(n_tok.sum()))]
    cuts = np.cumsum(n_tok)[:-1]
    text = [" ".join(w) for w in np.split(words, cuts)]
    return pa.table({
        "doc_id": pa.array(doc_id, pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": _pick(rng, ["en", "es", "de", "zh", "fr"], n),
        "source": _pick(rng, [f"src{i}" for i in range(8)], n),
        "n_chars": pa.array([len(t) for t in text], pa.int64()),
    })


def nation() -> pa.Table:
    k = np.arange(25, dtype=np.int32)
    return pa.table({
        "n_nationkey": pa.array(k, pa.int32()),
        "n_name": pa.array([f"NATION_{i}" for i in k], pa.string()),
        "n_regionkey": pa.array(k % 5, pa.int32()),
    })


def lineitem(rng: np.random.Generator, n: int) -> pa.Table:
    # one draw over (orderkey, linenumber) slots keeps l_key unique
    slot = _distinct(rng, n, 7 * 4 * n)
    return pa.table({
        "l_orderkey": pa.array(slot // 7, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 200_000, n), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        "l_linenumber": pa.array((slot % 7 + 1).astype(np.int32), pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, n).astype(np.float64)),
        "l_extendedprice": _money(rng, n, 900.0, 105_000.0),
        "l_discount": pa.array(rng.integers(0, 11, n) / 100.0, pa.float64()),
        "l_tax": pa.array(rng.integers(0, 9, n) / 100.0, pa.float64()),
        "l_returnflag": _pick(rng, ["A", "N", "R"], n),
        "l_linestatus": _pick(rng, ["F", "O"], n),
        "l_shipdate": _dates(rng, n),
    })


def part(rng: np.random.Generator, n: int) -> pa.Table:
    return pa.table({
        "p_partkey": pa.array(_distinct(rng, n, 20 * n), pa.int64()),
        "p_name": _pick(rng, ["cold widget", "small widget", "big gadget",
                              "red gizmo", "green sprocket"], n),
        "p_brand": _pick(rng, [f"Brand#{i}" for i in range(1, 26)], n),
        "p_type": _pick(rng, ["ECONOMY", "STANDARD", "PROMO", "LARGE"], n),
        "p_size": pa.array(rng.integers(1, 51, n).astype(np.int32), pa.int32()),
        "p_retailprice": _money(rng, n, 900.0, 2_000.0),
    })


def orders(rng: np.random.Generator, n: int) -> pa.Table:
    return pa.table({
        "o_orderkey": pa.array(_distinct(rng, n, 20 * n), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, 15_000, n), pa.int64()),
        "o_orderstatus": _pick(rng, ["F", "O", "P"], n),
        "o_totalprice": _money(rng, n, 800.0, 500_000.0),
        "o_orderdate": _dates(rng, n),
        "o_orderpriority": _pick(rng, ["1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"], n),
    })


def hot_share(lineitem_table: pa.Table) -> float:
    """Share of lineitem rows in the hotspot (``synth.lineitem_points``:
    ``k % 10 < 5``)."""
    if lineitem_table.num_rows == 0:
        return 0.0
    ok = lineitem_table["l_orderkey"].to_numpy().astype(np.int64)
    ln = lineitem_table["l_linenumber"].to_numpy().astype(np.int64)
    k = ok * 131071 + ln * 8191
    return float(np.mean(k % 10 < 5))


def generate(out_dir: str, seed: int, sizes: Sizes) -> dict:
    """Write the tables into ``out_dir``; returns row counts plus the
    realised lineitem hot share. Tables with a zero size are skipped
    (nation is always written: every workload joins against it)."""
    os.makedirs(out_dir, exist_ok=True)
    # one independent stream per table: resizing one table leaves the
    # others' keys unchanged
    streams = dict(zip(("documents", "lineitem", "part", "orders"),
                       np.random.SeedSequence(seed).spawn(4)))
    tables = {"nation": nation()}
    for name, make in (("documents", documents), ("lineitem", lineitem),
                       ("part", part), ("orders", orders)):
        n = getattr(sizes, name)
        if n:
            tables[name] = make(np.random.default_rng(streams[name]), n)
    info = {}
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
        info[f"rows.{name}"] = t.num_rows
    if "lineitem" in tables:
        info["lineitem.hot_share"] = round(hot_share(tables["lineitem"]), 6)
    return info
