"""The three benchmark workloads: inputs, the public engine call each one
times, and the off-clock expected answers every timed execution is
checked against.

Sizes are chosen so that one execution takes a few seconds on a 1-core
host; ``input_rows`` is what ``rows_per_s`` divides by.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import duckdb
import pandas as pd

from perfbench import gen

TABLES = ("documents", "nation", "lineitem", "part", "orders")

# explicit actor-pool size for every stage that takes one: with the
# session's 2 logical CPUs, a 1-actor pool leaves one CPU for read and
# shuffle tasks (a pool as large as the session starves them)
POOL = (1, 1)


def connect(in_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(in_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return con


def frame_digest(df: pd.DataFrame) -> tuple[int, str]:
    """Row count plus the order-independent value hash of the repo's
    oracle gate (tools/check_oracle: rows sorted by every column, columns
    by name)."""
    from tools.check_oracle import value_hash

    return len(df), value_hash(df)


@dataclass
class Workload:
    name: str
    sizes: gen.Sizes
    input_rows: int

    def prepare(self, in_dir: str, work_dir: str) -> dict:
        """Set-up work beyond generating the tables (ray session live)."""
        return {}

    def expected(self, in_dir: str):
        raise NotImplementedError

    def execute(self, in_dir: str, work_dir: str, out_dir: str):
        raise NotImplementedError

    def verify(self, out, expected, out_dir: str) -> tuple[str | None, dict]:
        """(problem or None, extra per-layer numbers measured while
        verifying)."""
        raise NotImplementedError

    def engine_skew(self, in_dir: str, work_dir: str) -> dict | None:
        """The engine's own group-size telemetry for this workload's
        exchange, if it has any (traced run only)."""
        return None


class SkewJoin(Workload):
    """Skewed lineitem points x 25 nation diamonds through the salted cell
    plan (``queries.q_pip_pairs_salted``: sjoin_cell_partitioned(res=9,
    salt_threshold=5000, n_salts=8))."""

    def expected(self, in_dir):
        from ssb_sgis_ray.queries import SQL_PIP_PAIRS_SALTED

        return frame_digest(connect(in_dir).execute(SQL_PIP_PAIRS_SALTED).fetchdf())

    def execute(self, in_dir, work_dir, out_dir):
        from ssb_sgis_ray.queries import q_pip_pairs_salted

        return q_pip_pairs_salted(in_dir).to_pandas()

    def verify(self, out, expected, out_dir):
        got = frame_digest(out)
        if got != expected:
            return f"pairs {got} != expected {expected}", {}
        return None, {}

    def engine_skew(self, in_dir, work_dir):
        """One more run of the same plan with ``skew_report_dir`` set: the
        post-salting per-cell histogram from state.skew.cell_skew_summary
        (it costs an extra tagging pass, so it is not timed)."""
        from ssb_sgis_ray import queries
        from ssb_sgis_ray.ops import spatial
        from ssb_sgis_ray.state import skew

        report = os.path.join(work_dir, "skew_report")
        shutil.rmtree(report, ignore_errors=True)
        spatial.sjoin_cell_partitioned(
            queries.lineitems(in_dir), queries.nations_ds(in_dir), res=9,
            left_id="l_key", right_id="n_nationkey", salt_threshold=5000,
            n_salts=8, skew_report_dir=report).materialize()
        return skew.load_cell_skew(report)[-1]


class PolyPredicates(Workload):
    """Part boxes x order boxes, one broadcast sfilter per predicate
    (``queries.q_sfilter_poly_predicates``: touches / overlaps / within /
    covers)."""

    def expected(self, in_dir):
        from ssb_sgis_ray.queries import SQL_SFILTER_POLY_PREDICATES

        return frame_digest(
            connect(in_dir).execute(SQL_SFILTER_POLY_PREDICATES).fetchdf())

    def execute(self, in_dir, work_dir, out_dir):
        from ssb_sgis_ray.queries import q_sfilter_poly_predicates

        return q_sfilter_poly_predicates(in_dir).to_pandas()

    def verify(self, out, expected, out_dir):
        got = frame_digest(out)
        if got != expected:
            return f"counts {out.to_dict('records')} != expected {expected}", {}
        return None, {}


@dataclass
class Flagship(Workload):
    """Materialized image table -> ``pipelines.flagship.flagship`` ->
    partitioned resumable parquet sink with a manifest."""

    copies: int = 1

    def source(self, work_dir: str) -> str:
        return os.path.join(work_dir, "images")

    def prepare(self, in_dir, work_dir):
        from ssb_sgis_ray.pipelines.flagship import materialize_images

        src = self.source(work_dir)
        shutil.rmtree(src, ignore_errors=True)
        fmt = materialize_images(in_dir, src, copies=self.copies, concurrency=POOL)
        return {"image_table_format": fmt}

    def expected(self, in_dir):
        from ssb_sgis_ray.queries import (
            IMG_BOX_SQL, NATION_SQL, SQL_IMAGE_REGION_COUNTS, SQL_IMAGE_TILES)

        con = connect(in_dir)
        # per image: regions its footprint intersects (the predicate of
        # SQL_IMAGE_REGION_COUNTS) x tiles it covers (SQL_IMAGE_TILES);
        # every copy of a document shares the document's footprint
        per_doc = f"""
        WITH reg AS (
          SELECT b.doc_id, count(*) AS n_reg
          FROM ({IMG_BOX_SQL}) b JOIN ({NATION_SQL}) n
            ON greatest(n.sx - b.maxx, b.minx - n.sx, 0)
             + greatest(n.sy - b.maxy, b.miny - n.sy, 0) <= n.r
          GROUP BY b.doc_id),
        til AS (SELECT doc_id, count(*) AS n_tiles FROM ({SQL_IMAGE_TILES}) t
                GROUP BY doc_id)
        SELECT CAST(sum(n_reg) AS BIGINT), CAST(sum(n_reg * n_tiles) AS BIGINT)
        FROM reg JOIN til USING (doc_id)"""
        pairs, rows = con.execute(per_doc).fetchone()
        region_total = int(con.execute(
            f"SELECT CAST(sum(n_images) AS BIGINT) FROM ({SQL_IMAGE_REGION_COUNTS})"
        ).fetchone()[0])
        if region_total != pairs:
            raise RuntimeError(
                f"oracle disagreement: {pairs} image-region pairs vs "
                f"{region_total} from SQL_IMAGE_REGION_COUNTS")
        return self.copies * int(rows)

    def execute(self, in_dir, work_dir, out_dir):
        from ssb_sgis_ray.pipelines.flagship import flagship

        return flagship(in_dir, out_dir, concurrency=POOL,
                        source_path=self.source(work_dir))

    def verify(self, out, expected, out_dir):
        from ssb_sgis_ray.state.manifest import verify_manifest

        t0 = time.perf_counter()
        audit = verify_manifest(out_dir)
        extra = {"state.manifest.verify_s": time.perf_counter() - t0}
        bad = {k: v for k, v in audit.items() if v != "ok"}
        if bad:
            return f"manifest audit failed: {bad}", extra
        if len(audit) != out["partitions_written"]:
            return (f"{len(audit)} manifest partitions != "
                    f"{out['partitions_written']} written"), extra
        if out["rows_written"] != expected:
            return f"rows_written {out['rows_written']} != expected {expected}", extra
        return None, extra


FLAGSHIP_DOCS, FLAGSHIP_COPIES = 500, 2
SKEW_LINEITEMS = 100_000
POLY_PARTS, POLY_ORDERS = 3_000, 30_000

WORKLOADS = {
    "flagship": Flagship(
        name="flagship", copies=FLAGSHIP_COPIES,
        sizes=gen.Sizes(documents=FLAGSHIP_DOCS),
        input_rows=FLAGSHIP_DOCS * FLAGSHIP_COPIES),
    "skew_join": SkewJoin(
        name="skew_join", sizes=gen.Sizes(lineitem=SKEW_LINEITEMS),
        input_rows=SKEW_LINEITEMS),
    "poly_predicates": PolyPredicates(
        name="poly_predicates", sizes=gen.Sizes(part=POLY_PARTS, orders=POLY_ORDERS),
        input_rows=POLY_PARTS * 4),
}
