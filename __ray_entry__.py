"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ray.init()/ray.shutdown().

``entry()`` runs the flagship spatial pipeline on sf0.001: derive point
geometry for lineitem rows (skewed hotspot distribution), PIP-join against
the nation region diamonds (broadcast STRtree actor pool), assign SSB-style
tiles, and aggregate rows per (region, tile) — the spatial-join +
tile-assignment core of the north-star metric.

``queries()`` / ``oracle_sql()`` expose the full registry from
ssb_sgis_ray.queries (engine pipeline + DuckDB-checkable SQL pairs).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# the checkout this file belongs to
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    import ray.data as rd

    from ssb_sgis_ray import synth
    from ssb_sgis_ray.ops import spatial

    lines = rd.read_parquet(
        f"{SF_SMOKE}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    ).map_batches(synth.add_lineitem_points, batch_format="pyarrow")

    import pyarrow.parquet as pq

    nations = synth.add_nation_diamonds(
        pq.read_table(f"{SF_SMOKE}/nation.parquet", columns=["n_nationkey"])
    )
    joined = spatial.sjoin_pairs(lines, nations, right_cols=["n_nationkey"])
    tiled = joined.map_batches(
        lambda b: spatial.assign_point_tiles(b, synth.TILE), batch_format="pyarrow"
    )
    from ray.data.aggregate import Count

    return tiled.groupby(["n_nationkey", "tile_x", "tile_y"]).aggregate(
        Count(alias_name="n_rows")
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from ssb_sgis_ray.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    from ssb_sgis_ray.queries import oracle_sql as _o

    return _o()
