"""Deterministic synthetic geometry derivation (engine + SQL-oracle paired).

The driver's test tables (`/root/testdata/sf*/`) are plain TPC-H-ish
relational tables; the engine's spatial operators need geometry. Geometry
is derived *deterministically from integer keys* so that the exact same
shapes can be recomputed in ANSI SQL by the DuckDB oracle. This mirrors
the reference's fixture style (buffered random points with fixed seeds —
/root/reference/tests/test_overlay.py:24-27) while making the oracle
side-channel-free.

Exact-agreement design (integers only, parity-separated):

* point coords        ≡ 2 (mod 4)
* polygon vertices    ≡ 0 (mod 4)  (diamond centers, box edges)
* diamond radii       ≡ 1 (mod 4)

Consequences (all in int64, reproduced verbatim in SQL):
  - point-in-diamond   |dx|+|dy| vs r       : 0 mod 2 vs odd   → never equal
  - diamond∩diamond    |dc| vs r1+r2        : 0 mod 4 vs 2 mod 4 → never equal
  - point-on-box-edge  2 mod 4 vs 0 mod 4   → never on an edge
so the engine's floating-point polygon kernels and the oracle's integer
closed forms agree on EVERY row — no boundary ties exist by construction.

Shapes per table:
  customer -> uniform points            (PIP left side, kNN left side)
  supplier -> diamonds (L1 balls)       (PIP right side; cluster/dissolve)
  part     -> axis-aligned boxes        (overlay left)
  orders   -> axis-aligned boxes        (overlay right)
  lineitem -> skewed points (hotspot)   (bench-scale left side; salting)
  nation   -> big diamonds              (region polygons for partitioned writes)

Domain: [0, 40000)² "meters" (EPSG:25833-style, like the reference's Oslo
test data which lives at ~(255k-274k, 6644k-6661k)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .geo import wkb

DOMAIN = 40000  # world is [0, DOMAIN)²
TILE = 1000  # gridsize used by tile-assignment queries

# ---------------------------------------------------------------------------
# numpy derivations (engine side). Each has a matching SQL fragment below.
# ---------------------------------------------------------------------------


def _i64(a) -> np.ndarray:
    return np.asarray(a).astype(np.int64)


def customer_points(c_custkey) -> tuple[np.ndarray, np.ndarray]:
    k = _i64(c_custkey)
    px = 4 * ((k * 9973) % 10000) + 2
    py = 4 * ((k * 6151) % 10000) + 2
    return px, py


CUSTOMER_PX_SQL = "4 * ((c_custkey * 9973) % 10000) + 2"
CUSTOMER_PY_SQL = "4 * ((c_custkey * 6151) % 10000) + 2"


def supplier_diamonds(s_suppkey) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = _i64(s_suppkey)
    sx = 4 * ((k * 7919) % 10000)
    sy = 4 * ((k * 5417) % 10000)
    r = 4 * ((k * 271) % 500) + 401
    return sx, sy, r


SUPPLIER_SX_SQL = "4 * ((s_suppkey * 7919) % 10000)"
SUPPLIER_SY_SQL = "4 * ((s_suppkey * 5417) % 10000)"
SUPPLIER_R_SQL = "4 * ((s_suppkey * 271) % 500) + 401"


def part_boxes(p_partkey) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (minx, miny, maxx, maxy), all ≡ 0 (mod 4), strictly positive."""
    k = _i64(p_partkey)
    cx = 4 * (500 + (k * 4723) % 9000)
    cy = 4 * (500 + (k * 6073) % 9000)
    hw = 4 * (50 + (k * 37) % 400)
    hh = 4 * (50 + (k * 53) % 400)
    return cx - hw, cy - hh, cx + hw, cy + hh


PART_BOX_SQL = {
    "minx": "4 * (500 + (p_partkey * 4723) % 9000) - 4 * (50 + (p_partkey * 37) % 400)",
    "miny": "4 * (500 + (p_partkey * 6073) % 9000) - 4 * (50 + (p_partkey * 53) % 400)",
    "maxx": "4 * (500 + (p_partkey * 4723) % 9000) + 4 * (50 + (p_partkey * 37) % 400)",
    "maxy": "4 * (500 + (p_partkey * 6073) % 9000) + 4 * (50 + (p_partkey * 53) % 400)",
}


def orders_boxes(o_orderkey) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    k = _i64(o_orderkey)
    cx = 4 * (500 + (k * 3557) % 9000)
    cy = 4 * (500 + (k * 2851) % 9000)
    hw = 4 * (50 + (k * 41) % 300)
    hh = 4 * (50 + (k * 59) % 300)
    return cx - hw, cy - hh, cx + hw, cy + hh


ORDERS_BOX_SQL = {
    "minx": "4 * (500 + (o_orderkey * 3557) % 9000) - 4 * (50 + (o_orderkey * 41) % 300)",
    "miny": "4 * (500 + (o_orderkey * 2851) % 9000) - 4 * (50 + (o_orderkey * 59) % 300)",
    "maxx": "4 * (500 + (o_orderkey * 3557) % 9000) + 4 * (50 + (o_orderkey * 41) % 300)",
    "maxy": "4 * (500 + (o_orderkey * 2851) % 9000) + 4 * (50 + (o_orderkey * 59) % 300)",
}


def lineitem_points(l_orderkey, l_linenumber) -> tuple[np.ndarray, np.ndarray]:
    """Skewed point cloud: half the rows land in a 2,000²-unit hotspot
    (<0.3% of the area) — the 'urban hotspot' distribution the north rule's
    salting exists for. Key mixing uses small multipliers so int64 never
    overflows at any scale factor (and BIGINT matches in SQL).
    """
    k = _i64(l_orderkey) * 131071 + _i64(l_linenumber) * 8191
    hot = (k % 10) < 5
    # reduce k mod m BEFORE the second multiply: (k%m)*c ≡ k*c (mod m),
    # identical values but intermediates stay < 2^35, so int64 never
    # wraps at any scale factor and numpy/DuckDB BIGINT agree everywhere
    ux = 4 * (((k % 10000) * 2239) % 10000) + 2
    uy = 4 * (((k % 10000) * 3571) % 10000) + 2
    hx = 20000 + 4 * (((k % 500) * 2239) % 500) + 2
    hy = 20000 + 4 * (((k % 500) * 3571) % 500) + 2
    return np.where(hot, hx, ux), np.where(hot, hy, uy)


LINEITEM_K_SQL = "(l_orderkey * 131071 + l_linenumber * 8191)"
LINEITEM_PX_SQL = (
    f"CASE WHEN {LINEITEM_K_SQL} % 10 < 5 "
    f"THEN 20000 + 4 * ((({LINEITEM_K_SQL} % 500) * 2239) % 500) + 2 "
    f"ELSE 4 * ((({LINEITEM_K_SQL} % 10000) * 2239) % 10000) + 2 END"
)
LINEITEM_PY_SQL = (
    f"CASE WHEN {LINEITEM_K_SQL} % 10 < 5 "
    f"THEN 20000 + 4 * ((({LINEITEM_K_SQL} % 500) * 3571) % 500) + 2 "
    f"ELSE 4 * ((({LINEITEM_K_SQL} % 10000) * 3571) % 10000) + 2 END"
)


def nation_diamonds(n_nationkey) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """25 large diamond 'regions' (municipality stand-ins) covering much of
    the domain; used for the partitioned-write / region-enrichment path."""
    k = _i64(n_nationkey)
    sx = 4 * (1000 + (k * 1993) % 8000)
    sy = 4 * (1000 + (k * 3089) % 8000)
    r = 4 * ((k * 613) % 1000) + 2001
    return sx, sy, r


NATION_SX_SQL = "4 * (1000 + (n_nationkey * 1993) % 8000)"
NATION_SY_SQL = "4 * (1000 + (n_nationkey * 3089) % 8000)"
NATION_R_SQL = "4 * ((n_nationkey * 613) % 1000) + 2001"


def nation_mask_rects(n_nationkey):
    """25 wide overlapping rects whose union is one concave 'study area'
    staircase across the whole x-domain (clip-mask stand-in for the
    reference's municipality clip, general.py:513-560). Neighbours overlap
    by 1100 in x; y-bands jump pseudo-randomly so the union is concave."""
    n = _i64(n_nationkey)
    minx = 1500 * n
    maxx = minx + 2600
    miny = 1000 * ((n * 7) % 23)
    maxy = miny + 9000
    return minx, miny, maxx, maxy


NATION_MASK_SQL = {
    "minx": "1500 * n_nationkey",
    "miny": "1000 * ((n_nationkey * 7) % 23)",
    "maxx": "1500 * n_nationkey + 2600",
    "maxy": "1000 * ((n_nationkey * 7) % 23) + 9000",
}


def part_lshapes(p_partkey):
    """Concave L-shaped rings: the part box minus its upper-right quadrant
    [x1,x2]×[y1,y2], with the split corner (x1,y1) a key-derived interior
    lattice point (≡0 mod 4). Decomposes into two disjoint rects for the
    SQL oracle: A = [x0,x2]×[y0,y1], B = [x0,x1]×[y1,y2].

    Returns (x0, y0, x1, y1, x2, y2).
    """
    x0, y0, x2, y2 = part_boxes(p_partkey)
    k = _i64(p_partkey)
    w4 = (x2 - x0) // 4  # >= 100 lattice steps
    h4 = (y2 - y0) // 4
    x1 = x0 + 4 * ((k * 29) % (w4 - 1) + 1)
    y1 = y0 + 4 * ((k * 31) % (h4 - 1) + 1)
    return x0, y0, x1, y1, x2, y2


PART_L_SQL = {
    "x1": "p.minx + 4 * ((p_partkey * 29) % ((p.maxx - p.minx) // 4 - 1) + 1)",
    "y1": "p.miny + 4 * ((p_partkey * 31) % ((p.maxy - p.miny) // 4 - 1) + 1)",
}


def orders_holed(o_orderkey):
    """Holed boxes: each orders box gains a strictly interior rectangular
    hole (all coords ≡0 mod 4). Returns (minx, miny, maxx, maxy,
    hx0, hy0, hx1, hy1)."""
    minx, miny, maxx, maxy = orders_boxes(o_orderkey)
    k = _i64(o_orderkey)
    w4 = (maxx - minx) // 4  # >= 100
    h4 = (maxy - miny) // 4
    hx0 = minx + 4 * ((k * 19) % (w4 // 2 - 2) + 1)
    hy0 = miny + 4 * ((k * 23) % (h4 // 2 - 2) + 1)
    hx1 = hx0 + 4 * ((k * 13) % ((maxx - hx0) // 4 - 1) + 1)
    hy1 = hy0 + 4 * ((k * 11) % ((maxy - hy0) // 4 - 1) + 1)
    return minx, miny, maxx, maxy, hx0, hy0, hx1, hy1


ORDERS_HOLE_SQL = {
    "hx0": "o.minx + 4 * ((o_orderkey * 19) % ((o.maxx - o.minx) // 4 // 2 - 2) + 1)",
    "hy0": "o.miny + 4 * ((o_orderkey * 23) % ((o.maxy - o.miny) // 4 // 2 - 2) + 1)",
    # hx1/hy1 depend on hx0/hy0; expressed in a CTE layer in the queries
    "hx1": "hx0 + 4 * ((o_orderkey * 13) % ((o.maxx - hx0) // 4 - 1) + 1)",
    "hy1": "hy0 + 4 * ((o_orderkey * 11) % ((o.maxy - hy0) // 4 - 1) + 1)",
}


def supplier_slivers(s_suppkey):
    """Sliver rectangles for eliminate_by_longest: each sliver sits in an
    ODD checkerboard tile (tx odd, ty even → tx+ty odd), anchored at the
    tile's lower-left corner, so it shares a vertical border of length h
    with the (even) left-neighbor tile and a horizontal border of length
    w with the (even) bottom-neighbor tile. w ≡ 0 (mod 8) and h ≡ 4
    (mod 8) are never equal, so the longest-border winner is unambiguous:
    left neighbor iff h > w. Returns (tx, ty, w, h)."""
    k = _i64(s_suppkey)
    tx = 2 * ((k * 7) % 19) + 1   # odd, 1..37
    ty = 2 * ((k * 13) % 19) + 2  # even, 2..38
    w = 8 * ((k * 11) % 100) + 8  # ≡0 mod 8, ≤ 800
    h = 8 * ((k * 17) % 100) + 4  # ≡4 mod 8, ≤ 796
    return tx, ty, w, h


SLIVER_SQL = {
    "tx": "2 * ((s_suppkey * 7) % 19) + 1",
    "ty": "2 * ((s_suppkey * 13) % 19) + 2",
    "w": "8 * ((s_suppkey * 11) % 100) + 8",
    "h": "8 * ((s_suppkey * 17) % 100) + 4",
}


def checkerboard_hosts(tile: int = TILE, n_tiles: int = 40) -> "pa.Table":
    """Host polygons for eliminate_by_longest: every EVEN (tx+ty)
    checkerboard tile as a square polygon with host_id = tx*1000 + ty."""
    txs, tys = np.meshgrid(np.arange(n_tiles), np.arange(n_tiles), indexing="ij")
    txs, tys = txs.ravel(), tys.ravel()
    keep = (txs + tys) % 2 == 0
    txs, tys = txs[keep], tys[keep]
    geo = box_wkb(txs * tile, tys * tile, (txs + 1) * tile, (tys + 1) * tile)
    return pa.table(
        {
            "host_id": pa.array(txs * 1000 + tys, pa.int64()),
            "geometry_wkb": geo,
        }
    )


GRID_N = 41     # routing grid: nodes (i, j), 0 <= i, j < GRID_N
GRID_HW = 2     # horizontal edge weight
GRID_VW = 5     # vertical edge weight


def grid_graph_edges() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic weighted grid network for the routing queries.

    node_id = i*1000 + j. Horizontal edges cost GRID_HW, vertical edges
    GRID_VW — with all-positive constant weights per direction the
    shortest path cost is closed-form (2|di| + 5|dj|), so DuckDB can
    oracle-check real Dijkstra output without running a graph algorithm.
    Returns (node_a, node_b, weight) UNDIRECTED.
    """
    i, j = np.meshgrid(np.arange(GRID_N), np.arange(GRID_N), indexing="ij")
    nid = (i * 1000 + j).ravel()
    # horizontal: (i,j)-(i+1,j)
    hmask = (i < GRID_N - 1).ravel()
    ha = nid[hmask]
    hb = ha + 1000
    # vertical: (i,j)-(i,j+1)
    vmask = (j < GRID_N - 1).ravel()
    va = nid[vmask]
    vb = va + 1
    node_a = np.concatenate([ha, va])
    node_b = np.concatenate([hb, vb])
    w = np.concatenate(
        [np.full(len(ha), GRID_HW, float), np.full(len(va), GRID_VW, float)]
    )
    return node_a.astype(np.int64), node_b.astype(np.int64), w


def supplier_grid_origins(s_suppkey) -> np.ndarray:
    """Origin node per supplier: (k*3 % N, k*19 % N)."""
    k = _i64(s_suppkey)
    return ((k * 3) % GRID_N) * 1000 + (k * 19) % GRID_N


ORIGIN_SQL = f"((s_suppkey * 3) % {GRID_N}) * 1000 + (s_suppkey * 19) % {GRID_N}"


def grid_dest_ids(n: int = 16) -> np.ndarray:
    d = np.arange(1, n + 1, dtype=np.int64)
    return ((d * 7) % GRID_N) * 1000 + (d * 31) % GRID_N


DEST_SQL = f"SELECT ((d * 7) % {GRID_N}) * 1000 + (d * 31) % {GRID_N} AS dest, d FROM (SELECT unnest(generate_series(1, 16)) AS d)"


def supplier_bowties(s_suppkey):
    """Self-intersecting 'bowtie' rings on the supplier centers: the ring
    (sx−r,sy−r) → (sx+r,sy+r) → (sx+r,sy−r) → (sx−r,sy+r) crosses itself
    at the center; make_valid (even-odd) yields two triangles of total
    area 2·r² (r is odd, so the crossing is at an integer point)."""
    sx, sy, r = supplier_diamonds(s_suppkey)
    return sx, sy, r


# ---------------------------------------------------------------------------
# WKB builders (vectorized)
# ---------------------------------------------------------------------------


def diamond_wkb(sx: np.ndarray, sy: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized diamond (L1 ball) polygons -> WKB object array."""
    n = len(sx)
    out = np.empty(n, dtype=object)
    sx = np.asarray(sx, dtype=np.float64)
    sy = np.asarray(sy, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    ring = np.empty((n, 5, 2), dtype=np.float64)
    ring[:, 0, 0] = sx + r
    ring[:, 0, 1] = sy
    ring[:, 1, 0] = sx
    ring[:, 1, 1] = sy + r
    ring[:, 2, 0] = sx - r
    ring[:, 2, 1] = sy
    ring[:, 3, 0] = sx
    ring[:, 3, 1] = sy - r
    ring[:, 4] = ring[:, 0]
    for i in range(n):
        out[i] = wkb.encode_polygon([ring[i]])
    return out


def box_wkb(minx, miny, maxx, maxy) -> pa.Array:
    """Axis-aligned boxes -> pa.binary WKB POLYGON column (ring
    (minx,miny) (maxx,miny) (maxx,maxy) (minx,maxy) closed), byte-equal
    to wkb.encode_polygon of that ring."""
    boxes = np.stack([minx, miny, maxx, maxy], axis=1).astype(np.float64)
    return wkb.encode_boxes_arrow(boxes)


def lshape_wkb(x0, y0, x1, y1, x2, y2) -> np.ndarray:
    """Concave L hexagon rings (CCW) -> WKB object array."""
    n = len(x0)
    out = np.empty(n, dtype=object)
    ring = np.empty((n, 7, 2), dtype=np.float64)
    for j, (xx, yy) in enumerate(
        [(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)]
    ):
        ring[:, j, 0] = xx
        ring[:, j, 1] = yy
    ring[:, 6] = ring[:, 0]
    for i in range(n):
        out[i] = wkb.encode_polygon([ring[i]])
    return out


def holed_box_wkb(minx, miny, maxx, maxy, hx0, hy0, hx1, hy1) -> np.ndarray:
    """Box with interior rectangular hole -> WKB object array (hole CW)."""
    n = len(minx)
    out = np.empty(n, dtype=object)
    shell = np.empty((n, 5, 2), dtype=np.float64)
    hole = np.empty((n, 5, 2), dtype=np.float64)
    for j, (xx, yy) in enumerate([(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]):
        shell[:, j, 0] = xx
        shell[:, j, 1] = yy
    shell[:, 4] = shell[:, 0]
    for j, (xx, yy) in enumerate([(hx0, hy0), (hx0, hy1), (hx1, hy1), (hx1, hy0)]):
        hole[:, j, 0] = xx
        hole[:, j, 1] = yy
    hole[:, 4] = hole[:, 0]
    for i in range(n):
        out[i] = wkb.encode_polygon([shell[i], hole[i]])
    return out


def bowtie_wkb(sx, sy, r) -> np.ndarray:
    """Self-intersecting bowtie rings -> WKB object array (invalid input
    fixtures for make_valid)."""
    n = len(sx)
    out = np.empty(n, dtype=object)
    ring = np.empty((n, 5, 2), dtype=np.float64)
    ring[:, 0, 0] = sx - r
    ring[:, 0, 1] = sy - r
    ring[:, 1, 0] = sx + r
    ring[:, 1, 1] = sy + r
    ring[:, 2, 0] = sx + r
    ring[:, 2, 1] = sy - r
    ring[:, 3, 0] = sx - r
    ring[:, 3, 1] = sy + r
    ring[:, 4] = ring[:, 0]
    for i in range(n):
        out[i] = wkb.encode_polygon([ring[i]])
    return out


# ---------------------------------------------------------------------------
# map_batches stages that attach geometry to the raw tables
# ---------------------------------------------------------------------------


def add_customer_points(batch: pa.Table) -> pa.Table:
    px, py = customer_points(batch["c_custkey"].to_numpy(zero_copy_only=False))
    t = batch.append_column("px", pa.array(px, pa.int64()))
    t = t.append_column("py", pa.array(py, pa.int64()))
    return t.append_column(
        "geometry_wkb", wkb.encode_points_arrow(px.astype(np.float64), py.astype(np.float64))
    )


def add_supplier_diamonds(batch: pa.Table) -> pa.Table:
    sx, sy, r = supplier_diamonds(batch["s_suppkey"].to_numpy(zero_copy_only=False))
    t = batch.append_column("sx", pa.array(sx, pa.int64()))
    t = t.append_column("sy", pa.array(sy, pa.int64()))
    t = t.append_column("r", pa.array(r, pa.int64()))
    return t.append_column("geometry_wkb", pa.array(diamond_wkb(sx, sy, r), pa.binary()))


def add_part_boxes(batch: pa.Table) -> pa.Table:
    minx, miny, maxx, maxy = part_boxes(batch["p_partkey"].to_numpy(zero_copy_only=False))
    for name, col in zip(("minx", "miny", "maxx", "maxy"), (minx, miny, maxx, maxy)):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column("geometry_wkb", box_wkb(minx, miny, maxx, maxy))


def add_orders_boxes(batch: pa.Table) -> pa.Table:
    minx, miny, maxx, maxy = orders_boxes(batch["o_orderkey"].to_numpy(zero_copy_only=False))
    for name, col in zip(("minx", "miny", "maxx", "maxy"), (minx, miny, maxx, maxy)):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column("geometry_wkb", box_wkb(minx, miny, maxx, maxy))


def add_lineitem_points(batch: pa.Table) -> pa.Table:
    px, py = lineitem_points(
        batch["l_orderkey"].to_numpy(zero_copy_only=False),
        batch["l_linenumber"].to_numpy(zero_copy_only=False),
    )
    t = batch.append_column("px", pa.array(px, pa.int64()))
    t = t.append_column("py", pa.array(py, pa.int64()))
    return t.append_column(
        "geometry_wkb", wkb.encode_points_arrow(px.astype(np.float64), py.astype(np.float64))
    )


def add_part_lshapes(batch: pa.Table) -> pa.Table:
    x0, y0, x1, y1, x2, y2 = part_lshapes(batch["p_partkey"].to_numpy(zero_copy_only=False))
    for name, col in zip(("x0", "y0", "x1", "y1", "x2", "y2"), (x0, y0, x1, y1, x2, y2)):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column(
        "geometry_wkb", pa.array(lshape_wkb(x0, y0, x1, y1, x2, y2), pa.binary())
    )


def add_orders_holed(batch: pa.Table) -> pa.Table:
    cols = orders_holed(batch["o_orderkey"].to_numpy(zero_copy_only=False))
    names = ("minx", "miny", "maxx", "maxy", "hx0", "hy0", "hx1", "hy1")
    for name, col in zip(names, cols):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column(
        "geometry_wkb", pa.array(holed_box_wkb(*cols), pa.binary())
    )


def add_supplier_bowties(batch: pa.Table) -> pa.Table:
    sx, sy, r = supplier_bowties(batch["s_suppkey"].to_numpy(zero_copy_only=False))
    t = batch.append_column("sx", pa.array(sx, pa.int64()))
    t = t.append_column("sy", pa.array(sy, pa.int64()))
    t = t.append_column("r", pa.array(r, pa.int64()))
    return t.append_column("geometry_wkb", pa.array(bowtie_wkb(sx, sy, r), pa.binary()))


def add_supplier_slivers(batch: pa.Table) -> pa.Table:
    tx, ty, w, h = supplier_slivers(batch["s_suppkey"].to_numpy(zero_copy_only=False))
    x0, y0 = tx * TILE, ty * TILE
    geo = box_wkb(x0, y0, x0 + w, y0 + h)
    for name, col in zip(("tx", "ty", "w", "h"), (tx, ty, w, h)):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column("geometry_wkb", geo)


def add_nation_mask(batch: pa.Table) -> pa.Table:
    minx, miny, maxx, maxy = nation_mask_rects(
        batch["n_nationkey"].to_numpy(zero_copy_only=False)
    )
    return batch.append_column("geometry_wkb", box_wkb(minx, miny, maxx, maxy))


def add_nation_diamonds(batch: pa.Table) -> pa.Table:
    sx, sy, r = nation_diamonds(batch["n_nationkey"].to_numpy(zero_copy_only=False))
    t = batch.append_column("sx", pa.array(sx, pa.int64()))
    t = t.append_column("sy", pa.array(sy, pa.int64()))
    t = t.append_column("r", pa.array(r, pa.int64()))
    return t.append_column("geometry_wkb", pa.array(diamond_wkb(sx, sy, r), pa.binary()))


# ---------------------------------------------------------------------------
# k-routes fixture: parallel-paths graph with closed-form route ranking
# ---------------------------------------------------------------------------

KR_PATHS = 6          # parallel 3-edge paths per OD pair
KR_ORIGIN_BASE = 10_000_000
KR_DEST_BASE = 20_000_000
KR_MID_BASE = 30_000_000


def k_routes_graph_edges(s_keys: np.ndarray):
    """Directed parallel-paths graph for the get_k_routes oracle.

    Per supplier s: origin O=1e7+s, dest D=2e7+s, and KR_PATHS disjoint
    3-edge paths O->A_p->B_p->D with total cost
    ``31 + p + 10*((s + 3p) % 7)`` — distinct across p within s, so with
    drop_middle_percent=100 (middle edge deleted each round) route k is
    exactly the k-th cheapest path: closed-form in SQL via row_number().
    """
    s = _i64(s_keys)
    n, P = len(s), KR_PATHS
    sr = np.repeat(s, P)
    p = np.tile(np.arange(P, dtype=np.int64), n)
    o = KR_ORIGIN_BASE + sr
    d = KR_DEST_BASE + sr
    a = KR_MID_BASE + sr * 16 + p * 2
    b = a + 1
    w0 = (7 + p).astype(float)
    w1 = (11 + 10 * ((sr + 3 * p) % 7)).astype(float)
    w2 = np.full(n * P, 13.0)
    node_a = np.concatenate([o, a, b])
    node_b = np.concatenate([a, b, d])
    w = np.concatenate([w0, w1, w2])
    return node_a, node_b, w


# ---------------------------------------------------------------------------
# route_frequencies fixture: a spine TREE, so every OD shortest path is the
# unique tree path and per-edge visit counts are closed-form in SQL
# ---------------------------------------------------------------------------

RF_SPINE_LEN = 10
RF_DESTS = 4
RF_SPINE_BASE = 40_000_000
RF_ORIGIN_BASE = 41_000_000
RF_DEST_BASE = 42_000_000


def route_freq_graph_edges(s_keys: np.ndarray):
    """Undirected unit-weight spine tree for the route_frequencies oracle.

    Spine S_0..S_9; supplier s hangs origin O_s off S_{s % 10}; dest D_j
    (j < RF_DESTS) hangs off S_{(3j+1) % 10}. Tree => unique shortest
    paths (no tie-breaking dependence), so: spine edge (S_i, S_{i+1}) is
    crossed by exactly the (s, j) pairs whose connector positions
    straddle i; each origin connector carries RF_DESTS routes; each dest
    connector one route per supplier."""
    s = _i64(s_keys)
    spine_a = RF_SPINE_BASE + np.arange(RF_SPINE_LEN - 1, dtype=np.int64)
    o_b = RF_SPINE_BASE + s % RF_SPINE_LEN
    j = np.arange(RF_DESTS, dtype=np.int64)
    d_b = RF_SPINE_BASE + (3 * j + 1) % RF_SPINE_LEN
    node_a = np.concatenate([spine_a, RF_ORIGIN_BASE + s, RF_DEST_BASE + j])
    node_b = np.concatenate([spine_a + 1, o_b, d_b])
    return node_a, node_b, np.ones(len(node_a), dtype=float)


# ---------------------------------------------------------------------------
# split_lines fixture: one isolated horizontal segment per supplier, origin
# and destination points hovering above it — with split_lines the cost is
# the closed form h + |a-b| + g, which the endpoint-connection path
# provably gets wrong
# ---------------------------------------------------------------------------

SL_NODE_BASE = 43_000_000
SL_ORIGIN_BASE = 44_000_000
SL_DEST_BASE = 45_000_000
SL_LINE_LEN = 1000.0
SL_PITCH = 10_000.0


def split_lines_fixture(s_keys: np.ndarray):
    """Per supplier s: segment (X_s, 0)→(X_s+1000, 0) of weight 1000
    (meters), origin point at (X_s + a_s, h_s), dest at (X_s + b_s, g_s)
    with X_s = s·10000 (isolated components), a_s = 100 + 100(s%7),
    b_s = 150 + 90(s%9), h_s = 10 + s%5, g_s = 5 + s%4. With
    split_lines + nodedist_multiplier=1 the O→D cost is exactly
    h_s + |a_s − b_s| + g_s (integer-valued)."""
    s = _i64(s_keys)
    x0 = s.astype(float) * SL_PITCH
    edges = (
        SL_NODE_BASE + 2 * s, SL_NODE_BASE + 2 * s + 1,          # ids
        x0, np.zeros(len(s)), x0 + SL_LINE_LEN, np.zeros(len(s)),  # coords
        np.full(len(s), SL_LINE_LEN),                             # weight
    )
    a = (100 + 100 * (s % 7)).astype(float)
    b = (150 + 90 * (s % 9)).astype(float)
    origins = (SL_ORIGIN_BASE + s, x0 + a, (10 + s % 5).astype(float))
    dests = (SL_DEST_BASE + s, x0 + b, (5 + s % 4).astype(float))
    return edges, origins, dests


# ---------------------------------------------------------------------------
# TSP fixture: per-nation circle rings with closed-form tour length
# ---------------------------------------------------------------------------

def tsp_ring_points(n_nationkey: np.ndarray):
    """(nation, point_seq, x, y) rows: nation k gets ``8 + k % 5`` points
    equally spaced on a circle of radius ``100 * (1 + k % 3)`` with phase
    k/10 — convex position, so the christofides+2-opt tour is provably
    the ring order and its length is ``n * 2R * sin(pi/n)`` in SQL."""
    k = _i64(n_nationkey)
    npts = 8 + k % 5
    rad = (100 * (1 + k % 3)).astype(float)
    rep = np.repeat(np.arange(len(k)), npts)
    seq = np.concatenate([np.arange(c) for c in npts]) if len(k) else np.zeros(0, np.int64)
    th = 2.0 * np.pi * seq / npts[rep] + k[rep] / 10.0
    x = rad[rep] * np.cos(th)
    y = rad[rep] * np.sin(th)
    return k[rep], seq.astype(np.int64), x, y


def part_pair_boxes(p_partkey):
    """Second box per part for shortest_line/nearest_points: key-derived,
    a mix of disjoint (positive gap) and overlapping (distance 0) pairs
    against part_boxes. All coords ≡ 0 (mod 4)."""
    k = _i64(p_partkey)
    bminx = 4 * ((k * 101) % 10000)
    bminy = 4 * ((k * 103) % 10000)
    bmaxx = bminx + 4 * (100 + (k * 7) % 300)
    bmaxy = bminy + 4 * (100 + (k * 11) % 300)
    return bminx, bminy, bmaxx, bmaxy


PART_PAIR_SQL = {
    "bminx": "4 * ((p_partkey * 101) % 10000)",
    "bminy": "4 * ((p_partkey * 103) % 10000)",
    "bmaxx": "4 * ((p_partkey * 101) % 10000) + 4 * (100 + (p_partkey * 7) % 300)",
    "bmaxy": "4 * ((p_partkey * 103) % 10000) + 4 * (100 + (p_partkey * 11) % 300)",
}


def add_part_box_pairs(batch: "pa.Table") -> "pa.Table":
    """Part box (geometry_wkb) plus its derived pair box (wkb_b)."""
    batch = add_part_boxes(batch)
    b = part_pair_boxes(batch["p_partkey"].to_numpy(zero_copy_only=False))
    for name, col in zip(("bminx", "bminy", "bmaxx", "bmaxy"), b):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch.append_column("wkb_b", box_wkb(*b))


# --- line_merge chains -------------------------------------------------------
# Each DISTINCT (l_orderkey, l_linenumber=j) is the segment v_{j-1} -> v_j of
# its order's polyline. x strictly increases along the chain and orders live
# in disjoint 50-unit x bands (j <= 7 -> max offset 28), so chains never touch
# each other. Gaps in j split an order into multiple islands — exactly the
# maximal paths line_merge must discover.


def chain_vertex(o, j):
    o = _i64(o)
    j = _i64(j)
    return 50 * o + 4 * j, 4 * ((o * 7 + j * 13) % 1000)


CHAIN_X_SQL = "50 * {o} + 4 * {j}"
CHAIN_Y_SQL = "4 * (({o} * 7 + {j} * 13) % 1000)"


def add_chain_segments(batch: "pa.Table") -> "pa.Table":
    o = batch["l_orderkey"].to_numpy(zero_copy_only=False)
    j = batch["l_linenumber"].to_numpy(zero_copy_only=False)
    x1, y1 = chain_vertex(o, _i64(j) - 1)
    x2, y2 = chain_vertex(o, j)
    seg_id = _i64(o) * 8 + _i64(j)
    t = batch.append_column("seg_id", pa.array(seg_id, pa.int64()))
    return t.append_column(
        "geometry_wkb",
        wkb.encode_segments_arrow(
            x1.astype(np.float64), y1.astype(np.float64),
            x2.astype(np.float64), y2.astype(np.float64),
        ),
    )
