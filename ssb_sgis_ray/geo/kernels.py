"""Vectorized geometry kernels (pure numpy).

These re-implement, from the public computational-geometry literature, the
GEOS/shapely kernels the reference relies on (`area`, `length`, `bounds`,
`centroid`, `intersects`, `intersection`, `difference`, point-in-polygon;
see the inventory in /root/repo/SURVEY.md §2.9). Everything is batch-first:
one call processes a whole Arrow batch worth of geometries.

Point-in-polygon is a crossing-number test with an explicit on-boundary
check ("winding-number refinement" per the north rule: candidate pairs come
from a bbox/STRtree prefilter, the exact test runs only on candidates).

Polygon boolean ops: intersection of an arbitrary subject with a CONVEX
clip polygon uses Sutherland–Hodgman; difference/union against convex
operands use the standard convex-complement decomposition (clip the subject
successively against each outside half-plane), which yields disjoint pieces
whose union is the exact difference. Concave right-hand operands are out of
scope for round 1 and raise.
"""

from __future__ import annotations

import numpy as np

from .wkb import PointArray, PolygonArray

# ---------------------------------------------------------------------------
# Bounds / area / length / centroid
# ---------------------------------------------------------------------------


def _per_geom_coord_ranges(pg: PolygonArray) -> tuple[np.ndarray, np.ndarray]:
    """(start, stop) coordinate index range covering all rings of each row."""
    first_poly = pg.geom_offsets[:-1]
    last_poly = pg.geom_offsets[1:]
    first_ring = pg.poly_offsets[first_poly]
    last_ring = pg.poly_offsets[last_poly]
    return pg.ring_offsets[first_ring], pg.ring_offsets[last_ring]


def polygon_bounds(pg: PolygonArray) -> np.ndarray:
    """(n, 4) array of (minx, miny, maxx, maxy) per row."""
    starts, stops = _per_geom_coord_ranges(pg)
    n = len(pg)
    out = np.empty((n, 4), dtype=np.float64)
    counts = stops - starts
    if counts.min(initial=1) <= 0:
        for i in range(n):
            if counts[i] <= 0:
                out[i] = np.nan
            else:
                c = pg.coords[starts[i] : stops[i]]
                out[i] = [c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max()]
        return out
    x, y = pg.coords[:, 0], pg.coords[:, 1]
    out[:, 0] = np.minimum.reduceat(x, starts)
    out[:, 1] = np.minimum.reduceat(y, starts)
    out[:, 2] = np.maximum.reduceat(x, starts)
    out[:, 3] = np.maximum.reduceat(y, starts)
    return out


def ring_signed_areas(pg: PolygonArray) -> np.ndarray:
    """Signed shoelace area of every ring (R,). CCW positive."""
    x, y = pg.coords[:, 0], pg.coords[:, 1]
    # cross terms for every consecutive vertex pair (within-ring pairs only)
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    # sum per ring: ring r covers cross[ring_offsets[r] : ring_offsets[r+1]-1]
    r0 = pg.ring_offsets[:-1]
    r1 = pg.ring_offsets[1:]
    n_r = len(r0)
    out = np.zeros(n_r, dtype=np.float64)
    # cumulative-sum trick: per-ring sum = cum[r1-1] - cum[r0]
    if len(cross):
        cum = np.concatenate(([0.0], np.cumsum(cross)))
        out = 0.5 * (cum[np.maximum(r1 - 1, r0)] - cum[r0])
    return out


def polygon_areas(pg: PolygonArray) -> np.ndarray:
    """Unsigned area per ROW: |exterior| − |holes| summed over member polys.

    Assumes valid ring orientation-independent input: area of a polygon is
    |area(exterior)| − Σ|area(hole)|.
    """
    ring_a = np.abs(ring_signed_areas(pg))
    n_polys = pg.n_polys()
    # first ring of each polygon is the exterior (+), the rest holes (−)
    n_rings_per_poly = np.diff(pg.poly_offsets)
    poly_of_ring = np.repeat(np.arange(n_polys), n_rings_per_poly)
    is_first = np.zeros(len(ring_a), dtype=bool)
    is_first[pg.poly_offsets[:-1]] = True
    contrib = np.where(is_first, ring_a, -ring_a)
    poly_area = np.bincount(poly_of_ring, weights=contrib, minlength=n_polys)
    row_of_poly = np.repeat(np.arange(len(pg)), np.diff(pg.geom_offsets))
    return np.bincount(row_of_poly, weights=poly_area, minlength=len(pg))


def polygon_perimeters(pg: PolygonArray) -> np.ndarray:
    """Total ring length per row (exterior + holes)."""
    d = np.diff(pg.coords, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    r0, r1 = pg.ring_offsets[:-1], pg.ring_offsets[1:]
    ring_len = cum[np.maximum(r1 - 1, r0)] - cum[r0]
    # map rings -> rows
    n_rings_per_poly = np.diff(pg.poly_offsets)
    poly_of_ring = np.repeat(np.arange(pg.n_polys()), n_rings_per_poly)
    row_of_poly = np.repeat(np.arange(len(pg)), np.diff(pg.geom_offsets))
    out = np.zeros(len(pg), dtype=np.float64)
    np.add.at(out, row_of_poly[poly_of_ring], ring_len)
    return out


def polygon_centroids(pg: PolygonArray) -> np.ndarray:
    """(n,2) area-weighted centroid per row (holes subtract).

    Per ring: signed area a_r and the shoelace centroid integrals; each
    ring contributes (+|a|, C) if exterior, (−|a|, C) if hole; the row
    centroid is the signed-area-weighted mean of ring centroids.
    """
    x, y = pg.coords[:, 0], pg.coords[:, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    cx_t = (x[:-1] + x[1:]) * cross
    cy_t = (y[:-1] + y[1:]) * cross
    cum_a = np.concatenate(([0.0], np.cumsum(cross)))
    cum_x = np.concatenate(([0.0], np.cumsum(cx_t)))
    cum_y = np.concatenate(([0.0], np.cumsum(cy_t)))
    r0, r1 = pg.ring_offsets[:-1], pg.ring_offsets[1:]
    hi = np.maximum(r1 - 1, r0)
    ring_a = 0.5 * (cum_a[hi] - cum_a[r0])  # signed
    with np.errstate(invalid="ignore", divide="ignore"):
        ring_cx = (cum_x[hi] - cum_x[r0]) / (6.0 * ring_a)
        ring_cy = (cum_y[hi] - cum_y[r0]) / (6.0 * ring_a)
    n_rings_per_poly = np.diff(pg.poly_offsets)
    poly_of_ring = np.repeat(np.arange(pg.n_polys()), n_rings_per_poly)
    row_of_poly = np.repeat(np.arange(len(pg)), np.diff(pg.geom_offsets))
    row_of_ring = row_of_poly[poly_of_ring]
    is_ext = np.zeros(len(ring_a), dtype=bool)
    is_ext[pg.poly_offsets[:-1]] = True
    w = np.where(is_ext, 1.0, -1.0) * np.abs(ring_a)  # + exterior, − hole
    A = np.zeros(len(pg))
    CX = np.zeros(len(pg))
    CY = np.zeros(len(pg))
    np.add.at(A, row_of_ring, w)
    np.add.at(CX, row_of_ring, w * np.nan_to_num(ring_cx))
    np.add.at(CY, row_of_ring, w * np.nan_to_num(ring_cy))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.stack([CX / A, CY / A], axis=1)


# ---------------------------------------------------------------------------
# Point-in-polygon (crossing number + boundary-inclusive refinement)
# ---------------------------------------------------------------------------


def _pip_pairs_masks(
    px: np.ndarray,
    py: np.ndarray,
    pg: PolygonArray,
    pt_idx: np.ndarray,
    poly_row_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate (point, polygon-row) pair: (crossing-parity interior
    mask, exact on-boundary mask). Parity is only meaningful off the
    boundary — strict-interior = parity & ~on_boundary. Fully vectorized:
    pairs are expanded to (pair, edge) rows via np.repeat.
    """
    n_pairs = len(pt_idx)
    if n_pairs == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)

    # rings per pair: all rings of all member polys of the polygon row
    starts, stops = _per_geom_coord_ranges(pg)  # per row, coord ranges
    # edge list per ring: vertices v..v+1 within ring; build global edge arrays once
    r0, r1 = pg.ring_offsets[:-1], pg.ring_offsets[1:]
    # edges of ring r: indices r0[r] .. r1[r]-2 (each edge i -> i, i+1)
    n_edges_per_ring = np.maximum(r1 - r0 - 1, 0)
    edge_first = np.repeat(r0, n_edges_per_ring) + (
        np.arange(int(n_edges_per_ring.sum()))
        - np.repeat(np.concatenate(([0], np.cumsum(n_edges_per_ring)[:-1])), n_edges_per_ring)
    )
    # map edges -> row
    n_rings_per_poly = np.diff(pg.poly_offsets)
    poly_of_ring = np.repeat(np.arange(pg.n_polys()), n_rings_per_poly)
    row_of_poly = np.repeat(np.arange(len(pg)), np.diff(pg.geom_offsets))
    row_of_ring = row_of_poly[poly_of_ring]
    row_of_edge = np.repeat(row_of_ring, n_edges_per_ring)

    # edges grouped by row: count edges per row, order is already row-major
    edges_per_row = np.zeros(len(pg), dtype=np.int64)
    np.add.at(edges_per_row, row_of_edge, 1)
    edge_row_start = np.concatenate(([0], np.cumsum(edges_per_row)))

    # expand pairs × edges
    pair_edge_counts = edges_per_row[poly_row_idx]
    total = int(pair_edge_counts.sum())
    pair_of_item = np.repeat(np.arange(n_pairs), pair_edge_counts)
    within = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(pair_edge_counts)[:-1])), pair_edge_counts
    )
    edge_idx = edge_row_start[poly_row_idx][pair_of_item] + within
    e0 = edge_first[edge_idx]

    x1 = pg.coords[e0, 0]
    y1 = pg.coords[e0, 1]
    x2 = pg.coords[e0 + 1, 0]
    y2 = pg.coords[e0 + 1, 1]
    X = px[pt_idx][pair_of_item]
    Y = py[pt_idx][pair_of_item]

    # crossing-number: edge straddles the horizontal ray at Y going right
    cond = (y1 > Y) != (y2 > Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (Y - y1) * (x2 - x1) / (y2 - y1)
    crosses = cond & (X < xint)
    n_cross = np.zeros(n_pairs, dtype=np.int64)
    np.add.at(n_cross, pair_of_item, crosses.astype(np.int64))
    inside = (n_cross % 2) == 1

    # boundary refinement: point exactly on an edge counts as inside
    minx = np.minimum(x1, x2)
    maxx = np.maximum(x1, x2)
    miny = np.minimum(y1, y2)
    maxy = np.maximum(y1, y2)
    cross_prod = (x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1)
    on_edge = (
        (cross_prod == 0)
        & (X >= minx)
        & (X <= maxx)
        & (Y >= miny)
        & (Y <= maxy)
    )
    on_bd = np.zeros(n_pairs, dtype=bool)
    np.logical_or.at(on_bd, pair_of_item, on_edge)
    return inside, on_bd


def points_in_polygon_pairs(
    px: np.ndarray,
    py: np.ndarray,
    pg: PolygonArray,
    pt_idx: np.ndarray,
    poly_row_idx: np.ndarray,
) -> np.ndarray:
    """Boundary-inclusive PIP ('intersects') for candidate pairs.

    px/py index the full point set; ``pt_idx[i]``/``poly_row_idx[i]`` name
    the i-th candidate pair. Returns bool mask over pairs."""
    inside, on_bd = _pip_pairs_masks(px, py, pg, pt_idx, poly_row_idx)
    return inside | on_bd


# the reference's sfilter predicate vocabulary (sfilter.py:67-134)
PREDICATES = ("intersects", "within", "covered_by", "touches", "overlaps",
              "covers", "contains", "crosses")


def predicate_names(predicate) -> tuple[str, ...]:
    """One predicate name or a sequence of names -> validated tuple.

    Raises ValueError on a name outside ``PREDICATES`` and on an empty or
    duplicate sequence."""
    names = (predicate,) if isinstance(predicate, str) else tuple(predicate)
    if not names:
        raise ValueError("empty predicate sequence")
    bad = [p for p in names if p not in PREDICATES]
    if bad:
        raise ValueError(
            f"unknown predicate(s) {bad}; expected names from {PREDICATES}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate predicate in {list(names)}")
    return names


def _predicate_masks(predicate, n_pairs: int, rules: dict, basis) -> np.ndarray:
    """One bool mask over the pairs per predicate name.

    ``basis()`` computes the per-pair quantities once, and only if some
    requested name has a rule; ``rules[name](*basis())`` derives that
    name's mask. Names without a rule are DE-9IM-false for the geometry
    pair (all False). A sequence gives a (k, n_pairs) array, a single name
    its k = 1 row."""
    names = predicate_names(predicate)
    out = np.zeros((len(names), n_pairs), dtype=bool)
    live = [(k, rules[p]) for k, p in enumerate(names) if p in rules]
    if live:
        b = basis()
        for k, rule in live:
            out[k] = rule(*b)
    return out[0] if isinstance(predicate, str) else out


# point left vs areal right, from (crossing parity, on boundary)
_POINT_RULES = {
    "intersects": lambda inside, on_bd: inside | on_bd,
    "covered_by": lambda inside, on_bd: inside | on_bd,
    "within": lambda inside, on_bd: inside & ~on_bd,
    "touches": lambda inside, on_bd: on_bd,
}


def points_in_polygon_pairs_predicate(
    px: np.ndarray,
    py: np.ndarray,
    pg: PolygonArray,
    pt_idx: np.ndarray,
    poly_row_idx: np.ndarray,
    predicate="intersects",
) -> np.ndarray:
    """Full point-left predicate vocabulary vs areal right (reference
    sfilter.py:67-134; the within->inverse-contains rewrite at :46-62 is
    computed directly here): 'intersects' / 'covered_by' are
    boundary-inclusive PIP, 'within' is strict interior, 'touches' is
    exactly-on-boundary; 'contains' / 'covers' / 'overlaps' / 'crosses'
    are DE-9IM-false for a point left against an areal right.

    ``predicate`` is one name (-> mask over pairs) or a sequence of names
    (-> one mask row per name, all from one PIP pass)."""
    return _predicate_masks(
        predicate, len(pt_idx), _POINT_RULES,
        lambda: _pip_pairs_masks(px, py, pg, pt_idx, poly_row_idx))


# rect x rect pairs, from the interval overlaps and containments
_RECT_RULES = {
    "intersects": lambda ix, iy, l_in_r, r_in_l: (ix >= 0) & (iy >= 0),
    "touches": lambda ix, iy, l_in_r, r_in_l: (
        (ix >= 0) & (iy >= 0) & ((ix == 0) | (iy == 0))),
    "overlaps": lambda ix, iy, l_in_r, r_in_l: (
        (ix > 0) & (iy > 0) & ~l_in_r & ~r_in_l),
    # covers == contains and within == covered_by for positive-area rects
    "covers": lambda ix, iy, l_in_r, r_in_l: r_in_l,
    "contains": lambda ix, iy, l_in_r, r_in_l: r_in_l,
    "within": lambda ix, iy, l_in_r, r_in_l: l_in_r,
    "covered_by": lambda ix, iy, l_in_r, r_in_l: l_in_r,
}


def _rect_pair_basis(lb: np.ndarray, rb: np.ndarray,
                     qi: np.ndarray, pi: np.ndarray):
    """(ix, iy, l_in_r, r_in_l) of rect×rect (left-row, right-row) pairs
    from the two sides' (n, 4) bounds; ix/iy are the signed intersection
    extents (>= 0: closed boxes meet). Reads 1-D gathers of each bound
    column, never (n, 4) pair rows."""
    lx0, ly0, lx1, ly1 = (lb[:, k][qi] for k in range(4))
    rx0, ry0, rx1, ry1 = (rb[:, k][pi] for k in range(4))
    ix = np.minimum(lx1, rx1) - np.maximum(lx0, rx0)
    iy = np.minimum(ly1, ry1) - np.maximum(ly0, ry0)
    l_in_r = (lx0 >= rx0) & (lx1 <= rx1) & (ly0 >= ry0) & (ly1 <= ry1)
    r_in_l = (rx0 >= lx0) & (rx1 <= lx1) & (ry0 >= ly0) & (ry1 <= ly1)
    return ix, iy, l_in_r, r_in_l


# general pairs, from the closure-intersect flag and the boolean areas
# (NaN where a pair does not meet or the area was not needed)
_AREA_RULES = {
    "intersects": lambda hit, eps, amin, ai, d_lr, d_rl: hit,
    "touches": lambda hit, eps, amin, ai, d_lr, d_rl: hit & (ai <= eps),
    "overlaps": lambda hit, eps, amin, ai, d_lr, d_rl: (
        hit & (ai > eps) & (ai < amin - eps)),
    "covers": lambda hit, eps, amin, ai, d_lr, d_rl: hit & (d_rl <= eps),
    "contains": lambda hit, eps, amin, ai, d_lr, d_rl: (
        hit & (d_rl <= eps) & (ai > eps)),
    "covered_by": lambda hit, eps, amin, ai, d_lr, d_rl: hit & (d_lr <= eps),
    "within": lambda hit, eps, amin, ai, d_lr, d_rl: (
        hit & (d_lr <= eps) & (ai > eps)),
}
# which boolean areas each name reads: intersection, left \ right,
# right \ left. touches / overlaps read the intersection of every pair
# that meets; within / contains only where their containment holds.
_AREA_NEEDS = {
    "touches": ("ai",), "overlaps": ("ai",), "covers": ("d_rl",),
    "contains": ("d_rl",), "covered_by": ("d_lr",), "within": ("d_lr",),
}


def _area_pair_basis(left_pg: PolygonArray, right_pg: PolygonArray,
                     qi: np.ndarray, pi: np.ndarray, names: tuple):
    """(hit, eps, amin, ai, d_lr, d_rl) per general pair: the exact
    closure-intersect flag, then for hit pairs only the scanline boolean
    areas some name in ``names`` reads, each computed once."""
    from . import booleans as B

    hit = polygons_intersect_pairs(left_pg, right_pg, qi, pi)
    need = {a for p in names for a in _AREA_NEEDS.get(p, ())}
    ai_if_contained = bool({"within", "contains"} & set(names))
    eps, amin, ai, d_lr, d_rl = (np.full(len(qi), np.nan) for _ in range(5))
    for j in np.nonzero(hit)[0] if need else ():
        ra, ha = B.ringset_of_row(left_pg, int(qi[j]))
        rb, hb = B.ringset_of_row(right_pg, int(pi[j]))
        aa = B.ringset_area(ra, ha)
        ab = B.ringset_area(rb, hb)
        eps[j] = 1e-9 * max(1.0, aa, ab)
        amin[j] = min(aa, ab)
        if "d_lr" in need:
            d_lr[j] = B.boolean_area(ra, rb, "difference", ha, hb)
        if "d_rl" in need:
            d_rl[j] = B.boolean_area(rb, ra, "difference", hb, ha)
        if "ai" in need or (ai_if_contained and (d_lr[j] <= eps[j]
                                                 or d_rl[j] <= eps[j])):
            ai[j] = B.boolean_area(ra, rb, "intersection", ha, hb)
    return hit, eps, amin, ai, d_lr, d_rl


def polygon_predicate_pairs(
    left_pg: PolygonArray,
    right_pg: PolygonArray,
    qi: np.ndarray,
    pi: np.ndarray,
    predicate="intersects",
    right_bounds: np.ndarray | None = None,
    right_rects: np.ndarray | None = None,
) -> np.ndarray:
    """Areal×areal predicate vocabulary for candidate (left-row,
    right-row) pairs (reference sfilter.py:67-134 semantics): built on
    the exact scanline boolean engine's pair areas —

      touches    : boundaries meet, interiors disjoint (inter area 0)
      overlaps   : interiors meet, neither side covers the other
      covers     : right \\ left has zero area (left covers right)
      contains   : covers AND interiors meet (equal for positive-area
                   rights; split kept for DE-9IM fidelity)
      within /
      covered_by : the mirror pair (left \\ right zero) — the reference's
                   within->inverse-contains rewrite (sfilter.py:46-62)
                   computed directly
      crosses    : always False for area×area (DE-9IM dimension rule)

    Zero-tests use a relative epsilon on the snapped scanline areas.
    ``predicate`` is one name (-> mask over pairs) or a sequence of names
    (-> one mask row per name); either way each pair's interval
    quantities or boolean areas are computed once. ``right_bounds`` /
    ``right_rects``: the right side's ``polygon_bounds`` and
    ``detect_axis_rects``, when the caller holds them (a broadcast index
    derives them once per query); computed here otherwise."""
    names = predicate_names(predicate)
    # axis-rect fast path (same special case the clip kernels use): both
    # sides plain rectangles -> pure vectorized interval arithmetic on
    # gathered bound columns. For rect×rect pairs the caller's
    # bbox-overlap candidates ARE closure intersections, so the
    # SAT/exact intersect prefilter is skipped for them — at dense
    # coverage that prefilter dominated the whole pass (289 s -> seconds
    # on the sf0.1 box fixture). When every row of both sides is a rect
    # the basis reads qi / pi directly; otherwise the rect pairs' subset
    # goes through the same basis and the rest through the area engine.
    lb = polygon_bounds(left_pg)
    rb = polygon_bounds(right_pg) if right_bounds is None else right_bounds
    l_rect = detect_axis_rects(left_pg, lb)
    r_rect = detect_axis_rects(right_pg, rb) if right_rects is None else right_rects
    if l_rect.all() and r_rect.all():
        out = _predicate_masks(
            names, len(qi), _RECT_RULES,
            lambda: _rect_pair_basis(lb, rb, qi, pi))
        return out[0] if isinstance(predicate, str) else out
    rectpair = l_rect[qi] & r_rect[pi]
    out = np.zeros((len(names), len(qi)), dtype=bool)
    jf = np.nonzero(rectpair)[0]
    if len(jf):
        out[:, jf] = _predicate_masks(
            names, len(jf), _RECT_RULES,
            lambda: _rect_pair_basis(lb, rb, qi[jf], pi[jf]))
    gidx = np.nonzero(~rectpair)[0]
    if len(gidx):
        out[:, gidx] = _predicate_masks(
            names, len(gidx), _AREA_RULES,
            lambda: _area_pair_basis(left_pg, right_pg, qi[gidx], pi[gidx],
                                     names))
    return out[0] if isinstance(predicate, str) else out


def points_in_one_polygon(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Boundary-inclusive PIP of many points against ONE polygon (rings list)."""
    inside = np.zeros(len(px), dtype=bool)
    on_bd = np.zeros(len(px), dtype=bool)
    for ring in rings:
        x1, y1 = ring[:-1, 0], ring[:-1, 1]
        x2, y2 = ring[1:, 0], ring[1:, 1]
        for s in range(0, len(x1), 4096):
            xa, ya = x1[s : s + 4096], y1[s : s + 4096]
            xb, yb = x2[s : s + 4096], y2[s : s + 4096]
            cond = (ya[None, :] > py[:, None]) != (yb[None, :] > py[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = xa[None, :] + (py[:, None] - ya[None, :]) * (xb - xa)[None, :] / (
                    yb - ya
                )[None, :]
            inside ^= (cond & (px[:, None] < xint)).sum(axis=1) % 2 == 1
            cp = (xb - xa)[None, :] * (py[:, None] - ya[None, :]) - (yb - ya)[None, :] * (
                px[:, None] - xa[None, :]
            )
            onb = (
                (cp == 0)
                & (px[:, None] >= np.minimum(xa, xb)[None, :])
                & (px[:, None] <= np.maximum(xa, xb)[None, :])
                & (py[:, None] >= np.minimum(ya, yb)[None, :])
                & (py[:, None] <= np.maximum(ya, yb)[None, :])
            )
            on_bd |= onb.any(axis=1)
    return inside | on_bd


# ---------------------------------------------------------------------------
# Segment intersection & polygon-polygon intersects
# ---------------------------------------------------------------------------


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(a1, a2, b1, b2) -> np.ndarray:
    """Vectorized proper-or-touching segment intersection test.

    a1,a2,b1,b2: (m,2) arrays of endpoints. Touching counts.
    """
    d1 = _orient(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a1[:, 0], a1[:, 1])
    d2 = _orient(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a2[:, 0], a2[:, 1])
    d3 = _orient(a1[:, 0], a1[:, 1], a2[:, 0], a2[:, 1], b1[:, 0], b1[:, 1])
    d4 = _orient(a1[:, 0], a1[:, 1], a2[:, 0], a2[:, 1], b2[:, 0], b2[:, 1])
    general = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_seg(px, py, q1, q2, d):
        return (
            (d == 0)
            & (px >= np.minimum(q1[:, 0], q2[:, 0]))
            & (px <= np.maximum(q1[:, 0], q2[:, 0]))
            & (py >= np.minimum(q1[:, 1], q2[:, 1]))
            & (py <= np.maximum(q1[:, 1], q2[:, 1]))
        )

    touch = (
        on_seg(a1[:, 0], a1[:, 1], b1, b2, d1)
        | on_seg(a2[:, 0], a2[:, 1], b1, b2, d2)
        | on_seg(b1[:, 0], b1[:, 1], a1, a2, d3)
        | on_seg(b2[:, 0], b2[:, 1], a1, a2, d4)
    )
    return general | touch


def _exterior_ring(pg: PolygonArray, row: int) -> np.ndarray:
    q = pg.geom_offsets[row]
    r = pg.poly_offsets[q]
    return pg.coords[pg.ring_offsets[r] : pg.ring_offsets[r + 1]]


def _all_rings(pg: PolygonArray, row: int) -> list[np.ndarray]:
    out = []
    for q in range(pg.geom_offsets[row], pg.geom_offsets[row + 1]):
        for r in range(pg.poly_offsets[q], pg.poly_offsets[q + 1]):
            out.append(pg.coords[pg.ring_offsets[r] : pg.ring_offsets[r + 1]])
    return out


_SAT_MAX_VERTS = 16


def _convex_ring_table(pg: PolygonArray, rows: np.ndarray):
    """Per-unique-row (padded ring matrix, eligible flag) for the SAT fast
    path: eligible rows are single-part single-ring convex with <=
    _SAT_MAX_VERTS vertices. Padding repeats the first vertex (zero-length
    edges project degenerately and never separate); ineligible rows stay
    zero and are masked out by callers.

    Offset arithmetic throughout: one padded (rows, M, 2) vertex gather,
    and convexity from each ring's turn cross products at j, (j+1) % m,
    (j+2) % m — the arithmetic of ``is_convex_ring``, row by row."""
    rows = np.asarray(rows, dtype=np.int64)
    n = len(rows)
    ok = np.zeros(n, dtype=bool)
    g0 = pg.geom_offsets[rows]
    cand = np.nonzero(pg.geom_offsets[rows + 1] - g0 == 1)[0]
    q = g0[cand]
    cand = cand[pg.poly_offsets[q + 1] - pg.poly_offsets[q] == 1]
    ring = pg.poly_offsets[g0[cand]]
    start = pg.ring_offsets[ring]
    m = pg.ring_offsets[ring + 1] - start - 1
    keep = (m >= 3) & (m <= _SAT_MAX_VERTS)
    cand, start, m = cand[keep], start[keep], m[keep]
    if len(cand) == 0:
        return None, ok
    j = np.arange(m.max())
    mm, s0 = m[:, None], start[:, None]
    live = j < mm
    a = pg.coords[s0 + np.where(live, j, 0)]  # (k, M, 2), first-vertex pad
    b = pg.coords[s0 + (j + 1) % mm]
    c = pg.coords[s0 + (j + 2) % mm]
    cr = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
          - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
    convex = ((cr >= 0) | ~live).all(axis=1) | ((cr <= 0) | ~live).all(axis=1)
    ok[cand[convex]] = True
    if not convex.any():
        return None, ok
    maxm = int(m[convex].max())
    V = np.zeros((n, maxm, 2))
    V[cand[convex]] = a[convex, :maxm]
    return V, ok


def _sat_convex_pairs(VA: np.ndarray, VB: np.ndarray) -> np.ndarray:
    """Batched separating-axis test for convex pairs (touching counts as
    intersecting). VA: (P, Ma, 2), VB: (P, Mb, 2)."""
    P = len(VA)
    sep = np.zeros(P, dtype=bool)
    for V_from, V_a, V_b in ((VA, VA, VB), (VB, VB, VA)):
        M = V_from.shape[1]
        for j in range(M):
            e = V_from[:, (j + 1) % M] - V_from[:, j]
            nx, ny = -e[:, 1], e[:, 0]
            degen = (nx == 0) & (ny == 0)
            pa_ = V_a[:, :, 0] * nx[:, None] + V_a[:, :, 1] * ny[:, None]
            pb_ = V_b[:, :, 0] * nx[:, None] + V_b[:, :, 1] * ny[:, None]
            s = (pb_.max(axis=1) < pa_.min(axis=1)) | (
                pb_.min(axis=1) > pa_.max(axis=1)
            )
            sep |= s & ~degen
    return ~sep


def polygons_intersect_pairs(
    a: PolygonArray, b: PolygonArray, ai: np.ndarray, bi: np.ndarray
) -> np.ndarray:
    """Exact 'intersects' (touching counts) for candidate row pairs.

    Fast path: pairs where BOTH rows are single-ring convex (<=16 verts)
    run through one batched separating-axis test — vectorized over the
    whole pair list (the flagship's rect×diamond region join is 100%
    this shape). The generic vertex-in-polygon + edge-crossing refine
    remains for concave/holed/multi-part rows.
    """
    out = np.zeros(len(ai), dtype=bool)
    if len(ai) == 0:
        return out
    ua, inv_a = np.unique(ai, return_inverse=True)
    ub, inv_b = np.unique(bi, return_inverse=True)
    VA_u, ok_a = _convex_ring_table(a, ua)
    VB_u, ok_b = _convex_ring_table(b, ub)
    if VA_u is not None and VB_u is not None:
        fast = ok_a[inv_a] & ok_b[inv_b]
        if fast.any():
            out[fast] = _sat_convex_pairs(
                VA_u[inv_a[fast]], VB_u[inv_b[fast]]
            )
        rest = np.nonzero(~fast)[0]
    else:
        rest = np.arange(len(ai))
    for k in rest:
        ra = _all_rings(a, int(ai[k]))
        rb = _all_rings(b, int(bi[k]))
        pa = np.concatenate(ra)
        pb = np.concatenate(rb)
        if points_in_one_polygon(pa[:, 0], pa[:, 1], rb).any():
            out[k] = True
            continue
        if points_in_one_polygon(pb[:, 0], pb[:, 1], ra).any():
            out[k] = True
            continue
        hit = False
        for ring_a in ra:
            for ring_b in rb:
                e_a1 = ring_a[:-1]
                e_a2 = ring_a[1:]
                e_b1 = ring_b[:-1]
                e_b2 = ring_b[1:]
                na, nb = len(e_a1), len(e_b1)
                A1 = np.repeat(e_a1, nb, axis=0)
                A2 = np.repeat(e_a2, nb, axis=0)
                B1 = np.tile(e_b1, (na, 1))
                B2 = np.tile(e_b2, (na, 1))
                if segments_intersect(A1, A2, B1, B2).any():
                    hit = True
                    break
            if hit:
                break
        out[k] = hit
    return out


# ---------------------------------------------------------------------------
# Convex clipping (Sutherland–Hodgman) & convex-complement difference
# ---------------------------------------------------------------------------


def clip_ring_convex(subject: np.ndarray, clip_ring: np.ndarray) -> np.ndarray:
    """Clip a subject ring by a CONVEX clip ring (Sutherland–Hodgman).

    subject: (m,2) closed ring. clip_ring: (k,2) closed convex ring, any
    orientation (normalized internally to CCW). Returns the clipped closed
    ring ((0,2) if empty). Output ring is CCW if subject was CCW.
    """
    if ring_is_cw(clip_ring):
        clip_ring = clip_ring[::-1]
    poly = subject[:-1] if len(subject) and np.array_equal(subject[0], subject[-1]) else subject
    for i in range(len(clip_ring) - 1):
        if len(poly) == 0:
            break
        cx1, cy1 = clip_ring[i]
        cx2, cy2 = clip_ring[i + 1]
        # inside = left of directed clip edge (CCW convex ring)
        x, y = poly[:, 0], poly[:, 1]
        side = (cx2 - cx1) * (y - cy1) - (cy2 - cy1) * (x - cx1)
        inside = side >= 0
        nxt = np.roll(np.arange(len(poly)), -1)
        out_pts = []
        for j in range(len(poly)):
            k = nxt[j]
            if inside[j]:
                out_pts.append(poly[j])
                if not inside[k]:
                    out_pts.append(_edge_line_intersection(poly[j], poly[k], (cx1, cy1), (cx2, cy2)))
            elif inside[k]:
                out_pts.append(_edge_line_intersection(poly[j], poly[k], (cx1, cy1), (cx2, cy2)))
        poly = np.array(out_pts) if out_pts else np.empty((0, 2))
    if len(poly) < 3:
        return np.empty((0, 2))
    return np.vstack([poly, poly[:1]])


def _edge_line_intersection(p1, p2, c1, c2):
    """Intersection of segment p1-p2 with the infinite line through c1-c2."""
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = c1
    x4, y4 = c2
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / denom
    return np.array([x1 + t * (x2 - x1), y1 + t * (y2 - y1)])


def ring_is_cw(ring: np.ndarray) -> bool:
    x, y = ring[:, 0], ring[:, 1]
    return float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])) < 0


def ring_area(ring: np.ndarray) -> float:
    if len(ring) < 4:
        return 0.0
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * abs(float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))


def convex_difference_pieces(subject: np.ndarray, clip_ring: np.ndarray) -> list[np.ndarray]:
    """subject − convex(clip): disjoint convex-clipped pieces.

    Standard convex-complement decomposition: for each edge i of the CCW
    clip ring, one piece = subject ∩ outside(edge_i) ∩ inside(edge_0..i−1).
    The pieces are pairwise disjoint and their union is subject − clip, so
    Σ area(piece) == area(subject − clip) exactly.
    """
    if ring_is_cw(clip_ring):
        clip_ring = clip_ring[::-1]
    pieces = []
    current = subject  # region still to be split: subject ∩ inside(e_0..i-1)
    for i in range(len(clip_ring) - 1):
        if len(current) == 0:
            break
        c1, c2 = clip_ring[i], clip_ring[i + 1]
        # outside half-plane of edge i = flip the edge direction
        outside_piece = _clip_halfplane(current, c2, c1)
        if len(outside_piece) >= 4:
            pieces.append(outside_piece)
        current = _clip_halfplane(current, c1, c2)
    return pieces


def _clip_halfplane(ring: np.ndarray, c1, c2) -> np.ndarray:
    """Clip closed ring by the left half-plane of directed line c1→c2."""
    if len(ring) == 0:
        return ring
    poly = ring[:-1] if np.array_equal(ring[0], ring[-1]) else ring
    cx1, cy1 = c1
    cx2, cy2 = c2
    x, y = poly[:, 0], poly[:, 1]
    side = (cx2 - cx1) * (y - cy1) - (cy2 - cy1) * (x - cx1)
    inside = side >= 0
    out_pts = []
    n = len(poly)
    for j in range(n):
        k = (j + 1) % n
        if inside[j]:
            out_pts.append(poly[j])
            if not inside[k]:
                out_pts.append(_edge_line_intersection(poly[j], poly[k], c1, c2))
        elif inside[k]:
            out_pts.append(_edge_line_intersection(poly[j], poly[k], c1, c2))
    if len(out_pts) < 3:
        return np.empty((0, 2))
    poly = np.array(out_pts)
    return np.vstack([poly, poly[:1]])


def is_convex_ring(ring: np.ndarray) -> bool:
    """True if the closed ring is convex (collinear runs allowed)."""
    p = ring[:-1]
    if len(p) < 3:
        return False
    a = p
    b = np.roll(p, -1, axis=0)
    c = np.roll(p, -2, axis=0)
    cr = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    return bool(np.all(cr >= 0) or np.all(cr <= 0))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def point_point_dist2(px, py, qx, qy) -> np.ndarray:
    dx = px - qx
    dy = py - qy
    return dx * dx + dy * dy


def point_segment_dist2(px, py, x1, y1, x2, y2) -> np.ndarray:
    """Squared distance from points to segments (all vectorized, matched)."""
    dx = x2 - x1
    dy = y2 - y1
    ll = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - x1) * dx + (py - y1) * dy) / ll
    t = np.clip(np.where(ll == 0, 0.0, t), 0.0, 1.0)
    cx = x1 + t * dx
    cy = y1 + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2


# ---------------------------------------------------------------------------
# Axis-aligned rectangle fast paths (vectorized)
# ---------------------------------------------------------------------------


def detect_axis_rects(pg: PolygonArray, bounds: np.ndarray | None = None) -> np.ndarray:
    """Rows that are single-ring axis-aligned rectangles (5-pt ring whose
    area equals its bbox area and whose coords all lie on the bbox edges).
    GEOS has the same special case; it unlocks pure interval math for
    clip/subtract, keeping boxes vectorized end to end. ``bounds``: the
    rows' ``polygon_bounds``, if the caller already has them. An empty
    row (no polygon, or a polygon with no ring) is not a rect."""
    out = np.zeros(len(pg), dtype=bool)
    # rows of one polygon with one 5-point ring
    rows = np.flatnonzero(np.diff(pg.geom_offsets) == 1)
    poly = pg.geom_offsets[rows]
    one_ring = pg.poly_offsets[poly + 1] - pg.poly_offsets[poly] == 1
    rows, ring = rows[one_ring], pg.poly_offsets[poly[one_ring]]
    five = pg.ring_offsets[ring + 1] - pg.ring_offsets[ring] == 5
    rows, ring = rows[five], ring[five]
    if not len(rows):
        return out
    b = (polygon_bounds(pg) if bounds is None else bounds)[rows]
    # gather the 5 ring points of every candidate at once
    pts = pg.coords[pg.ring_offsets[ring][:, None] + np.arange(5)]  # (m, 5, 2)
    x, y = pts[:, :, 0], pts[:, :, 1]
    area = 0.5 * np.abs((x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1]).sum(axis=1))
    box_area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    on_edge = (
        ((x == b[:, None, 0]) | (x == b[:, None, 2]))
        & ((y == b[:, None, 1]) | (y == b[:, None, 3]))
    ).all(axis=1)
    out[rows] = on_edge & (area == box_area) & (box_area > 0)
    return out


def rect_intersection_boxes(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise rect∩rect. a, b: (m,4) matched. Returns (boxes, nonempty)."""
    minx = np.maximum(a[:, 0], b[:, 0])
    miny = np.maximum(a[:, 1], b[:, 1])
    maxx = np.minimum(a[:, 2], b[:, 2])
    maxy = np.minimum(a[:, 3], b[:, 3])
    ok = (maxx > minx) & (maxy > miny)
    return np.stack([minx, miny, maxx, maxy], axis=1), ok


def subtract_rect_from_rects(rects: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(n,4) rects minus ONE clip rect c -> (m,4) disjoint remainder rects.

    Each overlapped rect splits into at most 4 strips (left, right, bottom,
    top); untouched rects pass through. Pure interval math, fully
    vectorized over n.
    """
    if len(rects) == 0:
        return rects
    ix0 = np.maximum(rects[:, 0], c[0])
    iy0 = np.maximum(rects[:, 1], c[1])
    ix1 = np.minimum(rects[:, 2], c[2])
    iy1 = np.minimum(rects[:, 3], c[3])
    hit = (ix1 > ix0) & (iy1 > iy0)
    keep = rects[~hit]
    r = rects[hit]
    if len(r) == 0:
        return keep
    x0, y0, x1, y1 = r[:, 0], r[:, 1], r[:, 2], r[:, 3]
    cx0, cy0, cx1, cy1 = ix0[hit], iy0[hit], ix1[hit], iy1[hit]
    pieces = []
    left = np.stack([x0, y0, cx0, y1], axis=1)
    pieces.append(left[cx0 > x0])
    right = np.stack([cx1, y0, x1, y1], axis=1)
    pieces.append(right[cx1 < x1])
    bottom = np.stack([cx0, y0, cx1, cy0], axis=1)
    pieces.append(bottom[cy0 > y0])
    top = np.stack([cx0, cy1, cx1, y1], axis=1)
    pieces.append(top[cy1 < y1])
    return np.concatenate([keep] + pieces, axis=0)


def rects_to_rings(boxes: np.ndarray) -> np.ndarray:
    """(n,4) boxes -> (n,5,2) closed CCW rings."""
    n = len(boxes)
    rings = np.empty((n, 5, 2), dtype=np.float64)
    rings[:, 0, 0] = boxes[:, 0]
    rings[:, 0, 1] = boxes[:, 1]
    rings[:, 1, 0] = boxes[:, 2]
    rings[:, 1, 1] = boxes[:, 1]
    rings[:, 2, 0] = boxes[:, 2]
    rings[:, 2, 1] = boxes[:, 3]
    rings[:, 3, 0] = boxes[:, 0]
    rings[:, 3, 1] = boxes[:, 3]
    rings[:, 4] = rings[:, 0]
    return rings


def decompose_rectilinear(pg: PolygonArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row slab decomposition of RECTILINEAR polygons into disjoint rects.

    A row qualifies when every edge of every ring is axis-parallel (holes
    and concavity welcome). Qualifying rows are decomposed by y-slab +
    even-odd pairing of crossing vertical edges — the same interval-math
    trick GEOS' rectangle fast path exploits, generalized to any
    rectilinear shape so L-shapes / holed boxes keep vectorized overlay.

    Returns (rects (N,4), offsets (n+1,), ok (n,) bool). Rows with
    ok=False contribute zero rects and must use the generic engine.
    """
    n = len(pg)
    ok = np.ones(n, dtype=bool)
    offsets = np.zeros(n + 1, dtype=np.int64)
    # vectorized majority case: plain axis rects decompose to their own
    # bounds — the python slab loop below runs ONLY for the leftovers
    # (actor __init__ decomposes the whole right table; a per-row loop
    # over 100k+ rects would dominate the stage)
    is_rect = detect_axis_rects(pg)
    if is_rect.all():
        b = polygon_bounds(pg)
        return b.copy(), np.arange(n + 1, dtype=np.int64), ok
    rect_bounds = polygon_bounds(pg)
    all_rects: list[np.ndarray] = []
    for i in range(n):
        if is_rect[i]:
            all_rects.append(rect_bounds[i : i + 1])
            offsets[i + 1] = offsets[i] + 1
            continue
        r0 = pg.poly_offsets[pg.geom_offsets[i]]
        r1 = pg.poly_offsets[pg.geom_offsets[i + 1]]
        vx, vylo, vyhi = [], [], []
        rect_ok = True
        for r in range(r0, r1):
            ring = pg.coords[pg.ring_offsets[r] : pg.ring_offsets[r + 1]]
            dx = np.diff(ring[:, 0])
            dy = np.diff(ring[:, 1])
            if not np.all((dx == 0) | (dy == 0)):
                rect_ok = False
                break
            vert = dx == 0
            if vert.any():
                vx.append(ring[:-1, 0][vert])
                y1 = ring[:-1, 1][vert]
                y2 = ring[1:, 1][vert]
                vylo.append(np.minimum(y1, y2))
                vyhi.append(np.maximum(y1, y2))
        if not rect_ok or not vx:
            ok[i] = rect_ok and not vx  # degenerate empty stays "ok" w/ 0 rects
            offsets[i + 1] = offsets[i]
            if not rect_ok:
                ok[i] = False
            continue
        ex = np.concatenate(vx)
        eylo = np.concatenate(vylo)
        eyhi = np.concatenate(vyhi)
        ys = np.unique(np.concatenate([eylo, eyhi]))
        rects = []
        for s in range(len(ys) - 1):
            y0, y1 = ys[s], ys[s + 1]
            act = (eylo <= y0) & (eyhi >= y1)
            xs = np.sort(ex[act])
            # even-odd pairing
            for j in range(0, len(xs) - 1, 2):
                if xs[j + 1] > xs[j]:
                    rects.append((xs[j], y0, xs[j + 1], y1))
        if rects:
            all_rects.append(np.array(rects, dtype=np.float64))
            offsets[i + 1] = offsets[i] + len(rects)
        else:
            offsets[i + 1] = offsets[i]
    rect_arr = (
        np.concatenate(all_rects, axis=0) if all_rects else np.zeros((0, 4))
    )
    return rect_arr, offsets, ok


def rect_sets_inter_areas(
    lrects: np.ndarray, loffs: np.ndarray, li: np.ndarray,
    rrects: np.ndarray, roffs: np.ndarray, ri: np.ndarray,
) -> np.ndarray:
    """Pairwise intersection area of two disjoint-rect sets, vectorized.

    For candidate pairs (li[k], ri[k]): expands each pair to the cross
    product of its member rects with repeat arithmetic (no Python loop)
    and bincounts the clamped overlap products back per pair.
    """
    P = len(li)
    if P == 0:
        return np.zeros(0)
    cl = (loffs[li + 1] - loffs[li]).astype(np.int64)
    cr = (roffs[ri + 1] - roffs[ri]).astype(np.int64)
    # 1-D contiguous column copies — slicing a gathered (T,4) array reads
    # strided memory, ~4× the traffic on this host
    lx0 = np.ascontiguousarray(lrects[:, 0]); ly0 = np.ascontiguousarray(lrects[:, 1])
    lx1 = np.ascontiguousarray(lrects[:, 2]); ly1 = np.ascontiguousarray(lrects[:, 3])
    rx0 = np.ascontiguousarray(rrects[:, 0]); ry0 = np.ascontiguousarray(rrects[:, 1])
    rx1 = np.ascontiguousarray(rrects[:, 2]); ry1 = np.ascontiguousarray(rrects[:, 3])
    max_l = int(cl.max()) if P else 0
    max_r = int(cr.max()) if P else 0
    if max_l * max_r == 0:
        return np.zeros(P)
    if max_l * max_r <= 64:
        # slot-grid plan: member counts are tiny (an L-shape is 2 rects, a
        # box 1), so loop over (left slot, right slot) combinations with
        # P-sized vector math — NO T-sized expansion. The old repeat/arange
        # expansion allocated ~10 arrays of T=Σ cl·cr elements; first-touch
        # page faults on those dominated the whole overlay stage.
        area = np.zeros(P)
        lbase = loffs[li]
        rbase = roffs[ri]
        for sl in range(max_l):
            ml = cl > sl
            for sr in range(max_r):
                m = ml & (cr > sr)
                if not m.any():
                    continue
                a = lbase[m] + sl
                b = rbase[m] + sr
                w = np.minimum(lx1[a], rx1[b]) - np.maximum(lx0[a], rx0[b])
                h = np.minimum(ly1[a], ry1[b]) - np.maximum(ly0[a], ry0[b])
                area[m] += np.where((w > 0) & (h > 0), w * h, 0.0)
        return area
    # general fallback: chunked cross-product expansion (bounded allocs)
    tot = cl * cr
    area = np.zeros(P)
    CHUNK = 1 << 20
    s = 0
    while s < P:
        t_ = s
        acc = 0
        while t_ < P and (acc == 0 or acc + tot[t_] <= CHUNK):
            acc += int(tot[t_])
            t_ += 1
        sel = slice(s, t_)
        tc = tot[sel]
        T = int(tc.sum())
        if T:
            pair_id = np.repeat(np.arange(t_ - s), tc)
            base = np.concatenate([[0], np.cumsum(tc)])[:-1]
            k = np.arange(T) - np.repeat(base, tc)
            cr_e = np.repeat(cr[sel], tc)
            lidx = np.repeat(loffs[li[sel]], tc) + k // cr_e
            ridx = np.repeat(roffs[ri[sel]], tc) + k % cr_e
            w = np.minimum(lx1[lidx], rx1[ridx]) - np.maximum(lx0[lidx], rx0[ridx])
            h = np.minimum(ly1[lidx], ry1[ridx]) - np.maximum(ly0[lidx], ry0[ridx])
            ov = np.where((w > 0) & (h > 0), w * h, 0.0)
            area[sel] = np.bincount(pair_id, weights=ov, minlength=t_ - s)
        s = t_
    return area


def rect_sets_inter_boxes(
    lrects: np.ndarray, loffs: np.ndarray, li: int,
    rrects: np.ndarray, roffs: np.ndarray, ri: int,
) -> np.ndarray:
    """Disjoint overlap rects of ONE pair of rect sets (geometry output)."""
    a = lrects[loffs[li] : loffs[li + 1]]
    b = rrects[roffs[ri] : roffs[ri + 1]]
    if len(a) == 0 or len(b) == 0:
        return np.zeros((0, 4))
    A = np.repeat(a, len(b), axis=0)
    B = np.tile(b, (len(a), 1))
    x0 = np.maximum(A[:, 0], B[:, 0])
    y0 = np.maximum(A[:, 1], B[:, 1])
    x1 = np.minimum(A[:, 2], B[:, 2])
    y1 = np.minimum(A[:, 3], B[:, 3])
    m = (x1 > x0) & (y1 > y0)
    return np.stack([x0, y0, x1, y1], axis=1)[m]


def shared_border_length(rings_a: list[np.ndarray], rings_b: list[np.ndarray]) -> float:
    """Total length of collinear boundary overlap between two ringsets.

    The geometric core of eliminate_by_longest (reference
    polygon_operations.py:240-259: to_lines overlay + length): for every
    edge pair, if the segments are collinear, add their 1-D projected
    overlap length. Fully vectorized over the edge cross product.
    """
    if not rings_a or not rings_b:
        return 0.0
    A = np.concatenate([np.stack([r[:-1], r[1:]], axis=1) for r in rings_a])
    B = np.concatenate([np.stack([r[:-1], r[1:]], axis=1) for r in rings_b])
    a1 = A[:, 0][:, None, :]
    a2 = A[:, 1][:, None, :]
    b1 = B[None, :, 0, :]
    b2 = B[None, :, 1, :]
    d = a2 - a1  # (na,1,2)
    e = b2 - b1  # (1,nb,2)
    # parallel AND collinear (b1 on line a)
    parallel = d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0] == 0
    coll = (
        d[..., 0] * (b1[..., 1] - a1[..., 1])
        - d[..., 1] * (b1[..., 0] - a1[..., 0])
    ) == 0
    len2 = (d * d).sum(axis=-1)  # (na,1)
    s1 = ((b1 - a1) * d).sum(axis=-1)
    s2 = ((b2 - a1) * d).sum(axis=-1)
    lo = np.minimum(s1, s2)
    hi = np.maximum(s1, s2)
    ov = np.minimum(hi, len2) - np.maximum(lo, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        seg_len = np.where(
            parallel & coll & (ov > 0) & (len2 > 0), ov / np.sqrt(len2), 0.0
        )
    return float(seg_len.sum())


_GRID_UNION_CELL_CAP = 4_000_000  # int32 grid ≤ 16 MB (under glibc's 32 MB
# DEFAULT_MMAP_THRESHOLD_MAX — a bigger grid would page-fault on first touch)


def rects_union_area(rects: np.ndarray) -> float:
    """Union area of possibly-overlapping axis rects (Klee sweep).

    Two plans behind one exact contract:
    - compressed diff-grid (default): scatter ±1 at rect corners on the
      (x-cuts × y-cuts) grid, double cumsum, sum cell areas where count>0.
      Fully vectorized — ~10× the slab loop for the ≲1k-rect unions the
      overlay right-diff leg runs per row.
    - slab loop over distinct x-cuts with a numpy interval merge per slab —
      O(n · slabs) memory-light fallback when the compressed grid would
      exceed _GRID_UNION_CELL_CAP cells.
    Both sum exact products of the input coordinates (integer-exact in the
    fixture world); no sequential painter subtraction (whose piece lists
    grow quadratically)."""
    if len(rects) == 0:
        return 0.0
    x0s_, y0s_, x1s_, y1s_ = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    bx0, by0, bx1, by1 = x0s_.min(), y0s_.min(), x1s_.max(), y1s_.max()
    # fast path: one rect covering the joint bbox decides the union —
    # common when clip rects are whole-subrect (right ≫ left piece)
    if ((x0s_ <= bx0) & (y0s_ <= by0) & (x1s_ >= bx1) & (y1s_ >= by1)).any():
        return float((bx1 - bx0) * (by1 - by0))
    xs = np.unique(np.concatenate([rects[:, 0], rects[:, 2]]))
    x0s, x1s = rects[:, 0], rects[:, 2]
    y0s, y1s = rects[:, 1], rects[:, 3]
    ys = np.unique(np.concatenate([y0s, y1s]))
    if (len(xs) - 1) * (len(ys) - 1) <= _GRID_UNION_CELL_CAP:
        xi0 = np.searchsorted(xs, x0s)
        xi1 = np.searchsorted(xs, x1s)
        yi0 = np.searchsorted(ys, y0s)
        yi1 = np.searchsorted(ys, y1s)
        d = np.zeros((len(xs), len(ys)), dtype=np.int32)
        np.add.at(d, (xi0, yi0), 1)
        np.add.at(d, (xi1, yi0), -1)
        np.add.at(d, (xi0, yi1), -1)
        np.add.at(d, (xi1, yi1), 1)
        # grid stays under the 32 MB mmap threshold, so the strided axis-0
        # cumsum runs on heap-resident memory (no first-touch faults)
        cov = d.cumsum(axis=1).cumsum(axis=0)[: len(xs) - 1, : len(ys) - 1]
        dy = np.diff(ys)
        dx = np.diff(xs)
        return float(((cov > 0) * dy[None, :]).sum(axis=1) @ dx)
    total = 0.0
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        act = (x0s <= a) & (x1s >= b)
        if not act.any():
            continue
        lo = y0s[act]
        hi = y1s[act]
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        run_max = np.maximum.accumulate(hi)
        # covered length = Σ (hi' − lo) over merged intervals
        gap_start = np.concatenate([[True], lo[1:] > run_max[:-1]])
        seg_id = np.cumsum(gap_start) - 1
        seg_lo = lo[gap_start]
        seg_hi = np.zeros(seg_id[-1] + 1)
        np.maximum.at(seg_hi, seg_id, hi)
        total += (b - a) * float(np.sum(seg_hi - seg_lo))
    return total


# ---------------------------------------------------------------------------
# Expression-layer kernels: representative point, unique vertices,
# boundary shortest-line (SURVEY §2.9; reference duplicates.py:242,
# point_operations.py:197-223, closing_network_holes.py:307)
# ---------------------------------------------------------------------------


def _row_coord_spans(pg: PolygonArray) -> tuple[np.ndarray, np.ndarray]:
    """(start, stop) coord spans per ROW (all parts and rings)."""
    r0 = pg.poly_offsets[pg.geom_offsets[:-1]]
    r1 = pg.poly_offsets[pg.geom_offsets[1:]]
    return pg.ring_offsets[r0], pg.ring_offsets[r1]


def representative_points(pg: PolygonArray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic interior point per row (reference representative_point,
    duplicates.py:242): horizontal scanline through the bbox midline, midpoint
    of the WIDEST even-odd covered interval (ties -> leftmost interval).

    If the midline y hits any vertex y of the row exactly, the scanline moves
    to halfway between the midline and the next distinct vertex level BELOW it
    — one step suffices, since that open interval contains no vertex y, so
    every crossing comparison is strict. Holes and multiple parts are handled
    by crossing ALL rings (even-odd rule). Fully vectorized across the batch.
    """
    n = len(pg)
    if n == 0:
        return np.empty(0), np.empty(0)
    c0, c1 = _row_coord_spans(pg)
    xs_all = pg.coords[:, 0]
    ys_all = pg.coords[:, 1]
    ymin = np.minimum.reduceat(ys_all, c0)
    ymax = np.maximum.reduceat(ys_all, c0)
    yb = 0.5 * (ymin + ymax)
    row_of_coord = np.repeat(np.arange(n), c1 - c0)
    yb_c = yb[row_of_coord]
    hit = np.bincount(row_of_coord[ys_all == yb_c], minlength=n) > 0
    below = np.where(ys_all < yb_c, ys_all, -np.inf)
    lo = np.maximum.reduceat(below, c0)
    ystar = np.where(hit, 0.5 * (yb + lo), yb)

    # edges: every coord except each ring's last (rings are stored closed)
    edge_mask = np.ones(len(pg.coords), dtype=bool)
    edge_mask[pg.ring_offsets[1:] - 1] = False
    eidx = np.nonzero(edge_mask)[0]
    erow = row_of_coord[eidx]
    ya, yb2 = ys_all[eidx], ys_all[eidx + 1]
    t = ystar[erow]
    cross = (ya < t) != (yb2 < t)
    ei = eidx[cross]
    rowc = erow[cross]
    with np.errstate(invalid="ignore", divide="ignore"):
        xc = xs_all[ei] + (ystar[rowc] - ys_all[ei]) * (
            xs_all[ei + 1] - xs_all[ei]
        ) / (ys_all[ei + 1] - ys_all[ei])
    order = np.lexsort((xc, rowc))
    xs_s, rows_s = xc[order], rowc[order]
    counts = np.bincount(rows_s, minlength=n)
    base = np.concatenate([[0], np.cumsum(counts)])
    within = np.arange(len(xs_s)) - base[rows_s]
    iv0 = np.nonzero(within % 2 == 0)[0]
    widths = xs_s[iv0 + 1] - xs_s[iv0]
    iv_row = rows_s[iv0]
    iv_counts = counts // 2
    has = iv_counts > 0
    rep_x = 0.5 * (
        np.minimum.reduceat(xs_all, c0) + np.maximum.reduceat(xs_all, c0)
    )  # fallback: bbox center (degenerate rows only)
    if widths.size:
        seg_starts = np.concatenate([[0], np.cumsum(iv_counts)])[:-1][has]
        wmax_h = np.maximum.reduceat(widths, seg_starts)
        wmax = np.full(n, -np.inf)
        wmax[has] = wmax_h
        cand = np.where(
            widths == wmax[iv_row], np.arange(len(widths)), len(widths)
        )
        pick_h = np.minimum.reduceat(cand, seg_starts)
        sel = iv0[pick_h]
        rep_x[has] = 0.5 * (xs_s[sel] + xs_s[sel + 1])
    return rep_x, ystar


def unique_vertex_stats(pg: PolygonArray) -> dict:
    """Per-row vertex dedup (reference extract_unique_points,
    polygon_operations.py:7-20 usage): counts raw and distinct vertices over
    ALL rings/parts and sums the distinct coordinates. Vectorized: one global
    lexsort by (row, x, y), first-occurrence mask, bincount reductions."""
    n = len(pg)
    c0, c1 = _row_coord_spans(pg)
    xs_all = pg.coords[:, 0]
    ys_all = pg.coords[:, 1]
    row = np.repeat(np.arange(n), c1 - c0)
    order = np.lexsort((ys_all, xs_all, row))
    r_s, x_s, y_s = row[order], xs_all[order], ys_all[order]
    first = np.ones(len(r_s), dtype=bool)
    if len(r_s) > 1:
        first[1:] = (
            (r_s[1:] != r_s[:-1]) | (x_s[1:] != x_s[:-1]) | (y_s[1:] != y_s[:-1])
        )
    return {
        "n_raw": (c1 - c0).astype(np.int64),
        "n_unique": np.bincount(r_s[first], minlength=n).astype(np.int64),
        "x_sum": np.bincount(r_s[first], weights=x_s[first], minlength=n),
        "y_sum": np.bincount(r_s[first], weights=y_s[first], minlength=n),
    }


def _seg_seg_closest(P1, P2, Q1, Q2):
    """Closest points between segment pairs (vectorized Ericson 5.1.9).
    Returns (dist2, cp_on_P, cp_on_Q)."""
    d1 = P2 - P1
    d2 = Q2 - Q1
    r = P1 - Q1
    a = (d1 * d1).sum(axis=1)
    e = (d2 * d2).sum(axis=1)
    f = (d2 * r).sum(axis=1)
    c = (d1 * r).sum(axis=1)
    b = (d1 * d2).sum(axis=1)
    denom = a * e - b * b
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(denom > 0, np.clip((b * f - c * e) / np.where(denom > 0, denom, 1.0), 0.0, 1.0), 0.0)
        t = np.where(e > 0, (b * s + f) / np.where(e > 0, e, 1.0), 0.0)
        t_cl = np.clip(t, 0.0, 1.0)
        s = np.where(
            t != t_cl,
            np.clip((b * t_cl - c) / np.where(a > 0, a, 1.0), 0.0, 1.0),
            s,
        )
    cp1 = P1 + s[:, None] * d1
    cp2 = Q1 + t_cl[:, None] * d2
    diff = cp1 - cp2
    return (diff * diff).sum(axis=1), cp1, cp2


def boundary_shortest_lines(
    a: PolygonArray, b: PolygonArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-paired shortest_line / nearest_points (reference shapely
    shortest_line at closing_network_holes.py:307, nearest_points at
    point_operations.py:197-223): for each row i, the minimum distance
    between the BOUNDARIES of a[i] and b[i] and the achieving point pair.
    Rows whose polygons intersect (overlap/touch/containment) get dist2=0
    and zero points. Vectorized edge-pair expansion across the batch."""
    n = len(a)
    assert len(b) == n
    dist2 = np.zeros(n)
    cpa = np.zeros((n, 2))
    cpb = np.zeros((n, 2))
    if n == 0:
        return dist2, cpa, cpb
    inter = polygons_intersect_pairs(a, b, np.arange(n), np.arange(n))
    todo = np.nonzero(~inter)[0]
    if len(todo) == 0:
        return dist2, cpa, cpb

    def _edges(pg: PolygonArray, rows: np.ndarray):
        c0, c1 = _row_coord_spans(pg)
        d = np.zeros(len(pg.coords) + 1, dtype=np.int32)
        np.add.at(d, c0[rows], 1)
        np.add.at(d, c1[rows], -1)
        mask = np.cumsum(d[:-1]) > 0
        mask[pg.ring_offsets[1:] - 1] = False
        idx = np.nonzero(mask)[0]
        row_of = np.repeat(np.arange(len(pg)), c1 - c0)
        return idx, row_of[idx]

    ia, ra = _edges(a, todo)
    ib, rb = _edges(b, todo)
    ea = np.bincount(ra, minlength=n)[todo]
    eb = np.bincount(rb, minlength=n)[todo]
    pair_counts = ea * eb
    pair_base = np.concatenate([[0], np.cumsum(pair_counts)])
    T = int(pair_base[-1])
    pr = np.repeat(np.arange(len(todo)), pair_counts)  # index into todo
    k = np.arange(T) - pair_base[pr]
    a_base = np.concatenate([[0], np.cumsum(ea)])
    b_base = np.concatenate([[0], np.cumsum(eb)])
    ai_g = ia[a_base[pr] + k // eb[pr]]
    bi_g = ib[b_base[pr] + k % eb[pr]]
    d2, c1p, c2p = _seg_seg_closest(
        a.coords[ai_g], a.coords[ai_g + 1], b.coords[bi_g], b.coords[bi_g + 1]
    )
    best = np.minimum.reduceat(d2, pair_base[:-1])
    cand = np.where(best[pr] == d2, np.arange(T), T)
    pick = np.minimum.reduceat(cand, pair_base[:-1])
    dist2[todo] = best
    cpa[todo] = c1p[pick]
    cpb[todo] = c2p[pick]
    return dist2, cpa, cpb


# ---------------------------------------------------------------------------
# Line-left predicates vs areal rights (reference sfilter.py accepts any
# geometry type; lines are where 'crosses' is a REAL predicate)
# ---------------------------------------------------------------------------


def _classify_points_rings(px: np.ndarray, py: np.ndarray,
                           rings: list[np.ndarray]):
    """(strict_inside, on_boundary) of points vs a ring set — even-odd
    over ALL rings, so holes and multi-parts classify correctly."""
    n = len(px)
    parity = np.zeros(n, dtype=np.int64)
    onbd = np.zeros(n, dtype=bool)
    X = px[:, None]
    Y = py[:, None]
    for ring in rings:
        x1, y1 = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
        x2, y2 = ring[1:, 0][None, :], ring[1:, 1][None, :]
        cond = (y1 > Y) != (y2 > Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (Y - y1) * (x2 - x1) / (y2 - y1)
        parity += (cond & (X < xint)).sum(axis=1)
        cross = (x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1)
        one = (
            (cross == 0)
            & (X >= np.minimum(x1, x2)) & (X <= np.maximum(x1, x2))
            & (Y >= np.minimum(y1, y2)) & (Y <= np.maximum(y1, y2))
        )
        onbd |= one.any(axis=1)
    inside = (parity % 2 == 1) & ~onbd
    return inside, onbd


def _seg_boundary_ts(p1: np.ndarray, p2: np.ndarray,
                     E1: np.ndarray, E2: np.ndarray) -> np.ndarray:
    """Parameters t in [0,1] where segment p1->p2 meets any boundary edge
    (E1[i], E2[i]) — proper crossings, endpoint touches, and the clipped
    endpoints of collinear overlaps."""
    d = p2 - p1
    e = E2 - E1
    qp = E1 - p1[None, :]
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    t_num = qp[:, 0] * e[:, 1] - qp[:, 1] * e[:, 0]
    s_num = qp[:, 0] * d[1] - qp[:, 1] * d[0]
    ts = []
    nz = denom != 0
    if nz.any():
        t = t_num[nz] / denom[nz]
        s = s_num[nz] / denom[nz]
        ok = (t >= 0) & (t <= 1) & (s >= 0) & (s <= 1)
        ts.append(t[ok])
    # collinear overlap: parallel (denom==0) and on the same line
    col = (~nz) & (s_num == 0)
    if col.any():
        dd = float(d @ d)
        if dd > 0:
            tA = ((E1[col] - p1) @ d) / dd
            tB = ((E2[col] - p1) @ d) / dd
            lo_r = np.minimum(tA, tB)
            hi_r = np.maximum(tA, tB)
            # the UNCLIPPED edge interval must overlap [0,1] — clipping
            # first would fabricate a touch from a collinear-but-disjoint
            # edge beyond the segment's end
            keep = (hi_r >= 0.0) & (lo_r <= 1.0)
            ts.append(np.clip(lo_r[keep], 0.0, 1.0))
            ts.append(np.clip(hi_r[keep], 0.0, 1.0))
    if not ts:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(ts)


# line left vs areal right, from what the line meets: the polygon's
# interior, its exterior, its boundary
_LINE_RULES = {
    "intersects": lambda i, e, b: i | b,
    "crosses": lambda i, e, b: i & e,
    "within": lambda i, e, b: i & ~e,
    "covered_by": lambda i, e, b: (i | b) & ~e,
    "touches": lambda i, e, b: b & ~i,
}


def _line_pair_basis(la, pg: PolygonArray, qi: np.ndarray, pi: np.ndarray):
    """(has_interior, has_exterior, has_boundary) per (line-row,
    polygon-row) pair: each line segment is split at its boundary-hit
    parameters and the sub-segment midpoints classify strict-inside /
    on-boundary / outside (even-odd over all rings, holes correct)."""
    from . import booleans as B

    has = np.zeros((3, len(qi)), dtype=bool)
    ring_cache: dict[int, tuple] = {}
    for j in range(len(qi)):
        lrow = int(qi[j])
        prow = int(pi[j])
        if prow not in ring_cache:
            rings, _holes = B.ringset_of_row(pg, prow)
            E1 = np.concatenate([r[:-1] for r in rings])
            E2 = np.concatenate([r[1:] for r in rings])
            ring_cache[prow] = (rings, E1, E2)
        rings, E1, E2 = ring_cache[prow]
        has_int = has_ext = has_bd = False
        for li in range(la.geom_offsets[lrow], la.geom_offsets[lrow + 1]):
            pts = la.coords[la.line_offsets[li]:la.line_offsets[li + 1]]
            for s in range(len(pts) - 1):
                p1, p2 = pts[s], pts[s + 1]
                hits = _seg_boundary_ts(p1, p2, E1, E2)
                if len(hits):
                    has_bd = True
                ts = np.unique(np.concatenate(
                    [np.array([0.0, 1.0]), hits]))
                mid = (ts[:-1] + ts[1:]) / 2.0
                mx = p1[0] + mid * (p2[0] - p1[0])
                my = p1[1] + mid * (p2[1] - p1[1])
                inside, onbd = _classify_points_rings(mx, my, rings)
                if inside.any():
                    has_int = True
                if onbd.any():
                    has_bd = True
                if (~inside & ~onbd).any():
                    has_ext = True
                if has_int and has_ext and has_bd:
                    break
            else:
                continue
            break
        has[:, j] = has_int, has_ext, has_bd
    return has


def lines_in_polygon_pairs_predicate(
    la,
    pg: PolygonArray,
    qi: np.ndarray,
    pi: np.ndarray,
    predicate="intersects",
) -> np.ndarray:
    """Line-left predicate vocabulary vs areal rights for candidate
    (line-row, polygon-row) pairs, full DE-9IM semantics:

      intersects : any closure contact
      crosses    : line interior meets BOTH the polygon interior and its
                   exterior (the dimension pair where crosses is real)
      within     : no point in the exterior AND some point in the interior
      covered_by : no point in the exterior (a line lying entirely on the
                   boundary is covered_by but NOT within — GEOS split)
      touches    : boundary contact only, interior never entered
      contains / covers / overlaps : always False (dimension rule)

    ``predicate`` is one name (-> mask over pairs) or a sequence of names
    (-> one mask row per name, all from one classification pass)."""
    return _predicate_masks(predicate, len(qi), _LINE_RULES,
                            lambda: _line_pair_basis(la, pg, qi, pi))


def line_bounds(la) -> np.ndarray:
    """(n, 4) per-row bounding boxes of a LineArray; NaN for a row with
    no coordinates (as polygon_bounds). Rows' coords are contiguous, so
    one reduceat pass per extreme over the non-empty rows."""
    n = len(la)
    out = np.full((n, 4), np.nan, dtype=np.float64)
    starts = la.line_offsets[la.geom_offsets[:-1]]
    stops = la.line_offsets[la.geom_offsets[1:]]
    full = stops > starts
    if full.any():
        s = starts[full]
        out[full, 0] = np.minimum.reduceat(la.coords[:, 0], s)
        out[full, 1] = np.minimum.reduceat(la.coords[:, 1], s)
        out[full, 2] = np.maximum.reduceat(la.coords[:, 0], s)
        out[full, 3] = np.maximum.reduceat(la.coords[:, 1], s)
    return out
