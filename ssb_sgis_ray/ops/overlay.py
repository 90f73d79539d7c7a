"""clean_overlay — spatial set operations between two polygon datasets.

Reproduces the semantics of the reference's flagship operator
(/root/reference/src/sgis/geopandas_tools/overlay.py:31-151, core
``_shapely_pd_overlay``:199-257):

* ``how`` ∈ {intersection, union, identity, symmetric_difference,
  difference, update};
* candidate pairs via STRtree 'intersects' query (overlay.py:210-211);
* per-``how`` vectorized geometry math; difference groups pairs by left
  row and subtracts the union of matched right geoms (overlay.py:399-423);
* unmatched left rows ride through difference/union legs
  (``_add_indices_from_left``:384-385); unmatched right rows join union/
  symmetric_difference with right columns (``_add_from_right``:388-396);
* suffixes ``_1``/``_2`` applied ONLY to columns present in both inputs
  (``_add_suffix_left``:372-381), skipped for difference/update;
* geometry column last; null/empty geometries dropped (overlay.py:241-255).

Engine plan (broadcast right side): the right table is ``ray.put`` once;
an actor pool decodes it + builds the STRtree in ``__init__``; each batch
of the left side is processed vectorized-per-pair. Geometry math is
tiered: axis-aligned rect×rect pairs use pure interval math; hole-free
convex×convex pairs use the Sutherland–Hodgman / convex-complement
kernels; everything else (concave, holed, multi-part — the general case
the reference gets from GEOS) goes through the scanline boolean engine
in geo/booleans.py, which emits polygons-with-holes.

Unsupported: grid_size snapping (the integer-exact world needs none).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import exchange
from ..geo import booleans, cells, kernels, wkb
from ..geo.strtree import STRtree

from ..pool import default_pool, per_batch

HOWS = ("intersection", "union", "identity", "symmetric_difference", "difference", "update")


def _rings_of_row(pg: wkb.PolygonArray, row: int) -> list[np.ndarray]:
    out = []
    for q in range(pg.geom_offsets[row], pg.geom_offsets[row + 1]):
        r0 = pg.poly_offsets[q]
        out.append(pg.coords[pg.ring_offsets[r0] : pg.ring_offsets[r0 + 1]])
    return out


def _pieces_to_wkb(pieces: list[np.ndarray]) -> bytes | None:
    pieces = [p for p in pieces if kernels.ring_area(p) > 0]
    if not pieces:
        return None
    if len(pieces) == 1:
        return wkb.encode_polygon([pieces[0]])
    return wkb.encode_multipolygon([[p] for p in pieces])


def _polys_to_wkb(polys: list[list[np.ndarray]]) -> bytes | None:
    """booleans.py output ([ [shell, holes...], ... ]) -> WKB."""
    polys = [p for p in polys if p and abs(kernels.ring_area(p[0])) > 0]
    if not polys:
        return None
    if len(polys) == 1:
        return wkb.encode_polygon(polys[0])
    return wkb.encode_multipolygon(polys)


def _row_passthrough_wkb(pg: wkb.PolygonArray, row: int) -> bytes | None:
    """Re-encode a row with EVERY ring of every part (shells + holes).

    Pass-through rows (no intersecting right row) must keep interior holes,
    matching the reference's GEOS behavior where untouched geometries ride
    through difference/identity/update unchanged (overlay.py:384-385)."""
    polys = []
    for q in range(pg.geom_offsets[row], pg.geom_offsets[row + 1]):
        r0, r1 = pg.poly_offsets[q], pg.poly_offsets[q + 1]
        polys.append(
            [pg.coords[pg.ring_offsets[r] : pg.ring_offsets[r + 1]]
             for r in range(r0, r1)]
        )
    return _polys_to_wkb(polys)


def _row_fastpath(pg: wkb.PolygonArray, row: int) -> bool:
    """True when every part is a hole-free convex single ring (eligible
    for the Sutherland–Hodgman / convex-complement kernels)."""
    for q in range(pg.geom_offsets[row], pg.geom_offsets[row + 1]):
        r0, r1 = pg.poly_offsets[q], pg.poly_offsets[q + 1]
        if r1 - r0 != 1:
            return False
        ring = pg.coords[pg.ring_offsets[r0] : pg.ring_offsets[r0 + 1]]
        if not kernels.is_convex_ring(ring):
            return False
    return True


def _subtract_all(subject_rings: list[np.ndarray], clip_rings: list[np.ndarray]) -> list[np.ndarray]:
    """subject − union(clips): successive convex-complement subtraction.

    Fast path for convex clip rings only (callers route holed/concave
    operands through booleans.boolean_polygons). Pieces stay convex, so
    chained subtraction is exact and the resulting pieces are disjoint.
    """
    pieces = list(subject_rings)
    for clip in clip_rings:
        nxt: list[np.ndarray] = []
        for p in pieces:
            nxt.extend(kernels.convex_difference_pieces(p, clip))
        pieces = nxt
        if not pieces:
            break
    return pieces


def snap_polygon_coords(pg: wkb.PolygonArray, grid_size: float) -> wkb.PolygonArray:
    """GEOS-style grid_size snapping (clean_overlay's ``grid_size`` arg):
    every coordinate rounds to the nearest multiple of grid_size BEFORE
    the geometry math, so near-coincident boundaries become exactly
    coincident (the reference forwards this to shapely's overlay)."""
    snapped = np.round(pg.coords / grid_size) * grid_size
    return wkb.PolygonArray(
        coords=snapped,
        ring_offsets=pg.ring_offsets,
        poly_offsets=pg.poly_offsets,
        geom_offsets=pg.geom_offsets,
    )


class RightGeoms:
    """Decoded right-side geometry index: polygons + STRtree + the rect /
    rectilinear fast-path state. Built once per broadcast actor OR once per
    cell group in the co-partitioned plan — the same tiered math runs over
    either."""

    def __init__(self, right: pa.Table, grid_size: float | None = None):
        self.table = right
        self.rpg = wkb.decode_polygons(right["geometry_wkb"])
        if grid_size is not None:
            self.rpg = snap_polygon_coords(self.rpg, grid_size)
        self.rbounds = kernels.polygon_bounds(self.rpg)
        self.tree = STRtree(self.rbounds)
        self.cols = [c for c in right.column_names if c != "geometry_wkb"]
        # rectangle fast path: axis-aligned boxes stay boxes under clip and
        # subtract, so rect×rect pairs use pure interval math (vectorized)
        self.r_is_rect = kernels.detect_axis_rects(self.rpg)
        # rectilinear fast path: ANY axis-parallel polygon (L-shapes, holed
        # boxes) decomposes once into disjoint rects; pair math stays
        # vectorized interval arithmetic
        self.r_rects, self.r_offs, self.r_rlin = kernels.decompose_rectilinear(self.rpg)


def _as_right_geoms(obj, grid_size: float | None = None) -> RightGeoms:
    """Accept a prebuilt RightGeoms OR a raw Arrow table.

    Broadcast call sites ray.put the PREBUILT index so the decode +
    STRtree + rect-decomposition work happens once on the driver instead
    of once per actor (at sf0.1/150k rights that build costs ~9 s — with
    a ~28-actor pool it was ~250 s of redundant CPU and the whole pass-1
    ramp-up of overlay_union)."""
    return obj if isinstance(obj, RightGeoms) else RightGeoms(obj, grid_size)


def find_candidate_pairs(lpg: wkb.PolygonArray, l_is_rect: np.ndarray,
                         R: RightGeoms, l_rlin: np.ndarray | None = None):
    """STRtree bbox query + exact refine -> (left rows, right rows).

    rect×rect pairs skip the refine (bbox overlap IS the boundary-inclusive
    intersects test); rlin×rlin pairs skip it too — downstream legs are
    insensitive to false candidates (vectorized area filters drop empty
    intersections, subtracting a non-overlapping clip is a no-op)."""
    lb = kernels.polygon_bounds(lpg)
    qi, pi = R.tree.query_bbox(lb)
    if len(qi):
        both_rect = l_is_rect[qi] & R.r_is_rect[pi]
        skip = both_rect
        if l_rlin is not None:
            skip = skip | (l_rlin[qi] & R.r_rlin[pi])
        gi = np.nonzero(~skip)[0]
        keep = np.ones(len(qi), dtype=bool)
        if len(gi):
            keep[gi] = kernels.polygons_intersect_pairs(lpg, R.rpg, qi[gi], pi[gi])
        qi, pi = qi[keep], pi[keep]
    return qi, pi


def intersection_pieces(lpg: wkb.PolygonArray, lbounds: np.ndarray,
                        l_decomp, l_is_rect: np.ndarray, R: RightGeoms,
                        qi: np.ndarray, pi: np.ndarray, area_only: bool):
    """Tiered per-pair intersection math (rect interval → rectilinear
    decomposition → Sutherland–Hodgman convex → scanline boolean engine).

    Returns (li, ri, areas | None, geoms | None) — the geometry core of
    the intersection leg, shared by the broadcast actor and the per-cell
    co-partitioned kernel."""
    both_rect = l_is_rect[qi] & R.r_is_rect[pi] if len(qi) else np.zeros(0, bool)
    l_rects, l_offs, l_rlin = l_decomp

    # vectorized rect×rect leg: interval math (+WKB encode only when
    # geometry output is requested)
    ri_idx = np.nonzero(both_rect)[0]
    boxes, ok = kernels.rect_intersection_boxes(
        lbounds[qi[ri_idx]], R.rbounds[pi[ri_idx]]
    ) if len(ri_idx) else (np.empty((0, 4)), np.zeros(0, bool))
    rect_li = qi[ri_idx][ok]
    rect_ri = pi[ri_idx][ok]
    rect_boxes = boxes[ok]
    if area_only:
        rect_geom: list = []
        rect_area = (rect_boxes[:, 2] - rect_boxes[:, 0]) * (
            rect_boxes[:, 3] - rect_boxes[:, 1]
        )
    else:
        rect_area = np.zeros(0)
        rect_geom = wkb.encode_boxes_arrow(rect_boxes).to_pylist()

    # rectilinear×rectilinear leg: vectorized disjoint-rect interval math
    both_rlin = (
        l_rlin[qi] & R.r_rlin[pi] & ~both_rect if len(qi) else np.zeros(0, bool)
    )
    rl_idx = np.nonzero(both_rlin)[0]
    rl_li, rl_ri, rl_area, rl_geom = (
        np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), [],
    )
    if len(rl_idx):
        areas = kernels.rect_sets_inter_areas(
            l_rects, l_offs, qi[rl_idx], R.r_rects, R.r_offs, pi[rl_idx]
        )
        pos = areas > 0
        rl_li, rl_ri, rl_area = qi[rl_idx][pos], pi[rl_idx][pos], areas[pos]
        if not area_only:
            for lrow, rrow in zip(rl_li, rl_ri):
                boxes = kernels.rect_sets_inter_boxes(
                    l_rects, l_offs, int(lrow), R.r_rects, R.r_offs, int(rrow)
                )
                rl_geom.append(_pieces_to_wkb(list(kernels.rects_to_rings(boxes))))

    # generic leg (python per pair) for everything else
    out_li, out_ri, out_geom, out_area = [], [], [], []
    for k in np.nonzero(~both_rect & ~both_rlin)[0]:
        l_row, r_row = int(qi[k]), int(pi[k])
        if _row_fastpath(lpg, l_row) and _row_fastpath(R.rpg, r_row):
            # hole-free convex×convex: Sutherland–Hodgman per ring pair
            srings = _rings_of_row(lpg, l_row)
            crings = _rings_of_row(R.rpg, r_row)
            pieces = []
            for s in srings:
                for c in crings:
                    clipped = kernels.clip_ring_convex(s, c)
                    if kernels.ring_area(clipped) > 0:
                        pieces.append(clipped)
            if not pieces:
                continue
            area = sum(kernels.ring_area(p) for p in pieces)
            geom = None if area_only else _pieces_to_wkb(pieces)
        else:
            # general case: concave / holed / multi-part operands
            s_r, s_h = booleans.ringset_of_row(lpg, l_row)
            c_r, c_h = booleans.ringset_of_row(R.rpg, r_row)
            if area_only:
                area = booleans.boolean_area(s_r, c_r, "intersection", s_h, c_h)
                if area <= 0:
                    continue
                geom = None
            else:
                polys = booleans.boolean_polygons(s_r, c_r, "intersection", s_h, c_h)
                geom = _polys_to_wkb(polys)
                if geom is None:
                    continue
                area = 0.0
        out_li.append(qi[k])
        out_ri.append(pi[k])
        if area_only:
            out_area.append(area)
        else:
            out_geom.append(geom)
    li = np.concatenate([rect_li, rl_li, np.array(out_li, np.int64)]).astype(np.int64)
    ri = np.concatenate([rect_ri, rl_ri, np.array(out_ri, np.int64)]).astype(np.int64)
    if area_only:
        areas = np.concatenate([rect_area, rl_area, np.array(out_area, np.float64)])
        return li, ri, areas, None
    return li, ri, None, rect_geom + rl_geom + out_geom


def subtract_union_wkb(spg: wkb.PolygonArray, srow: int,
                       cpg: wkb.PolygonArray, crows) -> bytes | None:
    """One subject row − union(clip rows) -> WKB | None (fully covered).

    Tiered: rectilinear interval math → convex-complement chain → scanline
    boolean engine (winding rule unions all clips in one pass). Shared by
    the broadcast right-diff kernel and the co-partitioned difference."""
    crows = [int(r) for r in crows]
    if not crows:
        return _row_passthrough_wkb(spg, srow)
    # covers short-circuit: a single-rect clip whose bounds cover the
    # subject bbox erases the row (geometry ⊆ bbox) — skip all tiers
    sb = kernels.polygon_bounds(spg)[srow]
    cb = kernels.polygon_bounds(cpg)[crows]
    c_is_rect = kernels.detect_axis_rects(cpg)[crows]
    if bool(np.any(
        c_is_rect
        & (cb[:, 0] <= sb[0]) & (cb[:, 1] <= sb[1])
        & (cb[:, 2] >= sb[2]) & (cb[:, 3] >= sb[3])
    )):
        return None
    s_rects, s_offs, s_rlin = kernels.decompose_rectilinear(spg)
    c_rects, c_offs, c_rlin = kernels.decompose_rectilinear(cpg)
    if s_rlin[srow] and c_rlin[crows].all():
        rects = s_rects[s_offs[srow] : s_offs[srow + 1]]
        for r in crows:
            for cb in c_rects[c_offs[r] : c_offs[r + 1]]:
                rects = kernels.subtract_rect_from_rects(rects, cb)
                if len(rects) == 0:
                    break
            if len(rects) == 0:
                break
        return (_pieces_to_wkb(list(kernels.rects_to_rings(rects)))
                if len(rects) else None)
    if _row_fastpath(spg, srow) and all(_row_fastpath(cpg, r) for r in crows):
        clips = []
        for r in crows:
            clips.extend(_rings_of_row(cpg, r))
        return _pieces_to_wkb(_subtract_all(_rings_of_row(spg, srow), clips))
    s_r, s_h = booleans.ringset_of_row(spg, srow)
    c_r, c_h = [], []
    for r in crows:
        rr, hh = booleans.ringset_of_row(cpg, r)
        c_r.extend(rr)
        c_h.extend(hh)
    return _polys_to_wkb(booleans.boolean_polygons(s_r, c_r, "difference", s_h, c_h))


class OverlayActor:
    """Actor-pool stage computing one ``how`` of clean_overlay per batch."""

    def __init__(self, right_ref=None, how: str = "intersection",
                 lsuffix="_1", rsuffix="_2",
                 emit: str = "geometry", grid_size: float | None = None,
                 right_table: pa.Table | None = None):
        if how not in HOWS:
            raise ValueError(f"how must be one of {HOWS}, got {how!r}")
        if emit == "area" and how not in ("intersection",):
            raise ValueError("emit='area' is an intersection-only pushdown")
        # emit="area": projection pushdown — skip WKB encode and emit a
        # piece_area column instead of geometry (for area-only consumers)
        self.emit = emit
        self.grid_size = grid_size
        right = right_table if right_table is not None else ray.get(right_ref)
        self.R = _as_right_geoms(right, grid_size)
        right = self.R.table
        self.right = right
        self.how = how
        self.lsuffix = lsuffix
        self.rsuffix = rsuffix
        self.rpg = self.R.rpg
        self.rbounds = self.R.rbounds
        self.tree = self.R.tree
        self.right_cols = self.R.cols
        self.r_is_rect = self.R.r_is_rect
        self.r_rects, self.r_offs, self.r_rlin = (
            self.R.r_rects, self.R.r_offs, self.R.r_rlin
        )

    # -- column plumbing ---------------------------------------------------
    def _suffix_plan(self, left_cols: list[str], with_suffix: bool):
        both = set(left_cols) & set(self.right_cols)
        if not with_suffix:
            both = set()
        lmap = {c: (c + self.lsuffix if c in both else c) for c in left_cols}
        rmap = {c: (c + self.rsuffix if c in both else c) for c in self.right_cols}
        return lmap, rmap

    def _emit(self, left: pa.Table, li: np.ndarray, ri: np.ndarray | None,
              geoms, with_suffix: bool, area_col: bool = False):
        left_cols = [c for c in left.column_names if c != "geometry_wkb"]
        lmap, rmap = self._suffix_plan(left_cols, with_suffix)
        lt = left.take(pa.array(li, pa.int64()))
        if area_col and (ri is None or (ri >= 0).all()):
            # hot area path: stay zero-copy Arrow end to end (the pandas
            # block-manager copies dominated the 27.8M-row bench output)
            cols = {lmap[c]: lt[c] for c in left_cols}
            if ri is not None:
                rt = self.right.take(pa.array(ri, pa.int64()))
                for c in self.right_cols:
                    cols[rmap[c]] = rt[c]
            cols["piece_area"] = pa.array(np.asarray(geoms, np.float64),
                                          pa.float64())
            return pa.table(cols)
        data = {}
        for c in left_cols:
            data[lmap[c]] = lt[c].to_pandas()
        if ri is not None:
            rt = self.right.take(pa.array(np.where(ri < 0, 0, ri), pa.int64()))
            for c in self.right_cols:
                col = rt[c].to_pandas()
                col[ri < 0] = None
                data[rmap[c]] = col
        df = pd.DataFrame(data)
        if area_col:
            df["piece_area"] = geoms  # float areas, no geometry payload
        else:
            df["geometry_wkb"] = geoms  # geometry last, as the reference does
        return df

    # -- geometry legs -----------------------------------------------------
    def _pairs(self, lpg: wkb.PolygonArray, l_is_rect: np.ndarray,
               l_rlin: np.ndarray | None = None):
        return find_candidate_pairs(lpg, l_is_rect, self.R, l_rlin)

    def _intersection_leg(self, left, lpg, qi, pi, l_is_rect, lbounds,
                          with_suffix=True, l_decomp=None) -> pd.DataFrame:
        if l_decomp is None:
            l_decomp = kernels.decompose_rectilinear(lpg)
        area_only = self.emit == "area"
        li, ri, areas, geoms = intersection_pieces(
            lpg, lbounds, l_decomp, l_is_rect, self.R, qi, pi, area_only
        )
        if area_only:
            return self._emit(left, li, ri, areas, with_suffix, area_col=True)
        return self._emit(left, li, ri, geoms, with_suffix)

    def _difference_leg(self, left, lpg, qi, pi, l_is_rect, lbounds,
                        with_suffix=False, l_decomp=None) -> pd.DataFrame:
        n = len(lpg)
        if l_decomp is None:
            l_decomp = kernels.decompose_rectilinear(lpg)
        l_rects, l_offs, l_rlin = l_decomp
        out_li, out_geom = [], []
        # vectorized areas pre-pass: the Klee/boolean area kernel computes
        # each left's remaining area far faster than the per-clip geometry
        # subtraction (covers short-circuit included). A row whose
        # remainder area is 0 emits no geometry — in the dense synth mix
        # that is ~97% of matched lefts, so the expensive geometry loop
        # only runs for true survivors. Exactness: areas are >= 0.5 in the
        # integer/half-integer world, so the 1e-6 cut can't drop a real
        # remainder; a float-residue false survivor just runs the loop and
        # produces None as before.
        dead: set[int] = set()
        if len(qi):
            d = difference_areas(lpg, self.R, qi, pi, l_decomp)
            zero = np.nonzero(d <= 1e-6)[0]
            matched = np.unique(qi)
            dead = set(np.intersect1d(zero, matched).tolist())
            if dead:
                alive = ~np.isin(qi, list(dead))
                qi, pi = qi[alive], pi[alive]
        # group matched right rows per left row (overlay.py:399-423 agg)
        by_left: dict[int, list[int]] = {}
        for k in range(len(qi)):
            by_left.setdefault(int(qi[k]), []).append(int(pi[k]))
        for i in range(n):
            if i in dead:
                continue
            if i not in by_left:
                g = _row_passthrough_wkb(lpg, i)  # untouched rows, holes kept
            elif l_rlin[i] and self.r_rlin[by_left[i]].all():
                # rectilinear subject − rectilinear clips: stay in interval
                # math; the remainder is always disjoint axis-aligned boxes
                rects = l_rects[l_offs[i] : l_offs[i + 1]]
                for r in by_left[i]:
                    for cb in self.r_rects[self.r_offs[r] : self.r_offs[r + 1]]:
                        rects = kernels.subtract_rect_from_rects(rects, cb)
                        if len(rects) == 0:
                            break
                    if len(rects) == 0:
                        break
                g = _pieces_to_wkb(list(kernels.rects_to_rings(rects))) if len(rects) else None
            elif _row_fastpath(lpg, i) and all(
                _row_fastpath(self.rpg, r) for r in by_left[i]
            ):
                clips = []
                for r in by_left[i]:
                    clips.extend(_rings_of_row(self.rpg, r))
                g = _pieces_to_wkb(_subtract_all(_rings_of_row(lpg, i), clips))
            else:
                s_r, s_h = booleans.ringset_of_row(lpg, i)
                c_r, c_h = [], []
                for r in by_left[i]:
                    rr, hh = booleans.ringset_of_row(self.rpg, r)
                    c_r.extend(rr)
                    c_h.extend(hh)
                # winding rule makes in_B the union of ALL clips at once
                g = _polys_to_wkb(
                    booleans.boolean_polygons(s_r, c_r, "difference", s_h, c_h)
                )
            if g is not None:
                out_li.append(i)
                out_geom.append(g)
        return self._emit(left, np.array(out_li, np.int64), None, out_geom, with_suffix)

    # -- main --------------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        lpg = wkb.decode_polygons(batch["geometry_wkb"])
        if self.grid_size is not None:
            lpg = snap_polygon_coords(lpg, self.grid_size)
        l_is_rect = kernels.detect_axis_rects(lpg)
        lbounds = kernels.polygon_bounds(lpg)
        l_decomp = kernels.decompose_rectilinear(lpg)
        qi, pi = self._pairs(lpg, l_is_rect, l_rlin=l_decomp[2])
        how = self.how
        if how == "intersection":
            return self._intersection_leg(batch, lpg, qi, pi, l_is_rect, lbounds,
                                          l_decomp=l_decomp)
        if how == "difference":
            return self._difference_leg(batch, lpg, qi, pi, l_is_rect, lbounds,
                                        l_decomp=l_decomp)
        if how == "identity":
            # intersection + left difference legs (overlay.py:310-317)
            a = self._intersection_leg(batch, lpg, qi, pi, l_is_rect, lbounds,
                                       l_decomp=l_decomp)
            b = self._difference_leg(batch, lpg, qi, pi, l_is_rect, lbounds,
                                     with_suffix=True, l_decomp=l_decomp)
            return pd.concat([a, b], ignore_index=True)[list(a.columns)]
        if how == "update":
            # difference of left by right, then all right rows appended
            # (overlay.py:260-263)
            a = self._difference_leg(batch, lpg, qi, pi, l_is_rect, lbounds,
                                     l_decomp=l_decomp)
            return a
        raise NotImplementedError(
            f"how={how!r} needs the distributed right-leg plan (union/symdiff "
            "are composed at the Dataset level in clean_overlay())"
        )


class RightPairsEmitter:
    """Stage for the mirrored right leg of union/symmetric_difference
    (overlay.py:426-454 ``_shapely_diffclip_right``): emits one row per
    matching pair carrying (right_row, left geometry) so a co-group on
    ``right_row`` can subtract the union of ALL matching left geometries
    from each right geometry — global state the per-batch stage cannot
    see."""

    def __init__(self, right_ref):
        self.R = _as_right_geoms(ray.get(right_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        lpg = wkb.decode_polygons(batch["geometry_wkb"])
        qi, pi = find_candidate_pairs(lpg, kernels.detect_axis_rects(lpg), self.R)
        return pa.table(
            {
                "right_row": pa.array(pi.astype(np.int64), pa.int64()),
                "left_geom": batch["geometry_wkb"].take(pa.array(qi, pa.int64())),
            }
        )


def _right_diff_kernel(right_table: pa.Table):
    """Per-key kernel over one ``right_row``'s rows: the right row minus
    the union of its matching left geometries (the non-null
    ``left_geom``s); a row no left matched keeps its WKB unchanged, and
    a fully covered row is dropped."""
    geom_at = right_table.column_names.index("geometry_wkb")
    geom_type = right_table.schema.field(geom_at).type

    def fn(g: pa.Table) -> pa.Table:
        if not g.num_rows:  # a partition no right row reached
            return right_table.slice(0, 0)
        out = right_table.slice(g["right_row"][0].as_py(), 1)
        partners = g["left_geom"].drop_null()
        if len(partners):
            rpg = wkb.decode_polygons(out["geometry_wkb"])
            lpg = wkb.decode_polygons(partners)
            gwkb = subtract_union_wkb(rpg, 0, lpg, range(len(lpg)))
            out = out.set_column(geom_at, "geometry_wkb", pa.array([gwkb], geom_type))
        return out.filter(out["geometry_wkb"].is_valid())

    return fn


def overlay_union_legs(
    left,
    right_table: pa.Table,
    how: str = "union",
    batch_size: int = 512,
):
    """union / symmetric_difference / update via composed legs.

    union = intersection ⊎ left-difference ⊎ right-difference legs;
    symmetric_difference drops the intersection leg; update = left
    difference ⊎ untouched right rows (overlay.py:260-307). The
    right-difference leg co-groups (right_row, matching left geom) pairs
    with one null-geometry row per right row on ``right_row`` and
    subtracts per right row (``_right_diff_kernel``) — the only leg that
    needs global match state; right rows no left matched ride through
    unchanged from the same co-group. Arbitrary (concave/holed) operands
    are handled by the boolean engine. Every stage runs as tasks that
    build their stage per batch from one prebuilt ``RightGeoms`` ref,
    so no actor holds a CPU the stages feeding it wait for. Returns a
    Dataset whose rows carry a ``leg`` column ('inter' | 'left' |
    'right') plus the suffixed columns of the participating sides
    (absent side columns are null).
    """
    if how not in ("union", "symmetric_difference", "update"):
        raise ValueError(how)
    import ray.data as rd

    # prebuilt index shared by every stage below (see _as_right_geoms on
    # why this is built once on the driver)
    ref = ray.put(RightGeoms(right_table))

    left_cols = [c for c in left.schema().names if c != "geometry_wkb"]
    right_cols = [c for c in right_table.column_names if c != "geometry_wkb"]
    both = set(left_cols) & set(right_cols)
    lmap = {c: (c + "_1" if c in both else c) for c in left_cols}
    rmap = {c: (c + "_2" if c in both else c) for c in right_cols}
    all_cols = (
        [lmap[c] for c in left_cols]
        + [rmap[c] for c in right_cols if rmap[c] not in set(lmap.values())]
        + ["leg", "geometry_wkb"]
    )

    # explicit per-column Arrow types: every leg emits the SAME schema
    # (absent side columns become typed nulls, not arrow null-type columns —
    # schema-unstable RefBundles defeat the streaming executor's fusion)
    ltypes = dict(zip(left.schema().names, left.schema().types))
    target_types: dict[str, pa.DataType] = {}
    for c in left_cols:
        target_types[lmap[c]] = ltypes[c]
    for c in right_cols:
        target_types.setdefault(rmap[c], right_table.schema.field(c).type)
    target_types["leg"] = pa.string()
    target_types["geometry_wkb"] = pa.binary()

    def norm(leg_name: str, rename: dict):
        def fn(b: pa.Table) -> pa.Table:
            b = b.rename_columns([rename.get(c, c) for c in b.column_names])
            n = b.num_rows
            return pa.table({
                c: pa.array([leg_name] * n, pa.string()) if c == "leg"
                else b[c].cast(target_types[c]) if c in b.column_names
                else pa.nulls(n, target_types[c])
                for c in all_cols
            })

        return fn

    def overlay_leg(leg_how: str, leg_name: str, rename: dict):
        return left.map_batches(
            per_batch(OverlayActor, right_ref=ref, how=leg_how),
            batch_format="pyarrow", batch_size=batch_size,
        ).map_batches(norm(leg_name, rename), batch_format="pyarrow")

    legs = []
    if how == "union":
        legs.append(overlay_leg("intersection", "inter", {}))
    legs.append(overlay_leg("difference", "left", lmap))
    if how in ("union", "symmetric_difference") and right_table.num_rows:
        pairs = left.map_batches(
            per_batch(RightPairsEmitter, right_ref=ref),
            batch_format="pyarrow", batch_size=batch_size,
        )
        n = right_table.num_rows
        own = rd.from_arrow(pa.table({
            "right_row": pa.array(np.arange(n), pa.int64()),
            "left_geom": pa.nulls(n, pa.binary()),
        }))
        legs.append(exchange.co_group(
            pairs.union(own), "right_row",
            exchange.per_key("right_row", _right_diff_kernel(right_table)),
        ).map_batches(norm("right", rmap), batch_format="pyarrow"))
    if how == "update":
        # ALL right rows ride through unchanged (overlay.py:260-263) — as a
        # streamed Dataset, not a driver-side pandas materialization
        legs.append(rd.from_arrow(right_table).map_batches(
            norm("right", rmap), batch_format="pyarrow"))
    out = legs[0]
    for l in legs[1:]:
        out = out.union(l)
    return out


def clean_overlay(
    left,
    right_table: pa.Table,
    how: str = "intersection",
    concurrency: int | tuple | None = None,
    batch_size: int = 512,
    emit: str = "geometry",
    left_crs: str | None = None,
    grid_size: float | None = None,
):
    """Dataset-level clean_overlay (broadcast right side).

    Default batch_size is small: overlay output fans out (one row per
    intersecting pair), so small input batches keep the actor pool busy in
    parallel and bound per-batch output size.

    For union/symmetric_difference the unmatched-right leg (right rows with
    no intersection at all, overlay.py:388-396) requires knowing global
    match state of the right side; with a broadcast right table this is
    computed by an extra semi-join pass and appended as a driver-side
    (small) table union.
    """
    if how not in HOWS:
        raise ValueError(f"how must be one of {HOWS}")
    concurrency = default_pool(concurrency)
    from ..geo import crs as crs_mod

    crs_mod.check_crs_pair(left_crs, right_table)  # overlay.py:83-84 guard
    ref = ray.put(RightGeoms(right_table, grid_size))
    if how in ("intersection", "difference", "identity"):
        return left.map_batches(
            OverlayActor,
            fn_constructor_kwargs={"right_ref": ref, "how": how, "emit": emit,
                                   "grid_size": grid_size},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    # union / symmetric_difference / update: composed legs (the reference
    # accepts all six hows through one call, overlay.py:70-81); the internal
    # 'leg' marker is dropped so the surface matches the other hows
    return overlay_union_legs(
        left, right_table, how=how, batch_size=batch_size,
    ).drop_columns(["leg"])


# ---------------------------------------------------------------------------
# Cell co-partitioned overlay (both sides LARGE) — the shuffle plan.
#
# The broadcast plan above assumes the right side fits the object store as
# one Arrow table. When both sides are big, this plan instead co-partitions
# the two datasets by covering grid cell (the reference's own gridloop
# pattern, /root/reference/src/sgis/geopandas_tools/bounds.py:16-173, made
# distributed): each polygon is replicated to every cell its bbox overlaps,
# one co-group exchange on ``cell`` (``cell_co_group``) hands each cell's
# rows of both sides to one kernel call, and pairs are deduplicated
# WITHOUT a second shuffle by the anchor-cell rule (``cells.anchored``).
# ---------------------------------------------------------------------------


def _tag_overlay_side(batch: pa.Table, res: int, id_col: str, side: int,
                      bbox: bool = False) -> pa.Table:
    """One side -> (cell, side, oid, minx, miny, geometry_wkb) cover rows,
    one per cell the row's bbox covers; ``bbox`` adds (maxx, maxy, rect),
    the full bbox and the axis-rect flag."""
    pg = wkb.decode_polygons(batch["geometry_wkb"])
    b = kernels.polygon_bounds(pg)
    # +1e-9: footprints are closed sets — a bbox whose max edge lies exactly
    # on a cell boundary can still touch the next cell (same padding as
    # _tag_polys_with_cells)
    rows, cell = cells.cover_bbox(b[:, 0], b[:, 1], b[:, 2] + 1e-9, b[:, 3] + 1e-9, res)
    take = pa.array(rows, pa.int64())
    cols = {
        "cell": pa.array(cell, pa.int64()),
        "side": pa.array(np.full(len(rows), side, dtype=np.int8)),
        "oid": batch[id_col].take(take).cast(pa.int64()),
        "minx": pa.array(b[rows, 0], pa.float64()),
        "miny": pa.array(b[rows, 1], pa.float64()),
    }
    if bbox:
        cols["maxx"] = pa.array(b[rows, 2], pa.float64())
        cols["maxy"] = pa.array(b[rows, 3], pa.float64())
        cols["rect"] = pa.array(kernels.detect_axis_rects(pg)[rows].astype(np.int8))
    cols["geometry_wkb"] = batch["geometry_wkb"].take(take)
    return pa.table(cols)


def _tag_cells(left_ds, right_ds, left_id: str, right_id: str | None,
               res: int, bbox: bool = False):
    """Both sides' cover rows in one lazy Dataset: the left's with side 0,
    the right's with side 1; ``right_ds=None`` tags the left only."""
    both = None
    for side, (ds, id_col) in enumerate(((left_ds, left_id), (right_ds, right_id))):
        if ds is None:
            continue
        tagged = ds.map_batches(
            functools.partial(_tag_overlay_side, res=res, id_col=id_col,
                              side=side, bbox=bbox),
            batch_format="pyarrow")
        both = tagged if both is None else both.union(tagged)
    return both


def cell_co_group(left_ds, right_ds, left_id: str, right_id: str | None,
                  res: int, kernel, bbox: bool = False):
    """The cell plans' one exchange: ``_tag_cells``' cover rows
    co-grouped on ``cell``, with ``kernel`` called once per cell on a
    ``pa.Table`` holding every cover row of that cell. Returns a
    materialized Dataset of the kernel outputs, which must share one
    schema."""
    return exchange.co_group(_tag_cells(left_ds, right_ds, left_id, right_id, res, bbox),
                             "cell", exchange.per_key("cell", kernel))


def _sides(g: pa.Table) -> tuple[pa.Table, pa.Table]:
    """A cell's cover rows split by one mask into (left rows, right rows)."""
    is_left = pa.array(g["side"].to_numpy() == 0)
    return g.filter(is_left), g.filter(pc.invert(is_left))


def _cell_of(g: pa.Table) -> int:
    return g["cell"][0].as_py()


def _anchored(l: pa.Table, r: pa.Table, qi: np.ndarray, pi: np.ndarray,
              cell: int, res: int) -> np.ndarray:
    """``cells.anchored`` over candidate pairs (qi into l, pi into r)."""
    return cells.anchored(l["minx"].to_numpy()[qi], l["miny"].to_numpy()[qi],
                          r["minx"].to_numpy()[pi], r["miny"].to_numpy()[pi],
                          cell, res)


_IDS = [("left_id", pa.int64()), ("right_id", pa.int64())]
_PIECES = pa.schema(_IDS + [("geometry_wkb", pa.binary())])
_PIECE_AREAS = pa.schema(_IDS + [("piece_area", pa.float64())])
_PAIR_GEOMS = pa.schema(_IDS + [("left_geom", pa.binary()), ("right_geom", pa.binary())])


def _cell_overlay_kernel(how: str, emit: str, res: int):
    """Per-cell kernel: STRtree pairs + anchor dedup + tiered math.

    ``how="intersection"`` emits (left_id, right_id, piece_area |
    geometry_wkb) pieces; ``how="difference"`` emits the matched pairs
    with BOTH geometries (``_PAIR_GEOMS``): the subtraction needs the
    union of ALL matching rights per left row, which may live in
    different cells, so it runs in a second co-group on ``left_id``."""
    area_only = emit == "area"
    schema = (_PAIR_GEOMS if how == "difference"
              else _PIECE_AREAS if area_only else _PIECES)

    def per_cell(g: pa.Table) -> pa.Table:
        l, r = _sides(g)
        if not l.num_rows or not r.num_rows:
            return schema.empty_table()
        lpg = wkb.decode_polygons(l["geometry_wkb"])
        R = RightGeoms(r)
        l_is_rect = kernels.detect_axis_rects(lpg)
        l_decomp = kernels.decompose_rectilinear(lpg)
        qi, pi = find_candidate_pairs(lpg, l_is_rect, R, l_decomp[2])
        m = _anchored(l, r, qi, pi, _cell_of(g), res)
        qi, pi = qi[m], pi[m]
        if len(qi) == 0:
            return schema.empty_table()
        lids, rids = l["oid"].to_numpy(), r["oid"].to_numpy()
        if how == "difference":
            return pa.table([lids[qi], rids[pi], l["geometry_wkb"].take(qi),
                             r["geometry_wkb"].take(pi)], schema=schema)
        li, ri, areas, geoms = intersection_pieces(
            lpg, kernels.polygon_bounds(lpg), l_decomp, l_is_rect, R, qi, pi, area_only
        )
        return pa.table([lids[li], rids[ri], areas if area_only else geoms],
                        schema=schema)

    return per_cell


def overlay_pairs_cell(
    left_ds,
    right_ds,
    left_id: str,
    right_id: str,
    res: int = 7,
    emit: str = "area",
    skew_report_dir: str | None = None,
):
    """Co-partitioned large×large intersection: (left_id, right_id, piece).

    Both sides are Datasets — neither is broadcast. The shuffle carries
    only (cell, id, bbox-min, geometry); attribute columns are the
    caller's to hash-join back by id, keeping the all-to-all exchange
    narrow. Result rows are identical to the broadcast
    ``clean_overlay(how='intersection')`` path on the same inputs.
    """
    if skew_report_dir is not None:
        # straggler telemetry (state.skew): per-cell histogram summary so
        # the cell res / salting threshold is tuned from evidence
        from ..state import skew as skew_mod

        skew_mod.record_cell_skew(
            skew_report_dir,
            skew_mod.cell_skew_summary(
                _tag_cells(left_ds, right_ds, left_id, right_id, res),
                stage=f"overlay_pairs_cell(res={res}, emit={emit})"))
    return cell_co_group(left_ds, right_ds, left_id, right_id, res,
                         _cell_overlay_kernel("intersection", emit, res))


# survivor count below which the filtered left side is broadcast whole
# (a geometry row is ~100-200 B; 200k rows ≈ tens of MB in the object
# store — the documented broadcast budget used by the other small-side
# plans). Above it the cell co-partitioned pair plan takes over.
DIFF_SURVIVOR_BROADCAST_LIMIT = 200_000


def _broadcast_survivor_pairs(left_small_ds, right_ds, left_id: str,
                              right_id: str):
    """Matched (left_id, left_geom, right_id, right_geom) pair rows via
    ONE streaming pass over the right table against a broadcast survivor
    index — no second cell exchange, no pair-table shuffle.

    The survivor set is tiny after the area pre-filter (~3% of matched
    lefts in dense-coverage data), so the STRtree over their bboxes is
    built ONCE on the driver and ``ray.put`` whole (the prebuilt-index
    pattern from the RightGeoms broadcast). Exactness: difference
    semantics ignore non-intersecting partners — subtracting geometry
    disjoint from the subject is a no-op — so the bbox-overlap candidate
    set (a superset of the cell kernel's refined matches) yields an
    IDENTICAL remainder for every left, and survivors with no bbox
    overlap at all emit no row and pass through the join-back unchanged,
    exactly like the cell plan's unmatched rows.
    """
    lt = pa.concat_tables(ray.get(left_small_ds.to_arrow_refs()))
    lpg = wkb.decode_polygons(lt["geometry_wkb"])
    tree = STRtree(kernels.polygon_bounds(lpg))
    lids = lt[left_id].to_numpy(zero_copy_only=False).astype(np.int64)
    lgeom = lt["geometry_wkb"].to_numpy(zero_copy_only=False)
    ref = ray.put((tree, lids, lgeom))

    def match_survivors(batch: pa.Table) -> pa.Table:
        tree, lids, lgeom = ray.get(ref)
        rpg = wkb.decode_polygons(batch["geometry_wkb"])
        qi, ii = tree.query_bbox(kernels.polygon_bounds(rpg))
        take = pa.array(qi, pa.int64())
        return pa.table(
            {
                "left_id": pa.array(lids[ii], pa.int64()),
                "left_geom": pa.array(lgeom[ii], pa.binary()),
                "right_id": batch[right_id].take(take).cast(pa.int64()),
                "right_geom": batch["geometry_wkb"].take(take),
            }
        )

    # a task stage: an actor here would hold the CPU that the right
    # side's read tasks wait for in a 1-CPU session
    return right_ds.map_batches(match_survivors, batch_format="pyarrow",
                                batch_size=8192)


def _subtract_partners(g: pa.Table) -> pa.Table:
    """Per-key kernel over one left's pair rows -> (__lid, diff_geom,
    has_diff): its geometry minus the union of its partners'.

    The fully covered row stays, with a null diff_geom: the join-back
    must tell "matched and consumed" from "never matched" (pass-through).
    has_diff is the match marker — Ray's join drops the right_on key
    column, and diff_geom alone is null for covered rows."""
    if not g.num_rows:  # a partition no pair reached
        return pa.table({"__lid": g["left_id"], "diff_geom": pa.array([], pa.binary()),
                         "has_diff": pa.array([], pa.int64())})
    spg = wkb.decode_polygons(g["left_geom"].slice(0, 1))
    cpg = wkb.decode_polygons(g["right_geom"])
    return pa.table({
        "__lid": g["left_id"].slice(0, 1),
        "diff_geom": pa.array([subtract_union_wkb(spg, 0, cpg, range(len(cpg)))],
                              pa.binary()),
        "has_diff": pa.array([1], pa.int64()),
    })


def overlay_difference_cell(
    left_ds,
    right_ds,
    left_id: str,
    right_id: str,
    res: int = 7,
    num_partitions: int | None = None,
    pairs=None,
):
    """Co-partitioned large×large difference: left rows minus the union of
    every intersecting right row.

    Three fully-distributed stages:
    1. matched (left_id, right_id, left_geom, right_geom) pairs: the
       survivor pre-filter keeps only lefts with a remainder, then either
       one streaming pass over the rights against the broadcast survivors
       or, past ``DIFF_SURVIVOR_BROADCAST_LIMIT``, the cell co-group with
       anchor-cell dedup (all skipped when a precomputed ``pairs``
       Dataset is passed — clean_overlay_cell shares ONE cell exchange
       across legs);
    2. a co-group on ``left_id`` subtracts the union of all matched
       rights from each left geometry (tiered math, holes preserved);
    3. hash left-outer join back to ``left_ds``: unmatched rows pass
       through with their original geometry, fully-covered rows drop.
    """
    from .dissolve import default_join_partitions

    if pairs is None:
        # survivor pre-filter: a NARROW per-cell area pass (the verified
        # union-cell math) finds which lefts have any remainder at all;
        # only those enter the pair/geometry path. In dense-coverage data
        # ~97% of matched lefts are fully covered, and the pair table the
        # full path would shuffle is 28M geometry-laden rows at sf0.1 —
        # pruning it to survivors removes the dominant exchange. The
        # survivor rule reproduces the old semantics exactly: remainder
        # area > 0 (areas are >= 0.5 in the integer/half-integer world),
        # or a zero-area left that was never matched (pass-through).
        survivors = _diff_survivor_ids(left_ds, right_ds, left_id, right_id, res)
        from .lookup import membership_filter

        left_ds = membership_filter(
            left_ds, survivors, left_id, small_key="left_id",
        ).materialize()
        n_left = left_ds.count()
        if n_left == 0:  # nothing survives (or the left is empty)
            return left_ds
        if n_left <= DIFF_SURVIVOR_BROADCAST_LIMIT:
            # few survivors: broadcast them, stream the rights ONCE —
            # the second cell exchange and the pair shuffle disappear
            pairs = _broadcast_survivor_pairs(
                left_ds, right_ds, left_id, right_id
            )
        else:
            pairs = cell_pair_table(left_ds, right_ds, left_id, right_id, res)

    rem = exchange.co_group(
        pairs, "left_id", exchange.per_key("left_id", _subtract_partners))
    if rem.count() == 0:  # no intersecting pair anywhere: left unchanged
        return left_ds
    joined = left_ds.join(
        rem,
        join_type="left_outer",
        num_partitions=default_join_partitions(num_partitions),
        on=(left_id,),
        right_on=("__lid",),
    )

    def finish(b: pa.Table) -> pa.Table:
        # a matched row carries diff_geom (possibly null = fully covered);
        # an unmatched row passes through with its original geometry.
        is_match = pc.is_valid(b["has_diff"])
        geom = pc.if_else(is_match, b["diff_geom"], b["geometry_wkb"])
        keep = pc.or_(pc.invert(is_match), pc.is_valid(b["diff_geom"]))
        out = b.drop_columns(
            [c for c in ("__lid", "diff_geom", "has_diff", "geometry_wkb")
             if c in b.column_names]
        )
        out = out.append_column("geometry_wkb", geom)
        return out.filter(keep)

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Area-only union/symdiff legs — projection pushdown for area consumers
# ---------------------------------------------------------------------------


def overlay_union_leg_areas(
    left,
    right_table: pa.Table,
    how: str = "union",
    concurrency: int | tuple | None = None,
    batch_size: int = 128,
    left_table: pa.Table | None = None,
):
    """(leg, area_i) rows of the union/symmetric_difference composition —
    the area-only pushdown of overlay_union_legs, as TWO shuffle-free
    broadcast passes:

      pass 1 (stream LEFT, broadcast right): intersection-piece partial
        sums (union only) + left-remainder partial sums per batch
      pass 2 (stream RIGHT, broadcast left): right-remainder areas via
        the same ``difference_areas`` kernel with the roles flipped —
        each right row subtracts the union of its matched lefts;
        unmatched rights pass through at full area, so no join and no
        global match-state exchange is needed at all

    The previous plan shipped one row per (left piece, clip rect) — 28M
    rows at sf0.1 — through a groupby(super) sort and a left_outer join
    for the unmatched-right leg; under one composed streaming execution
    that Sort alone ran 69 s and the end-to-end wall was 120-250 s.
    The two-pass form does the identical per-row math in two actor-pool
    scans (~15 s each at sf0.1/32 CPUs) with only (leg, area_i) partial
    rows leaving any worker.

    Envelope: BOTH sides must fit the object store as broadcast tables
    (the reference's clean_overlay materializes both frames too,
    overlay.py:199-257); overlay_union_leg_areas_cell is the co-
    partitioned large×large fallback.

    batch_size default is 128, measured not guessed: with ~1,400 matched
    rights per left row, per-batch candidate/piece temporaries past
    glibc's 32 MB DEFAULT_MMAP_THRESHOLD_MAX page-fault on first touch;
    smaller batches keep them heap-reusable."""
    import ray.data as rd

    concurrency = default_pool(concurrency)

    if how not in ("union", "symmetric_difference"):
        raise ValueError(how)
    ref = ray.put(RightGeoms(right_table))
    if left_table is None:
        # the broadcast envelope already bounds the left side; collecting
        # it once on the driver is the same cost class as the right_table
        # argument the caller built. Pass 1 then streams from the collected
        # blocks instead of re-executing the caller's left pipeline.
        blocks = [t for t in ray.get(left.to_arrow_refs()) if t.num_rows]
        left_table = (
            pa.concat_tables(blocks, promote_options="default")
            if blocks
            else pa.table({"geometry_wkb": pa.array([], pa.binary())})
        )
        left = rd.from_arrow(left_table.select(["geometry_wkb"])).repartition(
            max(int(np.ceil(len(left_table) / batch_size)), 1)
        )
    left_legs = left.map_batches(
        UnionAreaLegsActor,
        fn_constructor_kwargs={"right_ref": ref, "how": how},
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency,
    )
    lref = ray.put(RightGeoms(left_table.select(["geometry_wkb"])))
    right_leg = (
        rd.from_arrow(right_table.select(["geometry_wkb"]))
        .repartition(max(int(np.ceil(len(right_table) / 2048)), 1))
        .map_batches(
            ReverseDiffAreaActor,
            fn_constructor_kwargs={"left_ref": lref},
            batch_format="pyarrow", batch_size=512, concurrency=concurrency,
        )
    )
    return left_legs.union(right_leg)


class ReverseDiffAreaActor:
    """Pass-2 stage of overlay_union_leg_areas: per-batch partial sum of
    (right row − union(matched left geometries)) areas, computed by
    ``difference_areas`` with the broadcast/stream roles flipped.
    Pass-through (unmatched) right rows contribute their full area —
    the unmatched-right leg of the union composition with no join."""

    def __init__(self, left_ref):
        self.L = _as_right_geoms(ray.get(left_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        rpg = wkb.decode_polygons(batch["geometry_wkb"])
        r_is_rect = kernels.detect_axis_rects(rpg)
        r_decomp = kernels.decompose_rectilinear(rpg)
        qi, pi = find_candidate_pairs(rpg, r_is_rect, self.L, r_decomp[2])
        d = difference_areas(rpg, self.L, qi, pi, r_decomp)
        pos = d > 0
        total = int(np.round(d[pos]).astype(np.int64).sum()) if pos.any() else 0
        return pa.table(
            {
                "leg": pa.array(["right"], pa.string()),
                "area_i": pa.array([total], pa.int64()),
            }
        )


def difference_areas(lpg: wkb.PolygonArray, R: RightGeoms,
                     qi: np.ndarray, pi: np.ndarray, l_decomp) -> np.ndarray:
    """AREA of (left row − union(matched rights)) per left row, incl.
    pass-through rows (full polygon area). Rectilinear rows use the Klee
    cover sweep; everything else the boolean engine's area pass."""
    n = len(lpg)
    l_rects, l_offs, l_rlin = l_decomp
    areas = kernels.polygon_areas(lpg)  # pass-through default
    if len(qi) == 0:
        return areas
    # vectorized pre-pass: a plain axis-rect right whose bounds cover the
    # left row's bounds erases the row entirely (areas[i] = 0, no sweep).
    # In the synthetic mix rights are km-scale boxes vs m-scale parts, so
    # this skips the Klee loop for most rows — exact, not approximate.
    lb = kernels.polygon_bounds(lpg)
    covers = (
        R.r_is_rect[pi]
        & (R.rbounds[pi, 0] <= lb[qi, 0]) & (R.rbounds[pi, 1] <= lb[qi, 1])
        & (R.rbounds[pi, 2] >= lb[qi, 2]) & (R.rbounds[pi, 3] >= lb[qi, 3])
    )
    if covers.any():
        dead = np.unique(qi[covers])
        areas[dead] = 0.0
        alive = ~np.isin(qi, dead)
        qi, pi = qi[alive], pi[alive]
        if len(qi) == 0:
            return areas
    order = np.argsort(qi, kind="stable")
    qs, ps = qi[order], pi[order]
    starts = np.nonzero(np.concatenate([[True], qs[1:] != qs[:-1]]))[0]
    ends = np.concatenate([starts[1:], [len(qs)]])
    for g_i in range(len(starts)):
        i = int(qs[starts[g_i]])
        rights = ps[starts[g_i] : ends[g_i]]
        if l_rlin[i] and R.r_rlin[rights].all():
            # gather all clip rects of the matched rights
            cnt = (R.r_offs[rights + 1] - R.r_offs[rights]).astype(np.int64)
            T = int(cnt.sum())
            rep = np.repeat(np.arange(len(rights)), cnt)
            base = np.concatenate([[0], np.cumsum(cnt)])[:-1]
            ridx = np.repeat(R.r_offs[rights], cnt) + (
                np.arange(T) - np.repeat(base, cnt)
            )
            crects = R.r_rects[ridx]
            area = 0.0
            for t in range(l_offs[i], l_offs[i + 1]):
                sb = l_rects[t]
                cx0 = np.maximum(crects[:, 0], sb[0])
                cy0 = np.maximum(crects[:, 1], sb[1])
                cx1 = np.minimum(crects[:, 2], sb[2])
                cy1 = np.minimum(crects[:, 3], sb[3])
                m = (cx1 > cx0) & (cy1 > cy0)
                cov = (
                    kernels.rects_union_area(
                        np.stack([cx0[m], cy0[m], cx1[m], cy1[m]], axis=1)
                    )
                    if m.any()
                    else 0.0
                )
                area += (sb[2] - sb[0]) * (sb[3] - sb[1]) - cov
            areas[i] = area
        else:
            s_r, s_h = booleans.ringset_of_row(lpg, i)
            c_r, c_h = [], []
            for r in rights:
                rr, hh = booleans.ringset_of_row(R.rpg, int(r))
                c_r.extend(rr)
                c_h.extend(hh)
            areas[i] = booleans.boolean_area(s_r, c_r, "difference", s_h, c_h)
    return areas


class UnionAreaLegsActor:
    """Pass-1 stage of overlay_union_leg_areas: one broadcast scan of the
    left side emitting per-batch PARTIAL SUMS for the intersection leg
    (union only) and the left-remainder leg. Candidate pairs are computed
    once per batch and shared by both legs; per-piece int64 rounding
    happens before the sum, matching the SQL oracle's round-then-sum
    exactly. Output is schema-stable (leg, area_i) — the right leg comes
    from ReverseDiffAreaActor's flipped pass, not from pair rows."""

    def __init__(self, right_ref, how: str = "union"):
        self.R = _as_right_geoms(ray.get(right_ref))
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        R = self.R
        lpg = wkb.decode_polygons(batch["geometry_wkb"])
        l_is_rect = kernels.detect_axis_rects(lpg)
        l_decomp = kernels.decompose_rectilinear(lpg)
        lbounds = kernels.polygon_bounds(lpg)
        qi, pi = find_candidate_pairs(lpg, l_is_rect, R, l_decomp[2])

        legs: list[str] = []
        areas: list[int] = []
        if self.how == "union":
            _, _, iareas, _ = intersection_pieces(
                lpg, lbounds, l_decomp, l_is_rect, R, qi, pi, area_only=True
            )
            if len(iareas):
                legs.append("inter")
                areas.append(int(np.round(iareas).astype(np.int64).sum()))

        dareas = difference_areas(lpg, R, qi, pi, l_decomp)
        pos = dareas > 0
        if pos.any():
            legs.append("left")
            areas.append(int(np.round(dareas[pos]).astype(np.int64).sum()))

        return pa.table(
            {
                "leg": pa.array(legs, pa.string()),
                "area_i": pa.array(areas, pa.int64()),
            }
        )


def overlay_intersection_auto(
    left_ds,
    right_ds,
    left_id: str,
    right_id: str,
    right_table: pa.Table | None = None,
    broadcast_limit: int = 50_000,
    res: int = 10,
    emit: str = "area",
):
    """Plan-choosing intersection entry: broadcast vs cell co-partition.

    The engine's two intersection plans produce identical rows but cross
    over in cost: the broadcast plan wins while the right side fits one
    object-store table and per-batch STRtree queries stay cheap; the cell
    co-group plan wins once the right side is large (sf0.1: 91 s
    broadcast vs 8 s cell for the same 27.8M output rows). This entry
    dispatches on the right side's row count — the same size heuristic
    the reference applies in write_municipality_data
    (io/write_municipality_data.py:182-195, len<10_000 -> overlay else
    looping clip) — and normalizes BOTH plans to the narrow
    ``(left_id, right_id, piece_area)`` schema; attribute columns are the
    caller's to hash-join back by id.
    """
    if right_table is None:
        right_table = _materialize_small(right_ds, broadcast_limit)
    if right_table is not None and right_table.num_rows <= broadcast_limit:
        out = clean_overlay(left_ds, right_table, how="intersection", emit=emit)

        def narrow(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "left_id": b[left_id].cast(pa.int64()),
                    "right_id": b[right_id].cast(pa.int64()),
                    "piece_area": b["piece_area"],
                }
            )

        return out.map_batches(narrow, batch_format="pyarrow")
    return overlay_pairs_cell(
        left_ds, right_ds, left_id, right_id, res=res, emit=emit
    )


def _materialize_small(ds, limit: int) -> pa.Table | None:
    """Return ``ds`` as one Arrow table iff it has <= limit rows, else
    None — probes the count first so a large right side is never pulled
    to the driver."""
    if isinstance(ds, pa.Table):
        return ds
    # limit-probe: the streaming executor short-circuits after limit+1
    # rows, so a LARGE side costs a truncated execution — never a full
    # count pass or an object-store materialization of the big side
    if ds.limit(limit + 1).count() > limit:
        return None
    import pyarrow as _pa

    tbls = [_pa.Table.from_batches([b]) if not isinstance(b, _pa.Table) else b
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=65536)]
    return _pa.concat_tables(tbls) if tbls else None


# ---------------------------------------------------------------------------
# clean_clip — clip by a (small, broadcast) mask, make valid, drop empties
# ---------------------------------------------------------------------------


class CleanClipActor:
    """clean_clip (general.py:513-560): clip every left row by the mask
    union, make the result valid, drop empty/NaN geometries.

    The mask table (small side — a municipality polygon, a study area) is
    broadcast once with ``ray.put`` and dissolved to one valid ringset per
    actor in ``__init__``; left rows stream through as Arrow batches.
    Fast paths: bbox-disjoint rows drop without geometry math; when the
    mask union is a single axis-aligned rectangle, rect rows clip by
    interval math and fully-inside rows pass their WKB through unchanged.
    Everything else (concave/holed mask or row) runs the scanline boolean
    engine, whose output is valid by construction — the reference's
    make_valid + remove-empty postpass is therefore implicit."""

    def __init__(self, mask_ref, id_col: str = "id"):
        mask: pa.Table = (
            mask_ref if isinstance(mask_ref, pa.Table) else ray.get(mask_ref)
        )
        self.id_col = id_col
        mpg = wkb.decode_polygons(mask["geometry_wkb"])
        rings, holes = [], []
        for row in range(len(mpg)):
            rr, hh = booleans.ringset_of_row(mpg, row)
            rings.extend(rr)
            holes.extend(hh)
        # dissolve overlapping mask parts once (winding union -> valid)
        polys = booleans.union_all([(rings, holes)])
        self.m_rings = [r for p in polys for r in p]
        self.m_holes = [i > 0 for p in polys for i, _ in enumerate(p)]
        xs = np.concatenate([r[:, 0] for r in self.m_rings])
        ys = np.concatenate([r[:, 1] for r in self.m_rings])
        self.m_bbox = (xs.min(), ys.min(), xs.max(), ys.max())
        self.m_is_rect = (
            len(polys) == 1
            and len(polys[0]) == 1
            and _ring_is_axis_rect(polys[0][0])
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        pg = wkb.decode_polygons(batch["geometry_wkb"])
        bounds = kernels.polygon_bounds(pg)
        is_rect = kernels.detect_axis_rects(pg)
        mx0, my0, mx1, my1 = self.m_bbox
        cand = np.nonzero(
            (bounds[:, 0] < mx1) & (bounds[:, 2] > mx0)
            & (bounds[:, 1] < my1) & (bounds[:, 3] > my0)
        )[0]
        keep_idx: list[int] = []
        geoms: list[bytes] = []
        areas: list[float] = []
        for row in cand:
            row = int(row)
            b = bounds[row]
            if self.m_is_rect:
                inside = (
                    b[0] >= mx0 and b[1] >= my0 and b[2] <= mx1 and b[3] <= my1
                )
                if inside:
                    s_r, s_h = booleans.ringset_of_row(pg, row)
                    keep_idx.append(row)
                    geoms.append(_polys_to_wkb(_group_rings(s_r, s_h)))
                    areas.append(booleans.ringset_area(s_r, s_h))
                    continue
                if is_rect[row]:
                    x0, y0 = max(b[0], mx0), max(b[1], my0)
                    x1, y1 = min(b[2], mx1), min(b[3], my1)
                    if x1 > x0 and y1 > y0:
                        keep_idx.append(row)
                        geoms.append(_pieces_to_wkb([np.array(
                            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
                        )]))
                        areas.append((x1 - x0) * (y1 - y0))
                    continue
            s_r, s_h = booleans.ringset_of_row(pg, row)
            polys = booleans.boolean_polygons(
                s_r, self.m_rings, "intersection", s_h, self.m_holes
            )
            g = _polys_to_wkb(polys)
            if g is None:
                continue
            keep_idx.append(row)
            geoms.append(g)
            areas.append(sum(booleans.ringset_area(p, [False] + [True] * (len(p) - 1))
                             for p in polys))
        ids = batch[self.id_col].take(pa.array(keep_idx, pa.int64()))
        return pa.table(
            {
                self.id_col: ids,
                "geometry_wkb": pa.array(geoms, pa.binary()),
                "clip_area": pa.array(np.asarray(areas, np.float64), pa.float64()),
            }
        )


def _ring_is_axis_rect(ring: np.ndarray) -> bool:
    """One closed ring an axis-aligned rectangle? (5 points, every point
    on a bbox corner, positive area)."""
    if len(ring) != 5:
        return False
    x0, y0 = ring[:, 0].min(), ring[:, 1].min()
    x1, y1 = ring[:, 0].max(), ring[:, 1].max()
    if x1 <= x0 or y1 <= y0:
        return False
    on_corner = (
        ((ring[:, 0] == x0) | (ring[:, 0] == x1))
        & ((ring[:, 1] == y0) | (ring[:, 1] == y1))
    ).all()
    return bool(on_corner)


def _group_rings(rings, holes):
    """Flat (rings, hole_flags) -> [[shell, holes...], ...] preserving the
    WKB shell-then-holes order."""
    polys: list[list[np.ndarray]] = []
    for r, h in zip(rings, holes):
        if h and polys:
            polys[-1].append(r)
        else:
            polys.append([r])
    return polys


def clean_clip(
    left,
    mask_table: pa.Table,
    id_col: str = "id",
    concurrency: int | tuple | None = None,
    batch_size: int = 2048,
):
    """Dataset-level clean_clip: broadcast-mask actor pool over streaming
    left batches. Returns (id_col, geometry_wkb, clip_area) rows with
    empty results dropped (the reference's dropna/not-is_empty filter)."""
    concurrency = default_pool(concurrency)
    ref = ray.put(mask_table)
    return left.map_batches(
        CleanClipActor,
        fn_constructor_kwargs={"mask_ref": ref, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def clean_overlay_cell(
    left_ds,
    right_ds,
    left_id: str,
    right_id: str,
    how: str = "intersection",
    res: int = 10,
):
    """All six clean_overlay hows on the cell co-partitioned plan — BOTH
    sides stream as Datasets, nothing is broadcast (the large×large
    counterpart of :func:`clean_overlay`, reference overlay.py:70-81).

    Output is the id-centric surface ``(left_id, right_id, geometry_wkb)``
    with the id of the absent side null (difference/remainder legs carry
    only one side, like the reference's suffixed NaN columns); attribute
    columns re-join by id, keeping the all-to-all exchanges narrow.

    Compositions (disjoint cell tiling makes every leg additive):
    intersection = pair pieces; difference = left minus union-of-rights;
    identity = intersection ⊎ difference; union adds the mirrored right
    remainder; symmetric_difference = both remainders; update = left
    remainder ⊎ right rows unchanged.
    """
    if how not in HOWS:
        raise ValueError(f"how must be one of {HOWS}")

    def norm_one_side(id_col: str, is_left: bool):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            ids = b[id_col].cast(pa.int64())
            nulls = pa.nulls(n, pa.int64())
            return pa.table(
                {
                    "left_id": ids if is_left else nulls,
                    "right_id": nulls if is_left else ids,
                    "geometry_wkb": b["geometry_wkb"],
                }
            )

        return fn

    # single-leg hows: one cell exchange, no pair sharing needed
    if how == "intersection":
        return overlay_pairs_cell(
            left_ds, right_ds, left_id, right_id, res=res, emit="geometry"
        )
    if how == "difference":
        return overlay_difference_cell(
            left_ds, right_ds, left_id, right_id, res=res
        ).map_batches(norm_one_side(left_id, True), batch_format="pyarrow")

    # multi-leg hows: run the EXPENSIVE cell co-group ONCE and derive every
    # leg from the materialized pair table (one row per matched pair with
    # both geometries) — the naive composition re-shuffled both full
    # datasets once per leg. Tradeoff: the pair table lives in the object
    # store (spillable) instead of being recomputed.
    pairs = cell_pair_table(left_ds, right_ds, left_id, right_id, res)

    def inter_from_pairs(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return _PIECES.empty_table()
        lpg = wkb.decode_polygons(b["left_geom"])
        R = RightGeoms(pa.table({"geometry_wkb": b["right_geom"]}))
        idx = np.arange(len(lpg))
        li, ri, _, geoms = intersection_pieces(
            lpg,
            kernels.polygon_bounds(lpg),
            kernels.decompose_rectilinear(lpg),
            kernels.detect_axis_rects(lpg),
            R,
            idx,
            idx,
            area_only=False,
        )
        return pa.table([b["left_id"].take(li), b["right_id"].take(ri), geoms],
                        schema=_PIECES)

    def inter():
        return pairs.map_batches(inter_from_pairs, batch_format="pyarrow")

    def ldiff():
        return overlay_difference_cell(
            left_ds, right_ds, left_id, right_id, res=res, pairs=pairs
        ).map_batches(norm_one_side(left_id, True), batch_format="pyarrow")

    def rdiff():
        return overlay_difference_cell(
            right_ds, left_ds, right_id, left_id, res=res,
            pairs=swap_pair_table(pairs),
        ).map_batches(norm_one_side(right_id, False), batch_format="pyarrow")

    if how == "identity":
        return inter().union(ldiff())
    if how == "union":
        return inter().union(ldiff()).union(rdiff())
    if how == "symmetric_difference":
        return ldiff().union(rdiff())
    # update: left remainder + every right row unchanged (overlay.py:260-263)
    return ldiff().union(
        right_ds.map_batches(norm_one_side(right_id, False), batch_format="pyarrow")
    )


def cell_pair_table(left_ds, right_ds, left_id: str, right_id: str, res: int):
    """ONE cell co-group exchange -> materialized matched-pair table (left_id,
    right_id, left_geom, right_geom), anchor-cell deduped. Every
    multi-leg cell-plan consumer derives its legs from this."""
    return cell_co_group(left_ds, right_ds, left_id, right_id, res,
                         _cell_overlay_kernel("difference", "geometry", res))


def swap_pair_table(pairs):
    """Mirror a pair table (cheap column rename, no shuffle) so the
    difference machinery can run right-minus-lefts."""

    def fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "left_id": b["right_id"],
                "right_id": b["left_id"],
                "left_geom": b["right_geom"],
                "right_geom": b["left_geom"],
            }
        )

    return pairs.map_batches(fn, batch_format="pyarrow")


def overlay_union_leg_areas_cell(
    left_ds,
    right_ds,
    left_id: str,
    right_id: str,
    how: str = "union",
    res: int = 10,
):
    """(leg, area_i) partials of the union/symmetric_difference composition
    with BOTH sides streaming as Datasets — the cell co-partitioned
    counterpart of ``overlay_union_leg_areas`` (no broadcast anywhere).

    ONE cell co-group exchange computes ALL legs: cells tile the plane
    disjointly, so area(row − union(partners)) = sum over covered cells
    of area((row ∩ cell) − union(partners in that cell)) — the subject is
    clipped to the cell rect; partners need no clipping because
    subtracting geometry outside the subject is a no-op. The intersection
    leg anchor-cell-dedups pairs inside the same kernel. Every earlier
    plan re-shuffled the matched-pair table (28M rows at sf0.1) at least
    once more; ANY 28M-row exchange costs 57-78 s on this host even for
    a narrow int64 groupby, so the one tagged-cover exchange (~rows x
    cells-covered, geometry carried once per covered cell) is the whole
    shuffle budget. Emits <= 3 partial rows per cell; finish with
    ``relational.sum_by_small_key``.
    """
    if how not in ("union", "symmetric_difference"):
        raise ValueError(how)
    return cell_co_group(left_ds, right_ds, left_id, right_id, res,
                         _cell_union_areas_kernel(how, res))


def _clip_rows_to_rect_wkb(pg: wkb.PolygonArray, rect: np.ndarray,
                           rlin: np.ndarray, rects: np.ndarray,
                           offs: np.ndarray) -> list[bytes | None]:
    """Clip every row of ``pg`` to an axis rect -> WKB per row (None when
    the clipped result is empty). Rectilinear rows clip by interval math
    on their rect decomposition; general rings by convex (Sutherland-
    Hodgman) clipping, shell/hole structure preserved (intersection with
    a convex region keeps holes inside their shells)."""
    rect_ring = np.array(
        [[rect[0], rect[1]], [rect[2], rect[1]], [rect[2], rect[3]],
         [rect[0], rect[3]], [rect[0], rect[1]]], dtype=np.float64
    )
    out: list[bytes | None] = []
    for i in range(len(pg)):
        if rlin[i]:
            rs = rects[offs[i]:offs[i + 1]]
            x0 = np.maximum(rs[:, 0], rect[0])
            y0 = np.maximum(rs[:, 1], rect[1])
            x1 = np.minimum(rs[:, 2], rect[2])
            y1 = np.minimum(rs[:, 3], rect[3])
            m = (x1 > x0) & (y1 > y0)
            if not m.any():
                out.append(None)
                continue
            out.append(_pieces_to_wkb(
                list(kernels.rects_to_rings(
                    np.stack([x0[m], y0[m], x1[m], y1[m]], axis=1)
                ))
            ))
            continue
        polys = []
        for q in range(pg.geom_offsets[i], pg.geom_offsets[i + 1]):
            r0, r1 = pg.poly_offsets[q], pg.poly_offsets[q + 1]
            shell = kernels.clip_ring_convex(
                pg.coords[pg.ring_offsets[r0]:pg.ring_offsets[r0 + 1]],
                rect_ring,
            )
            if len(shell) < 4 or abs(kernels.ring_area(shell)) == 0:
                continue
            rings = [shell]
            for r in range(r0 + 1, r1):
                h = kernels.clip_ring_convex(
                    pg.coords[pg.ring_offsets[r]:pg.ring_offsets[r + 1]],
                    rect_ring,
                )
                if len(h) >= 4 and abs(kernels.ring_area(h)) > 0:
                    rings.append(h)
            polys.append(rings)
        out.append(_polys_to_wkb(polys) if polys else None)
    return out


def _clip_to_rect(pg: wkb.PolygonArray, rect: np.ndarray, decomp):
    """Rows of ``pg`` clipped to ``rect``: (mask of the rows whose clip is
    not empty, those clipped rows decoded)."""
    rects, offs, rlin = decomp
    cw = _clip_rows_to_rect_wkb(pg, rect, rlin, rects, offs)
    keep = np.array([w is not None for w in cw], dtype=bool)
    return keep, wkb.decode_polygons(np.asarray([w for w in cw if w is not None],
                                                dtype=object))


def _remainder_areas(pg: wkb.PolygonArray, other: RightGeoms | None) -> np.ndarray:
    """area(row − union(the rows of ``other`` it meets)) per row of ``pg``;
    the full area where there is no ``other``."""
    if other is None:
        return kernels.polygon_areas(pg)
    decomp = kernels.decompose_rectilinear(pg)
    qi, pi = find_candidate_pairs(pg, kernels.detect_axis_rects(pg), other, decomp[2])
    return difference_areas(pg, other, qi, pi, decomp)


def _cell_union_areas_kernel(how: str, res: int):
    """Per-cell kernel for the union/symmetric_difference AREA legs: up to
    three (leg, area_i) partial rows per cell, no downstream exchange."""

    def remainder(S: RightGeoms, other: RightGeoms | None, rect) -> int:
        """sum of area((row ∩ rect) − union(candidate partners))."""
        keep, clipped = _clip_to_rect(S.rpg, rect, (S.r_rects, S.r_offs, S.r_rlin))
        if not keep.any():
            return 0
        return int(np.round(_remainder_areas(clipped, other)).sum())

    def per_cell(g: pa.Table) -> pa.Table:
        if not g.num_rows:  # a partition no cell reached
            return pa.table({"leg": pa.array([], pa.string()),
                             "area_i": pa.array([], pa.int64())})
        cell = _cell_of(g)
        l, r = _sides(g)
        L = RightGeoms(l) if l.num_rows else None
        R = RightGeoms(r) if r.num_rows else None
        legs: list[str] = []
        areas: list[int] = []
        if how == "union" and L is not None and R is not None:
            qi, pi = find_candidate_pairs(L.rpg, L.r_is_rect, R, L.r_rlin)
            m = _anchored(l, r, qi, pi, cell, res)
            qi, pi = qi[m], pi[m]
            if len(qi):
                _, _, pareas, _ = intersection_pieces(
                    L.rpg, L.rbounds, (L.r_rects, L.r_offs, L.r_rlin), L.r_is_rect,
                    R, qi, pi, True
                )
                legs.append("inter")
                areas.append(int(np.round(np.asarray(pareas)).sum()))
        rect = cells.clip_rect(cell, res)
        for leg, S, other in (("left", L, R), ("right", R, L)):
            if S is not None:
                legs.append(leg)
                areas.append(remainder(S, other, rect))
        return pa.table(
            {"leg": pa.array(legs, pa.string()),
             "area_i": pa.array(areas, pa.int64())}
        )

    return per_cell


_SURVIVOR_PARTIALS = pa.schema([("left_id", pa.int64()), ("rem", pa.float64()),
                                ("clip", pa.float64()), ("matched", pa.int64())])


def _survivor_partials(res: int):
    """Per-cell kernel of ``_diff_survivor_ids``: one (left_id, rem, clip,
    matched) row per left cover row of the cell."""

    def per_cell(g: pa.Table) -> pa.Table:
        l, r = _sides(g)
        n = l.num_rows
        if not n:
            return _SURVIVOR_PARTIALS.empty_table()
        rect = cells.clip_rect(_cell_of(g), res)
        lb = np.stack([l[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")], axis=1)
        l_rect = l["rect"].to_numpy() == 1
        covered = bool(np.any(
            (r["rect"].to_numpy() == 1)
            & (r["minx"].to_numpy() <= rect[0]) & (r["miny"].to_numpy() <= rect[1])
            & (r["maxx"].to_numpy() >= rect[2]) & (r["maxy"].to_numpy() >= rect[3])
        ))
        rem = np.zeros(n, dtype=np.float64)
        clip = np.zeros(n, dtype=np.float64)
        matched = np.zeros(n, dtype=np.int64)
        # covered cell: rect lefts' clip areas are closed-form interval
        # overlaps; only the (rare) non-rect lefts need real geometry
        exact = ~l_rect if covered else np.ones(n, dtype=bool)
        if covered:
            w = np.minimum(lb[:, 2], rect[2]) - np.maximum(lb[:, 0], rect[0])
            h = np.minimum(lb[:, 3], rect[3]) - np.maximum(lb[:, 1], rect[1])
            clip[l_rect] = (np.maximum(w, 0.0) * np.maximum(h, 0.0))[l_rect]
            matched[:] = 1
        if exact.any():
            lpg = wkb.decode_polygons(l["geometry_wkb"].filter(pa.array(exact)))
            decomp = kernels.decompose_rectilinear(lpg)
            R = RightGeoms(r) if r.num_rows else None
            m = np.zeros(len(lpg), dtype=np.int64)
            if R is not None:
                qi, _ = find_candidate_pairs(lpg, kernels.detect_axis_rects(lpg), R,
                                             decomp[2])
                m[np.unique(qi)] = 1
            matched[exact] = m
            keep, clipped = _clip_to_rect(lpg, rect, decomp)
            c = np.zeros(len(lpg), dtype=np.float64)
            if keep.any():
                c[keep] = kernels.polygon_areas(clipped)
            clip[exact] = c
            if not covered and keep.any():  # (exact is every row here)
                rem[keep] = _remainder_areas(clipped, R)
        return pa.table([l["oid"], rem, clip, matched], schema=_SURVIVOR_PARTIALS)

    return per_cell


def _survivor_ids(b: pa.Table) -> pa.Table:
    """Block kernel on ``left_id``: the ids whose partials sum to a
    remainder, plus zero-area lefts that were never matched."""
    t = b.group_by("left_id").aggregate(
        [("rem", "sum"), ("clip", "sum"), ("matched", "max")])
    keep = pc.or_(
        pc.greater(t["rem_sum"], 1e-6),
        pc.and_(pc.less_equal(t["clip_sum"], 1e-6), pc.equal(t["matched_max"], 0)))
    return t.select(["left_id"]).filter(keep)


def _diff_survivor_ids(left_ds, right_ds, left_id: str, right_id: str, res: int):
    """Narrow per-cell area pass -> Dataset of left ids with a non-empty
    difference remainder (plus zero-area never-matched pass-throughs).

    Emits one (left_id, rem, clip, matched) row per (left, cell) — the
    cell-clipped remainder area (the Hypothesis-verified union-cell
    math), the clipped area itself, and whether the left had any matched
    pair candidate in the cell (computed on the UNCLIPPED geometry with
    the same candidate test as the pair kernel, so max-over-cells equals
    membership in the pair table). A second, narrow co-group on
    ``left_id`` sums the partials; no geometry ever leaves the cell
    kernel.

    Covered-cell fast path: if some axis-rect right's bbox contains the
    whole cell rect, every left's cell-clipped remainder is 0 (clip ⊆
    cell ⊆ right), every left is matched (rect×rect candidacy is
    boundary-inclusive bbox overlap, and the tag's 1e-9 pad only admits
    exact boundary touches in the engine's half-integer coordinate
    world), and rect lefts' clip areas are closed-form interval
    overlaps — no decode, no per-cell STRtree, no scanline. In
    dense-coverage data nearly every interior cell takes this path.
    """
    partials = cell_co_group(left_ds, right_ds, left_id, right_id, res,
                             _survivor_partials(res), bbox=True)
    return exchange.co_group(partials, "left_id", _survivor_ids)
