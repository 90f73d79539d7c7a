"""Deterministic synthetic image+caption table (the input_hint schema).

Builds the Lance-shaped table the north rule targets —
(image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
caption:string, phash:int64) — deterministically from the driver's
documents table, so every scale factor has a reproducible image corpus
with no external data:

* pixel content is a pure function of a ``content_key``; every 100th doc
  reuses its predecessor's key -> ~1% exact duplicate images (dedup
  fixture, FIXTURES.md §1);
* fmt alternates png (lossless roundtrip) / jpeg (lossy stand-in codec,
  PSNR >= 40 dB by construction — see codecs/lossy.py);
* phash is the REAL average-hash of the decoded pixels (codecs/phash.py),
  so identical-content rows collide and lossy copies stay consistent;
* the georeferenced footprint (a box in the synthetic CRS) is derived from
  doc_id with the same parity discipline as synth.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import lossy, phash, png

from ..pool import default_pool


def content_key(doc_id: np.ndarray) -> np.ndarray:
    k = np.asarray(doc_id).astype(np.int64)
    return np.where(k % 100 == 99, k - 1, k)


def image_dims(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(key).astype(np.int64)
    return (32 + (k * 7) % 33).astype(np.int32), (32 + (k * 11) % 33).astype(np.int32)


# channel c of pixel (x, y) is (A[c] x + B[c] y + K[c] key) mod 256
_A = np.array([3, 7, 4], dtype=np.int64)
_B = np.array([5, 2, 4], dtype=np.int64)
_K = np.array([13, 29, 53], dtype=np.int64)


def render_pixels(key: int, w: int, h: int) -> np.ndarray:
    """Deterministic (h, w, 3) uint8: gradients + key-seeded mixing."""
    return render_flat([key], [w], [h]).reshape(h, w, 3)


def render_flat(keys: np.ndarray, ws: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """``render_pixels`` of every row, back to back in one flat uint8
    buffer (image i is ``hs[i] * ws[i] * 3`` bytes in (h, w, 3) order).

    No per-pixel division or modulo: with g the pixel's index in the
    buffer and s its scanline's first index, x = g - s, so a pixel is
    ``A g mod 256`` (one 256-pixel table, tiled) plus a per-scanline
    term ``B y + K key - A s`` (repeated along the scanline), added in
    uint8, whose wraparound is the ``mod 256``."""
    keys = np.asarray(keys, dtype=np.int64)
    ws = np.asarray(ws, dtype=np.int64)
    hs = np.asarray(hs, dtype=np.int64)
    row_img = np.repeat(np.arange(len(keys)), hs)
    y = np.arange(len(row_img)) - np.repeat(np.cumsum(hs) - hs, hs)
    row_w = ws[row_img]
    s = np.cumsum(row_w) - row_w
    rowterm = ((y[:, None] * _B + (keys[row_img, None] % 256) * _K
                - (s[:, None] % 256) * _A) % 256).astype(np.uint8)
    npix = int(row_w.sum())
    out = np.resize(((np.arange(256)[:, None] * _A) % 256).astype(np.uint8), (npix, 3))
    # repeat each scanline's 3-byte term as one 3-byte item
    out += np.repeat(rowterm.view(np.dtype((np.void, 3))).ravel(), row_w).view(
        np.uint8).reshape(npix, 3)
    return out.ravel()


def image_fmt(key: np.ndarray) -> np.ndarray:
    k = np.asarray(key).astype(np.int64)
    return np.where(k % 2 == 0, "png", "jpeg")


def footprint_boxes(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Georeferenced tile footprint per image (edges ≡ 0 mod 4)."""
    k = np.asarray(doc_id).astype(np.int64)
    cx = 4 * (500 + (k * 5741) % 9000)
    cy = 4 * (500 + (k * 7451) % 9000)
    hw = 4 * (50 + (k * 29) % 350)
    hh = 4 * (50 + (k * 31) % 350)
    return cx - hw, cy - hh, cx + hw, cy + hh


FOOTPRINT_SQL = {
    "minx": "4 * (500 + (doc_id * 5741) % 9000) - 4 * (50 + (doc_id * 29) % 350)",
    "miny": "4 * (500 + (doc_id * 7451) % 9000) - 4 * (50 + (doc_id * 31) % 350)",
    "maxx": "4 * (500 + (doc_id * 5741) % 9000) + 4 * (50 + (doc_id * 29) % 350)",
    "maxy": "4 * (500 + (doc_id * 7451) % 9000) + 4 * (50 + (doc_id * 31) % 350)",
}


class BuildImages:
    """Actor stage: documents batch -> image table rows (encode once per
    unique content key within the batch).

    ``copies`` > 1 flat-maps each document into N distinct images (bench
    scale-up knob): copy j of doc d has content key ``ckey(d)*1000 + j``,
    which preserves the ~1% duplicate structure (doc 99's copies duplicate
    doc 98's copy-for-copy)."""

    def __init__(self, copies: int = 1):
        self.copies = copies

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_id0 = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        captions0 = batch["text"].to_pylist()
        if self.copies == 1:
            doc_id = doc_id0
            captions = captions0
            keys = content_key(doc_id0)
            image_ids = [f"img{d:012d}" for d in doc_id0]
        else:
            j = np.tile(np.arange(self.copies, dtype=np.int64), len(doc_id0))
            doc_id = np.repeat(doc_id0, self.copies)
            captions = [c for c in captions0 for _ in range(self.copies)]
            keys = content_key(doc_id) * 1000 + j
            image_ids = [f"img{d:09d}_{int(k) % 1000:03d}" for d, k in zip(doc_id, keys)]
        ws, hs = image_dims(keys)
        fmts = image_fmt(keys)
        blobs = np.empty(len(doc_id), dtype=object)
        hashes = np.empty(len(doc_id), dtype=np.int64)
        cache: dict[tuple[int, str], tuple[bytes, int]] = {}
        for i in range(len(doc_id)):
            ck = int(keys[i])
            fmt = str(fmts[i])
            hit = cache.get((ck, fmt))
            if hit is None:
                img = render_pixels(ck, int(ws[i]), int(hs[i]))
                if fmt == "png":
                    blob = png.encode_png(img)
                    ph = int(phash.ahash64(img))
                else:
                    blob = lossy.encode_lossy(img)
                    ph = int(phash.ahash64(lossy.decode_lossy(blob)))
                hit = (blob, ph)
                cache[(ck, fmt)] = hit
            blobs[i], hashes[i] = hit
        return pa.table(
            {
                "image_id": pa.array(image_ids, pa.string()),
                "doc_id": pa.array(doc_id, pa.int64()),
                "ckey": pa.array(keys, pa.int64()),
                "bytes": pa.array(list(blobs), pa.binary()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(list(fmts), pa.string()),
                "caption": pa.array(captions, pa.string()),
                "phash": pa.array(hashes, pa.int64()),
            }
        )


def _validate_row(fmt, blob, w: int, h: int, ph: int, key: int) -> tuple[bool, int]:
    """One row's checks on whole decoded images -> (decode_ok, psnr_c).
    The path of rows under 8 px, whose aHash blocks overlap."""
    img = png.decode_png(blob) if fmt == "png" else lossy.decode_lossy(blob)
    if img.shape[0] != h or img.shape[1] != w:
        return False, 0
    src = render_pixels(key, w, h)
    p = lossy.psnr(img, src)
    psnr_c = int(min(p, 99.0) * 100)
    if fmt == "png" and not np.array_equal(img, src):
        return False, psnr_c
    if fmt == "jpeg" and p < 40.0:
        return False, psnr_c
    return int(phash.ahash64(img)) == ph, psnr_c


class DecodeValidate:
    """Decode every image of a batch and check its per-row invariants:

    * decoded dims match (w, h);
    * png: decoded pixels EXACTLY equal the deterministic source;
    * jpeg: PSNR(decoded, source) >= 40 dB;
    * phash recomputed from decoded pixels equals the stored phash;
    * caption non-null (byte equality is preserved by construction —
      captions ride through untouched).

    Appends ``decode_ok`` and ``psnr_c`` (PSNR in dB*100, truncated, 9900
    for an exact copy, 0 when the dims do not match).

    Per image only the codec runs (``png.inflate`` / ``lossy.inflate``:
    zlib plus a length check). The rest is a block kernel over chunks of
    about ``PIXEL_BUDGET`` pixels, one codec at a time: the decoded
    samples of a chunk go into one flat uint8 buffer, ``render_flat``
    renders the sources into another, one ``reduceat`` of the squared
    int16 differences gives each image's integer SSE (exact equality is
    SSE 0; PSNR comes from it), and ``phash.ahash64_flat`` hashes the
    chunk. Rows under 8 px take ``_validate_row``.
    """

    PIXEL_BUDGET = 1 << 17

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts = np.array(batch["fmt"].to_pylist(), dtype=object)
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        phs = batch["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = batch["ckey"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(blobs)
        ok = np.zeros(n, dtype=bool)
        psnr_c = np.zeros(n, dtype=np.int64)
        small = (ws < 8) | (hs < 8)
        for i in np.flatnonzero(small):
            ok[i], psnr_c[i] = _validate_row(
                fmts[i], blobs[i], int(ws[i]), int(hs[i]), int(phs[i]), int(keys[i]))
        is_png = fmts == "png"
        for rows, codec in ((np.flatnonzero(~small & is_png), png),
                            (np.flatnonzero(~small & ~is_png), lossy)):
            for idx, raws in _decoded_chunks(rows, codec, blobs, ws, hs, self.PIXEL_BUDGET):
                ok[idx], psnr_c[idx] = _check_chunk(
                    raws, codec, fmts[idx], ws[idx], hs[idx], phs[idx], keys[idx])
        t = batch.append_column("decode_ok", pa.array(ok))
        return t.append_column("psnr_c", pa.array(psnr_c, pa.int64()))


def _decoded_chunks(rows, codec, blobs, ws, hs, budget: int):
    """Inflate ``rows`` (all of one codec) in order and yield ``(idx,
    raws)`` chunks of about ``budget`` pixels, keeping the rows whose
    decoded dims match (w, h). PNG raws are filter-0 scanlines."""
    chunk, raws, px = [], [], 0
    for i in rows:
        w, h, raw = codec.inflate(blobs[i])
        if w != ws[i] or h != hs[i]:
            continue
        if codec is png and raw[:: 1 + 3 * w].strip(b"\0"):
            # a filtered scanline: unfilter the image, store it as filter 0
            pix = png.unfilter(w, h, raw).reshape(h, 3 * w)
            raw = np.pad(pix, ((0, 0), (1, 0))).tobytes()
        chunk.append(i)
        raws.append(raw)
        px += w * h
        if px >= budget:
            yield np.array(chunk), raws
            chunk, raws, px = [], [], 0
    if chunk:
        yield np.array(chunk), raws


def _check_chunk(raws, codec, fmt, w, h, ph, key) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel over one chunk from ``_decoded_chunks`` (per-row
    arrays ``fmt``, ``w``, ``h``, ``ph``, ``key``) -> (decode_ok, psnr_c)."""
    pix = np.frombuffer(b"".join(raws), dtype=np.uint8)
    if codec is png:  # drop each scanline's (zero) filter-type byte
        line = np.repeat(1 + 3 * w, h)
        keep = np.ones(len(pix), dtype=bool)
        keep[np.cumsum(line) - line] = False
        pix = pix[keep]
    else:
        pix = lossy.dequantize(pix)
    nbytes = 3 * w * h
    d = pix.astype(np.int16)
    d -= render_flat(key, w, h)
    d *= d  # <= 255^2: wraps in int16, exact as uint16
    sse = np.add.reduceat(d.view(np.uint16), np.cumsum(nbytes) - nbytes, dtype=np.int64)
    with np.errstate(divide="ignore"):
        p = 10.0 * np.log10(255.0 * 255.0 / (sse / nbytes))
    good = ~((fmt == "png") & (sse != 0)) & ~((fmt == "jpeg") & (p < 40.0))
    return (good & (phash.ahash64_flat(pix, w, h) == ph),
            (np.minimum(p, 99.0) * 100).astype(np.int64))


class ResizeValidate:
    """Actor stage: decode -> area-average resize to (h//2, w//2) ->
    validate against the resized deterministic source (the multimodal
    'resize' stage of the task's image layer; kernel in codecs/resize.py).

    * png: resized-decoded EXACTLY equals resized-source (identical float
      path on identical inputs — bit-stable);
    * jpeg: PSNR(resized-decoded, resized-source) >= 40 dB (area averaging
      only reduces codec noise, so the decode bound carries over).
    Emits (image_id, out_w, out_h, resize_ok).
    """

    def __init__(self, factor: int = 2):
        from ..codecs.resize import resize_area

        self.factor = factor
        self.resize = resize_area

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts = batch["fmt"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        keys = batch["ckey"].to_numpy(zero_copy_only=False)
        n = len(blobs)
        ok = np.zeros(n, dtype=bool)
        out_w = np.maximum(ws.astype(np.int64) // self.factor, 1)
        out_h = np.maximum(hs.astype(np.int64) // self.factor, 1)
        for i, (fmt, blob) in enumerate(zip(fmts, blobs)):
            img = png.decode_png(blob) if fmt == "png" else lossy.decode_lossy(blob)
            small = self.resize(img, int(out_h[i]), int(out_w[i]))
            src = render_pixels(int(keys[i]), int(ws[i]), int(hs[i]))
            small_src = self.resize(src, int(out_h[i]), int(out_w[i]))
            if fmt == "png":
                ok[i] = np.array_equal(small, small_src)
            else:
                ok[i] = lossy.psnr(small, small_src) >= 40.0
        return pa.table(
            {
                "image_id": batch["image_id"],
                "out_w": pa.array(out_w, pa.int64()),
                "out_h": pa.array(out_h, pa.int64()),
                "resize_ok": pa.array(ok),
            }
        )


class AugmentStage:
    """Actor stage: training-data image augmentation — horizontal flip,
    90° counter-clockwise rotation, and center crop (h//2 × w//2 window
    anchored at (h//4, w//4)) over the lossless rows.

    Every augmented variant is re-encoded to PNG and decoded BACK before
    any feature is read, so the emitted position-weighted channel sums
    prove both the codec round-trip on the new dimensions and the exact
    index mapping of each transform:

    * ``flip_wr``  = Σ (x+1)(y+1)·R over the flipped image
                   = Σ (w−x)(y+1)·R over the source — x-direction-sensitive;
    * ``rot_wg``   = Σ (i+1)(j+1)·G over the rotated image (np.rot90 CCW:
                   out[i,j] = src[j, w−1−i]) = Σ (w−x)(y+1)·G over the
                   source — a clockwise rotation would NOT match;
    * ``crop_sum_b`` = Σ B over the crop window only.

    Emits (image_id, flip_wr, rot_wg, crop_sum_b, rot_w, rot_h).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts = batch["fmt"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        ids = batch["image_id"].to_pylist()
        out_id, fwr, rwg, csb, rw, rh = [], [], [], [], [], []
        for i, fmt in enumerate(fmts):
            if fmt != "png":
                continue
            img = png.decode_png(blobs[i])
            h, w = img.shape[:2]
            flip = png.decode_png(png.encode_png(np.ascontiguousarray(img[:, ::-1])))
            rot = png.decode_png(png.encode_png(np.ascontiguousarray(np.rot90(img))))
            crop = png.decode_png(png.encode_png(np.ascontiguousarray(
                img[h // 4 : h // 4 + h // 2, w // 4 : w // 4 + w // 2]
            )))
            wx = np.arange(1, flip.shape[1] + 1, dtype=np.int64)
            wy = np.arange(1, flip.shape[0] + 1, dtype=np.int64)
            fwr.append(int((wy[:, None] * wx[None, :] * flip[:, :, 0].astype(np.int64)).sum()))
            ri = np.arange(1, rot.shape[0] + 1, dtype=np.int64)
            rj = np.arange(1, rot.shape[1] + 1, dtype=np.int64)
            rwg.append(int((ri[:, None] * rj[None, :] * rot[:, :, 1].astype(np.int64)).sum()))
            csb.append(int(crop[:, :, 2].astype(np.int64).sum()))
            rw.append(rot.shape[1])
            rh.append(rot.shape[0])
            out_id.append(ids[i])
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "flip_wr": pa.array(fwr, pa.int64()),
                "rot_wg": pa.array(rwg, pa.int64()),
                "crop_sum_b": pa.array(csb, pa.int64()),
                "rot_w": pa.array(rw, pa.int64()),
                "rot_h": pa.array(rh, pa.int64()),
            }
        )


def add_footprints(batch: pa.Table) -> pa.Table:
    minx, miny, maxx, maxy = footprint_boxes(
        batch["doc_id"].to_numpy(zero_copy_only=False)
    )
    for name, col in zip(("minx", "miny", "maxx", "maxy"), (minx, miny, maxx, maxy)):
        batch = batch.append_column(name, pa.array(col, pa.int64()))
    return batch


def images_dataset(sf_dir: str, concurrency=None, batch_size: int = 32,
                   copies: int = 1):
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        BuildImages, batch_format="pyarrow", batch_size=batch_size,
        concurrency=default_pool(concurrency),
        fn_constructor_kwargs={"copies": copies},
    )


def image_metadata_filter(images_ds, min_w: int = 40, min_h: int = 40,
                          max_aspect_q: int = 150, min_cap_tok: int = 32):
    """LAION-style metadata pre-filter over an image+caption table:
    minimum dimensions, maximum aspect ratio (integerized as
    ``100 * max(w,h) // min(w,h)``), minimum caption token count. Runs
    BEFORE any decode — the pruning stage a web-scale curation pipeline
    puts first so the expensive decode/embed stages only see survivors.

    Payload discipline: the stage projects away ``bytes`` up front
    (select_columns), so image payloads never ride through it; at 10^12
    rows this is a metadata-only streaming pass. Output:
    (image_id, n_px, aspect_q, cap_tok, kept) — all rows with the flag,
    so downstream can either filter on it or audit the rule mix.
    """
    import re

    import pyarrow.compute as pc

    tok_re = re.compile(r"[a-z0-9]+")

    def stage(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = b["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        caps = b["caption"].to_pylist()
        cap_tok = np.fromiter(
            (len(tok_re.findall((c or "").lower())) for c in caps),
            dtype=np.int64, count=len(caps))
        aspect_q = 100 * np.maximum(w, h) // np.minimum(w, h)
        kept = ((w >= min_w) & (h >= min_h)
                & (aspect_q <= max_aspect_q) & (cap_tok >= min_cap_tok))
        return pa.table({
            "image_id": b["image_id"],
            "n_px": pa.array(w * h, pa.int64()),
            "aspect_q": pa.array(aspect_q, pa.int64()),
            "cap_tok": pa.array(cap_tok, pa.int64()),
            "kept": pa.array(kept, pa.bool_()),
        })

    return images_ds.select_columns(
        ["image_id", "w", "h", "caption"]
    ).map_batches(stage, batch_format="pyarrow", batch_size=8192)
