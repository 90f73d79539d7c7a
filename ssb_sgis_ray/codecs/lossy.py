"""Deterministic lossy codec — a STAND-IN for JPEG.

No JPEG library exists in this environment (no PIL/libjpeg), so the
engine's "jpeg"-format path uses this clearly-marked fake: uniform 5-bit
quantization per channel followed by zlib. It is honest about being lossy
while guaranteeing the input_hint invariant by construction:

    quantization step 8, reconstruction at bin centers
    => max error 4, MSE <= 64/12 = 5.33
    => PSNR >= 10*log10(255^2 / 5.33) ~= 40.9 dB  (>= 40 dB required)

The Ray-side plumbing (schema, batch handling, actor pools) is identical
to what a real JPEG codec would need; swapping in libjpeg later touches
only this module.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_MAGIC = b"FJPG"
STEP = 8


def encode_lossy(img: np.ndarray) -> bytes:
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_lossy expects (h, w, 3) uint8")
    h, w = img.shape[:2]
    q = (img // STEP).astype(np.uint8)  # 5-bit values 0..31
    return _MAGIC + struct.pack(">II", w, h) + zlib.compress(q.tobytes(), 6)


# the largest quantized value whose bin center fits in uint8
_QMAX = (255 - STEP // 2) // STEP


def inflate(data: bytes) -> tuple[int, int, bytes]:
    """Payload -> (w, h, q): the ``h * w * 3`` quantized samples."""
    if not data.startswith(_MAGIC):
        raise ValueError("not a FJPG payload")
    w, h = struct.unpack(">II", data[4:12])
    q = zlib.decompress(data[12:])
    if len(q) != h * w * 3:
        raise ValueError(f"payload holds {len(q)} samples, header says {w}x{h}")
    return w, h, q


def dequantize(q: np.ndarray) -> np.ndarray:
    """Quantized uint8 samples -> reconstructed uint8 samples: bin
    centers, clamped to 255 (uint8 arithmetic, no lookup gather)."""
    out = q * np.uint8(STEP)
    out += STEP // 2
    out[q > _QMAX] = 255
    return out


def decode_lossy(data: bytes) -> np.ndarray:
    w, h, q = inflate(data)
    return dequantize(np.frombuffer(q, dtype=np.uint8)).reshape(h, w, 3)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
