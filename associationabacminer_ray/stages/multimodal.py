"""Multimodal column plumbing (image/audio/video as opaque binary).

Round 2 upgrade (round 3: + uncompressed 24-bit BMP, both row orders;
round 5: + REAL PNG, baseline JPEG and GIF decode in pure numpy +
stdlib — ``stages/jpeg.py`` / ``stages/gif.py``): decode is REAL for
binary PPM/PGM/BMP images, 8-bit non-interlaced PNG (gray/gray+alpha/
RGB/palette/RGBA, all five row filters), baseline sequential JPEG
(SOF0, any Hi/Vi subsampling, restart markers), GIF87a/89a (LZW,
interlacing, local color tables; first frame) and PCM WAV audio
(``Decode``), plus real nearest-neighbor resize and real deterministic
feature extraction (channel statistics + downsampled grid for images;
RMS/ZCR/FFT band energies for audio). What's left out is genuinely out
of numpy+stdlib reach at reasonable scope (progressive JPEG, MP3,
H.264) and raises ``NotImplementedError`` — the honest boundary.

Schema convention for a multimodal table:

    (item_id: string, modality: string in {image,audio,video},
     payload: binary, meta: string (JSON: width/height/sample_rate/...))

Batch sizing: payloads are O(MB) — callers should pass a SMALL
``batch_size`` (e.g. 32) and let block size stay default so a batch ×
concurrency fits each worker's heap (memory-aware rule in the brief).
"""

from __future__ import annotations

import io
import json
import wave

import numpy as np
import pandas as pd


# ------------------------------------------------------------- codecs
_COMPRESSED_MAGICS = {
    b"\x89PNG": "png", b"\xff\xd8\xff": "jpeg", b"GIF8": "gif",
    b"ID3": "mp3", b"\xff\xfb": "mp3", b"OggS": "ogg",
    b"\x00\x00\x00\x18ftyp": "mp4", b"\x00\x00\x00\x20ftyp": "mp4",
}


def _sniff(b: bytes) -> str:
    if b.startswith(b"P6"):
        return "ppm"
    if b.startswith(b"P5"):
        return "pgm"
    if b.startswith(b"BM"):
        return "bmp"
    if b.startswith(b"RIFF") and b[8:12] == b"WAVE":
        return "wav"
    for magic, name in _COMPRESSED_MAGICS.items():
        if b.startswith(magic):
            return name
    return "unknown"


def _read_pnm_header(b: bytes) -> tuple[int, int, int, int]:
    """(width, height, maxval, data_offset) for P5/P6 — whitespace- and
    comment-tolerant single-pass header scan."""
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(b) and b[pos:pos + 1].isspace():
            pos += 1
        if b[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(b) and b[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(b) and not b[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(b[start:pos]))
    return fields[0], fields[1], fields[2], pos + 1  # single ws after maxval


def decode_ppm(b: bytes) -> np.ndarray:
    """Binary PPM (P6) → (h, w, 3) uint8 / PGM (P5) → (h, w) uint8."""
    channels = 3 if b.startswith(b"P6") else 1
    w, h, maxval, off = _read_pnm_header(b)
    if maxval > 255:
        raise NotImplementedError("16-bit PNM not supported")
    n = w * h * channels
    arr = np.frombuffer(b, dtype=np.uint8, count=n, offset=off)
    return arr.reshape((h, w, 3) if channels == 3 else (h, w))


def encode_ppm(arr: np.ndarray) -> bytes:
    """(h, w, 3) or (h, w) uint8 → binary P6/P5 bytes."""
    if arr.ndim == 3 and arr.shape[2] != 3:
        raise ValueError(
            f"P6 encodes exactly 3 channels, got shape {arr.shape} — "
            "a mismatched header/payload would round-trip to garbage")
    channels = 3 if arr.ndim == 3 else 1
    magic = b"P6" if channels == 3 else b"P5"
    h, w = arr.shape[:2]
    return magic + f"\n{w} {h}\n255\n".encode() + \
        np.ascontiguousarray(arr, dtype=np.uint8).tobytes()


def decode_bmp(b: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP (BI_RGB) → (h, w, 3) uint8 RGB.

    Handles both row orders (positive biHeight = bottom-up, negative =
    top-down) and the 4-byte row padding; stdlib struct + one numpy
    reshape, no imaging library."""
    import struct

    if not b.startswith(b"BM"):
        raise ValueError("not a BMP payload")
    # malformed / truncated / variant headers must surface as the
    # stage's documented NotImplementedError, never a raw struct.error
    # crashing the actor pool
    if len(b) < 54:
        raise NotImplementedError("truncated or non-image 'BM' payload")
    data_off = struct.unpack_from("<I", b, 10)[0]
    bi_size, w, h_signed, _, bpp, compression = struct.unpack_from(
        "<IiiHHI", b, 14)
    if bi_size < 40:
        raise NotImplementedError(
            f"BMP header variant biSize={bi_size} (BITMAPCOREHEADER "
            "et al.) not supported — only BITMAPINFOHEADER")
    if bpp != 24 or compression != 0:
        raise NotImplementedError(
            f"only uncompressed 24-bit BMP supported (bpp={bpp}, "
            f"compression={compression})")
    h = abs(h_signed)
    stride = (w * 3 + 3) // 4 * 4
    if w <= 0 or h == 0 or data_off < 54 or \
            len(b) < data_off + h * stride:
        raise NotImplementedError(
            f"malformed BMP dimensions/payload (w={w}, h={h_signed}, "
            f"offset={data_off}, len={len(b)})")
    rows = np.frombuffer(b, np.uint8, count=h * stride,
                         offset=data_off).reshape(h, stride)
    img = rows[:, : w * 3].reshape(h, w, 3)
    if h_signed > 0:           # bottom-up storage order
        img = img[::-1]
    return img[:, :, ::-1].copy()  # BGR → RGB


def encode_bmp(arr: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB → uncompressed 24-bit bottom-up BMP bytes."""
    import struct

    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"BMP24 encodes (h, w, 3), got {arr.shape}")
    h, w = arr.shape[:2]
    stride = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)  # RGB→BGR, flip
    payload = rows.tobytes()
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(payload),
                       2835, 2835, 0, 0)
    header = struct.pack("<2sIHHI", b"BM", 14 + 40 + len(payload), 0, 0,
                         14 + 40)
    return header + info + payload


def decode_png(b: bytes) -> np.ndarray:
    """8-bit non-interlaced PNG → uint8 array: (h, w) gray, (h, w, 2)
    gray+alpha, (h, w, 3) RGB (incl. palette), (h, w, 4) RGBA.

    Pure stdlib-zlib + numpy — no imaging library: chunk walk, IDAT
    inflate, per-row unfilter. The Sub filter is fully vectorized (a
    per-byte-lane prefix sum; uint8 cumsum wraps mod 256, which IS the
    spec's arithmetic), Up/None are whole-row numpy ops; Average/Paeth
    carry an inherent left-neighbor dependency chain, so those rows run
    a per-byte loop (our own encoder emits filter 0 — the loop is only
    paid on foreign-encoded rows). 16-bit, sub-8-bit and Adam7
    interlaced payloads raise the stage's documented
    NotImplementedError; malformed chunks never surface raw errors."""
    import struct
    import zlib

    if not b.startswith(b"\x89PNG\r\n\x1a\n"):
        raise ValueError("not a PNG payload")
    ihdr, plte, idat = None, None, []
    pos = 8
    while pos + 8 <= len(b):
        (ln,) = struct.unpack_from(">I", b, pos)
        typ = b[pos + 4:pos + 8]
        data = b[pos + 8:pos + 8 + ln]
        if len(data) < ln:
            raise NotImplementedError("truncated PNG chunk")
        pos += 12 + ln
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"PLTE":
            plte = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
    if ihdr is None or len(ihdr) != 13 or not idat:
        raise NotImplementedError("truncated PNG (missing IHDR/IDAT)")
    w, h, depth, ctype, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr)
    if comp != 0 or filt != 0:
        raise NotImplementedError(
            f"nonstandard PNG compression/filter method ({comp}/{filt})")
    if interlace != 0:
        raise NotImplementedError("Adam7 interlaced PNG not supported")
    if depth != 8:
        raise NotImplementedError(f"PNG bit depth {depth} (only 8)")
    nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(ctype)
    if nch is None:
        raise NotImplementedError(f"PNG color type {ctype}")
    if ctype == 3 and plte is None:
        raise NotImplementedError("palette PNG without PLTE chunk")
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as e:
        raise NotImplementedError(f"corrupt PNG IDAT stream: {e}") from e
    stride = w * nch
    if w == 0 or h == 0 or len(raw) != h * (stride + 1):
        raise NotImplementedError(
            f"PNG data length mismatch (w={w}, h={h}, got {len(raw)})")
    rows = np.frombuffer(raw, np.uint8).reshape(h, stride + 1)
    ftypes = rows[:, 0]
    recon = np.zeros((h, stride), np.uint8)
    prev = np.zeros(stride, np.uint8)
    bpp = nch  # bytes per pixel at depth 8
    for y in range(h):
        r = rows[y, 1:]
        f = int(ftypes[y])
        if f == 0:                       # None
            line = r.copy()
        elif f == 1:                     # Sub: lane-wise mod-256 cumsum
            line = r.copy()
            for k in range(bpp):
                lane = line[k::bpp]
                np.cumsum(lane, dtype=np.uint8, out=lane)
        elif f == 2:                     # Up: uint8 add wraps mod 256
            line = r + prev
        elif f in (3, 4):                # Average / Paeth: sequential
            ri = r.astype(np.int32)
            pv = prev.astype(np.int32)
            ln_ = np.zeros(stride, np.int32)
            if f == 3:
                for x in range(stride):
                    left = ln_[x - bpp] if x >= bpp else 0
                    ln_[x] = (ri[x] + ((left + pv[x]) >> 1)) & 0xFF
            else:
                for x in range(stride):
                    a = ln_[x - bpp] if x >= bpp else 0
                    c = pv[x - bpp] if x >= bpp else 0
                    bb = pv[x]
                    p = a + bb - c
                    pa, pb, pc = abs(p - a), abs(p - bb), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (
                        bb if pb <= pc else c)
                    ln_[x] = (ri[x] + pred) & 0xFF
            line = ln_.astype(np.uint8)
        else:
            raise NotImplementedError(f"PNG filter type {f}")
        recon[y] = line
        prev = line
    if ctype == 3:                       # palette indices → RGB
        pal = np.frombuffer(plte, np.uint8)
        if len(pal) % 3 or len(pal) == 0:
            raise NotImplementedError("malformed PLTE chunk")
        pal = pal.reshape(-1, 3)
        idx = recon.reshape(h, w)
        if int(idx.max()) >= len(pal):
            raise NotImplementedError("palette index out of range")
        return pal[idx]
    if nch == 1:
        return recon.reshape(h, w)
    return recon.reshape(h, w, nch)


def encode_png(arr: np.ndarray) -> bytes:
    """uint8 array → 8-bit non-interlaced PNG bytes (filter 0 rows,
    stdlib zlib). Accepts (h, w) gray, (h, w, 2) gray+alpha, (h, w, 3)
    RGB, (h, w, 4) RGBA — the decode_png round-trip twin."""
    import struct
    import zlib

    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if a.ndim == 2:
        ctype, nch = 0, 1
    elif a.ndim == 3 and a.shape[2] in (2, 3, 4):
        ctype = {2: 4, 3: 2, 4: 6}[a.shape[2]]
        nch = a.shape[2]
    else:
        raise ValueError(f"PNG encodes (h,w[,2|3|4]) uint8, got {a.shape}")
    h, w = a.shape[:2]

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + typ + data
                + struct.pack(">I", zlib.crc32(typ + data)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    scan = np.zeros((h, w * nch + 1), np.uint8)
    scan[:, 1:] = a.reshape(h, w * nch)
    idat = zlib.compress(scan.tobytes(), 6)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def decode_wav(b: bytes) -> tuple[np.ndarray, int]:
    """PCM WAV → (int16 samples (n,) or (n, channels), sample_rate)."""
    with wave.open(io.BytesIO(b), "rb") as f:
        if f.getsampwidth() != 2:
            raise NotImplementedError("only 16-bit PCM WAV supported")
        raw = f.readframes(f.getnframes())
        samples = np.frombuffer(raw, dtype=np.int16)
        if f.getnchannels() > 1:
            samples = samples.reshape(-1, f.getnchannels())
        return samples, f.getframerate()


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1 if samples.ndim == 1 else samples.shape[1])
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(np.ascontiguousarray(samples, dtype=np.int16).tobytes())
    return buf.getvalue()


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize via integer index sampling (vectorized)."""
    h, w = img.shape[:2]
    ri = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    ci = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return img[ri[:, None], ci[None, :]]


class Decode:
    """Actor-pool decode stage — REAL for PPM/PGM/BMP/PNG/JPEG/WAV
    payloads. Emits
    object columns ``pixels`` (uint8 arrays) / ``samples`` (int16) plus
    ``decoded_shape`` and ``sample_rate``; a compressed payload raises
    NotImplementedError naming the codec (the honest boundary: those
    libraries are not in this container)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        pixels, samples, shapes, rates = [], [], [], []
        for payload in batch["payload"]:
            b = bytes(payload or b"")
            kind = _sniff(b)
            if kind in ("ppm", "pgm", "bmp", "png", "jpeg", "gif"):
                if kind == "jpeg":
                    from .jpeg import decode_jpeg

                    img = decode_jpeg(b)
                elif kind == "gif":
                    from .gif import decode_gif

                    img = decode_gif(b)
                else:
                    img = (decode_png(b) if kind == "png"
                           else decode_bmp(b) if kind == "bmp"
                           else decode_ppm(b))
                pixels.append(img)
                samples.append(None)
                shapes.append(json.dumps(list(img.shape)))
                rates.append(0)
            elif kind == "wav":
                s, rate = decode_wav(b)
                pixels.append(None)
                samples.append(s)
                shapes.append(json.dumps(list(s.shape)))
                rates.append(rate)
            else:
                raise NotImplementedError(
                    f"codec {kind!r}: decode libraries are not available in "
                    "this environment (PPM/PGM/BMP/PNG/JPEG/GIF/WAV are)")
        out = batch.copy()
        out["pixels"] = pixels
        out["samples"] = samples
        out["decoded_shape"] = shapes
        out["sample_rate"] = np.array(rates, dtype=np.int32)
        return out


class ImageResize:
    """Nearest-neighbor resize of the decoded ``pixels`` column."""

    def __init__(self, out_h: int = 16, out_w: int = 16):
        self.out_h, self.out_w = out_h, out_w

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["pixels"] = [
            resize_nearest(p, self.out_h, self.out_w) if p is not None else None
            for p in batch["pixels"]]
        return out


class ImageFeatures:
    """REAL deterministic image features: per-channel mean/std plus a
    flattened g×g nearest-neighbor luminance grid — float32, unit-normed
    (ready for the ANN / embedding-dedup pipelines)."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = []
        for p in batch["pixels"]:
            if p is None:
                feats.append(None)
                continue
            if p.size == 0:  # degenerate 0×w / h×0 image: defined zeros
                feats.append(np.zeros(6 + self.grid * self.grid,
                                      dtype=np.float32))
                continue
            img = p.astype(np.float32)
            if img.ndim == 2:
                img = img[:, :, None].repeat(3, axis=2)
            mean = img.mean(axis=(0, 1)) / 255.0
            std = img.std(axis=(0, 1)) / 255.0
            lum = img.mean(axis=2)
            grid = resize_nearest(lum, self.grid, self.grid).ravel() / 255.0
            v = np.concatenate([mean, std, grid]).astype(np.float32)
            feats.append(v / max(float(np.linalg.norm(v)), 1e-12))
        out = batch.copy()
        out["feature"] = feats
        return out


class AudioFeatures:
    """REAL deterministic audio features: RMS, zero-crossing rate, and
    log energies of ``n_bands`` FFT bands — float32, unit-normed."""

    def __init__(self, n_bands: int = 8):
        self.n_bands = n_bands

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = []
        for s in batch["samples"]:
            if s is None:
                feats.append(None)
                continue
            x = s.astype(np.float64).ravel() / 32768.0
            if not len(x):
                feats.append(np.zeros(2 + self.n_bands, dtype=np.float32))
                continue
            rms = float(np.sqrt(np.mean(x * x)))
            # a 1-sample clip has no transitions: mean of an empty diff
            # would be NaN and poison the whole unit-normed vector
            zcr = (float(np.mean(np.abs(np.diff(
                np.signbit(x).astype(np.int8))))) if len(x) > 1 else 0.0)
            spec = np.abs(np.fft.rfft(x)) ** 2
            bands = np.array_split(spec, self.n_bands)
            energy = np.log1p(np.array([b.sum() for b in bands]))
            v = np.concatenate([[rms, zcr], energy]).astype(np.float32)
            feats.append(v / max(float(np.linalg.norm(v)), 1e-12))
        out = batch.copy()
        out["feature"] = feats
        return out


def make_real_multimodal_table(n: int = 32, modality: str = "image",
                               seed: int = 9,
                               image_codec: str = "ppm") -> pd.DataFrame:
    """Fixture with REAL encoded payloads (P6/PNG images / 16-bit PCM
    WAV). ``image_codec`` defaults to "ppm" (the pinned-gate corpus is
    byte-stable); "png" exercises the deflate decode path."""
    def _enc_jpeg(img):
        from .jpeg import encode_jpeg

        return encode_jpeg(img, quality=95)

    rng = np.random.default_rng(seed)
    encoder = {"ppm": encode_ppm, "png": encode_png,
               "jpeg": _enc_jpeg}[image_codec]
    rows = []
    for i in range(n):
        if modality == "image":
            h, w = int(rng.integers(6, 24)), int(rng.integers(6, 24))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payload = encoder(img)
            meta = {"width": w, "height": h, "format": image_codec}
        else:
            n_samp = int(rng.integers(256, 1024))
            tone = (np.sin(np.arange(n_samp) * 2 * np.pi
                           * float(rng.uniform(0.01, 0.2))) * 12000)
            payload = encode_wav(tone.astype(np.int16))
            meta = {"sample_rate": 16000, "n_samples": n_samp, "format": "wav"}
        rows.append((f"item-{i:05d}", modality, payload, json.dumps(meta)))
    return pd.DataFrame(rows, columns=["item_id", "modality", "payload", "meta"])

