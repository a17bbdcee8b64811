"""Stable, vectorized 64-bit hashing.

Every sketch in this engine keys on ``uint64`` hashes produced here, so
estimates are deterministic across processes, partitions and merge
orders (a requirement the reference never had — it used giant in-RAM
Python sets, ``src/eval/EnvPolicyEvaluator.py:192-199``; we need content
hashes that survive a shuffle).

Primitives:
- ``splitmix64``: the public-domain SplitMix64 finalizer (Vigna), fully
  vectorized over ``uint64`` ndarrays. Used to derive independent hash
  rows/seeds for CMS/Bloom from one base hash.
- ``hash_strings`` / ``hash_any``: content hash of a string/object array
  via ``pandas.util.hash_array`` (SipHash-1-3 with a fixed key —
  deterministic across processes).
- ``combine_hashes``: order-sensitive fold of several uint64 columns
  into one (for composite keys / itemset identity over sorted items).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

U64 = np.uint64

_SM_GAMMA = U64(0x9E3779B97F4A7C15)
_SM_M1 = U64(0xBF58476D1CE4E5B9)
_SM_M2 = U64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Vectorized SplitMix64 finalizer. uint64 in → uint64 out; a 0-d
    input gives a NumPy scalar. The steps run in place on a new array
    (array arithmetic wraps around silently, the algorithm's uint64
    arithmetic; scalar arithmetic would warn, so a 0-d input is mixed
    as a one-element array)."""
    x = np.asarray(x, dtype=np.uint64)
    z = np.atleast_1d(x) + _SM_GAMMA
    z ^= z >> U64(30)
    z *= _SM_M1
    z ^= z >> U64(27)
    z *= _SM_M2
    z ^= z >> U64(31)
    return z[0] if x.ndim == 0 else z


def mix_with_seed(h: np.ndarray, seed: int) -> np.ndarray:
    """Derive an independent hash family member: mix(h ^ splitmix(seed))."""
    s = splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return splitmix64(np.asarray(h, dtype=np.uint64) ^ s)


def hash_strings(values) -> np.ndarray:
    """Stable uint64 content hash of a string-like array.

    Accepts a pandas Series, numpy object array, list, or pyarrow
    Array/ChunkedArray. Nulls hash like the empty-marker string
    ``"\\x00NULL"`` (distinct from ``""``).
    """
    arr = _to_object_ndarray(values)
    if arr.dtype != object:
        arr = arr.astype(object)
    # replace None/NaN with a distinct marker so null != ""
    mask = pd.isna(arr)
    if mask.any():
        arr = arr.copy()
        arr[mask] = "\x00NULL"
    h = pd.util.hash_array(arr, categorize=False)
    return h.astype(np.uint64, copy=False)


def hash_ints(values, seed: int = 0) -> np.ndarray:
    """Stable uint64 hash of an integer array (splitmix of the value)."""
    arr = np.asarray(_to_object_ndarray(values))
    h = splitmix64(arr.astype(np.uint64, copy=False))
    if seed:
        return mix_with_seed(h, seed)
    return h


def null_marker_hash() -> np.uint64:
    """The hash of a NULL value — identical across the int and string
    paths so a value's hash never depends on its block's null pattern."""
    return hash_strings(np.array([None], dtype=object))[0]


def hash_any(values) -> np.ndarray:
    """Dispatch: integer dtypes → hash_ints, everything else →
    hash_strings. BLOCK-INVARIANT under nulls: an Arrow integer column
    containing nulls would otherwise convert to float64 (corrupting
    hashes > 2^53 and flipping the dispatch); nulls are masked out,
    non-null values hash on the integer path, and null slots get the
    shared null-marker hash."""
    try:
        import pyarrow as pa

        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, pa.Array) and pa.types.is_integer(values.type):
            if values.null_count:
                mask = values.is_null().to_numpy(zero_copy_only=False)
                filled = values.fill_null(0).to_numpy(zero_copy_only=False)
                out = hash_ints(filled)
                out[mask] = null_marker_hash()
                return out
            return hash_ints(values.to_numpy(zero_copy_only=False))
    except ImportError:  # pragma: no cover
        pass
    arr = _to_object_ndarray(values)
    if isinstance(arr, np.ndarray) and arr.dtype.kind in "iu":
        return hash_ints(arr)
    return hash_strings(arr)


def combine_hashes(*columns: np.ndarray) -> np.ndarray:
    """Order-sensitive fold of several uint64 arrays into one.

    ``h = mix(h * P ^ c)`` per column — used for composite keys such as
    ``(role, tool)`` items and for itemset identity over item hashes
    that the caller has already sorted (sorted fold ⇒ set identity).
    """
    P = U64(0x100000001B3)
    out = np.full_like(np.asarray(columns[0], dtype=np.uint64), U64(0xcbf29ce484222325))
    with np.errstate(over="ignore"):
        for c in columns:
            out = splitmix64(out * P ^ np.asarray(c, dtype=np.uint64))
    return out


def _to_object_ndarray(values):
    """Best-effort conversion of Series/Arrow/list → ndarray (no copy when possible)."""
    if isinstance(values, pd.Series):
        return values.to_numpy()
    if isinstance(values, np.ndarray):
        return values
    try:  # pyarrow Array / ChunkedArray
        import pyarrow as pa

        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, pa.Array):
            return values.to_numpy(zero_copy_only=False)
    except ImportError:  # pragma: no cover
        pass
    return np.asarray(values)


# --------------------------------------------------------------------------
# Byte-level segmented polynomial hashing (VERDICT r3 #2): hash every
# k-byte shingle / every \S+ token of a string column with NO per-piece
# Python object. The UTF-8 buffer comes out of Arrow zero-copy; a
# prefix-sum polynomial over the raw bytes gives any substring's hash as
# (PS[e] − PS[s]) · P⁻ˢ in O(1), all mod 2⁶⁴ (P odd ⇒ invertible), then
# a SplitMix64 finalize for avalanche. Hashes are pure functions of the
# byte CONTENT (position cancels), so they are batch-split invariant —
# pinned by a property test. Byte-level shingles equal char-level ones
# on ASCII text and differ only on multi-byte code points (the standard
# large-scale-dedup tradeoff; candidate recall, not correctness).

_POLY_P = U64(0x9E3779B97F4A7C15 | 1)          # odd ⇒ invertible mod 2^64
_POLY_P_INV = U64(pow(0x9E3779B97F4A7C15 | 1, -1, 1 << 64))


def utf8_bytes_view(values) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 byte buffer, int64 offsets[n+1]) of a string column's
    UTF-8 data — zero-copy when ``values`` is an Arrow string array;
    one C-level conversion for pandas/numpy/list inputs. Nulls read as
    empty strings. Offsets are ABSOLUTE positions into the buffer (an
    Arrow slice may not start at 0)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        arr = pd.Series(values)
        arr = pa.array(arr.where(arr.notna(), ""), type=pa.large_string())
    else:
        arr = values
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.fill_null(pc.cast(arr, pa.large_string()), "")
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], np.int64, count=len(arr) + 1,
                        offset=arr.offset * 8)
    data = (np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None
            else np.empty(0, np.uint8))
    if off[0] != 0 or (len(off) and off[-1] != len(data)):
        # sliced array: trim to the slice's byte range and rebase so
        # out-of-slice bytes can never leak into a byte scan
        data = data[off[0]:off[-1]]
        off = off - off[0]
    return data, off


def poly_prefix(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PS[i] = Σ_{j<i} (data[j]+1)·Pʲ and ipw[i] = P⁻ⁱ (mod 2⁶⁴).
    The +1 keeps NUL bytes distinct from absent bytes."""
    n = len(data)
    pw = np.empty(n + 1, U64)
    pw[0] = U64(1)
    ipw = np.empty(n + 1, U64)
    ipw[0] = U64(1)
    ps = np.empty(n + 1, U64)
    ps[0] = U64(0)
    if n:
        with np.errstate(over="ignore"):
            np.cumprod(np.full(n, _POLY_P, U64), out=pw[1:])
            np.cumprod(np.full(n, _POLY_P_INV, U64), out=ipw[1:])
            np.cumsum((data.astype(U64) + U64(1)) * pw[:n], out=ps[1:])
    return ps, ipw


def segment_poly_hashes(ps: np.ndarray, ipw: np.ndarray,
                        starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Content hash of each byte range [s, e): position-independent
    (the P⁻ˢ factor cancels the global offset), SplitMix64-finalized."""
    with np.errstate(over="ignore"):
        raw = (ps[ends] - ps[starts]) * ipw[starts]
        # fold in the length so a range of NULs differs from a shorter one
        return splitmix64(raw ^ (ends - starts).astype(U64))


def char_shingle_hashes_bytes(values, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """All k-byte shingle hashes of every string, flattened, plus int64
    doc offsets — the vectorized replacement for per-shingle Python
    slicing. Strings shorter than k contribute ONE whole-text shingle
    (empty included)."""
    data, off = utf8_bytes_view(values)
    lens = off[1:] - off[:-1]
    counts = np.maximum(np.int64(1), lens - (k - 1))
    out_off = np.empty(len(lens) + 1, np.int64)
    out_off[0] = 0
    np.cumsum(counts, out=out_off[1:])
    total = int(out_off[-1])
    starts = (np.arange(total, dtype=np.int64)
              - np.repeat(out_off[:-1], counts)
              + np.repeat(off[:-1], counts))
    ends = np.minimum(starts + k, np.repeat(off[1:], counts))
    ps, ipw = poly_prefix(data)
    return segment_poly_hashes(ps, ipw, starts, ends), out_off


def hash_strings_poly(values) -> np.ndarray:
    """Whole-string byte-polynomial content hash — the SQL-expressible
    sibling of ``hash_strings``: splitmix64(Σⱼ (byteⱼ+1)·Pʲ ⊕ len).

    Same fold the shingle/token kernels use (``segment_poly_hashes``),
    so a DuckDB oracle can recompute it independently with a
    ``list_reduce`` Horner fold + the splitmix64 SQL steps
    (``functions.sqlgen.polyhash_select``) — which is exactly why the
    sketch queries that want a DERIVED estimate oracle (not a pinned
    golden) key on this instead of the SipHash ``hash_strings``.
    Nulls hash like ``""`` (the SQL side fills the same way)."""
    data, off = utf8_bytes_view(values)
    ps, ipw = poly_prefix(data)
    return segment_poly_hashes(ps, ipw, off[:-1], off[1:])


# RE2 \S = [^\t\n\f\r ] — byte-exact at UTF-8 level (continuation bytes
# are ≥ 0x80, never delimiters), so byte tokenization ≡ char tokenization
_RE2_DELIM = np.zeros(256, bool)
_RE2_DELIM[[9, 10, 12, 13, 32]] = True


def re2_token_hashes(values) -> tuple[np.ndarray, np.ndarray]:
    """Hash every ``\\S+`` token of every string (RE2 semantics, the
    TokenStats/Chunker/SQL-oracle definition) with no per-token Python
    object: byte-mask token spans + segmented polynomial hashing.
    Returns (uint64 token hashes, int64 per-doc token offsets)."""
    data, off = utf8_bytes_view(values)
    n = len(data)
    n_docs = len(off) - 1
    if n == 0:
        return np.empty(0, U64), np.zeros(n_docs + 1, np.int64)
    is_tok = ~_RE2_DELIM[data]
    prev = np.empty(n, bool)
    prev[0] = False
    prev[1:] = is_tok[:-1]
    nxt = np.empty(n, bool)
    nxt[-1] = False
    nxt[:-1] = is_tok[1:]
    # doc boundaries break token runs
    doc_starts = off[:-1][off[:-1] < n]
    prev[doc_starts] = False
    doc_last = off[1:] - 1
    doc_last = doc_last[(doc_last >= 0) & (doc_last < n)]
    nxt[doc_last] = False
    starts = np.nonzero(is_tok & ~prev)[0]
    ends = np.nonzero(is_tok & ~nxt)[0] + 1
    ps, ipw = poly_prefix(data)
    hashes = segment_poly_hashes(ps, ipw, starts, ends)
    tok_off = np.searchsorted(starts, off).astype(np.int64)
    return hashes, tok_off


# Python str.split() whitespace, ASCII subset: [\t\n\v\f\r ] — one more
# byte (\v, 0x0b) than RE2 \S tokenization above. Byte-table splitting
# equals str.split() whenever the text has no UNICODE whitespace; the
# synthetic corpora and the SQL oracle's regexp_split('\s+') both live
# in that regime (unicode whitespace would diverge in all three).
_PYSPLIT_DELIM = np.zeros(256, bool)
_PYSPLIT_DELIM[[9, 10, 11, 12, 13, 32]] = True


def split_token_hashes(values) -> tuple[np.ndarray, np.ndarray]:
    """Hash every ``str.split()`` token of every string with no
    per-token Python object (the ``re2_token_hashes`` byte-mask kernel
    with the \\v-inclusive delimiter table), plus the
    ``(t or '').split() or ['']`` fallback: a document with NO token
    contributes ONE empty-string token, so every doc has >= 1 hash and
    the per-doc offsets are strictly increasing (safe for reduceat).
    Returns (uint64 token hashes, int64 per-doc token offsets)."""
    data, off = utf8_bytes_view(values)
    n = len(data)
    n_docs = len(off) - 1
    h_empty = splitmix64(np.zeros(1, U64))[0]
    if n == 0:
        return (np.full(n_docs, h_empty, U64),
                np.arange(n_docs + 1, dtype=np.int64))
    is_tok = ~_PYSPLIT_DELIM[data]
    prev = np.empty(n, bool)
    prev[0] = False
    prev[1:] = is_tok[:-1]
    nxt = np.empty(n, bool)
    nxt[-1] = False
    nxt[:-1] = is_tok[1:]
    doc_starts = off[:-1][off[:-1] < n]
    prev[doc_starts] = False
    doc_last = off[1:] - 1
    doc_last = doc_last[(doc_last >= 0) & (doc_last < n)]
    nxt[doc_last] = False
    starts = np.nonzero(is_tok & ~prev)[0]
    ends = np.nonzero(is_tok & ~nxt)[0] + 1
    ps, ipw = poly_prefix(data)
    hashes = segment_poly_hashes(ps, ipw, starts, ends)
    tok_off = np.searchsorted(starts, off).astype(np.int64)
    counts = tok_off[1:] - tok_off[:-1]
    emptied = np.nonzero(counts == 0)[0]
    if len(emptied):
        hashes = np.insert(hashes, tok_off[emptied], h_empty)
        bump = np.zeros(n_docs + 1, np.int64)
        bump[emptied + 1] = 1
        tok_off = tok_off + np.cumsum(bump)
    return hashes, tok_off
