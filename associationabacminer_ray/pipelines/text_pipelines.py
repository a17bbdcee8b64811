"""Text / dedup query pack over the ``documents`` table.

Oracle-checked: exact dedup groups, md5 fingerprints, token/char stats,
language distribution. Rows-only (verified in pytest instead): MinHash-
LSH near-dup candidates, SimHash bands, heuristic language ID, quality
scores, rolling fingerprints.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..runtime import auto_concurrency
from ..stages.dedup import (
    MinHashLSH,
    SimHash,
    shingle_set_jaccard,
    verify_pairs_distributed,
    word_ngram_jaccard,
)
from ..stages.text import Chunker, Fingerprint, LangId, PIIRedactor, TokenStats


def _docs(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# ------------------------------------------------------------- oracle-backed
def q_dedup_docs(sf_dir: str):
    """Exact dedup by text: representative doc (min id) + copy count.
    The unique-logs SHA1 dedup analog (EnvLogUniverseGenerator.py:91-94).

    Texts are hashed INSIDE the first map_batches, so the dedup shuffle
    moves only (hash, doc_id) pairs — never document payloads (the
    stages/dedup scale contract). Grouping by 64-bit content hash equals
    grouping by text up to hash collisions (~n²/2⁶⁴; the output carries
    no text column, so the answer is identical w.h.p.)."""
    from ..functions.hashing import hash_strings
    from .analytics import bucketed_group_agg

    ds = _docs(sf_dir, ["doc_id", "text"])

    def to_hashes(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": b["doc_id"].astype(np.int64),
                             "h": hash_strings(b["text"])})

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("h", sort=False).agg(
            keep_id=("doc_id", "min"), n_copies=("doc_id", "size")).reset_index()
        return pd.DataFrame({"keep_id": out["keep_id"].astype(np.int64),
                             "n_copies": out["n_copies"].astype(np.int64)})

    hashed = ds.map_batches(to_hashes, batch_format="pandas")
    return bucketed_group_agg(hashed, ["h"], agg, num_buckets=16)


def q_doc_fingerprint(sf_dir: str):
    """doc_id + md5 hex fingerprint (exactly reproducible in SQL)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(Fingerprint, batch_format="pyarrow", concurrency=auto_concurrency())
    return out.map_batches(lambda t: t.select(["doc_id", "fp"]),
                           batch_format="pyarrow")


def q_text_stats(sf_dir: str):
    """doc_id, computed char count, whitespace token count."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(TokenStats, batch_format="pyarrow", concurrency=auto_concurrency())
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_chars_computed", "n_tokens"]),
        batch_format="pyarrow")


def q_lang_dist(sf_dir: str):
    """Documents + chars per (lang, source)."""
    ds = _docs(sf_dir, ["lang", "source", "n_chars"])
    agg = ds.groupby(["lang", "source"]).aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    return agg.map_batches(
        lambda b: b.assign(n_docs=b["n_docs"].astype(np.int64),
                           sum_chars=b["sum_chars"].astype(np.int64)),
        batch_format="pandas")


def q_quality_scores(sf_dir: str):
    """Per-doc quality features (length/punct/stopword/alpha ratios),
    folded to integer basis points — floor(ratio·10⁴ + 0.5) with the
    identical IEEE double op sequence the SQL oracle uses, so the gate
    hash is float-safe (graft gate convention)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(TokenStats, batch_format="pyarrow",
                         concurrency=auto_concurrency())

    def fold(t: pa.Table) -> pa.Table:
        from ..functions.scoring import fold_bp

        def bp(name: str) -> np.ndarray:
            return fold_bp(t[name].to_numpy(zero_copy_only=False))

        return pa.table({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "n_tokens": t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64),
            "punct_bp": bp("punct_ratio"),
            "alpha_bp": bp("alpha_ratio"),
            "stopword_bp": bp("stopword_ratio"),
            "quality_bp": bp("quality_score"),
        })

    return out.map_batches(fold, batch_format="pyarrow")


QUALITY_TOPFRAC_DEN = 4  # keep the top 1/4 of each language


def quality_bp_table(sf_dir: str) -> rd.Dataset:
    """(doc_id, lang, quality_bp): the TokenStats quality score folded
    to basis points with the shared fold_bp op sequence, language
    carried through for per-group selection."""
    ds = _docs(sf_dir, ["doc_id", "lang", "text"])
    out = ds.map_batches(TokenStats, batch_format="pyarrow",
                         concurrency=auto_concurrency())

    def fold(t: pa.Table) -> pa.Table:
        from ..functions.scoring import fold_bp

        return pa.table({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "lang": t["lang"],
            "quality_bp": fold_bp(
                t["quality_score"].to_numpy(zero_copy_only=False)),
        })

    return out.map_batches(fold, batch_format="pyarrow")


def q_quality_topfrac(sf_dir: str, den: int = QUALITY_TOPFRAC_DEN):
    """Per-language quantile-threshold filtering: keep the documents
    whose quality score is STRICTLY above that language's top-1/den
    boundary — 'keep the best quarter of each language', the per-group
    generalization of the global quality floor in ``curation_doc_flags``.

    The boundary is the k-th largest quality_bp (k = n_lang // den)
    under (quality_bp DESC, doc_id ASC) order; strict-greater keep
    makes the selection independent of tie order, so the engine can
    derive the threshold from a HISTOGRAM instead of a sort: pass 1
    reduces the scored corpus to (lang, quality_bp) cells (≤ |langs| ×
    10001 — a documented small side), the driver walks each language's
    descending cumsum to the k-th row, and pass 2 streams the corpus
    once against the broadcast {lang: threshold} dict. No global sort,
    no per-group top-k shuffle — the 100 TB shape for every
    'top X% per domain' curation decision.

    The scored table is materialized ONCE (narrow: two ints + lang) and
    feeds both passes, so TokenStats — the expensive stage — runs a
    single time."""
    scored = quality_bp_table(sf_dir).materialize()

    def hist_partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({
            "lang": t["lang"].to_numpy(zero_copy_only=False),
            "quality_bp": t["quality_bp"].to_numpy(zero_copy_only=False),
        })
        return (df.groupby(["lang", "quality_bp"], sort=False)
                .size().rename("n").reset_index())

    # Ray-native combine first: the driver sees at most
    # |langs| x 10001 cells, never |blocks| x cells
    cells = (scored.map_batches(hist_partial, batch_format="pyarrow")
             .groupby(["lang", "quality_bp"])
             .aggregate(Sum("n", alias_name="n"))
             .to_pandas()
             .groupby(["lang", "quality_bp"], sort=True)["n"].sum()
             .reset_index())
    thresholds: dict[str, int] = {}
    for lang, grp in cells.groupby("lang", sort=True):
        n = int(grp["n"].sum())
        k = n // den
        if k == 0:
            continue  # fewer than den docs: keep nothing (oracle: no row)
        bp_desc = grp["quality_bp"].to_numpy()[::-1]
        cum = np.cumsum(grp["n"].to_numpy()[::-1])
        # k-th largest value = first descending bin whose cumsum ≥ k
        thresholds[str(lang)] = int(bp_desc[np.searchsorted(cum, k)])

    def keep(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_numpy(zero_copy_only=False)
        bp = t["quality_bp"].to_numpy(zero_copy_only=False)
        # one vectorized comparison per language (domain is tiny),
        # never a per-row Python lookup
        mask = np.zeros(len(bp), dtype=bool)
        for lang, thr in thresholds.items():
            mask |= (langs == lang) & (bp > thr)
        return t.filter(pa.array(mask))

    return scored.map_batches(keep, batch_format="pyarrow")


def q_langid(sf_dir: str):
    """Heuristic language ID (stopword profiles) vs the labeled lang —
    deterministic argmax with en→de→es→fr tie-break, reproduced in the
    SQL oracle as boundary-safe regex hit counting."""
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    out = ds.map_batches(LangId, batch_format="pyarrow", concurrency=auto_concurrency())
    return out.map_batches(lambda t: t.select(["doc_id", "lang", "lang_pred"]),
                           batch_format="pyarrow")


def minhash_candidate_pairs(sf_dir: str, num_perm: int = 64, num_bands: int = 16,
                            shingle_k: int = 5, as_dataset: bool = False):
    """LSH candidate pairs over the documents table (see
    ``minhash_candidate_pairs_ds`` for the Dataset-input core)."""
    return minhash_candidate_pairs_ds(
        _docs(sf_dir, ["doc_id", "text"]), num_perm=num_perm,
        num_bands=num_bands, shingle_k=shingle_k, as_dataset=as_dataset)


def minhash_candidate_pairs_ds(ds, num_perm: int = 64, num_bands: int = 16,
                               shingle_k: int = 5, as_dataset: bool = False):
    """LSH candidate pairs: docs sharing any (band_id, band_hash) bucket.
    The banding groupby is the only all-to-all (b rows/doc).
    ``as_dataset=True`` keeps the pairs a Dataset (the scale path —
    cross-band duplicate pairs are deduped inside the verification's
    pair buckets instead of on the driver)."""
    exploded = ds.map_batches(
        MinHashLSH, batch_format="pyarrow", concurrency=auto_concurrency(),
        fn_constructor_kwargs={"num_perm": num_perm, "num_bands": num_bands,
                               "shingle_k": shingle_k})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one hash-bucket of many (band, hash) groups: only groups with
        # ≥2 docs (rare) need the per-group pair expansion
        g = g.drop_duplicates()
        dup = g[g.duplicated(["band_id", "band_hash"], keep=False)]
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for _, grp in dup.groupby(["band_id", "band_hash"], sort=False):
            ids = np.sort(grp["doc_id"].unique())
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            out_a.append(ids[a])
            out_b.append(ids[b])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a).astype(np.int64),
                             "id_b": np.concatenate(out_b).astype(np.int64)})

    from .analytics import bucketed_group_agg

    cand = bucketed_group_agg(exploded, ["band_id", "band_hash"],
                              pairs_in_bucket, num_buckets=16)
    if as_dataset:
        return cand
    return cand.to_pandas().drop_duplicates().reset_index(drop=True)


def minhash_near_dups(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """Near-dup pairs: LSH candidates verified by exact shingle Jaccard.
    Verification is fully distributed (``verify_pairs_distributed``):
    the candidate pairs stay a Dataset, a candidate-id Bloom is built
    distributed and broadcast, candidate texts are gathered via
    ``map_batches`` and pair-bucketed — neither the documents table nor
    the candidate list is ever materialized to the driver (VERDICT r1
    #1)."""
    cand = minhash_candidate_pairs(sf_dir, as_dataset=True)
    ver = verify_pairs_distributed(
        _docs(sf_dir, ["doc_id", "text"]), cand, shingle_set_jaccard,
        "jaccard").to_pandas()
    out = ver[ver["jaccard"] >= threshold]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# Plant eligibility: doc_id % PLANT_TEXT_EVERY == 0 AND the doc has at
# least PLANT_MIN_SHINGLES distinct char-5 shingles AND ≥2 whitespace
# tokens. The appended unique suffix " plantdup<id>" (≤14 chars) adds
# ≤18 new shingles while every original shingle survives, so the true
# char-shingle Jaccard is ≥ 200/218 ≈ 0.917 — per-pair LSH miss
# probability (1 − J⁴)^16 ≈ 3e-9, i.e. recovery is guaranteed by
# construction. The ≥2-token clause guarantees the word-BIGRAM verifier
# passes too (≥1 original bigram survives ⇒ J ≥ 1/2 > 0.4); a
# single-unbroken-token doc would have char-Jaccard ≈ 1 but bigram
# Jaccard 0, making the two queries' shared oracle wrong. Python's
# str.split() splits on a superset of the RE2 [\t\n\f\r ] class, so
# RE2-tokens ≥ 2 ⇒ split-tokens ≥ 2 on the verifier side. The whole
# eligibility rule is exactly reproducible in SQL (validated
# char-for-char against DuckDB slicing).
PLANT_TEXT_EVERY = 10
PLANT_TEXT_MIN_SHINGLES = 200
PLANT_TEXT_ID_OFFSET = 1 << 40  # same far-out-of-range offset as ann.py

_RE2_TOKEN = re.compile(r"[^\t\n\f\r ]+")


def _distinct_shingles(s: str, k: int = 5) -> int:
    return len({s[j:j + k] for j in range(max(1, len(s) - k + 1))})


def _plant_eligible(s: str) -> bool:
    return (_distinct_shingles(s) >= PLANT_TEXT_MIN_SHINGLES
            and len(_RE2_TOKEN.findall(s)) >= 2)


class _PlantTextNearDups:
    """pyarrow map_batches stage: emit ``chain_len`` stacked
    near-duplicate copies of every eligible doc — copy j lives at
    id + j·PLANT_TEXT_ID_OFFSET and appends one more unique token to
    copy j−1 (so adjacent links are near-dups by construction). Pure
    function of (doc_id, text) — batch layout can't change the plant
    list, so the expected answer is a closed-form SQL query. One class
    serves both the pair queries (chain_len=1) and the
    connected-components chain query (chain_len=2): a single eligibility
    rule means the shared SQL fragment can never drift from one of two
    planters."""

    SUFFIX_WORDS = ("plantdup", "plantdupb", "plantdupc")

    def __init__(self, chain_len: int = 1):
        if chain_len > len(self.SUFFIX_WORDS):
            raise ValueError("extend SUFFIX_WORDS for longer chains")
        self.chain_len = chain_len

    def __call__(self, t):
        import pyarrow as pa

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = pa.compute.fill_null(
            pa.compute.cast(t["text"], pa.string()), "").to_pylist()
        out_ids, out_texts = [], []
        for i, d in enumerate(ids):
            if d % PLANT_TEXT_EVERY:
                continue
            s = texts[i]
            if not _plant_eligible(s):
                continue
            for j in range(1, self.chain_len + 1):
                s = s + " " + self.SUFFIX_WORDS[j - 1] + str(int(d))
                out_ids.append(int(d) + j * PLANT_TEXT_ID_OFFSET)
                out_texts.append(s)
        return pa.table({
            "doc_id": pa.array(np.asarray(out_ids, dtype=np.int64)),
            "text": pa.array(out_texts, pa.string())})


def _planted_text_corpus(sf_dir: str):
    docs = _docs(sf_dir, ["doc_id", "text"])
    planted = docs.map_batches(_PlantTextNearDups, batch_format="pyarrow",
                               concurrency=auto_concurrency())
    # materialize once: both consumers (candidate generation AND the
    # distributed verify's text gather) would otherwise re-execute the
    # read+plant lineage end to end
    return docs.union(planted).materialize()


def q_minhash_dups(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """MinHash+LSH near-dup detection in planted-recovery form (the
    q_embedding_dups pattern, VERDICT r2 #8): the corpus is augmented
    with deterministic planted near-duplicates and the full
    shingle→minhash→band→bucket→distributed-verify pipeline must recover
    the exact plant list — which a closed-form SQL oracle states.
    ``minhash_near_dups`` keeps the unplanted natural-pair behavior
    (pytest-covered)."""
    corpus = _planted_text_corpus(sf_dir)
    cand = minhash_candidate_pairs_ds(corpus, as_dataset=True)
    ver = verify_pairs_distributed(corpus, cand, shingle_set_jaccard,
                                   "jaccard").to_pandas()
    out = ver[(ver["jaccard"] >= threshold)
              & (ver["id_b"] - ver["id_a"] == PLANT_TEXT_ID_OFFSET)]
    out = out[["id_a", "id_b"]].astype(np.int64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_ngram_dups(sf_dir: str, threshold: float = 0.4, n: int = 2) -> pd.DataFrame:
    """Word-bigram-Jaccard verifier over the same planted corpus and LSH
    candidates as q_minhash_dups: appending one unique token keeps every
    original bigram and adds exactly one, so each eligible plant passes
    any threshold < m/(m+1) and the recovered list equals the same SQL
    closed form. Natural (unplanted) pairs are ``minhash_near_dups``'s
    job."""
    corpus = _planted_text_corpus(sf_dir)
    cand = minhash_candidate_pairs_ds(corpus, as_dataset=True)
    ver = verify_pairs_distributed(
        corpus, cand, lambda a, b: word_ngram_jaccard(a, b, n=n),
        "ngram_jaccard").to_pandas()
    out = ver[(ver["ngram_jaccard"] >= threshold)
              & (ver["id_b"] - ver["id_a"] == PLANT_TEXT_ID_OFFSET)]
    out = out[["id_a", "id_b"]].astype(np.int64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_chunks(sf_dir: str) -> pd.DataFrame:
    """Token-window chunking with overlap (flat_map-shaped: 1 doc → N
    chunk rows) — summary stats so the result stays small."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    chunks = ds.map_batches(Chunker, batch_format="pandas", concurrency=auto_concurrency(),
                            fn_constructor_kwargs={"chunk_tokens": 32,
                                                   "overlap": 4})
    from ray.data.aggregate import Count, Max, Sum

    agg = chunks.groupby("doc_id").aggregate(
        Count(alias_name="n_chunks"),
        Sum("n_chunk_tokens", alias_name="n_tokens_total"),
        Max("chunk_idx", alias_name="last_chunk_idx"),
    ).to_pandas()
    for c in ("n_chunks", "n_tokens_total", "last_chunk_idx"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values("doc_id").reset_index(drop=True)


def q_pii_redacted(sf_dir: str) -> pd.DataFrame:
    """PII scrubbing pass: per-source counts of redacted spans."""
    ds = _docs(sf_dir, ["doc_id", "text", "source"])
    red = ds.map_batches(PIIRedactor, batch_format="pandas", concurrency=auto_concurrency())
    from ray.data.aggregate import Count, Sum

    agg = red.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_pii_redacted", alias_name="n_redacted"),
    ).to_pandas()
    for c in ("n_docs", "n_redacted"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values("source").reset_index(drop=True)


def q_clean_pipeline(sf_dir: str, quality_min_bp: int = 7500) -> pd.DataFrame:
    """The composed end-to-end cleaning pass a training-data user
    actually runs: exact-dedup (keep lowest doc_id per identical text)
    → quality floor → language match, with per-source drop-reason
    counts. One chained Arrow pipeline (TokenStats → LangId → per-doc
    fold+hash), one bucketed shuffle on the text hash to mark
    keep-first, then per-source partial sums. Drop reasons apply in
    fixed precedence (duplicate → quality → language), so every doc
    counts exactly once and the SQL oracle composes the same three
    verified fragments."""
    from ..functions.hashing import hash_strings

    ds = _docs(sf_dir, ["doc_id", "text", "lang", "source"])
    feats = (ds.map_batches(TokenStats, batch_format="pyarrow",
                            concurrency=auto_concurrency())
             .map_batches(LangId, batch_format="pyarrow",
                          concurrency=auto_concurrency()))

    def per_doc(t) -> pd.DataFrame:
        from ..functions.scoring import fold_bp

        q_bp = fold_bp(t["quality_score"].to_numpy(zero_copy_only=False))
        text = pd.Series(t["text"].to_pylist()).fillna("")
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "source": t["source"].to_pylist(),
            "h": hash_strings(text),
            "ok_quality": q_bp >= quality_min_bp,
            "ok_lang": (pd.Series(t["lang_pred"].to_pylist())
                        == pd.Series(t["lang"].to_pylist())).to_numpy(),
        })

    rows = feats.map_batches(per_doc, batch_format="pyarrow")

    def mark_first(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("h", sort=False)["doc_id"].transform("min")
        is_first = (g["doc_id"] == first).to_numpy()
        okq = g["ok_quality"].to_numpy()
        okl = g["ok_lang"].to_numpy()
        # partial per-source sums INSIDE the bucket — only (source,
        # counts) rows leave, never per-doc rows; drop reasons apply in
        # fixed precedence so each doc counts exactly once
        flags = pd.DataFrame({
            "source": g["source"].to_numpy(),
            "n_docs": 1,
            "n_drop_dup": (~is_first).astype(np.int64),
            "n_drop_quality": (is_first & ~okq).astype(np.int64),
            "n_drop_lang": (is_first & okq & ~okl).astype(np.int64),
            "n_kept": (is_first & okq & okl).astype(np.int64),
        })
        return flags.groupby("source", sort=False).sum().reset_index()

    from .analytics import bucketed_group_agg

    partials = bucketed_group_agg(rows, ["h"], mark_first,
                                  num_buckets=16).to_pandas()
    agg = partials.groupby("source", sort=True).sum(numeric_only=True).reset_index()
    for c in ("n_docs", "n_drop_dup", "n_drop_quality", "n_drop_lang",
              "n_kept"):
        agg[c] = agg[c].astype(np.int64)
    return agg[["source", "n_docs", "n_drop_dup", "n_drop_quality",
                "n_drop_lang", "n_kept"]].reset_index(drop=True)


def _ref_corpus_hashes(sf_dir: str):
    """The 'previous training set' stand-in (docs with even doc_id) as a
    Dataset of text hashes — built distributed, never via to_pandas.
    Hashes with the byte-polynomial fold (SQL-expressible) so the Bloom
    mode's kept/dropped counts have a DERIVED oracle that rebuilds the
    filter bit set in SQL (``functions.sqlgen.crosscorpus_dedup_sql``;
    the exact mode's oracle is text-level and hash-agnostic)."""
    from ..functions.hashing import hash_strings_poly

    def even_text_hash(t: pa.Table) -> pa.Table:
        # vectorized arrow mask (Ray's expr parser can't do `doc_id % 2`);
        # the text column is hashed zero-copy from the arrow buffer —
        # no per-string PyObject (measured ~17% on the 500 k-doc probe)
        import pyarrow.compute as pc

        sub = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0))
        return pa.table({"h": pa.array(hash_strings_poly(sub["text"]),
                                       pa.uint64())})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(even_text_hash, batch_format="pyarrow"))


def _crosscorpus_counts(sf_dir: str, seen_fn) -> pd.DataFrame:
    """Tag every doc kept/dropped by ``seen_fn(uint64 hashes) -> bool[]``
    (broadcast membership probe inside map_batches — no join, no
    shuffle of texts) and report per-source counts."""
    from ..functions.hashing import hash_strings_poly

    def tag(t: "pa.Table") -> "pa.Table":
        # arrow in/out: the text column never materializes as PyObjects
        seen = seen_fn(hash_strings_poly(t["text"]))
        return pa.table({"source": t["source"],
                         "kept": pa.array((~seen).astype(np.int64)),
                         "dropped": pa.array(seen.astype(np.int64))})

    agg = (
        _docs(sf_dir, ["doc_id", "text", "source"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("kept", alias_name="n_kept"),
                   Sum("dropped", alias_name="n_dropped"))
        .to_pandas()
    )
    for c in ("n_kept", "n_dropped"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values("source").reset_index(drop=True)


def q_crosscorpus_dedup(sf_dir: str) -> pd.DataFrame:
    """Cross-corpus dedup, Bloom mode (the 100 TB path): the reference
    corpus's Bloom filter is built DISTRIBUTED — per-block partials
    OR-merged through the ``BloomAgg`` UDAF (VERDICT r1 #2), one blob
    reaches the driver — then broadcast once for the probe pass. Bloom
    FPs can only over-drop (safe direction for training-data dedup)."""
    import ray

    from ..sketches import BloomFilter
    from ..udaf import BloomAgg

    # materialize once: count() + BloomAgg both read object-store blocks
    # instead of scanning/hashing the reference parquet twice
    ref_hashes = _ref_corpus_hashes(sf_dir).materialize()
    n_ref = ref_hashes.count()
    # identical filter geometry to a driver-side for_capacity build, so
    # kept/dropped counts are bit-identical to round 1
    shape = BloomFilter.for_capacity(max(n_ref, 1), fpr=0.001)
    blob = ref_hashes.aggregate(
        BloomAgg("h", num_bits=shape.num_bits, num_hashes=shape.num_hashes,
                 alias="bloom"))["bloom"]
    bloom_ref = ray.put(BloomFilter.from_bytes(blob))
    return _crosscorpus_counts(
        sf_dir, lambda h: ray.get(bloom_ref).contains_hashed(h))


def q_crosscorpus_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Cross-corpus dedup, exact mode: the reference corpus's 64-bit
    text-hash set (8 B/doc — the documented small side; Bloom mode above
    is the path when even hashes outgrow memory) is collected once and
    broadcast; probe is an ``np.isin`` inside map_batches. Exact ⇒
    DuckDB-oracle-checkable via text anti-join semantics."""
    import ray

    hashes = np.sort(np.concatenate([
        b["h"].to_numpy() for b in
        _ref_corpus_hashes(sf_dir).iter_batches(batch_format="pandas")
    ] or [np.empty(0, dtype=np.uint64)]))
    set_ref = ray.put(hashes)
    return _crosscorpus_counts(
        sf_dir, lambda h: np.isin(h, ray.get(set_ref)))


def q_containment_dups(sf_dir: str, window: int = 16, stride: int = 1,
                       min_shared: int = 3, winnow: int = 0) -> pd.DataFrame:
    """Containment / copied-passage dedup (the repeated-substring pass
    run ALONGSIDE whole-doc near-dup in training pipelines): doc pairs
    sharing ≥ ``min_shared`` exact ``window``-token runs, with the
    containment fraction relative to the smaller doc. Only (doc_id,
    64-bit window hash) rows shuffle — never texts; the per-hash groups
    are tiny (shared passages), so the pair expansion is bounded.

    ``winnow=0`` (gate/oracle mode) emits every window hash — shuffle
    ≈ one row per corpus token. At 100 TB pass ``winnow=w`` (e.g. 12):
    fingerprints drop to ~2/(w+1) of the rows while any copied run of
    ≥ window + w − 1 tokens is still caught deterministically (see
    RollingWindowHashes). In winnowed mode ``shared``/``containment_bp``
    count FINGERPRINTS, not raw windows, so ``min_shared`` should be
    scaled by ~2/(w+1) too."""
    from ..stages.dedup import RollingWindowHashes
    from .analytics import bucketed_group_agg

    ds = _docs(sf_dir, ["doc_id", "text"])
    exploded = ds.map_batches(
        RollingWindowHashes, batch_format="pyarrow",
        concurrency=auto_concurrency(),
        fn_constructor_kwargs={"window": window, "stride": stride,
                               "winnow": winnow})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        dup = g[g.duplicated("win_hash", keep=False)]
        out = []
        for _, grp in dup.groupby("win_hash", sort=False):
            d = grp.drop_duplicates("doc_id")
            if len(d) < 2:
                continue
            ids = d["doc_id"].to_numpy()
            nw = d["n_windows"].to_numpy()
            order = np.argsort(ids)
            ids, nw = ids[order], nw[order]
            iu, ju = np.triu_indices(len(ids), k=1)
            out.append(pd.DataFrame({
                "id_a": ids[iu], "id_b": ids[ju],
                "nw_min": np.minimum(nw[iu], nw[ju]),
                "shared": np.ones(len(iu), dtype=np.int64)}))
        if not out:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "nw_min": pd.Series(dtype=np.int64),
                                 "shared": pd.Series(dtype=np.int64)})
        return pd.concat(out, ignore_index=True)

    cand = bucketed_group_agg(exploded, ["win_hash"], pairs_in_bucket,
                              num_buckets=16)

    def merge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["id_a", "id_b"], sort=False).agg(
            shared=("shared", "sum"), nw_min=("nw_min", "first")).reset_index()
        out = out[out["shared"] >= min_shared]
        out["containment_bp"] = (10000 * out["shared"]) // out["nw_min"]
        for c in ("id_a", "id_b", "shared", "containment_bp"):
            out[c] = out[c].astype(np.int64)
        return out[["id_a", "id_b", "shared", "containment_bp"]]

    out = bucketed_group_agg(cand, ["id_a", "id_b"], merge_pairs,
                             num_buckets=8).to_pandas()
    if out.empty or "id_a" not in out.columns:
        return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                             "id_b": pd.Series(dtype=np.int64),
                             "shared": pd.Series(dtype=np.int64),
                             "containment_bp": pd.Series(dtype=np.int64)})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_multimodal_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal pipeline end-to-end on a deterministic REAL-payload
    corpus (binary PPM images + PCM WAV audio, sized by sf level):
    decode → resize/features as actor-pool stages → per-modality
    summary. Exercises the real uncompressed-codec path in the driver
    gate (rows-only: float features, synthesized corpus)."""
    from ..runtime import sf_tag
    from ..stages.multimodal import (
        AudioFeatures,
        Decode,
        ImageFeatures,
        ImageResize,
        make_real_multimodal_table,
    )

    n = {"sf0.01": 128, "sf0.1": 512}.get(sf_tag(sf_dir), 32)
    rows = []
    for modality, feat_stage in (("image", ImageFeatures),
                                 ("audio", AudioFeatures)):
        tbl = make_real_multimodal_table(n=n, modality=modality)
        ds = rd.from_pandas(tbl).map_batches(
            Decode, batch_size=32, concurrency=auto_concurrency(),
            batch_format="pandas")
        if modality == "image":
            ds = ds.map_batches(ImageResize, batch_size=32,
                                concurrency=auto_concurrency(),
                                batch_format="pandas",
                                fn_constructor_kwargs={"out_h": 8, "out_w": 8})
        out = ds.map_batches(feat_stage, batch_size=32,
                             concurrency=auto_concurrency(),
                             batch_format="pandas").to_pandas()
        feats = np.stack(out["feature"].to_numpy())
        rows.append({
            "modality": modality,
            "n_items": np.int64(len(out)),
            "feature_dim": np.int64(feats.shape[1]),
            # content-SENSITIVE summary: a decode/feature regression that
            # still unit-norms would leave a norm-based metric at exactly
            # 10000, so fold the mean absolute component value instead
            "mean_abs_feature_bp": np.int64(np.floor(
                float(np.abs(feats).mean()) * 10000 + 0.5)),
        })
    return pd.DataFrame(rows)


def q_multimodal_codecs(sf_dir: str) -> pd.DataFrame:
    """Compressed-codec decode end-to-end (round 5): a deterministic
    mixed corpus of PNG / baseline-JPEG / GIF payloads streamed through
    the ``Decode`` actor pool, summarized per codec. PNG and GIF are
    LOSSLESS, so their ``pixel_sum`` equals the pre-encode array sum
    exactly (pytest-pinned: ``no_oracle`` — SQL cannot inflate a
    deflate stream); JPEG reports the content-sensitive folded mean
    absolute reconstruction error vs its source instead (bounded by the
    q95 quantization tables, also pytest-pinned)."""
    from ..runtime import sf_tag
    from ..stages.gif import encode_gif
    from ..stages.jpeg import encode_jpeg
    from ..stages.multimodal import Decode, encode_png

    n = {"sf0.01": 48, "sf0.1": 192}.get(sf_tag(sf_dir), 12)
    rng = np.random.default_rng(17)
    rows, originals = [], {}
    for i in range(n):
        h, w = int(rng.integers(6, 40)), int(rng.integers(6, 40))
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        codec = ("png", "jpeg", "gif")[i % 3]
        if codec == "png":
            payload = encode_png(img)
        elif codec == "jpeg":
            payload = encode_jpeg(img, quality=95)
        else:
            pal = rng.integers(0, 256, (64, 3), np.uint8)
            idx = rng.integers(0, 64, (h, w), np.uint8)
            img = pal[idx]
            payload = encode_gif(idx, pal)
        item = f"item-{i:05d}"
        originals[item] = img
        rows.append((item, codec, payload, "{}"))
    tbl = pd.DataFrame(rows,
                       columns=["item_id", "codec", "payload", "meta"])

    out = (rd.from_pandas(tbl)
           .map_batches(Decode, batch_size=16,
                        concurrency=auto_concurrency(),
                        batch_format="pandas")
           .to_pandas())  # Decode copies input columns ⇒ codec rides along
    recs = []
    for codec, g in out.groupby("codec", sort=True):
        pix_sum = np.int64(0)
        err_sum, n_px = 0.0, 0
        for item, p in zip(g["item_id"], g["pixels"]):
            pix_sum += np.int64(p.astype(np.int64).sum())
            err_sum += float(
                np.abs(p.astype(np.float64)
                       - originals[item].astype(np.float64)).sum())
            n_px += p.size
        recs.append({
            "codec": codec,
            "n_items": np.int64(len(g)),
            "n_pixels": np.int64(n_px),
            "pixel_sum": pix_sum,
            "mean_abs_err_bp": np.int64(
                np.floor(err_sum / n_px * 10000 + 0.5)),
        })
    return pd.DataFrame(recs)


def q_simhash_dups(sf_dir: str, max_hamming: int = 3) -> pd.DataFrame:
    """SimHash near-dup PAIRS (completing the family: exact★, MinHash★,
    n-gram, embedding★, cross-corpus★ all have end-to-end dup queries):
    docs sharing any 16-bit band land in the same bucket (Hamming ≤ 3
    guarantees ≥ 1 shared band of 4 by pigeonhole); within-bucket exact
    Hamming verification is vectorized; only (doc_id, simhash, band)
    rows ever shuffle — never texts."""
    from ..stages.dedup import hamming64

    if max_hamming > 3:
        raise ValueError(
            "the 4×16-bit band scheme only guarantees candidate recall "
            "for Hamming ≤ 3; a larger threshold would silently miss "
            "pairs whose differing bits span all four bands")
    from .analytics import bucketed_group_agg

    ds = _docs(sf_dir, ["doc_id", "text"])
    sigs = ds.map_batches(SimHash, batch_format="pyarrow",
                          concurrency=auto_concurrency())

    def explode_bands(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        return pd.DataFrame({
            "band": np.tile(np.arange(4, dtype=np.int32), n),
            "band_hash": np.column_stack(
                [b[f"sim_band{i}"].to_numpy() for i in range(4)]).ravel(),
            "doc_id": np.repeat(b["doc_id"].to_numpy().astype(np.int64), 4),
            "simhash": np.repeat(b["simhash"].to_numpy().astype(np.uint64), 4),
        })

    exploded = sigs.map_batches(explode_bands, batch_format="pandas")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_h = [], [], []
        dup = g[g.duplicated(["band", "band_hash"], keep=False)]
        for _, grp in dup.groupby(["band", "band_hash"], sort=False):
            grp = grp.drop_duplicates("doc_id")
            if len(grp) < 2:
                continue
            ids = grp["doc_id"].to_numpy()
            sig = grp["simhash"].to_numpy().astype(np.uint64)
            iu, ju = np.triu_indices(len(ids), k=1)
            hd = hamming64(sig[iu], sig[ju])
            hit = hd <= max_hamming
            a, b = ids[iu[hit]], ids[ju[hit]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
            out_h.append(hd[hit])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a).astype(np.int64),
                             "id_b": np.concatenate(out_b).astype(np.int64),
                             "hamming": np.concatenate(out_h).astype(np.int64)})

    out = bucketed_group_agg(exploded, ["band", "band_hash"], verify,
                             num_buckets=16).to_pandas()
    if out.empty or "id_a" not in out.columns:
        return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                             "id_b": pd.Series(dtype=np.int64),
                             "hamming": pd.Series(dtype=np.int64)})
    return (out.drop_duplicates(["id_a", "id_b"])
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def q_simhash_bands(sf_dir: str) -> pd.DataFrame:
    """SimHash signatures + band buckets (near-dup = shared band, then
    Hamming verify)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(SimHash, batch_format="pyarrow",
                         concurrency=auto_concurrency())
    return out.select_columns(["doc_id", "simhash", "sim_band0",
                               "sim_band1", "sim_band2", "sim_band3"]
                              ).to_pandas()


# --------------------------------------------------- split leakage
def q_split_leakage(sf_dir: str, window: int = 8,
                    num_buckets: int = 16, as_dataset: bool = False):
    """Train/test LEAKAGE detection across the deterministic hash split
    (the eval-hygiene composition of ``q_dataset_split`` +
    ``q_benchmark_contamination``): for every test-split document,
    count its distinct ``window``-token runs that also occur in ANY
    train-split document. Output = (test_doc_id, leak_windows) for
    leaking docs only.

    Unlike benchmark decontamination, BOTH sides here are corpus-sized
    (train is ~80%, test ~10%), so no side can broadcast: the join is
    one symmetric hash(win_hash) %% B shuffle of distinct
    (win_hash, doc_id, side) rows — window hashes only, never text —
    followed by a per-bucket vectorized train-presence probe and a
    Ray-native count per test doc. Window equality is 64-bit hash
    equality (the dedup_docs collision caveat: ~n²/2⁶⁴, and the output
    carries no window strings, so the answer is identical w.h.p.)."""
    import ray.data  # noqa: F401  (rd already imported at module scope)

    from ..stages.dedup import RollingWindowHashes
    from .analytics import bucketed_group_agg, sample_hash_values
    from .mixture import SPLIT_TRAIN_LT, SPLIT_VAL_LT

    wh = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        RollingWindowHashes, batch_format="pyarrow",
        concurrency=auto_concurrency(),
        fn_constructor_kwargs={"window": window})

    def flag_split(b: pd.DataFrame) -> pd.DataFrame:
        d = b.drop_duplicates(["doc_id", "win_hash"])
        hv = sample_hash_values(d["doc_id"].to_numpy(np.int64))
        is_train = hv < np.uint64(SPLIT_TRAIN_LT)
        is_test = hv >= np.uint64(SPLIT_VAL_LT)
        d = d.assign(is_train=is_train)[is_train | is_test]
        return pd.DataFrame({
            "win_hash": d["win_hash"].to_numpy(np.uint64).astype(np.int64),
            "doc_id": d["doc_id"].to_numpy(np.int64),
            "is_train": d["is_train"].to_numpy(bool),
        })

    flagged = wh.map_batches(flag_split, batch_format="pandas")

    _EMPTY = {"test_doc_id": np.int64, "leak_windows": np.int64}

    def probe_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # block splits may duplicate a doc's window across batches
        g = g.drop_duplicates(["win_hash", "doc_id", "is_train"])
        train_h = g.loc[g["is_train"], "win_hash"].unique()
        te = g[~g["is_train"]]
        hit = te[np.isin(te["win_hash"].to_numpy(), train_h)]
        # partial COUNT per test doc inside the bucket (each win_hash
        # lives in exactly one bucket, so partials never double-count).
        # A Ray-native groupby().aggregate(Count) here measured 40+ s
        # of ms-per-group overhead at the 500 k-doc probe — the
        # partial-merge idiom is ~50 rows/bucket/doc cheaper and is
        # the same two-stage shape interval_join_followups uses.
        out = (hit.groupby("doc_id", sort=False).size()
               .rename("leak_windows").reset_index()
               .rename(columns={"doc_id": "test_doc_id"}))
        return out.astype(_EMPTY)

    partials = bucketed_group_agg(flagged, ["win_hash"], probe_bucket,
                                  num_buckets=num_buckets)

    def merge_partials(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("test_doc_id", sort=False)["leak_windows"]
               .sum().reset_index())
        return out.astype(_EMPTY)

    agg = bucketed_group_agg(partials, ["test_doc_id"], merge_partials,
                             num_buckets=max(4, num_buckets // 4))
    if as_dataset:  # scale probes: expose per-stage ds.stats()
        return agg
    out = agg.to_pandas()
    if out.empty:
        return pd.DataFrame({"test_doc_id": pd.Series(dtype=np.int64),
                             "leak_windows": pd.Series(dtype=np.int64)})
    return (out.astype(np.int64)
            .sort_values("test_doc_id").reset_index(drop=True))


# ------------------------------------------------ benchmark decontamination
BENCH_MOD = 50
BENCH_RESIDUE = 7


def q_benchmark_contamination(sf_dir: str, window: int = 16) -> pd.DataFrame:
    """Benchmark DECONTAMINATION — the standard pre-training hygiene
    pass: flag every training document sharing >=1 exact
    ``window``-token run with the held-out benchmark set (here the
    deterministic ``doc_id % 50 == 7`` slice standing in for eval
    data). Output: (doc_id, n_contaminated) counting the doc's DISTINCT
    contaminated windows.

    Layout (the crosscorpus_dedup_exact shape one level down, at window
    granularity): the benchmark side's distinct 64-bit window hashes
    are collected once and broadcast (8 B/window over the benchmark
    corpus only — eval sets are tiny by definition; ``BloomAgg`` is the
    fallback if one ever isn't); the training side streams through one
    ``map_batches`` doing a sorted ``np.isin`` probe per batch. Nothing
    row-sized shuffles and the corpus is scanned once per side.
    Collision caveat as containment_dups: 64-bit window hashes, P(any
    collision) negligible and the oracle counts raw windows."""
    import ray

    from ..stages.dedup import RollingWindowHashes

    # the bench/train residue filter runs INSIDE RollingWindowHashes
    # (residue kwarg): a separate filter stage ahead of it makes Ray
    # drop the typed empty between fused stages and emit a schema-less
    # block when a whole block filters away (PERF #30), and it also
    # saves one inter-stage hop for the text column
    def kw(want_bench: bool):
        return {"window": window, "stride": 1, "winnow": 0,
                "residue": (BENCH_MOD, BENCH_RESIDUE, want_bench)}

    bench = (_docs(sf_dir, ["doc_id", "text"])
             .map_batches(RollingWindowHashes, batch_format="pyarrow",
                          concurrency=auto_concurrency(),
                          fn_constructor_kwargs=kw(True)))
    bench_hashes = np.unique(np.concatenate([
        b["win_hash"].to_numpy() for b in
        bench.iter_batches(batch_format="pandas")
    ] or [np.empty(0, dtype=np.uint64)]))
    set_ref = ray.put(bench_hashes)

    train = (_docs(sf_dir, ["doc_id", "text"])
             .map_batches(RollingWindowHashes, batch_format="pyarrow",
                          concurrency=auto_concurrency(),
                          fn_constructor_kwargs=kw(False)))

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        ref = ray.get(set_ref)
        d = b.drop_duplicates(["doc_id", "win_hash"])
        hit = d[np.isin(d["win_hash"].to_numpy(), ref)]
        return hit[["doc_id", "win_hash"]]

    # only the HIT pairs reach the driver (contaminated windows are a
    # vanishing fraction by definition); the final dedupe runs there
    # because a doc's duplicate windows may span block splits — a
    # per-batch count could double-count them
    hits = train.map_batches(probe, batch_format="pandas").to_pandas()
    if not len(hits):
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "n_contaminated": pd.Series(dtype=np.int64)})
    hits = hits.drop_duplicates(["doc_id", "win_hash"])
    out = (hits.groupby("doc_id", sort=False).size()
           .rename("n_contaminated").reset_index())
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_contaminated"] = out["n_contaminated"].astype(np.int64)
    return out


class CurationFlags:
    """Fused per-doc curation feature actor: TokenStats (RE2 counting)
    + LangId prediction + the flag projection in ONE ``__call__`` —
    compiled patterns / language profiles / the broadcast contaminated
    -id set are built or fetched once per actor in ``__init__``. Emits
    only the narrow flag columns, so document text never leaves the
    stage. Composes the SAME TokenStats/LangId kernels used standalone
    (no logic duplication); output is op-for-op identical to the
    previous TokenStats→LangId→per_doc chain (oracle-gated)."""

    def __init__(self, contam_ref, quality_min_bp: int,
                 text_col: str = "text"):
        import ray

        self.token_stats = TokenStats(text_col)
        self.lang_id = LangId(text_col)
        self.contam = ray.get(contam_ref)
        self.quality_min_bp = int(quality_min_bp)

    def __call__(self, t: "pa.Table") -> pd.DataFrame:
        from ..functions.hashing import hash_strings
        from ..functions.scoring import fold_bp

        t = self.lang_id(self.token_stats(t))
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        q_bp = fold_bp(t["quality_score"].to_numpy(zero_copy_only=False))
        text = pd.Series(t["text"].to_pylist()).fillna("")
        return pd.DataFrame({
            "doc_id": ids,
            "source": t["source"].to_pylist(),
            "n_tokens": t["n_tokens"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "h": hash_strings(text),
            "is_bench": ids % BENCH_MOD == BENCH_RESIDUE,
            "ok_quality": q_bp >= self.quality_min_bp,
            "ok_lang": (pd.Series(t["lang_pred"].to_pylist())
                        == pd.Series(t["lang"].to_pylist())).to_numpy(),
            "ok_contam": ~np.isin(ids, self.contam),
        })


def curation_doc_flags(sf_dir: str,
                       quality_min_bp: int = 7500) -> "rd.Dataset":
    """Per-doc curation verdicts for the FULL cleaning chain: benchmark
    exclusion → exact-dedup keep-first among the remaining docs →
    quality floor → language match → benchmark DECONTAMINATION (shared
    16-token window). Emits one row per doc with the staged booleans
    (plus ``n_tokens``, carried for downstream packing) after the
    text-hash bucketed keep-first pass — the shared engine fragment
    behind ``q_curation_pipeline`` (counts) and the mixture-wave
    assembly composition (kept docs → packed chunks).

    Layout: the contaminated-id set is the q_benchmark_contamination
    output (tiny by definition) broadcast once; everything else is ONE
    fused actor pass (``CurationFlags``: RE2 token stats + language
    prediction + the flag projection) followed by the text-hash
    bucketed keep-first shuffle. The fusion matters at scale: Ray Data
    cannot fuse two actor-pool operators, so the previous
    TokenStats→LangId→per_doc chain shipped the full document text
    through the object store twice between stages; now text crosses
    once (read → actor) and only narrow int/bool columns leave the
    stage (measured 195 MB → 47 MB inter-stage bytes on the 500 k-doc
    probe corpus)."""
    import ray

    from .analytics import bucketed_group_agg

    # doc_ids from the contamination groupby are unique by construction
    contam_ref = ray.put(np.sort(
        q_benchmark_contamination(sf_dir)["doc_id"].to_numpy(np.int64)))

    ds = _docs(sf_dir, ["doc_id", "text", "lang", "source"])
    rows = ds.map_batches(CurationFlags,
                          fn_constructor_args=(contam_ref, quality_min_bp),
                          batch_format="pyarrow",
                          concurrency=auto_concurrency())

    def mark_first(g: pd.DataFrame) -> pd.DataFrame:
        # keep-first among NON-benchmark docs only (bench docs are
        # already out of the corpus, so they must not shadow a
        # training doc's canonical slot)
        nb = g[~g["is_bench"]]
        first_id = nb.groupby("h", sort=False)["doc_id"].min()
        is_first = (g["doc_id"].to_numpy()
                    == first_id.reindex(g["h"]).to_numpy())
        out = g.drop(columns=["h"]).reset_index(drop=True)
        out["is_first"] = is_first
        return out

    from ..runtime import cluster_cpus

    # flags rows are ~40 B/doc — orders of magnitude narrower than the
    # text read that set the block count, so coalesce before the
    # keep-first exchange (PERF #26: sort wall scales with block count,
    # measured 7.9 s → 1.7 s on the 500 k-doc probe). Post-shuffle
    # parallelism is bounded by num_buckets, so cpus-many blocks lose
    # nothing downstream.
    return bucketed_group_agg(rows, ["h"], mark_first, num_buckets=16,
                              coalesce_to=max(32, cluster_cpus()))


def q_curation_pipeline(sf_dir: str,
                        quality_min_bp: int = 7500) -> pd.DataFrame:
    """Per-source counts over the curation precedence chain (each doc
    counted exactly once): bench → dup → quality → lang → contaminated
    → kept. Built on ``curation_doc_flags``; per-source counts are
    per-BATCH partial sums merged by a grouped aggregate (the driver
    sees |sources| rows — no second row-level shuffle on top of the
    flags' keep-first pass). The SQL oracle composes the SAME verified
    fragments
    (quality, langid, contamination) plus a filtered window-min for
    the bench-aware dedup."""
    flags = curation_doc_flags(sf_dir, quality_min_bp)
    return curation_counts_from_flags(flags)


def curation_counts_from_flags(flags: "rd.Dataset") -> pd.DataFrame:
    """Per-source precedence counts aggregated from an already-built
    ``curation_doc_flags`` dataset (per-batch partials merged by a
    distributed grouped aggregate; the chain itself is not rerun)."""

    def per_source(g: pd.DataFrame) -> pd.DataFrame:
        bench = g["is_bench"].to_numpy()
        is_first = g["is_first"].to_numpy()
        okq = g["ok_quality"].to_numpy()
        okl = g["ok_lang"].to_numpy()
        okc = g["ok_contam"].to_numpy()
        alive = ~bench
        out = pd.DataFrame({
            "source": g["source"].to_numpy(),
            "n_docs": 1,
            "n_drop_bench": bench.astype(np.int64),
            "n_drop_dup": (alive & ~is_first).astype(np.int64),
            "n_drop_quality": (alive & is_first & ~okq).astype(np.int64),
            "n_drop_lang": (alive & is_first & okq & ~okl)
            .astype(np.int64),
            "n_drop_contam": (alive & is_first & okq & okl & ~okc)
            .astype(np.int64),
            "n_kept": (alive & is_first & okq & okl & okc)
            .astype(np.int64),
        })
        return out.groupby("source", sort=False).sum().reset_index()

    from ray.data.aggregate import Sum

    cols = ["n_docs", "n_drop_bench", "n_drop_dup", "n_drop_quality",
            "n_drop_lang", "n_drop_contam", "n_kept"]
    # partials merged by Ray's grouped aggregate: the driver sees at
    # most |sources| rows, never |blocks| x sources
    agg = (flags.map_batches(per_source, batch_format="pandas")
           .groupby("source")
           .aggregate(*[Sum(c, alias_name=c) for c in cols])
           .to_pandas().sort_values("source").reset_index(drop=True))
    for c in cols:
        agg[c] = agg[c].astype(np.int64)
    return agg[["source"] + cols].reset_index(drop=True)
