"""Document-term (inverted-index) pipelines: per-document distinctive
term ranking — the tf-idf shape with integer-exact ordering.

The reference's nearest analog is the per-key value-frequency
machinery (``src/model/EnvLogUniverseGenerator.py:256-267``) and the
experiment family's term counting (``src/experiment/info_gain.py`` via
sklearn CountVectorizer); a training-data pipeline needs the same
thing over free text: which terms characterize a document against the
corpus.

Ranking is (tf DESC, df ASC, term ASC) — frequent in the document,
rare in the corpus — instead of the float score ``tf·ln(N/df)``.
Rationale (gate convention): ``ln`` is not guaranteed bit-identical
between numpy and DuckDB's libm, so a folded float score could flip
ranks by one ulp on a future corpus; the lexicographic integer rule
induces the same "frequent here, rare there" ordering for fixed tf and
is exactly reproducible on both sides; the gate query emits integers
only.

Layout (two bucketed shuffles, no driver materialization):

1. tokenize per batch (a doc's text is one row, so (doc, term, tf)
   never spans blocks) — vectorized explode + one groupby per batch;
2. df = distinct-doc count per term: the (doc,term) rows are already
   unique, so df is a bucketed SUM of per-batch partial counts keyed
   on hash(term) — vocabulary-sized, never row-sized;
3. tf ⋈ df on hash(term) buckets (both sides tagged, pandas merge per
   bucket — same pattern as relational.q_lineitem_orders_join);
4. per-doc top-k: one hash(doc) shuffle, vectorized in-bucket sort +
   head. Only (doc, term, tf, df) candidate rows move — at 100 TB the
   step-4 shuffle is bounded by tokens, the same volume step 1 already
   produced, and each stage is a streaming map_batches/map_groups.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.hashing import hash_ints, hash_strings

TOKEN_RE = re.compile(r"[a-z0-9]+", re.ASCII)
TOP_K_TERMS = 5


def doc_term_freqs(ds: rd.Dataset) -> rd.Dataset:
    """documents(doc_id, text) -> long (doc_id, term, tf)."""

    def tf_batch(t: pa.Table) -> pd.DataFrame:
        # null doc_id rows are dropped (the oracle's toks CTE produces
        # no term rows for them either: null text coalesces to '' and a
        # null key would be GROUP BY'd — pinned out on both sides)
        if t["doc_id"].null_count:
            t = t.filter(pc.is_valid(t["doc_id"]))
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        toks = [TOKEN_RE.findall((s or "").lower()) for s in texts]
        lens = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        flat = pd.DataFrame({
            "doc_id": np.repeat(doc_ids, lens),
            "term": np.concatenate([np.asarray(x, object) for x in toks])
            if len(toks) else np.array([], object),
        })
        out = (flat.groupby(["doc_id", "term"], sort=False)
               .size().rename("tf").reset_index())
        out["tf"] = out["tf"].astype(np.int64)
        return out

    return ds.map_batches(tf_batch, batch_format="pyarrow")


def top_terms_per_doc(sf_dir: str, k: int = TOP_K_TERMS,
                      num_buckets: int = 16) -> rd.Dataset:
    """Top-k distinctive terms per document by (tf DESC, df ASC,
    term ASC). Returns (doc_id, rank, term, tf, df) — integers + the
    term string."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    tf = doc_term_freqs(docs)

    # ---- stage 2+3 fused: one term-keyed shuffle computes df AND
    # joins it back to the tf rows (each bucket holds a term fully)
    def add_term_bucket(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(bucket=(hash_strings(b["term"]) %
                                np.uint64(num_buckets)).astype(np.int32))

    def df_join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # (doc,term) rows are unique -> df = group size per term
        df_col = g.groupby("term", sort=False)["doc_id"].transform("size")
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "term": g["term"].to_numpy(),
            "tf": g["tf"].to_numpy(np.int64),
            "df": df_col.to_numpy(np.int64),
        })

    with_df = (tf.map_batches(add_term_bucket, batch_format="pandas")
               .groupby("bucket")
               .map_groups(lambda g: df_join_bucket(g.drop(columns=["bucket"])),
                           batch_format="pandas"))

    # ---- stage 4: doc-keyed shuffle, vectorized in-bucket top-k.
    # Top-k under a total order is mergeable (global top-k ⊆ union of
    # per-part top-k), so each batch pre-prunes to k rows per doc
    # BEFORE the shuffle — volume drops from token-count to
    # ≤ k · docs-per-batch even though a doc's terms arrive scattered
    # across term buckets.
    def add_doc_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["doc_id", "tf", "df", "term"],
                          ascending=[True, False, True, True],
                          kind="mergesort")
        b = b[b.groupby("doc_id", sort=False).cumcount() < k]
        return b.assign(bucket=(hash_ints(b["doc_id"]) %
                                np.uint64(num_buckets)).astype(np.int32))

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "tf", "df", "term"],
                          ascending=[True, False, True, True],
                          kind="mergesort")
        rank = g.groupby("doc_id", sort=False).cumcount() + 1
        g = g.assign(rank=rank.astype(np.int32))
        g = g[g["rank"] <= k]
        return g[["doc_id", "rank", "term", "tf", "df"]]

    return (with_df.map_batches(add_doc_bucket, batch_format="pandas")
            .groupby("bucket")
            .map_groups(lambda g: topk_bucket(g.drop(columns=["bucket"])),
                        batch_format="pandas"))


def q_top_terms(sf_dir: str) -> rd.Dataset:
    return top_terms_per_doc(sf_dir)


# ------------------------------------------------------------ grouped mode
def grouped_mode(sf_dir: str, num_buckets: int = 16) -> rd.Dataset:
    """MODE aggregate: per user, the most frequent event_type (ties →
    lexicographically smallest). DuckDB's ``mode()`` leaves ties
    unspecified, so the tie-break is pinned explicitly on both sides.

    One user-keyed shuffle of per-batch (user, type, partial-count)
    rows — the partial pre-aggregation means the shuffle moves at most
    |users|×|types| rows per block, not raw events (the combiner-
    before-groupby rule)."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pd.DataFrame:
        # null-keyed rows are excluded on BOTH sides (the oracle carries
        # matching IS NOT NULL predicates; pandas groupby would drop
        # them silently while SQL GROUP BY keeps a NULL group)
        t = t.drop_null()
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
        })
        out = (df.groupby(["user_id", "event_type"], sort=False)
               .size().rename("n").reset_index())
        out["bucket"] = (hash_ints(out["user_id"]) %
                         np.uint64(num_buckets)).astype(np.int32)
        return out

    def mode_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["user_id", "event_type"], sort=False)["n"]
             .sum().reset_index())
        c = c.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
        top = c.groupby("user_id", sort=False).head(1)
        return pd.DataFrame({
            "user_id": top["user_id"].to_numpy(np.int64),
            "top_type": top["event_type"].to_numpy(),
            "n": top["n"].to_numpy(np.int64),
        })

    return (ev.map_batches(partial, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(lambda g: mode_bucket(g.drop(columns=["bucket"])),
                        batch_format="pandas"))


def q_user_event_mode(sf_dir: str) -> rd.Dataset:
    return grouped_mode(sf_dir)


# ------------------------------------------------------------ n-gram counts
BIGRAM_TOP_K = 50


def bigram_counts(sf_dir: str, k: int = BIGRAM_TOP_K,
                  num_buckets: int = 16) -> rd.Dataset:
    """Global top-k token bigrams over the corpus — the n-gram count
    table LM data work starts from (vocab stats, contamination checks,
    boilerplate detection). Bigrams never cross documents.

    Each batch tokenizes (same ``TOKEN_RE``/lower contract as
    ``doc_term_freqs``) and pre-counts its own bigrams, so the shuffle
    carries per-batch (bigram, partial-count) rows bounded by the
    batch's distinct-bigram count; one hash(bigram) bucketed sum, then
    global ``sort + limit`` with the (n DESC, bigram ASC) tie-break
    pinned on both sides."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        texts = t["text"].to_pylist()
        grams: list[str] = []
        for s in texts:
            toks = TOKEN_RE.findall((s or "").lower())
            grams.extend(a + " " + b for a, b in zip(toks, toks[1:]))
        if not grams:
            return pd.DataFrame({"bigram": np.array([], object),
                                 "n": np.array([], np.int64),
                                 "bucket": np.array([], np.int32)})
        out = (pd.Series(grams, dtype=object).value_counts()
               .rename_axis("bigram").rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        out["bucket"] = (hash_strings(out["bigram"].to_numpy(object)) %
                         np.uint64(num_buckets)).astype(np.int32)
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("bigram", sort=False)["n"].sum().reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    merged = (docs.map_batches(partial, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(lambda g: merge_bucket(g.drop(columns=["bucket"])),
                          batch_format="pandas"))
    return (merged.sort(["n", "bigram"], descending=[True, False])
            .limit(k))


def q_bigram_counts(sf_dir: str) -> rd.Dataset:
    return bigram_counts(sf_dir)


# ----------------------------------------------- per-doc repetition stats
def repetition_stats(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition quality signals, integer-exact: per doc
    the token total, distinct-token count, the single most frequent
    token (ties -> lexicographically smallest, pinned on both sides),
    its count, and two basis-point ratios via trunc integer division
    (``//`` on both sides): top-token mass and distinct-token ratio.
    High top_bp / low distinct_bp = boilerplate or degenerate repetition
    — the standard pre-training text filter.

    A document's text is one row, so this is a pure per-batch map —
    NO shuffle at any scale; docs with zero tokens are excluded (the
    oracle's toks CTE produces no rows for them)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def per_batch(t: pa.Table) -> pd.DataFrame:
        # one vectorized groupby over the batch's (doc, term, tf) rows
        # (same explode shape as doc_term_freqs.tf_batch)
        if t["doc_id"].null_count:
            t = t.filter(pc.is_valid(t["doc_id"]))
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        toks = [TOKEN_RE.findall((s or "").lower())
                for s in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        flat = pd.DataFrame({
            "doc_id": np.repeat(doc_ids, lens),
            "term": np.concatenate([np.asarray(x, object) for x in toks])
            if len(toks) else np.array([], object),
        })
        tf = (flat.groupby(["doc_id", "term"], sort=False)
              .size().rename("tf").reset_index())
        tf = tf.sort_values(["doc_id", "tf", "term"],
                            ascending=[True, False, True], kind="mergesort")
        g = tf.groupby("doc_id", sort=False)
        top = g.head(1).set_index("doc_id")
        n_tokens = g["tf"].sum()
        n_distinct = g.size()
        out = pd.DataFrame({
            "doc_id": n_tokens.index.to_numpy(np.int64),
            "n_tokens": n_tokens.to_numpy(np.int64),
            "n_distinct": n_distinct.to_numpy(np.int64),
            "top_term": top["term"].to_numpy(object),
            "top_tf": top["tf"].to_numpy(np.int64),
        })
        out["top_bp"] = out["top_tf"] * 10000 // out["n_tokens"]
        out["distinct_bp"] = out["n_distinct"] * 10000 // out["n_tokens"]
        return out

    return docs.map_batches(per_batch, batch_format="pyarrow")


def q_repetition_stats(sf_dir: str) -> rd.Dataset:
    return repetition_stats(sf_dir)


# ------------------------------------------------ unigram LM doc scoring
def doc_lm_score(sf_dir: str, num_buckets: int = 16) -> rd.Dataset:
    """Per-document mean unigram log-probability under the corpus's own
    unigram model, in milli-nats — the LM-based quality score
    (KenLM-perplexity shape) pre-training pipelines use to rank text
    naturalness; here the model IS the corpus (self-perplexity), so no
    external LM is needed.

    Layout: (1) corpus term counts via per-batch partials → one
    term-bucketed SUM (vocabulary-sized, never token-sized); (2) the
    counts table is gathered and ``ray.put`` ONCE as the broadcast
    side — a documented small-side materialization (a [a-z0-9]+ token
    vocabulary is O(10⁷) even at 100 TB; the term-bucketed join in
    ``top_terms_per_doc`` is the fallback layout if it ever isn't);
    (3) one stateless per-doc pass computes Σ tf·ln(c/N) / Σ tf.

    Float caveat (same bounded risk as ``features.info_gain``): the
    oracle AVGs ln() over token instances while the engine sums
    tf-weighted terms, so the two sides differ by float association
    order (~1e-14 relative); the milli-nat fold makes a flip
    probability ~1e-11/doc. Documented, not eliminated."""
    import ray

    from ..runtime import auto_concurrency

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    tf = doc_term_freqs(docs)

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        out = (b.groupby("term", sort=False)["tf"].sum().rename("c")
               .reset_index())
        out["bucket"] = (hash_strings(out["term"].to_numpy(object)) %
                         np.uint64(num_buckets)).astype(np.int32)
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("term", sort=False)["c"].sum().reset_index()
        out["c"] = out["c"].astype(np.int64)
        return out

    counts = (tf.map_batches(add_bucket, batch_format="pandas")
              .groupby("bucket")
              .map_groups(lambda g: merge_bucket(g.drop(columns=["bucket"])),
                          batch_format="pandas")
              .to_pandas())  # vocabulary-sized — documented small side
    vocab = dict(zip(counts["term"], counts["c"].to_numpy(np.int64)))
    n_total = int(counts["c"].sum())
    vocab_ref = ray.put(vocab)

    class _Score:
        def __init__(self, ref, n):
            # log-prob lookup built ONCE per actor (T7 pattern)
            vocab = ray.get(ref)
            self._logp = pd.Series(
                {t: np.log(c / n) for t, c in vocab.items()}, dtype=np.float64)

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            if t["doc_id"].null_count:
                t = t.filter(pc.is_valid(t["doc_id"]))
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
            toks = [TOKEN_RE.findall((s or "").lower())
                    for s in t["text"].to_pylist()]
            lens = np.fromiter((len(x) for x in toks), np.int64, len(toks))
            keep = lens > 0
            flat_terms = (np.concatenate(
                [np.asarray(x, object) for x in toks if x])
                if keep.any() else np.array([], object))
            # every corpus token is in the corpus vocabulary by
            # construction — no smoothing needed for self-scoring
            logp = self._logp.reindex(flat_terms).to_numpy(np.float64)
            ends = np.cumsum(lens[keep])
            starts = ends - lens[keep]
            sums = np.add.reduceat(logp, starts) if len(starts) else \
                np.array([], np.float64)
            avg = sums / lens[keep]
            return pd.DataFrame({
                "doc_id": doc_ids[keep].astype(np.int64),
                "n_tokens": lens[keep],
                "lm_millinats": np.floor(avg * 1000 + 0.5).astype(np.int64),
            })

    return docs.map_batches(_Score, batch_format="pyarrow",
                            fn_constructor_args=(vocab_ref, n_total),
                            concurrency=auto_concurrency())


def q_doc_lm_score(sf_dir: str) -> rd.Dataset:
    return doc_lm_score(sf_dir)


# ------------------------------------------------- token length histogram
def q_token_len_hist(sf_dir: str, num_buckets: int = 4) -> rd.Dataset:
    """Corpus-wide histogram of whitespace-token LENGTHS — the cheap
    tokenizer-design stat (how long are the atoms BPE must cover).
    Fully columnar: one Arrow ``split_pattern`` + flatten +
    ``utf8_length`` kernel chain per batch (empty tokens from leading/
    trailing/repeated whitespace are dropped — ``\\S+`` semantics, same
    token definition as text_stats), pre-counted per batch; the merge
    shuffle carries (length, count) cells only."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        arr = pc.fill_null(pc.cast(t["text"], pa.string()), "")
        toks = pc.list_flatten(pc.split_pattern_regex(arr, r"\s+"))
        lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        lens = lens[lens > 0]  # split artifacts at string edges
        vals, cnts = np.unique(lens, return_counts=True)
        return pd.DataFrame({"token_len": vals.astype(np.int64),
                             "n_tokens": cnts.astype(np.int64)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("token_len", sort=False)["n_tokens"]
               .sum().reset_index())
        out["n_tokens"] = out["n_tokens"].astype(np.int64)
        return out

    from .analytics import bucketed_group_agg

    return bucketed_group_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["token_len"], merge, num_buckets=num_buckets)
