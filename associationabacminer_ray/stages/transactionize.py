"""Transaction building + k-itemset expansion (bucketed, vectorized).

Semantic transplant of the reference's Orange one-hot transaction table
(``src/TableCreator.py:108-163``, ``src/EnvAbacRuleMiner.py:161``): a
transaction is one conversation's *distinct* item set, where an item is
the ``"role=tool"`` string of a turn (analog of the event's ``k=v``
constraint set).

Scale design (SURVEY.md §7.3): the only row-moving shuffle is keyed by
``bucket = hash(conv_id) % B`` — conversations are high-cardinality and
un-skewed, so B buckets stay balanced regardless of how hot individual
``(role, tool)`` pairs are. Every supports path counts itemsets with one
exact kernel, ``itemset_partials_from_codes``: conversations and items
arrive as integer codes (parquet dictionary indices, or
``pd.factorize`` inside a shuffle bucket), transactions are grouped by
length, and each length class expands all its transactions at once
through a cached ``combinations(range(L), k)`` index into mixed-radix
int64 itemset codes that are summed with ``np.unique``/``bincount``.
No hash stands in for a transaction or conversation identity. Buckets
and shards emit pre-counted ``(itemset, k, count)`` partials, so the
final ``groupby(itemset)`` only moves O(B × distinct itemsets) aggregate
rows — never raw turns.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pandas as pd

from ..functions.hashing import hash_strings

ITEM_SEP = "|"


def make_items(batch: pd.DataFrame) -> pd.DataFrame:
    """role + '=' + tool → item (missing/empty → NONE, as the reference
    fills missing valid_keys, ``ConfigurableEventNormalizer.py:157-160``)."""
    # numpy where beats pandas .replace (regex machinery) ~10x on object cols
    role = batch["role"].fillna("NONE").to_numpy()
    tool = batch["tool"].fillna("NONE").to_numpy()
    role = pd.Series(np.where(role == "", "NONE", role), index=batch.index)
    tool = pd.Series(np.where(tool == "", "NONE", tool), index=batch.index)
    return batch.assign(item=role + "=" + tool)


def distinct_pairs_with_bucket(batch: pd.DataFrame, conv_col: str = "conv_id",
                               item_col: str = "item", num_buckets: int = 64) -> pd.DataFrame:
    """Pre-shuffle combiner: dedup (conv, item) within the batch and key by
    conv-hash bucket, so the shuffle moves distinct pairs, not turns."""
    out = batch[[conv_col, item_col]].drop_duplicates()
    out = out.copy()
    out["bucket"] = (hash_strings(out[conv_col]) % np.uint64(num_buckets)).astype(np.int32)
    return out


def transactions_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """One row per conversation: sorted distinct items joined by ','.
    (FIXTURES.md §F2 — also the unique-logs dedup analog,
    ``EnvLogUniverseGenerator.py:84-104``.)"""
    pairs = group[["conv_id", "item"]].drop_duplicates()
    pairs = pairs.sort_values(["conv_id", "item"], kind="mergesort")
    tx = pairs.groupby("conv_id", sort=False)["item"].agg(",".join)
    return pd.DataFrame({"conv_id": tx.index, "items": tx.to_numpy()})


#: itemset codes held before they are summed (bounds the kernel's memory)
_CHUNK_CODES = 1 << 20


@functools.lru_cache(maxsize=None)
def _combination_index(length: int, k: int) -> np.ndarray:
    """Positions of every k-subset of a length-``length`` row, one
    subset per row, in ``itertools.combinations`` order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(length), k))
    idx = np.fromiter(flat, dtype=np.intp, count=math.comb(length, k) * k)
    idx = idx.reshape(-1, k)
    idx.flags.writeable = False
    return idx


def _sum_by_code(parts: list) -> tuple:
    """``(codes, counts, turns)`` parts → one part: distinct codes
    ascending with their summed counts (and turns, unless None). float64
    sums are exact below 2**53."""
    codes, counts, turns = zip(*parts)
    uniq, inv = np.unique(np.concatenate(codes), return_inverse=True)

    def total(weights):
        if weights[0] is None:
            return None
        return np.bincount(inv, weights=np.concatenate(weights), minlength=len(uniq))

    return uniq, total(counts), total(turns)


def _add_part(parts: list, codes, counts, turns) -> None:
    parts.append((codes, counts, turns))
    if sum(len(p[0]) for p in parts) > _CHUNK_CODES:
        parts[:] = [_sum_by_code(parts)]


def itemset_partials_from_codes(conv_codes: np.ndarray, item_codes: np.ndarray,
                                item_vocab: np.ndarray, max_k: int = 2,
                                max_transaction_items: int | None = 64,
                                with_turn_counts: bool = False) -> pd.DataFrame:
    """Exact partial supports ``(itemset, k, count)`` from integer codes —
    THE itemset counting kernel of every supports path.

    ``conv_codes``/``item_codes`` are dense dictionary indices (one per
    turn); ``item_vocab[code]`` gives the item string. A transaction is
    one conversation's distinct items. Every step is exact and
    vectorized: dedupe ``(conv, item)`` on the integer key
    ``conv·V + item``; group transactions by length L; index each
    length class with the cached ``combinations(range(L), k)`` array;
    sum the mixed-radix int64 codes ``Σ itemⱼ·V^(k-1-j)``. Items are
    ranked by string first, so an itemset's name ``a|b`` lists its items
    in sorted order. Transactions over ``max_transaction_items`` count
    their 1-itemsets only (a 10^4-item transaction would otherwise
    explode combinatorially). Rows come out sorted by ``(k, code)``;
    expansion runs in row chunks of about ``_CHUNK_CODES`` codes.

    ``with_turn_counts`` adds a ``turn_count`` column: Σ raw turns of the
    conversations containing each itemset — the ``all_log_entries``
    analog (EnvOverassignmentCalculator.py:119), making the Qrul_freq
    score family distinct from the count family.
    """
    V = len(item_vocab)
    if V ** max_k > np.iinfo(np.int64).max:
        raise ValueError(f"{V} items ** max_k={max_k} overflows int64 itemset codes")
    if len(conv_codes) == 0:
        cols = {"itemset": pd.Series(dtype=object),
                "k": pd.Series(dtype=np.int32),
                "count": pd.Series(dtype=np.int64)}
        if with_turn_counts:
            cols["turn_count"] = pd.Series(dtype=np.int64)
        return pd.DataFrame(cols)
    vocab = np.asarray(item_vocab, dtype=object)
    order = np.argsort(vocab, kind="stable")
    vocab = vocab[order]
    rank = np.empty(V, dtype=np.int64)
    rank[order] = np.arange(V)

    conv = np.asarray(conv_codes, dtype=np.int64)
    tx, items = np.divmod(np.unique(conv * V + rank[item_codes]), V)
    starts = np.flatnonzero(np.r_[True, tx[1:] != tx[:-1]])
    lengths = np.diff(np.r_[starts, len(tx)])
    tx_turns = (np.bincount(conv)[tx[starts]].astype(np.float64)
                if with_turn_counts else None)

    # 1-itemsets: every transaction's items, whatever its length
    found = {1: [(items, np.ones(len(items)),
                  None if tx_turns is None else np.repeat(tx_turns, lengths))]}
    cap = max_transaction_items if max_transaction_items is not None else len(items)
    expand = (lengths >= 2) & (lengths <= cap)
    for length in np.unique(lengths[expand]).tolist():
        sel = np.flatnonzero(lengths == length)
        for k in range(2, min(max_k, length) + 1):
            idx = _combination_index(length, k)
            step = max(1, _CHUNK_CODES // len(idx))
            for lo in range(0, len(sel), step):
                chunk = sel[lo:lo + step]
                rows = items[starts[chunk, None] + np.arange(length)]
                codes = rows[:, idx[:, 0]]
                for j in range(1, k):
                    codes = codes * V + rows[:, idx[:, j]]
                turns = (None if tx_turns is None
                         else np.repeat(tx_turns[chunk], len(idx)))
                _add_part(found.setdefault(k, []), codes.ravel(),
                          np.ones(codes.size), turns)

    names, ks, counts, turns = [], [], [], []
    for k, parts in found.items():
        codes, cnt, trn = _sum_by_code(parts)
        name = vocab[codes % V]
        for _ in range(1, k):
            codes = codes // V
            name = vocab[codes % V] + ITEM_SEP + name
        names.append(name)
        ks.append(np.full(len(name), k, dtype=np.int32))
        counts.append(cnt)
        turns.append(trn)
    out = {"itemset": np.concatenate(names), "k": np.concatenate(ks),
           "count": np.concatenate(counts).astype(np.int64)}
    if with_turn_counts:
        out["turn_count"] = np.concatenate(turns).astype(np.int64)
    return pd.DataFrame(out)


def dictionary_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode an Arrow column (a parquet dictionary read is
    used as is) and return ``(int64 codes, object vocab)``. Nulls live
    in the INDICES, not the vocab — a raw ``to_numpy`` gives NaN →
    ``astype(int64)`` garbage — so they are mapped to an appended
    ``"NONE"`` vocab slot."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if not pa.types.is_dictionary(arr.type):
        arr = pc.dictionary_encode(arr)
    vocab = arr.dictionary.to_numpy(zero_copy_only=False).astype(object)
    indices = arr.indices
    if indices.null_count:
        indices = pc.fill_null(indices, len(vocab))
        vocab = np.append(vocab, "NONE")
    return indices.to_numpy(zero_copy_only=False).astype(np.int64), vocab


def read_shard_codes(path: str, conv_col: str = "conv_id", filters=None,
                     ts_col: str | None = None):
    """Read one parquet shard dictionary-encoded and return
    (conv_codes, item_codes, item_vocab, conv_vocab) with normalization
    (''/null → NONE) applied at VOCAB level — O(vocab), not O(rows).

    ``filters`` is a row predicate pushed into the parquet read
    (``pq.read_table(filters=...)``), e.g. ``functions.windows.ts_range``
    for one day, or an OR of such ranges; it may name columns that are
    not returned. Row groups it excludes are skipped, and a shard with
    no matching row gives empty codes. With ``ts_col`` the tuple gains a
    fifth array: that column's datetime64 values, one per turn, so the
    caller can split the turns by time without a second read."""
    import pyarrow.parquet as pq

    dict_cols = [conv_col, "role", "tool"]
    t = pq.read_table(path, columns=dict_cols + ([ts_col] if ts_col else []),
                      read_dictionary=dict_cols, filters=filters)
    conv_codes, conv_vocab = dictionary_codes(t.column(conv_col))
    r_codes, r_vocab = dictionary_codes(t.column("role"))
    t_codes, t_vocab = dictionary_codes(t.column("tool"))
    r_vocab = np.where(r_vocab == "", "NONE", r_vocab)
    t_vocab = np.where(t_vocab == "", "NONE", t_vocab)
    T = len(t_vocab)
    grid_codes = r_codes.astype(np.int64) * T + t_codes
    # canonicalize through the item STRING (vocab-level): normalization can
    # alias two grid codes (e.g. '' and 'NONE') onto one item
    present, inv = np.unique(grid_codes, return_inverse=True)
    strs = np.array([f"{r_vocab[c // T]}={t_vocab[c % T]}" for c in present],
                    dtype=object)
    item_vocab, canon = np.unique(strs, return_inverse=True)
    item_codes = canon[inv]
    codes = conv_codes, item_codes, item_vocab.astype(object), conv_vocab
    if ts_col is None:
        return codes
    return *codes, t.column(ts_col).to_numpy()


def itemset_partials_in_bucket(group: pd.DataFrame, conv_col: str = "conv_id",
                               item_col: str = "item", max_k: int = 2,
                               max_transaction_items: int | None = 64) -> pd.DataFrame:
    """Per-bucket exact partial supports ``(itemset, k, count)``: the
    bucket's conv and item columns are factorized to exact codes and
    counted by ``itemset_partials_from_codes``."""
    conv_codes, _ = pd.factorize(group[conv_col], use_na_sentinel=False)
    item_codes, item_vocab = pd.factorize(group[item_col], sort=True)
    return itemset_partials_from_codes(conv_codes, item_codes,
                                       np.asarray(item_vocab, dtype=object),
                                       max_k=max_k,
                                       max_transaction_items=max_transaction_items)
