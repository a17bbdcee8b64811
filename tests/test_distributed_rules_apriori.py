"""Partitioned k=3 supports against the shuffle path."""

import pandas as pd
import pytest

from associationabacminer_ray.pipelines.itemsets import (
    exact_itemset_supports,
    itemset_supports_partitioned,
)
from associationabacminer_ray.sources.transcripts import write_synth_transcripts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("apriori_corpus")
    return write_synth_transcripts(str(d), n_convs=1000, shards=4)


def test_apriori_triples_match_brute_force(ray_session, corpus):
    import ray.data as rd

    min_support = 5
    # k = 3 on the shuffle-free partitioned path against the shuffle path
    # (the independent itertools oracle is test_supports_k3_match_oracle)
    partitioned = itemset_supports_partitioned(
        corpus, mode="exact", max_k=3, min_support=min_support).to_pandas()
    brute = exact_itemset_supports(rd.read_parquet(corpus), max_k=3,
                                   num_buckets=8, min_support=min_support,
                                   max_transaction_items=64).to_pandas()
    for k in (1, 2, 3):
        a = partitioned[partitioned["k"] == k].set_index("itemset")["support"].sort_index()
        b = brute[brute["k"] == k].set_index("itemset")["support"].sort_index()
        pd.testing.assert_series_equal(a, b, check_names=False, obj=f"k={k}")
    assert (partitioned["k"] == 3).any()  # triples actually exist in the corpus
