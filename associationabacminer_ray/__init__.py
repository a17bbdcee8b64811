"""associationabacminer_ray — a Ray-Data-native distributed sketch /
approximate-aggregation engine.

Re-expresses the query and data-processing capabilities of the reference
miner (MWSanders/AssociationAbacMiner — exact frequent-itemset support
counting, distinct counting, membership pruning, score distributions,
greedy rule selection, windowed mining + scoring; see SURVEY.md) as
``ray.data.Dataset`` pipelines:

- ``sketches/``  mergeable sketch kernel (CMS, HLL, Bloom, t-digest, KLL,
  space-saving top-k) — pure NumPy, fixed-layout binary serialization so
  sketch state rides through Arrow ``binary()`` columns and shuffles.
- ``udaf``       Ray Data ``AggregateFnV2`` wrappers turning each sketch
  into a grouped/global mergeable aggregate.
- ``stages/``    ``map_batches`` callables (normalizers, transactionizers,
  sketch updaters, text/dedup/embedding stages).
- ``sources/``   parquet readers + the deterministic transcripts
  synthesizer / events→transcripts mapping.
- ``functions/`` scalar/vector functions: stable 64-bit hashing, the
  reference's rule-score family, window generators.
- ``pipelines/`` end-to-end pipelines (itemset mining, rule scoring,
  greedy cover, analytics, text, ANN).
- ``state/``     checkpoint/lineage + resume, the per-day sketch store.

Nothing in this package calls ``ray.init()`` — sessions are owned by the
caller (tests' conftest fixture, bench.py, or the verification driver).
"""

__version__ = "0.1.0"
