"""The three closed-loop workloads.

Each workload is one client issuing one operation at a time: a *job*
(the bulk unit of work) followed by a batch of *queries* against the
job's output. Inputs come from ``--seed``; every operation is checked
against an oracle computed once during set-up.

- ``supports_sketch``: ``itemset_supports_partitioned(mode="sketch")``
  over a conversation-sharded corpus; queries read CMS support
  estimates and the top-k head of the merged sketches.
- ``window_job``: ``run_one_job`` (mine a 14-day obs window, score on a
  3-day opr window); queries are authorization decisions of the mined
  policy (``policy_allows``) on batches of opr-window transactions.
- ``daily_store``: ``DailySketchStore.ensure_days`` builds one new day;
  queries merge a 7-day window (``window_sketches``) and estimate
  supports from it.
"""

from __future__ import annotations

import os
import shutil
import time
from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import Tracer

START = datetime(2024, 1, 1)
DAYS = 40
GENERATE_REPEATS = 3


def _generate(out_dir: str, n_convs: int, seed: int, shards: int) -> tuple[list[str], list[float]]:
    """Write the seeded corpus ``GENERATE_REPEATS`` times (the writer
    caches by manifest, so each repeat starts from an empty directory);
    returns the shard paths and each repeat's wall time."""
    from associationabacminer_ray.sources.transcripts import write_synth_transcripts

    times = []
    for _ in range(GENERATE_REPEATS):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        paths = write_synth_transcripts(out_dir, n_convs=n_convs, seed=seed,
                                        shards=shards, days=DAYS)
        times.append(time.perf_counter() - t0)
    return paths, times


def job_window():
    """The first (obs, opr) window of the default mining config, and the config."""
    from associationabacminer_ray.functions.windows import generate_windows
    from associationabacminer_ray.pipelines.jobs import MiningConfig

    cfg = MiningConfig()
    spec = generate_windows(START, START + timedelta(days=DAYS), cfg.obs_days,
                            cfg.opr_days, cfg.step_days)[0]
    return spec, cfg


def _n_rows(paths: list[str]) -> int:
    return sum(pq.ParquetFile(p).metadata.num_rows for p in paths)


def _items(df: pd.DataFrame) -> pd.Series:
    """``role=tool`` items with ''/null normalized to NONE."""
    def norm(s: pd.Series) -> pd.Series:
        s = s.fillna("NONE")
        return s.where(s != "", "NONE")

    return norm(df["role"]) + "=" + norm(df["tool"])


class Workload:
    """Base: subclasses fill ``setup``, ``job`` and ``query``.

    ``job()`` returns ``(turns, ok)``; ``query(i)`` returns ``ok``. Both
    record the accuracy of their answers and run under the caller's
    timeout."""

    name = ""
    # a second name under which the detail record reports ``job_s``
    job_alias = None
    job_timeout_s = 60.0
    query_timeout_s = 30.0
    queries_per_job = 32

    def __init__(self, seed: int, scale: float, run_dir: str, tracer: Tracer):
        self.seed = seed
        self.scale = scale
        self.run_dir = run_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.corpus_dir = os.path.join(run_dir, "corpus")
        # running [sum, count] of per-answer support overestimates and of
        # per-estimate distinct-count errors, in ppm of the transactions
        # answered over; sums, so the driver's memory does not grow with
        # the number of answers
        self.support_err = [0.0, 0]
        self.distinct_err = [0.0, 0]

    def n_convs(self, full: int) -> int:
        return max(400, int(full * self.scale))

    def record_support(self, over: np.ndarray, n_tx: int) -> None:
        """Record support answers: ``over`` = estimate - exact.
        Each answer carries a one-transaction floor, so an exact answer
        reads as one transaction instead of zero."""
        self.support_err[0] += float((1e6 * (over + 1) / n_tx).sum())
        self.support_err[1] += len(over)

    def record_distinct(self, estimate: float, n_tx: int) -> None:
        """Record one HLL distinct-count estimate against the exact count."""
        self.distinct_err[0] += 1e6 * abs(estimate - n_tx) / n_tx
        self.distinct_err[1] += 1


class SupportsSketch(Workload):
    name = "supports_sketch"
    full_convs = 128_000
    shards = 8
    head = 16
    keys_per_query = 256

    def setup(self) -> dict:
        from associationabacminer_ray.pipelines.itemsets import itemset_supports_partitioned

        self.paths, gen = _generate(self.corpus_dir, self.n_convs(self.full_convs),
                                    self.seed, self.shards)
        self.turns = _n_rows(self.paths)
        t0 = time.perf_counter()
        self.n_tx = sum(pc.count_distinct(pq.read_table(p, columns=["conv_id"])
                                          ["conv_id"]).as_py() for p in self.paths)
        exact = itemset_supports_partitioned(self.paths, mode="exact", max_k=2).to_pandas()
        self.exact = dict(zip(exact["itemset"], exact["support"].astype(np.int64)))
        keys = np.array(sorted(self.exact), dtype=object)
        self.key_batches = [self.rng.choice(keys, size=min(self.keys_per_query, len(keys)),
                                            replace=False) for _ in range(32)]
        self.exact_batches = [np.array([self.exact[k] for k in b], dtype=np.int64)
                              for b in self.key_batches]
        oracle_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        turns, ok = self.job()
        if not ok:
            raise RuntimeError("warm-up pass disagrees with the exact oracle")
        return {"generate_s": gen, "oracle_s": oracle_s,
                "warmup_s": time.perf_counter() - t0}

    def job(self):
        from associationabacminer_ray.pipelines.itemsets import itemset_supports_partitioned

        with self.tracer.span("itemsets.partitioned"):
            res = itemset_supports_partitioned(self.paths, mode="sketch", max_k=2)
        self.result = res
        hll = res["hll"]
        est = hll.estimate()
        ok = (res["n_transactions"] == self.n_tx
              and abs(est - self.n_tx) <= 4 * hll.relative_error * self.n_tx)
        self.record_distinct(est, self.n_tx)
        topk = res["topk"]
        head = topk.top(self.head)
        true = np.array([self.exact.get(k, 0) for k, _, _ in head], dtype=np.int64)
        count = np.array([c for _, c, _ in head], dtype=np.int64)
        err = np.array([e for _, _, e in head], dtype=np.int64)
        ok &= bool(((true <= count) & (count - err <= true)).all())
        self.record_support(count - true, self.n_tx)
        # Space-Saving guarantee: every itemset above total/capacity is kept
        floor = topk.total / topk.capacity
        ok &= all(k in topk.counters for k, s in self.exact.items() if s > floor)
        return self.turns, bool(ok)

    def query(self, i: int) -> bool:
        from associationabacminer_ray.functions.hashing import hash_strings

        keys = self.key_batches[i % len(self.key_batches)]
        exact = self.exact_batches[i % len(self.exact_batches)]
        over = self.result["cms"].estimate_hashed(hash_strings(keys)).astype(np.int64) - exact
        self.record_support(over, self.n_tx)
        return bool((over >= 0).all())


class WindowJob(Workload):
    name = "window_job"
    full_convs = 20_000
    shards = 8
    job_timeout_s = 90.0
    queries_per_job = 64
    requests_per_query = 256

    def setup(self) -> dict:
        from associationabacminer_ray.pipelines.jobs import Job, run_one_job
        from associationabacminer_ray.pipelines.mining import mine_window

        self.paths, gen = _generate(self.corpus_dir, self.n_convs(self.full_convs),
                                    self.seed, self.shards)
        spec, cfg = job_window()
        self.jobspec = Job(cfg, spec)
        t0 = time.perf_counter()
        self.turns, vocab = self._scan_windows(spec)
        self.reference = run_one_job(self.paths, self.jobspec, distributed=False)
        mw = mine_window(self.paths, spec, mode="exact", max_k=cfg.max_k,
                         min_support=cfg.min_support, num_buckets=cfg.num_buckets,
                         top_rules=cfg.top_rules, beta=cfg.beta)
        self.rules = mw["rules"]
        self.n_tx_obs = mw["n_transactions"]
        # requests over the opr window's item universe (the enumerated
        # requests of false-positive scoring): nearly all are denied, so
        # first-match-wins evaluates every rule and the cost depends on
        # the policy's size, not on which rules happen to match first
        rule_sets = [set(a.split("|")) | set(c.split("|"))
                     for a, c in zip(self.rules["antecedent"], self.rules["consequent"])]
        self.batches, self.decisions = [], []
        for _ in range(32):
            reqs = [sorted(self.rng.choice(vocab, size=int(self.rng.integers(2, 7)),
                                           replace=False))
                    for _ in range(self.requests_per_query)]
            self.batches.append(pd.DataFrame({"items": [",".join(r) for r in reqs]}))
            self.decisions.append(np.array([any(rs <= set(r) for rs in rule_sets)
                                            for r in reqs], dtype=bool))
        oracle_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        turns, ok = self.job()
        if not ok:
            raise RuntimeError("warm-up job disagrees with the pandas twin")
        return {"generate_s": gen, "oracle_s": oracle_s,
                "warmup_s": time.perf_counter() - t0}

    def _scan_windows(self, spec) -> tuple[int, np.ndarray]:
        """Rows in the obs and opr windows (the job's input turns) and the
        opr window's distinct items."""
        n, items = 0, set()
        for p in self.paths:
            df = pq.read_table(p, columns=["role", "tool", "ts"]).to_pandas()
            ts = df["ts"].to_numpy()
            for lo, hi in ((spec.obs_start, spec.obs_end), (spec.opr_start, spec.opr_end)):
                n += int(((ts >= np.datetime64(lo, "us")) & (ts < np.datetime64(hi, "us"))).sum())
            opr = (ts >= np.datetime64(spec.opr_start, "us")) & (ts < np.datetime64(spec.opr_end, "us"))
            items.update(_items(df[opr]).unique())
        return n, np.array(sorted(items), dtype=object)

    def job(self):
        from associationabacminer_ray.pipelines.jobs import run_one_job

        with self.tracer.span("jobs.run_one_job"):
            scores = run_one_job(self.paths, self.jobspec)
        keys = ("c_tp", "c_fn", "u_tp", "u_fn", "u_fp", "u_tn", "n_rules")
        ok = all(scores[k] == self.reference[k] for k in keys)
        return self.turns, bool(ok)

    def query(self, i: int) -> bool:
        from associationabacminer_ray.pipelines.evaluate import policy_allows

        k = i % len(self.batches)
        allowed = policy_allows(self.batches[k], self.rules)
        # the job mines exact supports (checked against the pandas twin
        # through its confusion counts): every rule support is exact
        self.record_support(np.zeros(len(self.rules), dtype=np.int64), self.n_tx_obs)
        return bool(np.array_equal(allowed, self.decisions[k]))


class DailyStore(Workload):
    """A store that keeps the last ``retained_days`` days. Each job builds
    the next day and drops the oldest, so every query sees a store of the
    same size. The retained range slides forward to the end of the corpus,
    then back to its start, and so on: a run never runs out of days."""

    name = "daily_store"
    job_alias = "build_day_s"
    full_convs = 20_000
    shards = 8
    retained_days = 10
    window_days = 7
    queries_per_job = 24
    itemsets_per_query = 16

    def setup(self) -> dict:
        from associationabacminer_ray.state.incremental import DailySketchStore

        self.paths, gen = _generate(self.corpus_dir, self.n_convs(self.full_convs),
                                    self.seed, self.shards)
        t0 = time.perf_counter()
        self._exact_daily()
        oracle_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.store = DailySketchStore(os.path.join(self.run_dir, "store"))
        self.first, self.step = 0, 1
        self.store.ensure_days(self.paths, START, self.day(self.retained_days))
        return {"generate_s": gen, "oracle_s": oracle_s,
                "warmup_s": time.perf_counter() - t0}

    @staticmethod
    def day(d: int) -> datetime:
        return START + timedelta(days=d)

    @property
    def first_day(self) -> datetime:
        return self.day(self.first)

    def _exact_daily(self) -> None:
        """Exact per-day supports under the store's ``conv_id@day``
        transaction unit, computed with plain pandas."""
        df = pd.concat([pq.read_table(p, columns=["conv_id", "role", "tool", "ts"]).to_pandas()
                        for p in self.paths], ignore_index=True)
        day = (df["ts"].dt.normalize() - pd.Timestamp(START)).dt.days.astype(np.int64)
        self.day_turns = np.bincount(day, minlength=DAYS + 1)
        tx = pd.DataFrame({"day": day, "tx": df["conv_id"] + "@" + day.astype(str),
                           "item": _items(df)}).drop_duplicates()
        single = tx.groupby(["day", "item"]).size().rename("n").reset_index()
        size = tx.groupby("tx")["item"].transform("size")
        small = tx[size <= 64]  # the store's max_transaction_items
        pairs = small.merge(small[["tx", "item"]], on="tx", suffixes=("_a", "_b"))
        pairs = pairs[pairs["item_a"] < pairs["item_b"]]
        pairs = pairs.assign(item=pairs["item_a"] + "|" + pairs["item_b"])
        pair = pairs.groupby(["day", "item"]).size().rename("n").reset_index()
        sup = pd.concat([single, pair], ignore_index=True)
        self.itemsets = np.array(sorted(sup["item"].unique()), dtype=object)
        col = {k: j for j, k in enumerate(self.itemsets)}
        self.day_support = np.zeros((DAYS + 1, len(self.itemsets)), dtype=np.int64)
        self.day_support[sup["day"].to_numpy(), sup["item"].map(col).to_numpy()] = sup["n"]
        self.day_tx = np.bincount(tx.drop_duplicates("tx")["day"], minlength=DAYS + 1)
        head = np.argsort(-self.day_support.sum(axis=0), kind="stable")[:8]
        self.head_idx = head

    def job(self):
        from associationabacminer_ray.state.checkpoint import completed_partitions

        last = DAYS - self.retained_days
        if not 0 <= self.first + self.step <= last:
            self.step = -self.step
        first = self.first + self.step
        new, old = ((first + self.retained_days - 1, self.first) if self.step > 0
                    else (first, self.first + self.retained_days - 1))
        with self.tracer.span("incremental.ensure_days"):
            n = self.store.ensure_days(self.paths, self.day(first),
                                       self.day(first + self.retained_days))
        os.remove(completed_partitions(self.store.store_dir, self.store.cfg)[
            self.day(old).toordinal()])
        self.first = first
        return int(self.day_turns[new]), n == 1

    def query(self, i: int) -> bool:
        end = self.first + int(self.rng.integers(self.window_days, self.retained_days + 1))
        lo = end - self.window_days
        idx = np.concatenate([self.head_idx, self.rng.choice(
            len(self.itemsets), size=self.itemsets_per_query - len(self.head_idx),
            replace=False)])
        with self.tracer.span("incremental.window_sketches"):
            sk = self.store.window_sketches(self.day(lo), self.day(end))
        est = np.array([self.store.estimate_support(sk, self.itemsets[j]) for j in idx],
                       dtype=np.int64)
        exact = self.day_support[lo:end, idx].sum(axis=0)
        n_tx = int(self.day_tx[lo:end].sum())
        over = est - exact
        self.record_support(over, n_tx)
        hll = sk["hll"].estimate()
        self.record_distinct(hll, n_tx)
        return bool((over >= 0).all()
                    and abs(hll - n_tx) <= 4 * sk["hll"].relative_error * n_tx)


WORKLOADS = {w.name: w for w in (SupportsSketch, WindowJob, DailyStore)}
