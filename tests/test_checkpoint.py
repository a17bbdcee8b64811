"""Checkpoint/lineage + resume (FIXTURES §F5): resume-equals-fresh."""

import os
import threading

import numpy as np
import pyarrow.parquet as pq
import pytest

from associationabacminer_ray.functions.hashing import hash_ints
from associationabacminer_ray.pipelines.itemsets import (
    sketched_itemset_supports_checkpointed,
)
from associationabacminer_ray.sketches import CountMinSketch, HyperLogLog
from associationabacminer_ray.sources.transcripts import write_synth_transcripts
from associationabacminer_ray.state.checkpoint import (
    completed_partitions,
    config_hash,
    read_partition,
    run_with_checkpoint,
    write_partition,
)


def _local_compute(pid: int, path: str):
    # deterministic fake partition: sketches over pid-derived keys
    h = hash_ints(np.arange(pid * 1000, pid * 1000 + 500))
    return ({"cms": CountMinSketch(width=256, depth=3).update_hashed(h),
             "hll": HyperLogLog(p=10).update_hashed(h)}, 500)


class TestRunWithCheckpoint:
    def test_fresh_run_writes_all_partitions(self, tmp_path):
        files = [f"shard{i}" for i in range(6)]
        cfg = {"v": 1}
        merged = run_with_checkpoint(files, str(tmp_path), _local_compute, cfg)
        done = completed_partitions(str(tmp_path), config_hash(cfg))
        assert set(done) == set(range(6))
        assert merged["hll"].estimate() == pytest.approx(3000, rel=0.05)
        # each file records its lineage and compute wall time per sketch row
        for pid, path in done.items():
            tbl = read_partition(path, config_hash(cfg),
                                 ["name", "partition_id", "row_count", "wall_s"])
            assert sorted(tbl.column("name").to_pylist()) == ["cms", "hll"]
            assert set(tbl.column("partition_id").to_pylist()) == {pid}
            assert set(tbl.column("row_count").to_pylist()) == {500}
            assert min(tbl.column("wall_s").to_pylist()) >= 0

    def test_resume_equals_fresh_bit_for_bit(self, tmp_path):
        files = [f"shard{i}" for i in range(6)]
        cfg = {"v": 1}
        fresh = run_with_checkpoint(files, str(tmp_path / "fresh"), _local_compute, cfg)

        # simulate a kill after 3 partitions: precompute only 0..2
        part_dir = str(tmp_path / "resume")
        ch = config_hash(cfg)
        for pid in range(3):
            sketches, n = _local_compute(pid, files[pid])
            write_partition(part_dir, pid, sketches, [files[pid]], n, ch)
        # a file written before the wall_s column existed is still absorbed
        path = completed_partitions(part_dir, ch)[0]
        pq.write_table(pq.read_table(path).drop_columns(["wall_s"]), path)
        calls = []

        def tracking_compute(pid, path):
            calls.append(pid)
            return _local_compute(pid, path)

        resumed = run_with_checkpoint(files, part_dir, tracking_compute, cfg)
        assert calls == [3, 4, 5]  # finished partitions were NOT recomputed
        assert resumed["cms"].to_bytes() == fresh["cms"].to_bytes()
        assert resumed["hll"].to_bytes() == fresh["hll"].to_bytes()

    def test_config_change_invalidates(self, tmp_path):
        files = ["a", "b"]
        run_with_checkpoint(files, str(tmp_path), _local_compute, {"v": 1})
        calls = []

        def tracking_compute(pid, path):
            calls.append(pid)
            return _local_compute(pid, path)

        run_with_checkpoint(files, str(tmp_path), tracking_compute, {"v": 2})
        assert calls == [0, 1]  # all recomputed under the new config

    def test_partial_tmp_file_not_trusted(self, tmp_path):
        files = ["a", "b"]
        cfg = {"v": 1}
        # a stray tmp file (killed mid-write) must be ignored
        os.makedirs(tmp_path, exist_ok=True)
        (tmp_path / "part-00000.parquet.tmp").write_bytes(b"garbage")
        merged = run_with_checkpoint(files, str(tmp_path), _local_compute, cfg)
        assert merged["hll"].estimate() > 0


class TestRaySketchCheckpoint:
    def test_resume_equals_fresh_on_ray_pipeline(self, ray_session, tmp_path):
        paths = write_synth_transcripts(str(tmp_path / "corpus"), n_convs=1200,
                                        shards=4)
        fresh = sketched_itemset_supports_checkpointed(
            paths, str(tmp_path / "ck1"))

        # "kill" after 2 shards: run only those, then resume over all 4
        sketched_itemset_supports_checkpointed(
            paths[:2], str(tmp_path / "ck2"))
        resumed = sketched_itemset_supports_checkpointed(
            paths, str(tmp_path / "ck2"))

        assert resumed["cms"].to_bytes() == fresh["cms"].to_bytes()
        assert resumed["hll"].to_bytes() == fresh["hll"].to_bytes()
        assert [k for k, _, _ in resumed["topk"].top(10)] == [
            k for k, _, _ in fresh["topk"].top(10)]
        # the exact transaction count, not the HLL estimate: summed from
        # each shard's row_count, read back for the resumed shards
        n_convs = len(set().union(*(pq.read_table(p, columns=["conv_id"])
                                    .column("conv_id").to_pylist() for p in paths)))
        assert n_convs == 1200
        assert fresh["n_transactions"] == resumed["n_transactions"] == n_convs


def test_resume_lineage_guard_reordered_files(tmp_path):
    """A reordered/extended input list must not let a positional pid match
    absorb another shard's blobs (lineage validation)."""
    files = ["A", "B"]
    cfg = {"v": 1}
    run_with_checkpoint(files, str(tmp_path), _lineage_compute, cfg)
    calls = []

    def tracking(pid, path):
        calls.append(path)
        return _lineage_compute(pid, path)

    # new shard C prepended: pids shift, stored lineage mismatches
    out = run_with_checkpoint(["C", "A", "B"], str(tmp_path), tracking, cfg)
    assert calls == ["C", "A", "B"]  # everything recomputed, nothing absorbed wrongly
    fresh = run_with_checkpoint(["C", "A", "B"], str(tmp_path / "f"),
                                _lineage_compute, cfg)
    assert out["hll"].to_bytes() == fresh["hll"].to_bytes()


def _lineage_compute(pid, path):
    h = hash_ints(np.arange(hash(path) % 50 + pid * 100, hash(path) % 50 + pid * 100 + 60))
    return ({"hll": HyperLogLog(p=10).update_hashed(h)}, 60)


class TestFailLoud:
    """A listed partition that cannot be read, or whose embedded config
    hash disagrees with its name, raises naming the file; a file of the
    older unhashed naming is not listed, so its partition is rebuilt."""

    def test_corrupt_partition_raises(self, tmp_path):
        files = ["a", "b", "c"]
        run_with_checkpoint(files, str(tmp_path), _local_compute, {"v": 1})
        path = completed_partitions(str(tmp_path), config_hash({"v": 1}))[1]
        with open(path, "r+b") as f:
            f.write(b"garbage!")
        with pytest.raises(ValueError, match=os.path.basename(path)):
            run_with_checkpoint(files, str(tmp_path), _local_compute, {"v": 1})

    def test_stale_partition_raises(self, tmp_path):
        files = ["a", "b"]
        run_with_checkpoint(files, str(tmp_path), _local_compute, {"v": 1})
        old = completed_partitions(str(tmp_path), config_hash({"v": 1}))[0]
        stale = old.replace(config_hash({"v": 1}), config_hash({"v": 2}))
        os.rename(old, stale)
        with pytest.raises(ValueError, match=os.path.basename(stale)):
            run_with_checkpoint(files, str(tmp_path), _local_compute, {"v": 2})

    def test_unhashed_file_name_is_recomputed(self, tmp_path):
        files = ["a", "b"]
        cfg = {"v": 1}
        ch = config_hash(cfg)
        fresh = run_with_checkpoint(files, str(tmp_path / "fresh"), _local_compute, cfg)
        sketches, n = _local_compute(0, "a")
        new = write_partition(str(tmp_path), 0, sketches, ["a"], n, ch)
        os.rename(new, str(tmp_path / "part-00000.parquet"))
        assert completed_partitions(str(tmp_path), ch) == {}
        calls = []

        def tracking(pid, path):
            calls.append(pid)
            return _local_compute(pid, path)

        out = run_with_checkpoint(files, str(tmp_path), tracking, cfg)
        assert calls == [0, 1]
        assert out["hll"].to_bytes() == fresh["hll"].to_bytes()

    def test_concurrent_writers_of_one_partition(self, tmp_path):
        """Each writer has its own tmp name: threads writing the same
        partition at once leave one whole partition file and no tmp."""
        ch = config_hash({"v": 1})
        sketches, n = _local_compute(0, "a")
        gate = threading.Barrier(8)

        def write():
            gate.wait()
            for _ in range(5):
                write_partition(str(tmp_path), 0, sketches, ["a"], n, ch)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done = completed_partitions(str(tmp_path), ch)
        assert os.listdir(tmp_path) == [os.path.basename(done[0])]
        tbl = read_partition(done[0], ch, ("name", "blob", "row_count"))
        assert tbl.column("row_count").to_pylist() == [n, n]
        assert tbl.column("blob").to_pylist() == [s.to_bytes() for s in sketches.values()]

    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        def half_write(tbl, where):
            with open(where, "wb") as f:
                f.write(b"PAR1")
            raise OSError("disk full")

        monkeypatch.setattr(pq, "write_table", half_write)
        sketches, n = _local_compute(0, "a")
        with pytest.raises(OSError, match="disk full"):
            write_partition(str(tmp_path), 0, sketches, ["a"], n,
                            config_hash({"v": 1}))
        assert os.listdir(tmp_path) == []
