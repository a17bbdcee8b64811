"""The command-line entry point, driven in-process through ``main``."""

import pandas as pd

from associationabacminer_ray.__main__ import main
from associationabacminer_ray.sources.transcripts import write_synth_transcripts


def test_supports_ckpt_dir_resumes_and_keeps_callers_ray(ray_session, tmp_path):
    """``supports --mode sketch --ckpt-dir`` checkpoints one partition per
    shard; a rerun recomputes none of them and writes the same head
    frame. ``main`` leaves a Ray session it did not start running."""
    src = tmp_path / "convs"
    shards = write_synth_transcripts(str(src), n_convs=600, shards=3, seed=7)
    ck = tmp_path / "ck"

    def run(name):
        out = tmp_path / name
        main(["supports", "--input", str(src), "--mode", "sketch",
              "--ckpt-dir", str(ck), "--out", str(out)])
        return pd.read_parquet(out)

    def partitions():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes())
                for p in sorted(ck.iterdir())}

    first = run("first.parquet")
    done = partitions()
    assert len(done) == len(shards)
    second = run("second.parquet")
    assert partitions() == done
    assert len(first) > 0
    pd.testing.assert_frame_equal(second, first)
    assert ray_session.is_initialized()
