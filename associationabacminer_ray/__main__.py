"""CLI entry points — the job_executor / script surface of the engine.

Usage (owns its Ray session; guarded for pre-initialised ones):

  python -m associationabacminer_ray supports  --input DIR_OR_GLOB [--mode exact|sketch|partitioned] [--ckpt-dir DIR] [--max-k 2] [--min-support 2] --out OUT.parquet
  python -m associationabacminer_ray mine      --input ... --obs-start 2024-01-01 --obs-days 14 [--greedy] --out policy.parquet
  python -m associationabacminer_ray score     --input ... --obs-start 2024-01-01 --obs-days 14 --opr-days 3 --out scores.json
  python -m associationabacminer_ray sweep     --input ... --start 2024-01-01 --end 2024-02-01 [--obs-days 14 --opr-days 3 --step-days 7] --out scores_dir/
  python -m associationabacminer_ray synth     --convs 100000 --out DIR [--shards 16]
  python -m associationabacminer_ray curate    --sf-dir DIR [--quality-min-bp 7500] --out verdicts.parquet
  python -m associationabacminer_ray pack      --sf-dir DIR [--cap 512] --out packed_dir/

``--input`` accepts a parquet file, directory, or glob of transcript
shards (conv_id, turn_idx, role, text, tool, ts); ``--sf-dir`` is a
directory holding a documents.parquet table. ``supports --mode sketch
--ckpt-dir DIR`` is the resumable run: one checkpoint partition per
input shard under DIR, so a rerun recomputes only the shards that have
none.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from datetime import datetime, timedelta


def _resolve_input(spec: str) -> list[str]:
    if os.path.isdir(spec):
        hits = sorted(glob.glob(os.path.join(spec, "*.parquet")))
    else:
        hits = sorted(glob.glob(spec))
    if not hits:
        raise SystemExit(f"no parquet input matches {spec!r}")
    return hits


def _init_ray(num_cpus: int | None) -> bool:
    """Own the Ray session for a CLI run; returns whether this call
    started it (a session already running stays the caller's, and
    ``main`` does not shut it down). Local by default; set
    ``GRAFT_RAY_ADDRESS`` to attach to an existing cluster instead —
    ``auto`` is what a ``ray job submit`` entrypoint wants (the job
    runtime injects the cluster address), any ``ray://...`` URI works
    from outside. On a cluster the driver never constrains CPUs: the
    fixed-size cluster is the resource budget (the N vs 4N scaling
    protocol varies the CLUSTER, not this flag — scripts/submit_job.sh)."""
    import ray

    started = not ray.is_initialized()
    if started:
        addr = os.environ.get("GRAFT_RAY_ADDRESS", "local")
        if addr == "local":
            ray.init(address="local", num_cpus=num_cpus,
                     include_dashboard=False, logging_level="ERROR")
        else:
            ray.init(address=addr, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .runtime import quiet_ray_empty_schema_warnings

    # the benign Ray-internal empty-partition artifact (PERF.md #30);
    # typed→typed schema drift still warns
    quiet_ray_empty_schema_warnings()
    return started


_ONE_CONV_PER_FILE = ("assumes no conversation spans two input files "
                      "(shard by conv_id, not by time)")


def cmd_supports(args) -> None:
    import ray.data as rd

    from .pipelines.itemsets import (
        exact_itemset_supports,
        itemset_supports_partitioned,
        sketched_itemset_supports,
        sketched_itemset_supports_checkpointed,
        topk_supports,
    )

    if args.ckpt_dir and args.mode != "sketch":
        raise SystemExit("--ckpt-dir needs --mode sketch")
    paths = _resolve_input(args.input)
    if args.mode == "partitioned":
        print(f"note: --mode partitioned {_ONE_CONV_PER_FILE}", file=sys.stderr)
        out = itemset_supports_partitioned(paths, mode="exact", max_k=args.max_k,
                                           min_support=args.min_support).to_pandas()
    elif args.mode == "sketch":
        if args.ckpt_dir:
            print(f"note: --ckpt-dir {_ONE_CONV_PER_FILE}", file=sys.stderr)
            res = sketched_itemset_supports_checkpointed(
                paths, args.ckpt_dir, max_k=args.max_k)
        else:
            res = sketched_itemset_supports(
                rd.read_parquet(paths, columns=["conv_id", "role", "tool"]),
                max_k=args.max_k)
        out = topk_supports(res["topk"]).rename(
            columns={"support": "support_est", "err": "err_bound"})
        out = out[out["support_est"] >= args.min_support].reset_index(drop=True)
    else:
        out = exact_itemset_supports(
            rd.read_parquet(paths, columns=["conv_id", "role", "tool"]),
            max_k=args.max_k, min_support=args.min_support).to_pandas()
    out.to_parquet(args.out, index=False)
    print(f"wrote {len(out)} rows -> {args.out}")


def _window_from_args(args):
    from .functions.windows import WindowSpec

    obs_start = datetime.fromisoformat(args.obs_start)
    obs_end = obs_start + timedelta(days=args.obs_days)
    return WindowSpec(obs_start, obs_end, obs_end,
                      obs_end + timedelta(days=args.opr_days))


def cmd_mine(args) -> None:
    from .pipelines.mining import mine_window

    # --greedy composes with both modes: mode="sketch" runs the
    # blob-only per-round sketch exchange inside greedy_cover_ray
    spec = _window_from_args(args)
    res = mine_window(_resolve_input(args.input), spec, mode=args.mode,
                      greedy=args.greedy, max_k=args.max_k,
                      min_support=args.min_support)
    res["rules"].to_parquet(args.out, index=False)
    print(json.dumps({k: v for k, v in res.items() if k != "rules"}))
    print(f"wrote {res['n_rules']} rules -> {args.out}")


def cmd_score(args) -> None:
    from .pipelines.jobs import Job, MiningConfig, run_one_job

    cfg = MiningConfig(max_k=args.max_k, min_support=args.min_support,
                       obs_days=args.obs_days, opr_days=args.opr_days)
    job = Job(cfg, _window_from_args(args))
    scores = run_one_job(_resolve_input(args.input), job)
    with open(args.out, "w") as f:
        json.dump(scores, f, indent=2)
    print(json.dumps(scores))


def cmd_sweep(args) -> None:
    from .pipelines.evaluate import aggregate_scores
    from .pipelines.jobs import generate_jobs, run_jobs

    jobs = generate_jobs(datetime.fromisoformat(args.start),
                         datetime.fromisoformat(args.end),
                         grid={"obs_days": [args.obs_days],
                               "opr_days": [args.opr_days],
                               "step_days": [args.step_days],
                               "min_support": [args.min_support],
                               "max_k": [args.max_k]})
    os.makedirs(args.out, exist_ok=True)
    scores = run_jobs(_resolve_input(args.input), jobs, results_dir=args.out)
    agg = aggregate_scores(scores)
    agg.to_parquet(os.path.join(args.out, "aggregate_scores.parquet"), index=False)
    print(f"{len(jobs)} jobs -> {args.out} | mean recall "
          f"{agg['recall'].iloc[0]:.3f} precision {agg['precision'].iloc[0]:.3f}")


def cmd_synth(args) -> None:
    from .sources.transcripts import write_synth_transcripts

    paths = write_synth_transcripts(args.out, n_convs=args.convs,
                                    shards=args.shards, seed=args.seed)
    print(f"wrote {len(paths)} shards -> {args.out}")


def _fresh_out_dir(path: str, overwrite: bool) -> None:
    """Ray's ``write_parquet`` APPENDS into an existing directory —
    a silent rerun would duplicate every row. Refuse unless the user
    opted into a clean slate."""
    import shutil

    if os.path.isdir(path) and os.listdir(path):
        if not overwrite:
            raise SystemExit(
                f"{path!r} already has output; a rerun would append "
                "duplicate rows. Pass --overwrite to start clean.")
        shutil.rmtree(path)


def cmd_curate(args) -> None:
    """Full curation pass over a documents table: per-doc verdicts to
    parquet, per-source drop-reason counts to stdout — the counts are
    aggregated FROM the already-built verdicts dataset, so the chain
    (TokenStats, LangId, contamination, keep-first) runs exactly
    once."""
    from .pipelines.text_pipelines import (
        curation_counts_from_flags,
        curation_doc_flags,
    )

    _fresh_out_dir(args.out, args.overwrite)
    flags = curation_doc_flags(
        args.sf_dir, quality_min_bp=args.quality_min_bp).materialize()
    flags.write_parquet(args.out)
    print(curation_counts_from_flags(flags).to_string(index=False))
    print(f"wrote per-doc verdicts -> {args.out}")


def cmd_pack(args) -> None:
    """Curation chain + concat-split packing of the surviving docs;
    writes the per-doc chunk assignment partitioned by source. Reruns
    must start clean (--overwrite): parquet writes append, they do not
    resume."""
    from .pipelines.mixture import q_assembly_pipeline

    _fresh_out_dir(args.out, args.overwrite)
    packed = q_assembly_pipeline(args.sf_dir, cap=args.cap,
                                 quality_min_bp=args.quality_min_bp)
    packed.write_parquet(args.out, partition_cols=["source"])
    print(f"wrote packed chunk assignments (cap={args.cap}, "
          f"quality_min_bp={args.quality_min_bp}) -> {args.out}")


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(prog="associationabacminer_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, window=False):
        sp.add_argument("--input", required=True)
        sp.add_argument("--max-k", type=int, default=2)
        sp.add_argument("--min-support", type=int, default=2)
        if window:
            sp.add_argument("--obs-start", required=True)
            sp.add_argument("--obs-days", type=int, default=14)
            sp.add_argument("--opr-days", type=int, default=3)

    sp = sub.add_parser("supports")
    common(sp)
    sp.add_argument("--mode", choices=["exact", "sketch", "partitioned"],
                    default="exact")
    sp.add_argument("--ckpt-dir", default=None,
                    help="sketch mode: checkpoint each input shard here and "
                         "resume from the shards already done")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_supports)

    sp = sub.add_parser("mine")
    common(sp, window=True)
    sp.add_argument("--mode", choices=["exact", "sketch"], default="exact")
    sp.add_argument("--greedy", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_mine)

    sp = sub.add_parser("score")
    common(sp, window=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_score)

    sp = sub.add_parser("sweep")
    common(sp)
    sp.add_argument("--start", required=True)
    sp.add_argument("--end", required=True)
    sp.add_argument("--obs-days", type=int, default=14)
    sp.add_argument("--opr-days", type=int, default=3)
    sp.add_argument("--step-days", type=int, default=7)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("synth")
    sp.add_argument("--convs", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--shards", type=int, default=16)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("curate")
    sp.add_argument("--sf-dir", required=True,
                    help="directory holding documents.parquet")
    sp.add_argument("--quality-min-bp", type=int, default=7500)
    sp.add_argument("--out", required=True)
    sp.add_argument("--overwrite", action="store_true")
    sp.set_defaults(fn=cmd_curate)

    sp = sub.add_parser("pack")
    sp.add_argument("--sf-dir", required=True,
                    help="directory holding documents.parquet")
    sp.add_argument("--cap", type=int, default=512)
    sp.add_argument("--quality-min-bp", type=int, default=7500)
    sp.add_argument("--out", required=True)
    sp.add_argument("--overwrite", action="store_true")
    sp.set_defaults(fn=cmd_pack)

    args = p.parse_args(argv)
    started = _init_ray(args.num_cpus)
    try:
        args.fn(args)
    finally:
        if started:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    main()
