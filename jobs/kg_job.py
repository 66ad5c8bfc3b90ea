#!/usr/bin/env python
"""KG-construction job — the ``ray job submit`` entry point.

On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/kg_job.py --input s3://bucket/corpus --output s3://bucket/store

Locally (owns its Ray session, like every CLI in this repo):

    python jobs/kg_job.py --input /path/corpus --output /path/store

The job is RESUMABLE: input Parquet files are processed in deterministic
chunks, each written atomically with per-partition lineage sidecars; a
re-run after a failure skips finished chunks (``--no-resume`` forces a
monolithic single run into a fresh directory).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="corpus Parquet dir (repo,path,commit,lang,content)")
    ap.add_argument("--output", required=True, help="triple-store dir")
    ap.add_argument("--catalog", default=None,
                    help="entity catalog JSONL ({word,label}); default: "
                    "built-in synthetic catalog (seed 42)")
    ap.add_argument("--partitions", type=int, default=None,
                    help="hash(subj) partitions of the store (default: 64; "
                    "with --update-from, the old store's)")
    ap.add_argument("--chunk-size", type=int, default=16,
                    help="input files per resumable chunk")
    ap.add_argument("--no-resume", action="store_true",
                    help="single monolithic run (fresh output dir required)")
    ap.add_argument("--update-from", default=None, metavar="OLD_STORE",
                    help="incremental delta update: carry forward triples "
                    "of unchanged (repo,path,commit,content_sha256) docs "
                    "from OLD_STORE and re-tag ONLY new/changed docs "
                    "(pipelines/kg.py:update_kg); output must be fresh")
    ap.add_argument("--include-structure", action="store_true",
                    help="also stream the code-structure edges (import/"
                    "def/class/call/callarg, file-distinct, full "
                    "provenance) into the same store — ops/code.py:"
                    "file_structure_triples")
    ap.add_argument("--compact", action="store_true",
                    help="after a chunked run, compact the store into one "
                    "file per partition (streaming row-group copy) at "
                    "<output>_compacted")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode only; on a cluster leave unset")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        if args.num_cpus:
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False)
        else:
            ray.init()   # cluster: RAY_ADDRESS / job-submission context
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # lineage counters should reflect THIS run only (metrics are
    # session-cumulative otherwise; see state/metrics.py semantics)
    from ccnerx_ray.state import metrics as _metrics
    _metrics.reset()

    from ccnerx_ray.config import PipelineConfig
    from ccnerx_ray.io.store import run_resumable
    from ccnerx_ray.pipelines.kg import run_kg
    from ccnerx_ray.state.catalog import EntityCatalog

    if args.catalog:
        catalog = sorted(
            EntityCatalog.from_jsonl(args.catalog).surface2label.items())
    else:
        from ccnerx_ray.corpus import build_catalog
        catalog = sorted(build_catalog(42).surface2label.items())

    if args.partitions is None:
        from ccnerx_ray.io.store import store_num_partitions
        # an update keeps the old store's modulus unless asked to change
        # it: another P re-buckets every carried row
        args.partitions = (store_num_partitions(args.update_from)
                           if args.update_from else 64)
    n = int(ray.cluster_resources().get("CPU", 8))
    cfg = PipelineConfig(read_parallelism=n * 8,
                         output_partitions=args.partitions)

    t0 = time.time()
    if args.update_from:
        from ccnerx_ray.pipelines.kg import update_kg
        summary = update_kg(args.input, catalog, args.update_from,
                            args.output, cfg,
                            include_structure=args.include_structure)
    elif args.no_resume:
        summary = run_kg(args.input, catalog, args.output, cfg,
                         include_structure=args.include_structure)
    else:
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        if not files:
            print(f"no parquet files under {args.input}", file=sys.stderr)
            return 2

        def run_chunk(chunk_files, chunk_dir):
            run_kg(chunk_files, catalog, chunk_dir, cfg, build_entities=False,
                   include_structure=args.include_structure)

        summary = run_resumable(files, args.output, run_chunk,
                                chunk_size=args.chunk_size)
        # entity table over the full (chunked) store — cheap relative to
        # the corpus pass; rebuilt whenever any chunk ran
        if summary["chunks_run"]:
            from ccnerx_ray.pipelines.kg import _entities_dir, _write_entities
            shutil.rmtree(_entities_dir(args.output), ignore_errors=True)
            summary["entities_path"] = _write_entities(args.output)
    if args.compact and not args.no_resume:
        from ccnerx_ray.io.store import compact_store
        cpath = args.output.rstrip("/") + "_compacted"
        shutil.rmtree(cpath, ignore_errors=True)
        summary["compacted"] = compact_store(args.output, cpath)
        summary["compacted_path"] = cpath
    summary["wall_s"] = round(time.time() - t0, 3)
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
