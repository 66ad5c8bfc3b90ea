#!/usr/bin/env python
"""Graph-analytics job over a PERSISTED triple store — the operational
path for the traversal family: the store built by ``jobs/kg_job.py``
feeds walks / BFS / link prediction / components / PageRank WITHOUT
re-running the tagger (the store exists precisely so downstream
analytics never pay mention detection twice).

On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/graph_job.py --store s3://bucket/store \
            --op walks --output s3://bucket/walks

Locally (owns its Ray session, like every CLI in this repo):

    python jobs/graph_job.py --store /path/store --op node2vec \
        --output /path/walks --num-cpus 8

Reads ONLY the (subj, pred, obj) columns of the hive-partitioned store
(column pruning at the read — provenance columns never leave storage),
filters to the requested predicate, and writes partitioned Parquet plus
a ``_lineage/graph_job.json`` sidecar recording op, params, row counts
and wall time."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

OPS = ("walks", "walks_weighted", "node2vec", "skipgram", "bfs",
       "linkpred", "components", "pagerank", "degrees")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--store", required=True,
                    help="triple-store dir (jobs/kg_job.py output)")
    ap.add_argument("--output", required=True, help="result Parquet dir")
    ap.add_argument("--op", required=True, choices=OPS)
    ap.add_argument("--pred", default="co_occurs_with",
                    help="predicate forming the graph edges")
    ap.add_argument("--length", type=int, default=4,
                    help="walk length (walks/node2vec/skipgram)")
    ap.add_argument("--window", type=int, default=2,
                    help="skip-gram window (skipgram)")
    ap.add_argument("--max-depth", type=int, default=3,
                    help="BFS depth cap (bfs)")
    ap.add_argument("--seed-prefix", default="0123",
                    help="bfs: seed entities whose id starts with any of "
                    "these characters")
    ap.add_argument("--top-n", type=int, default=25,
                    help="linkpred: candidate pairs kept")
    ap.add_argument("--iterations", type=int, default=3,
                    help="pagerank iterations")
    ap.add_argument("--output-partitions", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode only; on a cluster leave unset")
    args = ap.parse_args()

    # data and sidecar go through the output's own filesystem (s3:// too).
    # A re-run must fail rather than append: checked here, before any
    # work, because Ray 2.49's write_parquet(mode="error") hands "error" to
    # every write task, so a fresh output written by several tasks fails.
    from pyarrow.fs import FileSystem, FileType
    fs, root = FileSystem.from_uri(
        args.output if "://" in args.output else os.path.abspath(args.output))
    if fs.get_file_info(root).type != FileType.NotFound:
        raise FileExistsError(f"{args.output} already exists; a re-run "
                              "would append to it. Use a fresh output.")

    import ray

    if not ray.is_initialized():
        if args.num_cpus:
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False)
        else:
            ray.init()
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ccnerx_ray.functions.grouping import drop_duplicate_rows

    t0 = time.time()
    # column-pruned read of the hive store; provenance columns stay put
    ds = ray.data.read_parquet(args.store,
                               columns=["subj", "pred", "obj"])
    pred = args.pred

    def to_edges(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("pred"), pred))
        return pa.table({"u": b.column("subj"), "v": b.column("obj")})

    edges = ds.map_batches(to_edges, batch_format="pyarrow")

    if args.op == "walks":
        from ccnerx_ray.ops.walks import random_walks
        out = random_walks(edges, length=args.length)
    elif args.op == "walks_weighted":
        import numpy as np

        from ccnerx_ray.functions.grouping import grouped_reduce
        from ccnerx_ray.ops.walks import random_walks

        def ones(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "w", pa.array(np.ones(batch.num_rows, dtype=np.int64)))

        weighted = grouped_reduce(
            edges.map_batches(ones, batch_format="pyarrow"),
            ["u", "v"], {"w": "sum"}, num_buckets=16,
            out_dtypes={"u": "string", "v": "string", "w": "int64"},
            pre_combine=True)
        out = random_walks(weighted, length=args.length, salt="wwalk",
                           weight_col="w")
    elif args.op == "node2vec":
        from ccnerx_ray.ops.walks import node2vec_walks
        out = node2vec_walks(drop_duplicate_rows(edges, ["u", "v"]),
                             length=args.length)
    elif args.op == "skipgram":
        from ccnerx_ray.ops.walks import random_walks, skipgram_pairs
        out = skipgram_pairs(random_walks(edges, length=args.length),
                             window=args.window)
    elif args.op == "bfs":
        from ccnerx_ray.ops.walks import bfs_distances
        em = edges.materialize()   # two consumers: seeds + graph
        chars = sorted(set(args.seed_prefix))

        def seed_rows(batch: pa.Table) -> pa.Table:
            ent = pa.chunked_array(
                [batch.column("u").combine_chunks(),
                 batch.column("v").combine_chunks()], type=pa.string())
            keep = pc.is_in(pc.utf8_slice_codeunits(ent, 0, 1),
                            value_set=pa.array(chars))
            return pa.table({"entity": ent.filter(keep)})

        out = bfs_distances(
            em, em.map_batches(seed_rows, batch_format="pyarrow"),
            max_depth=args.max_depth)
    elif args.op == "linkpred":
        from ccnerx_ray.ops.walks import common_neighbor_pairs
        out = common_neighbor_pairs(edges, top_n=args.top_n)
    elif args.op == "components":
        from ccnerx_ray.ops.graph import connected_components
        out = connected_components(edges)
    elif args.op == "pagerank":
        from ccnerx_ray.ops.graph import pagerank_int
        out = pagerank_int(drop_duplicate_rows(edges, ["u", "v"]),
                           iterations=args.iterations)
    else:   # degrees
        from ccnerx_ray.ops.graph import (degree_counts, symmetrize)
        out = degree_counts(
            symmetrize(drop_duplicate_rows(edges, ["u", "v"])), "u")

    # the output held nothing before this write and the sidecar comes
    # after the count, so the footer count sees exactly this run's rows
    out = out.repartition(args.output_partitions)
    out.write_parquet(args.output)
    n = ray.data.read_parquet(args.output,
                              file_extensions=["parquet"]).count()

    summary = {"op": args.op, "pred": pred, "rows": int(n),
               "wall_s": round(time.time() - t0, 2),
               "params": {k: v for k, v in vars(args).items()
                          if k not in ("store", "output", "num_cpus")}}
    fs.create_dir(f"{root}/_lineage")
    with fs.open_output_stream(f"{root}/_lineage/graph_job.json") as f:
        f.write(json.dumps(summary).encode())
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
