"""Partitioned triple-store sink with per-partition lineage + metrics.

Replaces the reference's ad-hoc JSONL writers (``weibo.py:57-64``, K1) and
its etag-keyed pickle cache (``cache_manager.py:7-45``, A7) with the layout
the north rule requires: Parquet partitioned by ``part = hash(subj) % P``
(co-locating each subject's triples for downstream graph queries), plus a
``_lineage/part={k}.json`` sidecar per partition recording row counts,
bytes, throughput and the engine version — the resume ledger.

Writes are atomic at the run-chunk level (temp dir + ``os.rename``), so a
killed run never leaves a half-written chunk that a resume would
double-count (SURVEY.md §7 "checkpoint correctness").
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from ccnerx_ray.functions.hashing import stable_hash64_column

LINEAGE_DIR = "_lineage"


def add_part_column(num_partitions: int):
    """map_batches fn: append ``part = stable_hash64(subj) % P`` (stable
    across processes/retries — never Python ``hash()``, SURVEY.md §4)."""

    def _add(batch: pa.Table) -> pa.Table:
        h = stable_hash64_column(batch.column("subj"))
        part = pa.array((h.to_numpy() % num_partitions).astype("int32"),
                        pa.int32())
        return batch.append_column("part", part)

    return _add


def write_triple_store(triples, out_dir: str, num_partitions: int = 16,
                       lineage_extra: dict | None = None,
                       min_rows_per_file: int | None = None) -> dict:
    """Write a triples Dataset as ``out_dir/part={k}/*.parquet`` with
    lineage sidecars. Returns the run-level lineage summary.

    Each write task leaves one file per partition it holds rows for.
    ``min_rows_per_file`` (``Dataset.write_parquet``'s bundling target)
    gathers blocks into tasks of at least that many rows; ``None`` keeps
    one task per upstream block."""
    t0 = time.time()
    if os.path.isdir(out_dir) and any(
            d.startswith("part=") for d in os.listdir(out_dir)):
        raise FileExistsError(
            f"{out_dir} already holds a triple store; a second write would "
            "append duplicate rows. Use run_resumable for incremental runs "
            "or point at a fresh directory.")
    os.makedirs(out_dir, exist_ok=True)
    ds = triples.map_batches(add_part_column(num_partitions),
                             batch_format="pyarrow")
    ds.write_parquet(out_dir, partition_cols=["part"],
                     min_rows_per_file=min_rows_per_file)
    wall = time.time() - t0
    # num_partitions goes into the lineage summary: write_parquet only
    # creates directories for NON-EMPTY partitions, so counting part= dirs
    # under-counts P and breaks the lookup modulus (ADVICE r1).
    extra = dict(lineage_extra or {})
    extra["num_partitions"] = num_partitions
    summary = write_lineage(out_dir, wall, extra)
    return summary


def write_lineage(out_dir: str, wall_s: float,
                  extra: dict | None = None) -> dict:
    """Scan the partitioned store and write per-partition lineage sidecars
    from Parquet footer metadata (no data read)."""
    from ccnerx_ray import __version__

    lin_dir = os.path.join(out_dir, LINEAGE_DIR)
    os.makedirs(lin_dir, exist_ok=True)
    total_rows = 0
    total_bytes = 0
    parts = []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("part="):
            continue
        pdir = os.path.join(out_dir, name)
        rows = 0
        nbytes = 0
        files = []
        for f in sorted(os.listdir(pdir)):
            if not f.endswith(".parquet"):
                continue
            fp = os.path.join(pdir, f)
            meta = pq.read_metadata(fp)
            rows += meta.num_rows
            nbytes += os.path.getsize(fp)
            files.append(f)
        rec = {"partition": name, "rows": rows, "bytes": nbytes,
               "files": files, "engine_version": __version__,
               "wall_s_run": round(wall_s, 3)}
        if extra:
            rec.update(extra)
        with open(os.path.join(lin_dir, f"{name}.json"), "w") as fh:
            json.dump(rec, fh)
        total_rows += rows
        total_bytes += nbytes
        parts.append(rec)
    summary = {"partitions": len(parts), "rows": total_rows,
               "bytes": total_bytes, "wall_s": round(wall_s, 3),
               "rows_per_s": round(total_rows / wall_s, 1) if wall_s > 0 else None,
               "engine_version": __version__}
    if extra:
        summary.update(extra)
    # fold run counters (truncation caps etc.) into the lineage ledger —
    # the "no silent caps" rule: pairs dropped by LSH max_bucket show up
    # here as lsh_rows_truncated / alias_rows_truncated
    from ccnerx_ray.state import metrics as _metrics
    counters = _metrics.snapshot()
    if counters:
        summary["metrics"] = counters
    with open(os.path.join(lin_dir, "_summary.json"), "w") as fh:
        json.dump(summary, fh)
    return summary


def store_summary(store_dir: str) -> dict:
    """The run-level lineage summary of a store (``rows``, ``bytes``,
    ``num_partitions`` …) — ``{}`` when it has none (a chunked store)."""
    path = os.path.join(store_dir, LINEAGE_DIR, "_summary.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def store_num_partitions(store_dir: str) -> int:
    """The ``part = stable_hash64(subj) % P`` modulus of a store, from its
    lineage — counting ``part=`` dirs is wrong when some partitions were
    empty (write_parquet skips them) and would silently shift the modulus.

    In a chunked store every chunk's summary is read and all must agree:
    chunks written with different ``P`` (a resume with another
    ``--partitions``) put one subject in different ``part=`` dirs, so any
    single modulus would silently miss rows — raises ``ValueError``.
    Falls back to the summary's ``partitions`` (stores written before
    ``num_partitions`` was recorded), then to counting ``part=`` dirs."""
    entries = os.listdir(store_dir)
    roots = sorted(d for d in entries if d.startswith("chunk=")) or ["."]
    summaries = [store_summary(os.path.join(store_dir, r)) for r in roots]
    recorded = {r: s["num_partitions"] for r, s in zip(roots, summaries)
                if s.get("num_partitions")}
    if len(set(recorded.values())) > 1:
        raise ValueError(
            f"chunks of {store_dir} disagree on num_partitions {recorded}; "
            "rebuild the store with one partition count")
    if recorded:
        return next(iter(recorded.values()))
    return (summaries[0].get("partitions")
            or sum(1 for d in entries if d.startswith("part=")))


def read_triple_store(paths: str | list[str], columns: list[str] | None = None):
    """Read the partitioned store back as a Dataset (column-pruned)."""
    import ray.data

    return ray.data.read_parquet(paths, columns=columns,
                                 file_extensions=["parquet"])


def completed_chunks(out_dir: str) -> set[str]:
    """Chunk dirs whose atomic rename finished (resume ledger)."""
    if not os.path.isdir(out_dir):
        return set()
    return {d for d in os.listdir(out_dir)
            if d.startswith("chunk=") and
            os.path.isfile(os.path.join(out_dir, d, LINEAGE_DIR, "_summary.json"))}


def run_resumable(input_files: list[str], out_dir: str, run_chunk,
                  chunk_size: int = 8) -> dict:
    """Resumable chunked driver: group ``input_files`` into deterministic
    chunks; for each chunk whose output doesn't exist, call
    ``run_chunk(files, tmp_dir)`` (which must write a triple store incl.
    lineage into ``tmp_dir``), then atomically rename into place.

    A re-run after a crash skips finished chunks — the per-partition
    lineage sidecars inside each chunk are the checkpoint ledger the north
    rule requires.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = sorted(input_files)
    chunks = [files[i:i + chunk_size] for i in range(0, len(files), chunk_size)]
    done = completed_chunks(out_dir)
    ran, skipped = [], []
    for i, chunk in enumerate(chunks):
        name = f"chunk={i:05d}"
        if name in done:
            skipped.append(name)
            continue
        tmp = os.path.join(out_dir, f".tmp-{name}-{os.getpid()}")
        if os.path.isdir(tmp):
            import shutil
            shutil.rmtree(tmp)
        run_chunk(chunk, tmp)
        os.rename(tmp, os.path.join(out_dir, name))
        ran.append(name)
    return {"chunks_total": len(chunks), "chunks_run": ran,
            "chunks_skipped": skipped}


def lookup_subject(store_dir: str, subj: str, num_partitions: int | None = None):
    """Point lookup in the triple store WITHOUT a full scan: ``part =
    stable_hash64(subj) % P`` selects exactly one partition directory, and
    the Parquet filter pushes the subject predicate into row groups — this
    is the read-side payoff of hash-partitioning by subject."""
    import pyarrow.dataset as pds

    from ccnerx_ray.functions.hashing import stable_hash64

    if num_partitions is None:
        num_partitions = store_num_partitions(store_dir)

    part = stable_hash64(subj) % num_partitions
    roots = []
    entries = os.listdir(store_dir)
    if any(d.startswith("chunk=") for d in entries):
        for c in sorted(d for d in entries if d.startswith("chunk=")):
            p = os.path.join(store_dir, c, f"part={part}")
            if os.path.isdir(p):
                roots.append(p)
    else:
        p = os.path.join(store_dir, f"part={part}")
        if os.path.isdir(p):
            roots.append(p)
    if not roots:
        return []
    files = [os.path.join(r, f) for r in roots for f in sorted(os.listdir(r))
             if f.endswith(".parquet")]
    ds = pds.dataset(files)
    return ds.to_table(filter=pds.field("subj") == subj).to_pylist()


def compact_store(store_dir: str, out_dir: str,
                  num_partitions: int | None = None) -> dict:
    """Compact a (possibly chunked) triple store into one file per
    partition — the small-files remedy after many resumable chunks. One
    Ray task per partition (embarrassingly parallel; partition dirs never
    overlap), atomic via temp dir + rename."""
    import shutil

    import ray

    # carry num_partitions from the source store's lineage: without it a
    # compacted store's lookup modulus would fall back to counting
    # non-empty part= dirs (the very under-count bug lookup_subject fixes).
    # Read first: chunks written with different moduli must not be merged.
    src_np = store_num_partitions(store_dir)
    entries = os.listdir(store_dir)
    chunked = [d for d in sorted(entries) if d.startswith("chunk=")]
    roots = ([os.path.join(store_dir, c) for c in chunked]
             if chunked else [store_dir])
    parts: dict[str, list[str]] = {}
    for root in roots:
        for d in sorted(os.listdir(root)):
            if d.startswith("part="):
                pdir = os.path.join(root, d)
                parts.setdefault(d, []).extend(
                    os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                    if f.endswith(".parquet"))

    tmp = out_dir.rstrip("/") + f".tmp-{os.getpid()}"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)

    @ray.remote
    def compact_one(part_name: str, files: list[str], dest_dir: str) -> int:
        # stream row groups through a ParquetWriter: peak memory is one
        # row group, not the whole partition (a hot hash(subj) partition
        # can exceed worker heap if concatenated — VERDICT r1 #7)
        pdir = os.path.join(dest_dir, part_name)
        os.makedirs(pdir, exist_ok=True)
        schema = pq.read_schema(files[0])
        rows = 0
        with pq.ParquetWriter(
                os.path.join(pdir, "compacted-0.parquet"), schema) as w:
            for f in files:
                pf = pq.ParquetFile(f)
                for rg in range(pf.num_row_groups):
                    t = pf.read_row_group(rg).cast(schema)
                    w.write_table(t)
                    rows += t.num_rows
        return rows

    t0 = time.time()
    rows = ray.get([compact_one.remote(p, fs, tmp)
                    for p, fs in sorted(parts.items())])
    extra = {"compacted_from": len(roots)}
    if num_partitions or src_np:
        extra["num_partitions"] = num_partitions or src_np
    summary = write_lineage(tmp, time.time() - t0, extra)
    os.rename(tmp, out_dir)
    summary["rows_check"] = sum(rows)
    return summary
