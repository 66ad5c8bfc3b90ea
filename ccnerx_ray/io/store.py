"""Partitioned triple-store sink with per-partition lineage + metrics.

Replaces the reference's ad-hoc JSONL writers (``weibo.py:57-64``, K1) and
its etag-keyed pickle cache (``cache_manager.py:7-45``, A7) with the layout
the north rule requires: Parquet partitioned by ``part = hash(subj) % P``
(co-locating each subject's triples for downstream graph queries), plus a
``_lineage/part={k}.json`` sidecar per partition recording row counts,
bytes, throughput and the engine version — the resume ledger.

Every store is published atomically: :func:`published` stages the data
and its lineage in a hidden sibling directory and makes them visible with
one rename, and readers take only roots whose lineage summary records
``num_partitions`` (:func:`published_roots`). A killed run never
leaves a store that a reader would accept or a resume would double-count
(SURVEY.md §7 "checkpoint correctness").

A written store is worked on partition by partition without a Ray Data
read: :func:`map_partitions` runs one Ray task per ``part=K`` over that
partition's files in every published root, and each task reads row
groups with pyarrow (:func:`row_groups`) and writes at most one file per
partition it holds rows for (:func:`write_partition`). ``compact_store``
and ``update_kg``'s carry-forward run on it.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
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


def refuse_existing(*dirs: str) -> None:
    """Raise ``FileExistsError`` for any of ``dirs`` that already holds
    files: writing into it would append duplicate rows."""
    for d in dirs:
        if os.path.isdir(d) and os.listdir(d):
            raise FileExistsError(
                f"{d} already holds a store; a second write would append "
                "duplicate rows. Use run_resumable for incremental runs or "
                "point at a fresh directory.")


@contextlib.contextmanager
def published(out_dir: str):
    """The one way a store becomes visible. Yields a stage directory
    ``.{name}.tmp-{pid}`` next to ``out_dir``; a clean exit renames it onto
    ``out_dir`` in one rename, a raise removes it. The leading ``.`` keeps
    the stage out of ``ray.data.read_parquet`` (which skips ``.``/``_``
    prefixes) and out of ``chunk=`` walks. Stages of ``out_dir`` left by
    runs whose process is gone (killed before they could clean up) are
    removed first; a live process's stage is left alone."""
    refuse_existing(out_dir)
    parent, name = os.path.split(os.path.abspath(out_dir))
    prefix = f".{name}.tmp-"
    for entry in os.listdir(parent) if os.path.isdir(parent) else []:
        pid = entry[len(prefix):]
        if (entry.startswith(prefix) and pid.isdigit()
                and not _pid_alive(int(pid))):
            shutil.rmtree(os.path.join(parent, entry), ignore_errors=True)
    stage = os.path.join(parent, f"{prefix}{os.getpid()}")
    shutil.rmtree(stage, ignore_errors=True)
    os.makedirs(stage)
    try:
        yield stage
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    os.rename(stage, out_dir)   # replaces an empty out_dir


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 probes without sending)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True     # exists, owned by another user
    return True


def write_triple_store(triples, out_dir: str, num_partitions: int = 16,
                       lineage_extra: dict | None = None) -> dict:
    """Write a triples Dataset as ``out_dir/part={k}/*.parquet`` with
    lineage sidecars, published only once both are written. Returns the
    run-level lineage summary. Each write task leaves one file per
    partition it holds rows for."""
    t0 = time.time()
    with published(out_dir) as stage:
        ds = triples.map_batches(add_part_column(num_partitions),
                                 batch_format="pyarrow")
        ds.write_parquet(stage, partition_cols=["part"])
        wall = time.time() - t0
        # num_partitions goes into the lineage summary: write_parquet only
        # creates directories for NON-EMPTY partitions, so counting part=
        # dirs under-counts P and breaks the lookup modulus (ADVICE r1).
        extra = dict(lineage_extra or {})
        extra["num_partitions"] = num_partitions
        summary = write_lineage(stage, wall, extra)
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
        for fp in parquet_files(pdir):
            rows += pq.read_metadata(fp).num_rows
            nbytes += os.path.getsize(fp)
            files.append(os.path.basename(fp))
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


def amend_summary(store_dir: str, fields: dict) -> None:
    """Add ``fields`` to a published store's lineage summary (what a run
    learns after its store is published, e.g. the entity step's wall
    time). The summary is replaced in one rename: a reader sees the old
    or the new one, never a torn file."""
    path = os.path.join(store_dir, LINEAGE_DIR, "_summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary.update(fields)
    with open(path + ".tmp", "w") as fh:
        json.dump(summary, fh)
    os.replace(path + ".tmp", path)


def parquet_files(part_dir: str) -> list[str]:
    """The Parquet files of one ``part=`` directory ([] if it is absent:
    write_parquet skips empty partitions)."""
    if not os.path.isdir(part_dir):
        return []
    return [os.path.join(part_dir, f) for f in sorted(os.listdir(part_dir))
            if f.endswith(".parquet")]


def published_roots(store_dir: str) -> list[tuple[str, dict]]:
    """A store's published roots (its ``chunk=`` directories, or the store
    itself), each with its lineage summary. Every reader goes through here,
    reading each summary once.

    Raises ``ValueError`` for a root whose ``_lineage/_summary.json`` lacks
    ``num_partitions`` (a run that died before its lineage, or no store),
    and when chunks disagree on it: chunks written with different ``P`` (a
    resume with another ``--partitions``) put one subject in different
    ``part=`` dirs, so any single modulus would silently miss rows."""
    chunks = sorted(d for d in os.listdir(store_dir) if d.startswith("chunk="))
    roots = []
    for root in [os.path.join(store_dir, c) for c in chunks] or [store_dir]:
        path = os.path.join(root, LINEAGE_DIR, "_summary.json")
        summary = {}
        if os.path.isfile(path):
            with open(path) as fh:
                summary = json.load(fh)
        if not summary.get("num_partitions"):
            raise ValueError(
                f"{root} has no lineage summary with num_partitions: it was "
                "never published (a killed run?); rebuild the store")
        roots.append((root, summary))
    moduli = {os.path.basename(r): s["num_partitions"] for r, s in roots}
    if len(set(moduli.values())) > 1:
        raise ValueError(
            f"chunks of {store_dir} disagree on num_partitions {moduli}; "
            "rebuild the store with one partition count")
    return roots


def store_num_partitions(store_dir: str) -> int:
    """The ``part = stable_hash64(subj) % P`` modulus of a store, from its
    lineage — counting ``part=`` dirs is wrong when some partitions were
    empty (write_parquet skips them) and would silently shift the modulus."""
    return published_roots(store_dir)[0][1]["num_partitions"]


def map_partitions(roots: list[tuple[str, dict]], fn, *args,
                   parts=()) -> dict[int, object]:
    """Start ``fn(K, files, *args)`` as one Ray task per partition ``K``,
    over the files of ``part=K`` in every root (a chunked store's
    partition spans its chunks). A carried row never changes partition
    (``part = stable_hash64(subj) % P``), so partition-wise work on a store
    needs no shuffle and no Ray Data read of it. ``parts`` adds partitions
    without a file; their tasks get ``[]``. An ``ObjectRef`` in ``args`` is
    resolved in each task from the object store: ``ray.put`` a shared
    table once, never once per task. Returns ``{K: ObjectRef of fn's
    result}`` without waiting: the caller ``ray.get``s what it needs, or
    passes the refs on (results that feed a Dataset never visit the
    driver)."""
    import ray

    files: dict[int, list[str]] = {}
    for root, _ in roots:
        for d in sorted(os.listdir(root)):
            if d.startswith("part="):
                files.setdefault(int(d[len("part="):]), []).extend(
                    parquet_files(os.path.join(root, d)))
    keys = sorted({k for k, fs in files.items() if fs} | set(parts))
    task = ray.remote(fn)
    return {k: task.remote(k, files.get(k, []), *args) for k in keys}


def row_groups(files: list[str], columns: list[str] | None = None):
    """Yield every row group of ``files`` in order, so a hot
    ``hash(subj)`` partition, which can exceed a worker's heap, is never
    read whole. Reads on the calling thread: a Ray task holds one CPU,
    and a thread pool sized to the machine only adds switching to it."""
    for f in files:
        pf = pq.ParquetFile(f)
        for rg in range(pf.num_row_groups):
            yield pf.read_row_group(rg, columns=columns, use_threads=False)


# tables are coalesced up to this much Arrow data: a partition streams
# through a task without ever being held whole, and a small partition is
# one join call and one row group
ROW_GROUP_BYTES = 64 << 20


def coalesced(tables):
    """Yield the non-empty ``tables`` concatenated into tables of about
    ``ROW_GROUP_BYTES`` (zero-copy: the chunks are kept, not merged).
    Per-call costs, a join's hash table or a row group's pages, are then
    paid once per bound, not once per piece."""
    buf, size = [], 0
    for t in tables:
        if t.num_rows:
            buf.append(t)
            size += t.nbytes
            if size >= ROW_GROUP_BYTES:
                yield pa.concat_tables(buf)
                buf, size = [], 0
    if buf:
        yield pa.concat_tables(buf)


def write_partition(path, tables, schema: pa.Schema) -> int:
    """Stream ``tables`` (cast to ``schema``) into Parquet, one row group
    per :func:`coalesced` table and file, with pyarrow's default writer
    settings as Ray's Parquet sink uses. ``path`` is one file; or, for
    tables that end in an int32 ``part`` column, a function ``K ->
    file``: each coalesced table is then split on ``part`` and partition
    K's rows go to ``path(K)`` without the column. Writes no file for a
    partition without rows. Returns the rows written."""
    split = callable(path)
    cast_to = schema.append(pa.field("part", pa.int32())) if split else schema
    writers, rows = {}, 0
    try:
        for t in coalesced(t.cast(cast_to) for t in tables):
            for f, piece in (_by_part(t, path) if split else [(path, t)]):
                if f not in writers:
                    os.makedirs(os.path.dirname(f), exist_ok=True)
                    writers[f] = pq.ParquetWriter(f, schema)
                writers[f].write_table(piece)
                rows += piece.num_rows
    finally:
        for w in writers.values():
            w.close()
    return rows


def _by_part(t: pa.Table, path):
    """Yield ``(path(K), t's rows with part == K, without part)`` for
    each ``K`` in ``t``."""
    for k in pc.unique(t["part"]).to_pylist():
        yield path(k), t.filter(pc.equal(t["part"], k)).drop_columns(["part"])


def read_triple_store(paths: str | list[str], columns: list[str] | None = None):
    """Read the partitioned store back as a Dataset (column-pruned)."""
    import ray.data

    return ray.data.read_parquet(paths, columns=columns,
                                 file_extensions=["parquet"])


def run_resumable(input_files: list[str], out_dir: str, run_chunk,
                  chunk_size: int = 8) -> dict:
    """Resumable chunked driver: group ``input_files`` into deterministic
    chunks; for each chunk whose output doesn't exist, call
    ``run_chunk(files, chunk_dir)``, which must write a triple store into
    ``chunk_dir`` with ``write_triple_store``. That publishes the chunk, so
    an existing ``chunk=`` directory is a finished one.

    A re-run after a crash skips finished chunks — the per-partition
    lineage sidecars inside each chunk are the checkpoint ledger the north
    rule requires.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = sorted(input_files)
    chunks = [files[i:i + chunk_size] for i in range(0, len(files), chunk_size)]
    done = {d for d in os.listdir(out_dir) if d.startswith("chunk=")}
    ran, skipped = [], []
    for i, chunk in enumerate(chunks):
        name = f"chunk={i:05d}"
        if name in done:
            skipped.append(name)
            continue
        run_chunk(chunk, os.path.join(out_dir, name))
        ran.append(name)
    return {"chunks_total": len(chunks), "chunks_run": ran,
            "chunks_skipped": skipped}


def lookup_subject(store_dir: str, subj: str):
    """Point lookup in the triple store WITHOUT a full scan: ``part =
    stable_hash64(subj) % P`` selects exactly one partition directory, and
    the Parquet filter pushes the subject predicate into row groups — this
    is the read-side payoff of hash-partitioning by subject."""
    import pyarrow.dataset as pds

    from ccnerx_ray.functions.hashing import stable_hash64

    roots = published_roots(store_dir)
    part = stable_hash64(subj) % roots[0][1]["num_partitions"]
    files = [f for r, _ in roots
             for f in parquet_files(os.path.join(r, f"part={part}"))]
    if not files:
        return []
    ds = pds.dataset(files)
    return ds.to_table(filter=pds.field("subj") == subj).to_pylist()


def compact_store(store_dir: str, out_dir: str) -> dict:
    """Compact a (possibly chunked) triple store into one file per
    partition — the small-files remedy after many resumable chunks. One
    Ray task per partition (:func:`map_partitions`), published like every
    store."""
    import ray

    # num_partitions carries over from the source lineage: counting the
    # compacted store's non-empty part= dirs would shift the lookup modulus
    roots = published_roots(store_dir)
    t0 = time.time()
    with published(out_dir) as stage:
        rows = ray.get(list(map_partitions(
            roots, _compact_partition, stage).values()))
        result = write_lineage(
            stage, time.time() - t0,
            {"compacted_from": len(roots),
             "num_partitions": roots[0][1]["num_partitions"]})
    result["rows_check"] = sum(rows)
    return result


def _compact_partition(part: int, files: list[str], dest_dir: str) -> int:
    return write_partition(
        os.path.join(dest_dir, f"part={part}", "compacted-0.parquet"),
        row_groups(files), pq.read_schema(files[0]))
