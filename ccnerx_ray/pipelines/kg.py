"""The flagship KG-construction pipeline (SURVEY.md §3.1 RD shape):

``read_parquet(corpus)`` → ``map_batches(segment)`` →
``map_batches(fused tag + link + emit task)`` → partitioned triple store;
the canonical entity table is then derived from the (small) store — the
only shuffle in the whole job.

``update_kg`` refreshes a store from a new corpus. The corpus is keyed
once into a doc-scale table; the old store's document keys are its
``in_repo`` rows (one per document), so no distinct over its triples
runs. Only new or changed documents are re-tagged. The old store is
already partitioned by subject and a carried row never changes
partition, so while the corpus key table is under the broadcast bound
the carry-forward is partition-local: one pyarrow Ray task per
``part=K`` reads the old doc keys, then one per ``part=K`` keeps the
old rows whose doc key is still in the corpus, appends the tagged
delta's rows and writes one file. The old store is never read through
Ray Data, shuffled or re-bucketed, and the duplicate check and doc
counts run on the driver with pyarrow. Past the bound the carry-forward
is a Dataset semi join of the keyed old store (``adaptive_join``).

Every triple-scale shuffle on these paths is sized from the ``bytes`` of
the stores' lineage through one rule, ``grouping.derive_hash_partitions``
— no fan-out is hard-coded; the Dataset update's write width comes from
the old store's lineage ``rows`` and ``bytes``.

Every stage streams: no ``materialize()``/``take_all()`` on big data, the
wide ``content`` column dies at segmentation, and the catalog is broadcast
once via ``ray.put`` and read once per worker process — never re-shipped
per batch and never shuffled.
"""

from __future__ import annotations

import contextlib
import itertools
import time

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.stages.canonical import entities_from_triples
from ccnerx_ray.stages.segment import make_segmenter
from ccnerx_ray.stages.tag import make_fused_tagger_fn


def read_corpus(paths, cfg: PipelineConfig = PipelineConfig()):
    """Corpus source. Column pruning happens at the read (all five corpus
    columns are needed here; narrower derived reads must pass
    ``columns=[...]``)."""
    import ray.data

    kwargs = {}
    if cfg.read_parallelism and cfg.read_parallelism > 0:
        kwargs["override_num_blocks"] = cfg.read_parallelism
    return ray.data.read_parquet(paths, file_extensions=["parquet"], **kwargs)


def _broadcast_catalog(catalog_pairs):
    import ray

    return ray.put(list(catalog_pairs))


def segments_dataset(corpus, cfg: PipelineConfig = PipelineConfig()):
    return corpus.map_batches(make_segmenter(cfg), batch_format="pyarrow")


def _tagged(corpus, catalog_pairs, cfg: PipelineConfig, emit: str):
    """The one tagging driver: broadcast the catalog once, segment, then
    tag + link + emit in one task-based ``map_batches`` pass
    (``make_fused_tagger_fn``; ``emit`` picks the output shape)."""
    ref = _broadcast_catalog(catalog_pairs)
    return segments_dataset(corpus, cfg).map_batches(
        make_fused_tagger_fn(ref, cfg, emit=emit),
        batch_format="pyarrow",
        batch_size=cfg.featurize_batch_size,
    )


def triples_dataset(corpus, catalog_pairs, cfg: PipelineConfig = PipelineConfig()):
    """corpus → triples Dataset (still streaming, unwritten)."""
    return _tagged(corpus, catalog_pairs, cfg, "triples")


def mentions_dataset_join(corpus, lexicon_pairs, catalog_ds,
                          cfg: PipelineConfig = PipelineConfig(), *,
                          broadcast_bytes: int | None = None,
                          catalog_bytes_hint: int | None = None,
                          max_label_num: int = 3):
    """corpus → flat linked mention table with the link catalog as a
    DATASET (VERDICT r4 #1 — the at-scale path): tagging uses the
    bounded ``lexicon_pairs`` (the reference's ≤ ``max_scan_num`` trie
    regime) broadcast once; LINKING hash-partition joins the exploded
    mentions against ``catalog_ds`` (``(surface, norm_key, label)``
    rows — e.g. ``read_parquet(catalog_path)``), which never lands on
    the driver when it exceeds ``broadcast_bytes``. Output is
    bit-identical to ``mentions_dataset`` when both see the same
    catalog (test-enforced)."""
    from ccnerx_ray.stages.link import link_exploded_mentions

    return link_exploded_mentions(
        _tagged(corpus, lexicon_pairs, cfg, "mentions_raw"), catalog_ds,
        max_label_num=max_label_num, broadcast_bytes=broadcast_bytes,
        catalog_bytes_hint=catalog_bytes_hint)


def mentions_dataset(corpus, catalog_pairs, cfg: PipelineConfig = PipelineConfig()):
    """corpus → flat linked mention table (M5 output, for analysis paths)."""
    return _tagged(corpus, catalog_pairs, cfg, "mentions")


def input_fingerprint(paths) -> dict:
    """Lineage input fingerprint (SURVEY §4): source paths + per-file size
    and mtime digest — enough to detect a changed input on resume without
    re-hashing file contents (the per-row ``content_sha256`` carries the
    strong invariant)."""
    import glob
    import hashlib
    import os as _os

    if isinstance(paths, str):
        if _os.path.isdir(paths):
            files = sorted(glob.glob(_os.path.join(paths, "*.parquet")))
        else:
            files = [paths]
    else:
        files = sorted(paths)
    h = hashlib.sha256()
    for f in files:
        try:
            st = _os.stat(f)
            h.update(f"{f}|{st.st_size}|{int(st.st_mtime)}".encode())
        except OSError:
            h.update(f"{f}|?".encode())
    return {"input_files": len(files),
            "input_fingerprint": h.hexdigest()[:16]}


def run_kg(corpus_paths, catalog_pairs, out_dir: str,
           cfg: PipelineConfig = PipelineConfig(),
           build_entities: bool = True,
           include_structure: bool = False) -> dict:
    """End-to-end: corpus Parquet → partitioned triple store (+ lineage)
    → canonical entity table derived from the store. Returns lineage
    summary + entity count.

    ``include_structure=True`` additionally streams the code-structure
    edges (``ops/code.py:file_structure_triples``) into the SAME store —
    the corpus Parquet is read a second time for that branch (the
    ``update_kg`` precedent: re-reading beats holding 10^12 files'
    content in the object store as a union input), and both branches
    stream independently under the executor."""
    from ccnerx_ray.io.store import refuse_existing, write_triple_store

    # a rebuild must fail here, not after tagging the whole corpus
    refuse_existing(out_dir, _entities_dir(out_dir))
    corpus = read_corpus(corpus_paths, cfg)
    triples = triples_dataset(corpus, catalog_pairs, cfg)
    if include_structure:
        from ccnerx_ray.ops.code import file_structure_triples
        triples = triples.union(
            file_structure_triples(read_corpus(corpus_paths, cfg)))
    summary = write_triple_store(triples, out_dir, cfg.output_partitions,
                                 lineage_extra=input_fingerprint(corpus_paths))
    # empty corpus → empty store; nothing to canonicalize
    summary["entities_path"] = (_write_entities(out_dir)
                                if build_entities and summary["rows"] else None)
    return summary


def _entities_dir(store_dir: str) -> str:
    return store_dir.rstrip("/") + "_entities"


def _write_entities(store_dir: str) -> str:
    """Derive the canonical entity table from a published (flat or
    chunked) store and publish it next to the store; the shuffle is sized
    from the bytes the store's lineage records. Returns the entity table's
    path."""
    from ccnerx_ray.io.store import (published, published_roots,
                                     read_triple_store)

    roots = published_roots(store_dir)
    store = read_triple_store([r for r, _ in roots], columns=[
        "subj", "pred", "norm_key", "surface", "label"])
    ents_path = _entities_dir(store_dir)
    with published(ents_path) as stage:
        entities_from_triples(store, input_bytes=sum(
            s["bytes"] for _, s in roots)).write_parquet(stage)
    return ents_path


def _doc_key_batch(cols: list[str], sha_col: str | None = None):
    """Append a ``_doc_key`` column: the full document identity
    ``repo␟path␟commit␟content_sha256`` (an exact string key — no digest,
    so the carry-forward semantics cannot collide)."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    def add(batch: _pa.Table) -> _pa.Table:
        parts = [batch.column(c) for c in cols]
        if sha_col is None:
            from ccnerx_ray.functions.hashing import sha256_hex
            sha = _pa.array([sha256_hex(t or "")
                             for t in batch.column("content").to_pylist()],
                            _pa.string())
            batch = batch.append_column("content_sha256", sha)
            parts.append(sha)
        else:
            parts.append(batch.column(sha_col))
        key = parts[0]
        for p in parts[1:]:
            key = _pc.binary_join_element_wise(key, p, "\x1f")
        return batch.append_column("_doc_key", key)

    return add


def _refuse_duplicate_docs(keys, cols: list[str]) -> None:
    """Raise ``ValueError`` when two rows of the doc-scale key table share
    ``cols``. Rows with a null key column are skipped (the segmenter
    quarantines them). ``keys`` is a pyarrow table on the driver, or a
    Dataset past the broadcast bound: then the count runs on the cluster
    and at most one duplicated key reaches the driver."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    if isinstance(keys, _pa.Table):
        count = "count_all"
        groups = keys.select(cols).drop_null().group_by(cols).aggregate(
            [([], count)])
        dup = groups.filter(_pc.greater(groups[count], 1)).slice(
            0, 1).to_pylist()
    else:
        count = "count()"

        def repeated(batch):
            return batch.filter(_pc.greater(batch.column(count), 1))

        dup = (keys.select_columns(cols)
               .map_batches(lambda b: b.drop_null(), batch_format="pyarrow")
               .groupby(cols).count()
               .map_batches(repeated, batch_format="pyarrow").take(1))
    if dup:
        raise ValueError(
            f"corpus has {dup[0][count]} rows for document "
            f"{tuple(dup[0][c] for c in cols)}; {tuple(cols)} must be "
            "unique per row")


KEY_COLS = ["repo", "path", "commit"]
DOC_KEY = KEY_COLS + ["content_sha256"]


def update_kg(corpus_paths, catalog_pairs, old_store_dir: str,
              out_dir: str, cfg: PipelineConfig = PipelineConfig(),
              build_entities: bool = True,
              include_structure: bool = False) -> dict:
    """INCREMENTAL KG update (the north rule's resumability taken to its
    10^12-file conclusion: a daily corpus drop must not re-tag the
    world). Documents are identified by the exact key (repo, path,
    commit, content_sha256). The corpus is keyed once into a doc-scale
    table; the old store's keys are its ``in_repo`` rows (one per
    document, ``stages/triples.py:filter_in_repo``) — no distinct over
    the store's triples. Triples of documents still present carry
    forward UNTAGGED; only NEW keys (changed content, new or moved
    files) run through the tagger; triples of removed or changed
    documents are dropped.

    The old store is already partitioned by ``part = stable_hash64(subj)
    % P`` and a carried row never changes partition, so while the corpus
    key table is under ``adaptive_join``'s broadcast bound and the old
    store's ``P`` is ``cfg.output_partitions``, the carry-forward is
    partition-local (``carry: "partition"``) and never reads the old
    store through Ray Data:

    * the driver pulls the corpus key table and runs the duplicate check
      and the doc counts on it with pyarrow;
    * round A, one Ray task per ``part=K`` (``io/store.py:
      map_partitions``), reads only the ``in_repo`` rows' key columns:
      together they are the old doc keys;
    * the delta (the corpus anti-joined against the old keys) is tagged,
      given its ``part`` and kept as Arrow blocks in the object store;
    * round B, one task per partition, keeps its old rows whose doc key
      is in the corpus key table (a multi-key left semi join; null keys
      never match), appends its fresh rows, and streams them into one
      file, so an updated store has a build's layout.

    Past the bound (or for another ``P``) the carry-forward is a Dataset
    plan (``carry: "dataset"``): a keyed read of the old store, a
    left-semi ``adaptive_join`` against the corpus keys, and a write
    bundled to one task per ``PARTITION_BYTES`` of store.

    The result is bit-equal to a fresh full ``run_kg`` over the new
    corpus (test-enforced at the triple-multiset level) while the tagger
    — the expensive stage — touches only the delta. Lineage records
    ``docs_retagged`` / ``docs_total`` so a run can prove how little it
    did, ``carry``, and ``phases_s`` (wall seconds per phase); the
    partition path adds ``rows_carried`` and ``rows_fresh``. Corpus rows
    must be unique per (repo, path, commit): a duplicate raises
    ``ValueError`` before any store is staged."""
    from ccnerx_ray.io.store import (amend_summary, published_roots,
                                     refuse_existing)
    from ccnerx_ray.ops import join

    refuse_existing(out_dir, _entities_dir(out_dir))
    phases: dict = {}
    with _phase(phases, "corpus_keys"):
        old_roots = published_roots(old_store_dir)
        # the corpus is keyed twice — into the doc-scale key table here
        # and by the anti join that feeds the tagger; its content is NEVER
        # materialized: re-reading the Parquet beats holding 10^12 files'
        # content in the object store
        corpus = read_corpus(corpus_paths, cfg).map_batches(
            _doc_key_batch(KEY_COLS), batch_format="pyarrow")
        corpus_keys = corpus.select_columns(
            DOC_KEY + ["_doc_key"]).materialize()
        keys = None
        if old_roots[0][1]["num_partitions"] == cfg.output_partitions:
            keys = join._broadcast_build(
                corpus_keys, join.BROADCAST_BYTES_DEFAULT,
                corpus_keys.size_bytes())
        if keys is not None and not keys.num_columns:   # an empty corpus
            keys = _string_table(DOC_KEY + ["_doc_key"])
        _refuse_duplicate_docs(corpus_keys if keys is None else keys,
                               KEY_COLS)
    extra = dict(input_fingerprint(corpus_paths), updated_from=old_store_dir)

    def fresh_triples(fresh_corpus):
        return _fresh_triples(fresh_corpus, catalog_pairs, cfg,
                              include_structure)

    if keys is None:
        with _phase(phases, "carry"):
            summary = _carry_dataset(corpus, corpus_keys, old_roots,
                                     fresh_triples, out_dir, cfg, extra)
    else:
        summary = _carry_partitions(corpus, keys, old_roots, fresh_triples,
                                    out_dir, cfg, extra, phases)
    with _phase(phases, "entities"):
        summary["entities_path"] = (
            _write_entities(out_dir)
            if build_entities and summary["rows"] else None)
    summary["phases_s"] = phases
    amend_summary(out_dir, {"phases_s": phases})
    return summary


@contextlib.contextmanager
def _phase(phases: dict, name: str):
    """Record the wall seconds of the ``with`` body as ``phases[name]``."""
    t = time.perf_counter()
    yield
    phases[name] = round(time.perf_counter() - t, 3)


def _string_table(cols: list[str]):
    """A zero-row table of string columns ``cols``."""
    import pyarrow as pa

    return pa.schema([(c, pa.string()) for c in cols]).empty_table()


def _fresh_triples(fresh_corpus, catalog_pairs, cfg: PipelineConfig,
                   include_structure: bool):
    """The delta's triples. With structure on, the structural edges of
    unchanged docs carry forward with their doc key like every other
    triple; only the delta re-extracts. The delta is an anti join, not a
    semi join on fresh keys, so null-key rows (which the tagger skips but
    structure extraction keeps) stay in it. ``fresh_corpus`` is lazy — the
    structure branch re-runs the anti join (another corpus pass) rather
    than materializing the delta (delta content can itself be huge)."""
    fresh = triples_dataset(fresh_corpus, catalog_pairs, cfg)
    if include_structure:
        from ccnerx_ray.ops.code import file_structure_triples
        fresh = fresh.union(file_structure_triples(fresh_corpus))
    return fresh


def _old_doc_keys(part: int, files: list[str]):
    """Round A task: the doc keys of partition ``part``'s ``in_repo``
    rows; the predicate and the column list are pushed into the scan."""
    import pyarrow.dataset as pds

    return pds.dataset(files, format="parquet").to_table(
        columns=DOC_KEY, filter=pds.field("pred") == "in_repo",
        use_threads=False)


def _carry_partition(part: int, files: list[str], keys, stage: str,
                     *delta) -> tuple[int, int]:
    """Round B task: partition ``part``'s old rows whose doc key is in
    ``keys`` (the corpus key table; a left semi join, where null keys
    never match, per :func:`~ccnerx_ray.io.store.coalesced` run of row
    groups: each join call hashes the whole key table), then its rows of
    the ``delta`` blocks, streamed into one file (none for an empty
    partition). Returns (rows carried, rows fresh)."""
    import os

    import pyarrow.compute as pc

    from ccnerx_ray.io.store import coalesced, row_groups, write_partition
    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA

    names = TRIPLE_SCHEMA.names
    fresh = [b.filter(pc.equal(b["part"], part)).select(names)
             for b in delta if b.num_rows]
    n_fresh = sum(b.num_rows for b in fresh)
    carried = (t.join(keys, keys=DOC_KEY, join_type="left semi",
                      use_threads=False)
               for t in coalesced(row_groups(files, columns=names)))
    rows = write_partition(
        os.path.join(stage, f"part={part}", "part-0.parquet"),
        itertools.chain(carried, fresh), TRIPLE_SCHEMA)
    return rows - n_fresh, n_fresh


def _carry_partitions(corpus, keys, old_roots, fresh_triples, out_dir: str,
                      cfg: PipelineConfig, extra: dict, phases: dict) -> dict:
    """The partition-local carry-forward (see :func:`update_kg`);
    ``keys`` is the corpus key table on the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from ccnerx_ray.io.store import (add_part_column, map_partitions,
                                     published, write_lineage)
    from ccnerx_ray.ops.join import adaptive_join

    with _phase(phases, "round_a"):
        old = list(map_partitions(old_roots, _old_doc_keys).values())
        old_keys = _doc_key_batch(KEY_COLS, sha_col="content_sha256")(
            pa.concat_tables(old) if old else _string_table(DOC_KEY)
        ).select(["_doc_key"])
        # null corpus keys never match: those rows count as retagged
        hit = pc.is_in(keys["_doc_key"], value_set=pc.drop_null(
            old_keys["_doc_key"]))
        extra.update(docs_total=keys.num_rows,
                     docs_retagged=keys.num_rows - (pc.sum(hit).as_py() or 0))

    num_partitions = cfg.output_partitions
    with _phase(phases, "delta_tagging"):
        fresh_corpus = adaptive_join(
            corpus, ray.data.from_arrow(old_keys), on="_doc_key",
            join_type="left_anti", build_bytes_hint=old_keys.nbytes,
        ).drop_columns(["_doc_key", "content_sha256"])
        # materialized first: to_arrow_refs on a lazy Dataset asks for its
        # schema after the run and executes part of the plan again
        delta_refs = fresh_triples(fresh_corpus).map_batches(
            add_part_column(num_partitions),
            batch_format="pyarrow").materialize().to_arrow_refs()

    with _phase(phases, "round_b"), published(out_dir) as stage:
        t = time.time()
        # the key table is put once and every ref is a top-level
        # argument: Ray resolves it before the task starts, zero-copy
        counts = list(map_partitions(
            old_roots, _carry_partition, ray.put(keys.select(DOC_KEY)),
            stage, *delta_refs, parts=range(num_partitions)).values())
        extra.update(carry="partition",
                     rows_carried=sum(c for c, _ in counts),
                     rows_fresh=sum(f for _, f in counts),
                     num_partitions=num_partitions)
        summary = write_lineage(stage, time.time() - t, extra)
    return summary


def _carry_dataset(corpus, corpus_keys, old_roots, fresh_triples,
                   out_dir: str, cfg: PipelineConfig, extra: dict) -> dict:
    """The Dataset carry-forward, past the broadcast bound: a keyed read
    of the old store, left-semi ``adaptive_join``-ed against the corpus
    key table (which picks a hash join sized from the old store's
    lineage bytes), union the tagged delta, write."""
    from ccnerx_ray.functions.grouping import PARTITION_BYTES
    from ccnerx_ray.io.store import read_triple_store, write_triple_store
    from ccnerx_ray.ops.join import adaptive_join
    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA, filter_in_repo

    old_paths = [r for r, _ in old_roots]
    old_bytes = sum(s["bytes"] for _, s in old_roots) or None
    # the old store's document keys: its in_repo rows, one per document
    old_keys = read_triple_store(
        old_paths, columns=DOC_KEY + ["pred"],
    ).map_batches(filter_in_repo, batch_format="pyarrow").map_batches(
        _doc_key_batch(KEY_COLS, sha_col="content_sha256"),
        batch_format="pyarrow").select_columns(["_doc_key"]).materialize()

    old = read_triple_store(old_paths).map_batches(
        _doc_key_batch(KEY_COLS, sha_col="content_sha256"),
        batch_format="pyarrow")
    tcols = [f.name for f in TRIPLE_SCHEMA]

    def strip_key(batch):
        import pyarrow as _pa
        return batch.select(tcols).cast(_pa.schema(TRIPLE_SCHEMA))

    kept = adaptive_join(
        old, corpus_keys, on="_doc_key", join_type="left_semi",
        probe_bytes_hint=old_bytes,
    ).map_batches(strip_key, batch_format="pyarrow")

    # counted over the two doc-scale tables: no corpus pass
    docs_retagged = adaptive_join(corpus_keys, old_keys, on="_doc_key",
                                  join_type="left_anti").count()
    fresh_corpus = adaptive_join(
        corpus, old_keys, on="_doc_key", join_type="left_anti",
    ).drop_columns(["_doc_key", "content_sha256"])
    extra.update(docs_total=corpus_keys.count(), docs_retagged=docs_retagged,
                 carry="dataset")
    # write width: one task per PARTITION_BYTES of store, at the old
    # store's bytes per row. The shuffle rule's [cpus, 4*cpus] clamp is
    # left out on purpose: its floor would split a small store into cpus
    # files per partition, and its cap would let a task's bundle grow
    # without bound (Ray's Parquet sink holds a task's blocks at once).
    rows_per_task = (max(1, sum(s["rows"] for _, s in old_roots)
                         * PARTITION_BYTES // old_bytes) if old_bytes else None)
    return write_triple_store(kept.union(fresh_triples(fresh_corpus)),
                              out_dir, cfg.output_partitions,
                              lineage_extra=extra,
                              min_rows_per_file=rows_per_task)
