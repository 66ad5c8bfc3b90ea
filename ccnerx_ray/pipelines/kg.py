"""The flagship KG-construction pipeline (SURVEY.md §3.1 RD shape):

``read_parquet(corpus)`` → ``map_batches(segment)`` →
``map_batches(fused tag + link + emit task)`` → partitioned triple store;
the canonical entity table is then derived from the (small) store — the
only shuffle in the whole job.

``update_kg`` refreshes a store from a new corpus, re-tagging only new or
changed documents. Its one carry-forward is partition-local: the old
store is already partitioned by subject, so one pyarrow Ray task per
``part=K`` drops the rows of removed and changed documents and appends
the tagged delta's; the old store is never read through Ray Data or
shuffled. The one triple-scale shuffle (the entity step's) is sized from
the store's lineage ``bytes`` by ``grouping.derive_hash_partitions`` —
no fan-out is hard-coded.

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
    import pyarrow.parquet as pq

    from ccnerx_ray.io.store import (parquet_files, published,
                                     published_roots, read_triple_store)
    from ccnerx_ray.stages.canonical import ENTITY_SCHEMA

    roots = published_roots(store_dir)
    store = read_triple_store([r for r, _ in roots], columns=[
        "subj", "pred", "norm_key", "surface", "label"])
    ents_path = _entities_dir(store_dir)
    with published(ents_path) as stage:
        entities_from_triples(store, input_bytes=sum(
            s["bytes"] for _, s in roots)).write_parquet(stage)
        if not parquet_files(stage):
            # a store without mentions (structure rows only): Ray writes
            # no file for no rows, a reader needs the schema
            pq.write_table(ENTITY_SCHEMA.empty_table(), f"{stage}/0.parquet")
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
    document, the ``seg_id == 0`` rule of ``stages/triples.py``) — no
    distinct over the store's triples. Triples of documents still
    present carry forward UNTAGGED; only NEW keys (changed content, new
    or moved files) run through the tagger; triples of removed or
    changed documents are dropped.

    There is one carry-forward, and it never reads the old store through
    Ray Data:

    * the corpus key table is materialized and checked for duplicates;
    * round A, one Ray task per ``part=K`` (``io/store.py:
      map_partitions``), reads only the ``in_repo`` rows' key columns:
      together they are the old doc keys;
    * ``dropped``, the old keys not in the corpus (removed and changed
      documents), is joined from the two doc-scale key tables: with
      pyarrow on the driver while the corpus keys are under
      ``adaptive_join``'s broadcast bound; past it round A's tables stay
      in the object store and an ``adaptive_join`` brings only
      ``dropped`` to the driver. The bound chooses where this join runs,
      never which plan carries the triples;
    * the delta (the corpus anti-joined against the old keys) is tagged,
      given its ``part`` and kept as Arrow blocks in the object store;
    * round B (:func:`_carry_partition`), one task per old partition,
      keeps its old rows whose doc key is neither null nor ``dropped``,
      appends its share of the fresh rows and streams them out: into one
      file at the old store's ``P`` (``carry: "partition"``, a build's
      layout), into one file per target partition for another
      ``cfg.output_partitions`` (``carry: "rebucket"``).

    The result is bit-equal to a fresh full ``run_kg`` over the new
    corpus (test-enforced at the triple-multiset level) while the tagger
    — the expensive stage — touches only the delta. Lineage records
    ``docs_retagged`` / ``docs_total`` so a run can prove how little it
    did, ``docs_dropped``, ``carry``, ``rows_carried`` and ``rows_fresh``
    (which sum to ``rows``), and ``phases_s`` (wall seconds per phase).
    Corpus rows must be unique per (repo, path, commit): a duplicate
    raises ``ValueError`` before any store is staged."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from ccnerx_ray.io.store import (add_part_column, amend_summary,
                                     map_partitions, published,
                                     published_roots, refuse_existing,
                                     write_lineage)
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
        keys = join._broadcast_build(corpus_keys, join.BROADCAST_BYTES_DEFAULT,
                                     corpus_keys.size_bytes())
        if keys is not None and not keys.num_columns:   # an empty corpus
            keys = _string_table(DOC_KEY + ["_doc_key"])
        _refuse_duplicate_docs(corpus_keys if keys is None else keys,
                               KEY_COLS)

    with _phase(phases, "round_a"):
        old_refs = list(map_partitions(old_roots, _old_doc_keys).values())
        if keys is not None:
            old_keys = _keyed(pa.concat_tables(
                [_string_table(DOC_KEY), *ray.get(old_refs)]))
            dropped = old_keys.filter(pc.invert(pc.is_in(
                old_keys["_doc_key"], value_set=keys["_doc_key"]))
            ).select(DOC_KEY)
            n_old, docs_total = old_keys.num_rows, keys.num_rows
            old_keys = ray.data.from_arrow(old_keys.select(["_doc_key"]))
        else:
            old_keys = ray.data.from_arrow_refs(
                old_refs or [ray.put(_string_table(DOC_KEY))]).map_batches(
                _keyed, batch_format="pyarrow").materialize()
            dropped = _pulled(join.adaptive_join(
                old_keys, corpus_keys.select_columns(["_doc_key"]),
                on="_doc_key", join_type="left_anti",
                broadcast_bytes=join.BROADCAST_BYTES_DEFAULT,
                build_bytes_hint=corpus_keys.size_bytes()), DOC_KEY)
            n_old, docs_total = old_keys.count(), corpus_keys.count()
        # every old key is unique (one in_repo row per document) and so is
        # every non-null corpus key (the duplicate check): the corpus rows
        # whose key is old are the old keys that were not dropped
        docs_retagged = docs_total - (n_old - dropped.num_rows)

    num_partitions = cfg.output_partitions
    with _phase(phases, "delta_tagging"):
        fresh_corpus = join.adaptive_join(
            corpus, old_keys, on="_doc_key", join_type="left_anti",
            build_bytes_hint=old_keys.size_bytes(),
        ).drop_columns(["_doc_key", "content_sha256"])
        # materialized first: to_arrow_refs on a lazy Dataset asks for its
        # schema after the run and executes part of the plan again
        delta_refs = _fresh_triples(
            fresh_corpus, catalog_pairs, cfg, include_structure,
        ).map_batches(add_part_column(num_partitions),
                      batch_format="pyarrow").materialize().to_arrow_refs()

    old_partitions = old_roots[0][1]["num_partitions"]
    with _phase(phases, "round_b"), published(out_dir) as stage:
        t = time.time()
        # the dropped keys are put once and every ref is a top-level
        # argument: Ray resolves it before the task starts, zero-copy
        counts = ray.get(list(map_partitions(
            old_roots, _carry_partition, ray.put(dropped), stage,
            old_partitions, num_partitions, *delta_refs,
            parts=range(old_partitions)).values()))
        summary = write_lineage(stage, time.time() - t, dict(
            input_fingerprint(corpus_paths), updated_from=old_store_dir,
            docs_total=docs_total, docs_retagged=docs_retagged,
            docs_dropped=dropped.num_rows,
            carry=("partition" if num_partitions == old_partitions
                   else "rebucket"),
            rows_carried=sum(c for c, _ in counts),
            rows_fresh=sum(f for _, f in counts),
            num_partitions=num_partitions))
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


def _keyed(old):
    """Round A's ``DOC_KEY`` rows with their ``_doc_key``; a row with a
    null key column names no document and is left out."""
    import pyarrow.compute as pc

    old = _doc_key_batch(KEY_COLS, sha_col="content_sha256")(old)
    return old.filter(pc.is_valid(old["_doc_key"]))


def _pulled(ds, cols: list[str]):
    """A small Dataset's ``cols`` as one string table on the driver."""
    import pyarrow as pa
    import ray

    empty = _string_table(cols)
    blocks = ray.get(ds.select_columns(cols).materialize().to_arrow_refs())
    return pa.concat_tables([empty] + [b.select(cols).cast(empty.schema)
                                       for b in blocks if b.num_rows])


def _carry_partition(part: int, files: list[str], dropped, stage: str,
                     old_partitions: int, num_partitions: int,
                     *delta) -> tuple[int, int]:
    """Round B task for old partition ``part``: its old rows whose doc key
    is not in ``dropped`` (a multi-key left anti join per
    :func:`~ccnerx_ray.io.store.coalesced` run of row groups), then its
    share of the ``delta`` blocks (``part % old_partitions == part``),
    streamed into ``part=K/part-{part}.parquet``: one file, ``K = part``,
    at the old ``P``; otherwise the carried rows are re-hashed on
    ``subj`` and each target partition ``K`` gets a file, one row group
    per coalesced run. Returns (rows carried, rows fresh).

    Rows with a null key column are not carried: they name no document,
    and the fresh corpus's anti join re-extracts them, just as a semi
    join against the corpus keys would never keep them. For every other
    row the anti join against ``dropped`` keeps exactly what that semi
    join would, only because every non-null doc key in a store has
    exactly one ``in_repo`` row (``test_in_repo_rows_are_the_doc_manifest``):
    an old row's key is then an old key, so it is either in the corpus or
    in ``dropped``."""
    import functools
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    from ccnerx_ray.io.store import (add_part_column, coalesced, row_groups,
                                     write_partition)
    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA

    rebucket = num_partitions != old_partitions
    names = TRIPLE_SCHEMA.names
    cols = names + ["part"] if rebucket else names
    fresh = [b.filter(pa.array(b["part"].to_numpy() % old_partitions == part))
             .select(cols) for b in delta if b.num_rows]
    n_fresh = sum(b.num_rows for b in fresh)

    def carry(t):
        t = t.filter(functools.reduce(pc.and_, [pc.is_valid(t[c])
                                                for c in DOC_KEY]))
        if dropped.num_rows:
            t = t.join(dropped, keys=DOC_KEY, join_type="left anti",
                       use_threads=False)
        return add_part_column(num_partitions)(t) if rebucket else t

    def path(k):
        return os.path.join(stage, f"part={k}", f"part-{part}.parquet")

    rows = write_partition(
        path if rebucket else path(part),
        itertools.chain(map(carry, coalesced(row_groups(files, columns=names))),
                        fresh),
        TRIPLE_SCHEMA)
    return rows - n_fresh, n_fresh
