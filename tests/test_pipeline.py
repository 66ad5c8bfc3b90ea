"""End-to-end conformance: Ray pipeline vs single-process oracle (SURVEY.md
§5b golden equivalence), planted-gold recall, canonical entity table,
resumable partitioned store."""

from __future__ import annotations

import glob
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.corpus import (CORPUS_SCHEMA, build_catalog, generate_corpus,
                               write_corpus)
from ccnerx_ray.pipelines.kg import (mentions_dataset, read_corpus, run_kg,
                                     triples_dataset)
from ccnerx_ray.pipelines.oracle import oracle_triples, prf

CFG = PipelineConfig(output_partitions=4)
N_ROWS = 40
SEED = 42


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    return write_corpus(str(d), N_ROWS, seed=SEED, num_files=4)


@pytest.fixture(scope="module")
def catalog_pairs():
    return sorted(build_catalog(SEED).surface2label.items())


def test_pipeline_matches_oracle(ray_session, corpus_dir, catalog_pairs):
    """Distinct (s,p,o) from the Ray pipeline must match the sequential
    oracle at P/R ≥ 0.95 (BASELINE.json metric) — held at exactly 1.0."""
    ds = triples_dataset(read_corpus(corpus_dir, CFG), catalog_pairs, CFG)
    got = {(r["subj"], r["pred"], r["obj"]) for r in ds.take_all()}
    table = generate_corpus(N_ROWS, seed=SEED)
    want = oracle_triples(table, catalog_pairs, CFG)
    p, r, f = prf(got, want)
    assert p == 1.0 and r == 1.0, (p, r, len(got), len(want))


def test_planted_gold_recall(ray_session, corpus_dir, catalog_pairs):
    """Every planted catalog surface must be recovered as a mention with its
    catalog label (lexicon fusion + CRF grammar, FIXTURES-style check)."""
    table, gold = generate_corpus(N_ROWS, seed=SEED, with_gold=True)
    ds = mentions_dataset(read_corpus(corpus_dir, CFG), catalog_pairs, CFG)
    rows = ds.take_all()
    found = {(r["surface"], r["linked_label"]) for r in rows}
    gold_set = {(" ".join(surf), lab) for _, surf, lab in gold}
    missing = gold_set - found
    assert len(missing) / max(1, len(gold_set)) < 0.05, sorted(missing)[:5]


def test_run_kg_store_and_entities(ray_session, corpus_dir, catalog_pairs, tmp_path):
    out = str(tmp_path / "store")
    summary = run_kg(corpus_dir, catalog_pairs, out, CFG)
    assert summary["rows"] > 0
    # partitioned layout + per-partition lineage sidecars
    parts = [d for d in os.listdir(out) if d.startswith("part=")]
    assert 0 < len(parts) <= CFG.output_partitions
    for p in parts:
        assert os.path.isfile(os.path.join(out, "_lineage", f"{p}.json"))
    # entity table: one row per norm_key, deterministic ids
    ents = pq.read_table(glob.glob(summary["entities_path"] + "/*.parquet"))
    keys = ents.column("norm_key").to_pylist()
    assert len(keys) == len(set(keys))
    assert ents.num_rows > 0
    import hashlib
    for row in ents.to_pylist()[:10]:
        assert row["entity_id"] == hashlib.sha256(
            row["norm_key"].encode()).hexdigest()[:16]


def test_run_kg_skips_rows_with_null_provenance(ray_session, catalog_pairs,
                                                tmp_path):
    """A corpus row with a null path or commit is invalid like a null
    repo or content: skipped by the job and by the oracle alike, never
    crashing the tag task and never written as ``...:None@...``."""
    table = generate_corpus(12, seed=SEED)
    rows = table.to_pylist()
    rows[1]["path"] = None
    rows[4]["commit"] = None
    d = tmp_path / "nulls"
    d.mkdir()
    bad = pa.Table.from_pylist(rows, schema=table.schema)
    pq.write_table(bad, str(d / "part-0.parquet"))
    out = str(tmp_path / "store")
    run_kg(str(d), catalog_pairs, out, CFG, build_entities=False)
    from ccnerx_ray.io.store import read_triple_store
    got = {(r["subj"], r["pred"], r["obj"])
           for r in read_triple_store(out).take_all()}
    assert got and got == oracle_triples(bad, catalog_pairs, CFG)
    assert not any("None@" in o for _, _, o in got)


def test_resumable_chunks(ray_session, corpus_dir, catalog_pairs, tmp_path):
    """A second run over the same input skips every finished chunk."""
    from ccnerx_ray.io.store import run_resumable

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    out = str(tmp_path / "resume")

    def run_chunk(chunk_files, tmp_dir):
        run_kg(chunk_files, catalog_pairs, tmp_dir, CFG, build_entities=False)

    first = run_resumable(files, out, run_chunk, chunk_size=2)
    assert len(first["chunks_run"]) == 2 and not first["chunks_skipped"]
    second = run_resumable(files, out, run_chunk, chunk_size=2)
    assert not second["chunks_run"] and len(second["chunks_skipped"]) == 2
    # the union of chunk stores equals a single-run store (distinct s,p,o)
    import ray.data
    chunked = ray.data.read_parquet(out, file_extensions=["parquet"])
    got = {(r["subj"], r["pred"], r["obj"]) for r in chunked.take_all()}
    want = oracle_triples(generate_corpus(N_ROWS, seed=SEED), catalog_pairs, CFG)
    assert got == want


def test_canonicalize_hot_key_skew(ray_session):
    """SURVEY §7: a dominant identifier (monorepo hot key) must not break
    or mis-count under the salted two-phase coarse groupby."""
    import ray.data
    from ccnerx_ray.stages.canonical import canonicalize

    hot = [{"norm_key": "self", "linked_label": "CONST", "surface": "self"}
           for _ in range(20_000)]
    cold = [{"norm_key": f"k{i}", "linked_label": "FUNC", "surface": f"k{i}"}
            for i in range(500)]
    ds = ray.data.from_items(hot + cold).repartition(16)
    ents = {r["norm_key"]: r for r in canonicalize(ds).take_all()}
    assert len(ents) == 501
    assert ents["self"]["n_mentions"] == 20_000
    assert ents["self"]["label"] == "CONST"
    assert ents["k7"]["n_mentions"] == 1


def test_entity_blocks_carry_no_schema_metadata(ray_session):
    """The combiner and the entity table hand the shuffle plain Arrow
    schemas: pandas schema metadata makes a schema unhashable, and the
    reduce then logs "Failed to hash the schemas" on every run."""
    import ray
    import ray.data
    from ccnerx_ray.stages.canonical import (entities_from_triples,
                                             make_combiner)

    t = pa.table({"subj": [f"e{i % 5}" for i in range(40)],
                  "pred": ["mentioned_in"] * 40, "obj": ["f"] * 40,
                  "norm_key": [f"k{i % 5}" for i in range(40)],
                  "surface": [f"S{i % 3}" for i in range(40)],
                  "label": ["FUNC"] * 40})
    blocks = [make_combiner(label_col="label")(t)]
    ents = entities_from_triples(ray.data.from_arrow([t.slice(0, 20),
                                                      t.slice(20)]))
    blocks += [ray.get(r) for r in ents.to_arrow_refs()]
    assert sum(b.num_rows for b in blocks[1:]) == 5
    for b in blocks:
        assert b.schema.metadata is None
        hash(b.schema)


def test_corpus_matched_words(ray_session, corpus_dir, catalog_pairs):
    from ccnerx_ray.pipelines.kg import read_corpus, segments_dataset
    from ccnerx_ray.stages.featurize import corpus_matched_words

    segs = segments_dataset(read_corpus(corpus_dir, CFG), CFG)
    words = [r["word"] for r in
             corpus_matched_words(segs, [w for w, _ in catalog_pairs]).take_all()]
    assert words == sorted(words) and len(words) > 10
    lex = {" ".join(w) for w, _ in catalog_pairs}
    assert all(w in lex for w in words)


def test_lookup_subject_partition_pruned(ray_session, corpus_dir, catalog_pairs, tmp_path):
    """Subject point lookup touches exactly one hash partition."""
    from ccnerx_ray.io.store import lookup_subject

    out = str(tmp_path / "store2")
    run_kg(corpus_dir, catalog_pairs, out, CFG, build_entities=False)
    import pyarrow.parquet as pq
    any_file = glob.glob(os.path.join(out, "part=*", "*.parquet"))[0]
    subj = pq.read_table(any_file, columns=["subj"]).column("subj")[0].as_py()
    rows = lookup_subject(out, subj)
    assert rows and all(r["subj"] == subj for r in rows)
    # a made-up subject returns empty, not an error
    assert lookup_subject(out, "no-such-subject") == []


def test_compact_store(ray_session, corpus_dir, catalog_pairs, tmp_path):
    """Chunked store → one file per partition; triple set unchanged."""
    from ccnerx_ray.io.store import compact_store, run_resumable

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    out = str(tmp_path / "chunked")

    def run_chunk(chunk_files, tmp_dir):
        run_kg(chunk_files, catalog_pairs, tmp_dir, CFG, build_entities=False)

    run_resumable(files, out, run_chunk, chunk_size=2)
    compacted = str(tmp_path / "compacted")
    summary = compact_store(out, compacted)
    import ray.data
    a = {(r["subj"], r["pred"], r["obj"]) for r in
         ray.data.read_parquet(out, file_extensions=["parquet"]).take_all()}
    b = {(r["subj"], r["pred"], r["obj"]) for r in
         ray.data.read_parquet(compacted, file_extensions=["parquet"]).take_all()}
    assert a == b
    for d in os.listdir(compacted):
        if d.startswith("part="):
            fs = [f for f in os.listdir(os.path.join(compacted, d))
                  if f.endswith(".parquet")]
            assert len(fs) == 1


def test_alias_pairs_planted(ray_session):
    """Same-label near-identical keys pair up; cross-label never."""
    import ray.data
    from ccnerx_ray.stages.canonical import alias_pairs

    rows = [
        {"entity_id": "e1", "norm_key": "parse foo", "label": "FUNC",
         "repr_surface": "parse_foo", "n_mentions": 5},
        {"entity_id": "e2", "norm_key": "parse foo 2", "label": "FUNC",
         "repr_surface": "parse_foo2", "n_mentions": 3},
        {"entity_id": "e3", "norm_key": "parse foo", "label": "CLASS",
         "repr_surface": "ParseFoo", "n_mentions": 1},
        {"entity_id": "e4", "norm_key": "zzz unrelated", "label": "FUNC",
         "repr_surface": "zzz", "n_mentions": 1},
    ]
    pairs = alias_pairs(ray.data.from_items(rows), threshold=0.5).take_all()
    assert {(p["canonical_id"], p["alias_id"]) for p in pairs} == {("e1", "e2")}


def test_lookup_subject_infers_partitions_from_lineage(ray_session, tmp_path):
    """Empty partitions must not shift the lookup modulus: P comes from
    the lineage summary, not from counting part= dirs (ADVICE r1 —
    write_parquet creates dirs only for non-empty partitions)."""
    import ray.data
    from ccnerx_ray.io.store import lookup_subject, write_triple_store

    triples = ray.data.from_items([
        {"subj": "s1", "pred": "p", "obj": "o1"},
        {"subj": "s2", "pred": "p", "obj": "o2"},
    ])
    out = str(tmp_path / "sparse_store")
    write_triple_store(triples, out, num_partitions=16)
    n_dirs = sum(1 for d in os.listdir(out) if d.startswith("part="))
    assert n_dirs < 16                     # some partitions empty on disk
    rows = lookup_subject(out, "s1")       # P inferred from lineage
    assert rows and rows[0]["obj"] == "o1"
    assert lookup_subject(out, "s2")[0]["obj"] == "o2"
    assert lookup_subject(out, "absent") == []


def test_compact_store_multi_row_group(ray_session, tmp_path):
    """Compaction streams row groups (never whole-partition concat): a
    store whose files hold several small row groups compacts losslessly."""
    import pyarrow.parquet as pq
    from ccnerx_ray.io.store import compact_store, write_lineage

    src = str(tmp_path / "rg_store")
    pdir = os.path.join(src, "part=0")
    os.makedirs(pdir)
    for f in range(3):
        t = pa.table({"subj": [f"s{f}-{i}" for i in range(100)],
                      "pred": ["p"] * 100,
                      "obj": [f"o{i}" for i in range(100)]})
        pq.write_table(t, os.path.join(pdir, f"f{f}.parquet"),
                       row_group_size=17)   # 6 row groups per file
    write_lineage(src, 0.0, {"num_partitions": 1})
    dest = str(tmp_path / "rg_compacted")
    summary = compact_store(src, dest)
    assert summary["rows_check"] == 300
    got = pq.read_table(os.path.join(dest, "part=0", "compacted-0.parquet"))
    assert got.num_rows == 300
    assert len({s.as_py() for s in got.column("subj")}) == 300


def test_alias_pairs_cross_first_char(ray_session):
    """The min-3-gram bucket family catches aliases whose first chars
    differ (round-2 recall improvement; the prefix family alone misses
    this pair)."""
    import ray.data
    from ccnerx_ray.stages.canonical import alias_pairs

    rows = [
        {"entity_id": "e1", "norm_key": "parse foo", "label": "FUNC",
         "repr_surface": "parse_foo", "n_mentions": 5},
        {"entity_id": "e2", "norm_key": "xparse foo", "label": "FUNC",
         "repr_surface": "xparse_foo", "n_mentions": 2},
    ]
    pairs = alias_pairs(ray.data.from_items(rows), threshold=0.5).take_all()
    assert {(p["canonical_id"], p["alias_id"]) for p in pairs} == {("e1", "e2")}
    assert all(p["jaccard_pm"] == 857142 for p in pairs)  # 6/7 exactly


def test_compacted_store_lookup_inherits_partitions(ray_session, tmp_path):
    """compact_store must carry num_partitions into the compacted
    lineage: counting non-empty part= dirs there would shift the lookup
    modulus exactly like the pre-round-2 bug (code-review finding)."""
    import ray.data
    from ccnerx_ray.io.store import (compact_store, lookup_subject,
                                     write_triple_store)

    triples = ray.data.from_items([
        {"subj": "s1", "pred": "p", "obj": "o1"},
        {"subj": "s2", "pred": "p", "obj": "o2"},
    ])
    src = str(tmp_path / "sparse16")
    write_triple_store(triples, src, num_partitions=16)
    dest = str(tmp_path / "sparse16_c")
    summary = compact_store(src, dest)
    assert summary["num_partitions"] == 16
    assert lookup_subject(dest, "s1")[0]["obj"] == "o1"
    assert lookup_subject(dest, "s2")[0]["obj"] == "o2"


def test_chunks_disagreeing_on_partitions_raise(ray_session, tmp_path):
    """A resumed chunked run with another ``--partitions`` leaves chunks
    with different moduli: one subject lives in a different ``part=`` dir
    per chunk. Lookup and compaction must refuse the store rather than
    answer from one chunk's modulus and silently miss rows."""
    import ray.data
    from ccnerx_ray.io.store import (compact_store, lookup_subject,
                                     store_num_partitions,
                                     write_triple_store)

    store = tmp_path / "mixed"
    for i, p in enumerate((4, 8)):
        write_triple_store(
            ray.data.from_items([{"subj": "org/repo2", "pred": "p",
                                  "obj": f"o{i}"}]),
            str(store / f"chunk={i:05d}"), num_partitions=p)
    with pytest.raises(ValueError, match="num_partitions"):
        lookup_subject(str(store), "org/repo2")
    with pytest.raises(ValueError, match="num_partitions"):
        compact_store(str(store), str(tmp_path / "mixed_c"))
    assert not (tmp_path / "mixed_c").exists()

    # chunks that agree still answer from every chunk
    same = tmp_path / "same"
    for i in range(2):
        write_triple_store(
            ray.data.from_items([{"subj": "org/repo2", "pred": "p",
                                  "obj": f"o{i}"}]),
            str(same / f"chunk={i:05d}"), num_partitions=8)
    assert store_num_partitions(str(same)) == 8
    assert sorted(r["obj"] for r in lookup_subject(str(same), "org/repo2")) \
        == ["o0", "o1"]


def test_alias_pairs_semantic_catches_synonyms(ray_session):
    """The pluggable embedding-cosine scorer (A4 gap, VERDICT r2 #9)
    finds SYNONYM aliases the char-3-gram path cannot: 'begin'/'start'
    share no 3-grams (Jaccard = 0) but near-identical embedding vectors;
    unrelated same-label entities stay unpaired."""
    import numpy as np
    import ray.data
    from ccnerx_ray.stages.canonical import alias_pairs
    from ccnerx_ray.state.embedding import WordEmbedding

    rng = np.random.default_rng(3)
    v = rng.standard_normal(16)
    w = rng.standard_normal(16)           # far from v (random direction)
    emb = WordEmbedding({
        "begin": v,
        "start": v + 0.01 * rng.standard_normal(16),   # synonym: ~v
        "halt": w,
    }, 16)
    rows = [
        {"entity_id": "e1", "norm_key": "begin", "label": "FUNC",
         "repr_surface": "begin", "n_mentions": 5},
        {"entity_id": "e2", "norm_key": "start", "label": "FUNC",
         "repr_surface": "start", "n_mentions": 3},
        {"entity_id": "e3", "norm_key": "halt", "label": "FUNC",
         "repr_surface": "halt", "n_mentions": 1},
        {"entity_id": "e4", "norm_key": "start", "label": "CLASS",
         "repr_surface": "Start", "n_mentions": 1},
    ]
    ents = ray.data.from_items(rows)
    # n-gram scorer misses the synonym pair entirely
    ngram = alias_pairs(ents, threshold=0.3).take_all()
    assert not any({p["canonical_id"], p["alias_id"]} == {"e1", "e2"}
                   for p in ngram)
    # semantic scorer finds it — and nothing else (cross-label excluded
    # by bucketing, 'halt' excluded by cosine)
    sem = alias_pairs(ents, threshold=0.9, scorer="semantic",
                      embedding=emb).take_all()
    assert {(p["canonical_id"], p["alias_id"]) for p in sem} == {("e1", "e2")}
    assert all(p["cos_pm"] >= 900_000 for p in sem)


def test_alias_pairs_semantic_off_encoder_vectors(ray_session):
    """A5 closure (VERDICT r3 #5): the semantic alias scorer runs with
    NO fixture embedding table — entity vectors come from the encoder's
    hash-token family (stages/encode.HashWordEmbedding, the same vector
    family doc_embeddings produces). Mean-of-token vectors are word-order
    invariant, so bag-equal norm_keys alias at cosine 1.0 while
    different-token keys stay apart (hash vectors are near-orthogonal)."""
    import ray.data
    from ccnerx_ray.stages.canonical import alias_pairs
    from ccnerx_ray.stages.encode import HashWordEmbedding

    rows = [
        {"entity_id": "e1", "norm_key": "tree parse", "label": "FUNC",
         "repr_surface": "TreeParse", "n_mentions": 5},
        {"entity_id": "e2", "norm_key": "parse tree", "label": "FUNC",
         "repr_surface": "parse_tree", "n_mentions": 3},
        {"entity_id": "e3", "norm_key": "halt now", "label": "FUNC",
         "repr_surface": "halt_now", "n_mentions": 1},
    ]
    sem = alias_pairs(ray.data.from_items(rows), threshold=0.95,
                      scorer="semantic",
                      embedding=HashWordEmbedding(32)).take_all()
    assert {(p["canonical_id"], p["alias_id"]) for p in sem} == {("e1", "e2")}


def test_embedding_dedup_off_derived_embeddings(ray_session):
    """embedding_dup_pairs fed by doc_embeddings output (not fixture
    vectors): two documents sharing most tokens embed near-identically
    (mean of mostly-equal token vectors) and pair up; an unrelated doc
    stays out."""
    import ray.data
    from ccnerx_ray.ops.dedup import embedding_dup_pairs
    from ccnerx_ray.stages.encode import doc_embeddings

    base = " ".join(f"tok{i}" for i in range(60))
    docs = ray.data.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " extra"},
        {"doc_id": 3, "text": " ".join(f"other{i}" for i in range(60))},
    ])
    vecs = doc_embeddings(docs, dim=32, concurrency=2)
    pairs = embedding_dup_pairs(vecs.select_columns(["doc_id", "embedding"])
                                .rename_columns(["vec_id", "embedding"]),
                                threshold=0.95, id_col="vec_id")
    got = {(p["id_a"], p["id_b"]) for p in pairs.take_all()}
    assert got == {(1, 2)}


def _corpus_rows(corpus_dir: str) -> list[dict]:
    return [r for f in sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
            for r in pq.read_table(f).to_pylist()]


def _write_corpus_rows(rows: list[dict], d: str) -> str:
    os.makedirs(d)
    pq.write_table(pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA),
                   os.path.join(d, "a.parquet"))
    return d


def _corpus_v2(corpus_dir: str, v2: str) -> tuple[str, int]:
    """The fixture corpus with 5 docs removed, 7 changed in place (a token
    appended) and 4 added, written as two files under ``v2``. Returns the
    directory and its row count."""
    rows = _corpus_rows(corpus_dir)[5:]   # 5 removed
    for r in rows[:7]:                    # 7 changed in place
        r["content"] = r["content"] + "\nchanged_token = 1"
    for j in range(4):                    # 4 added
        rows.append({"repo": "new/repo", "path": f"added_{j}.py",
                     "commit": "f" * 40, "lang": "python",
                     "content": f"import parse_cfg\nadded_{j} = MAX_N"})
    os.makedirs(v2)
    t = pa.Table.from_pylist(rows)
    pq.write_table(t.slice(0, t.num_rows // 2), os.path.join(v2, "a.parquet"))
    pq.write_table(t.slice(t.num_rows // 2), os.path.join(v2, "b.parquet"))
    return v2, len(rows)


def test_update_kg_store_layout_matches_build(ray_session, corpus_dir,
                                              catalog_pairs, tmp_path):
    """An updated store keeps a build's layout: no partition holds more
    files than the same partition of a fresh ``run_kg`` over the new
    corpus (round B writes one file per partition, not one per upstream
    block), and ``lookup_subject`` on it equals a pyarrow scan."""
    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    upd = str(tmp_path / "store_upd")
    full = str(tmp_path / "store_full")
    update_kg(v2, catalog_pairs, store1, upd, CFG, build_entities=False)
    run_kg(v2, catalog_pairs, full, CFG, build_entities=False)

    def files_per_part(store):
        return {d: len(glob.glob(os.path.join(store, d, "*.parquet")))
                for d in os.listdir(store) if d.startswith("part=")}

    got, want = files_per_part(upd), files_per_part(full)
    assert set(got) == set(want)
    assert all(got[d] <= want[d] for d in got), (got, want)
    _assert_lookup_equals_scan(upd)


def _assert_lookup_equals_scan(store: str) -> None:
    """``lookup_subject`` on ``store`` equals a pyarrow scan of it, for a
    sample of its subjects and a miss."""
    import pyarrow.dataset as pds

    from ccnerx_ray.io.store import lookup_subject

    table = pds.dataset(store, format="parquet",
                        partitioning="hive").to_table()
    subjects = sorted(set(table.column("subj").to_pylist()))
    assert subjects
    cols = [c for c in table.column_names if c != "part"]

    def rows_key(rows):
        return sorted(tuple(r[c] for c in cols) for r in rows)

    for subj in subjects[::max(1, len(subjects) // 25)] + ["no-such-subj"]:
        scan = table.filter(pds.field("subj") == subj).select(cols)
        assert rows_key(lookup_subject(store, subj)) == rows_key(
            scan.to_pylist()), subj


def test_update_kg_incremental_equals_full_run(ray_session, corpus_dir,
                                               catalog_pairs, tmp_path):
    """Incremental delta update (north rule: a daily corpus drop must
    not re-tag the world): v2 = v1 with some docs changed, some removed,
    some added. ``update_kg`` against the v1 store must (a) produce the
    SAME triple multiset as a fresh full run over v2 and (b) run the
    tagger over ONLY the delta (lineage proves it)."""
    import pandas as pd

    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    v2, n_rows = _corpus_v2(corpus_dir, str(tmp_path / "v2"))

    upd = str(tmp_path / "store_upd")
    full = str(tmp_path / "store_full")
    s_upd = update_kg(v2, catalog_pairs, store1, upd, CFG,
                      build_entities=False)
    run_kg(v2, catalog_pairs, full, CFG, build_entities=False)

    assert s_upd["docs_total"] == n_rows
    assert s_upd["docs_retagged"] == 7 + 4    # changed + added only

    pd.testing.assert_frame_equal(_triple_frame(upd), _triple_frame(full))


def _triple_frame(store: str):
    """A store's triples as a sorted frame (the ``part`` column dropped),
    for multiset equality."""
    from ccnerx_ray.io.store import read_triple_store
    df = read_triple_store(store).to_pandas()
    cols = sorted(c for c in df.columns if c != "part")
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_update_kg_refuses_duplicate_doc(ray_session, corpus_dir,
                                         catalog_pairs, tmp_path):
    """A corpus with two rows for one (repo, path, commit) raises before
    any store is staged: a fresh build would emit that document's
    triples twice, the carry-forward once."""
    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    rows = _corpus_rows(corpus_dir)
    dup = dict(rows[3], content=rows[3]["content"] + "\nx = 1")
    v2 = _write_corpus_rows(rows + [dup], str(tmp_path / "v2"))
    upd = tmp_path / "store_upd"
    with pytest.raises(ValueError, match=re.escape(rows[3]["path"])):
        update_kg(v2, catalog_pairs, store1, str(upd), CFG)
    assert not upd.exists()
    assert not (tmp_path / "store_upd_entities").exists()
    assert not list(tmp_path.glob(".store_upd*.tmp-*"))


def test_update_kg_null_commit_rows_do_not_raise(ray_session, corpus_dir,
                                                 catalog_pairs, tmp_path):
    """Rows with a null key column are quarantined by the segmenter, so
    two of them sharing (repo, path) are not a duplicate document."""
    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    rows = _corpus_rows(corpus_dir)
    nulls = [dict(rows[0], commit=None), dict(rows[0], commit=None)]
    v2 = _write_corpus_rows(rows + nulls, str(tmp_path / "v2"))
    s = update_kg(v2, catalog_pairs, store1, str(tmp_path / "upd"), CFG,
                  build_entities=False)
    assert s["docs_total"] == len(rows) + 2
    assert s["docs_retagged"] == 2


def test_update_kg_empty_corpus(ray_session, corpus_dir, catalog_pairs,
                                tmp_path):
    """An empty new corpus drops every document: an empty store, typed
    counts, no entity table."""
    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    schema = pq.read_schema(
        glob.glob(os.path.join(corpus_dir, "*.parquet"))[0])
    v2 = tmp_path / "v2"
    v2.mkdir()
    pq.write_table(schema.empty_table(), str(v2 / "a.parquet"))
    s = update_kg(str(v2), catalog_pairs, store1, str(tmp_path / "upd"), CFG)
    assert (s["rows"], s["docs_total"], s["docs_retagged"]) == (0, 0, 0)
    assert s["entities_path"] is None


def _assert_one_in_repo_per_doc(store: str) -> None:
    import collections

    import pyarrow.dataset as pds

    t = pds.dataset(store, format="parquet", partitioning="hive").to_table(
        columns=["pred", "repo", "path", "commit", "content_sha256"])
    rows = t.to_pylist()
    key = ("repo", "path", "commit", "content_sha256")
    docs = {tuple(r[c] for c in key) for r in rows
            if all(r[c] is not None for c in key)}
    in_repo = collections.Counter(tuple(r[c] for c in key) for r in rows
                                  if r["pred"] == "in_repo")
    assert docs and in_repo == dict.fromkeys(docs, 1), store


def test_in_repo_rows_are_the_doc_manifest(ray_session, corpus_dir,
                                           catalog_pairs, tmp_path):
    """``update_kg`` reads the old store's document keys from its
    ``in_repo`` rows, so every store the job writes must hold exactly one
    ``in_repo`` row per doc key that has any triple — also for a
    document without mentions, and with structure triples on. An empty
    document has no triples, so it is re-tagged on every update."""
    import pandas as pd

    from ccnerx_ray.pipelines.kg import update_kg

    rows = _corpus_rows(corpus_dir)
    plain = dict(rows[0], path="plain.txt", content="zz qq")
    empty = dict(rows[0], path="empty.py", content="")
    v2 = _write_corpus_rows(rows + [plain, empty], str(tmp_path / "v2"))

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    stores = {"full": False, "full_structure": True}
    for name, structure in stores.items():
        run_kg(v2, catalog_pairs, str(tmp_path / name), CFG,
               build_entities=False, include_structure=structure)
    upd = str(tmp_path / "upd")
    s = update_kg(v2, catalog_pairs, store1, upd, CFG, build_entities=False)
    assert s["docs_retagged"] == 2

    full = _triple_frame(str(tmp_path / "full"))
    plain_rows = full[full["path"] == "plain.txt"]
    assert set(plain_rows["pred"]) == {"in_repo", "has_lang"}
    assert not (full["path"] == "empty.py").any()
    for store in [upd] + [str(tmp_path / n) for n in stores]:
        _assert_one_in_repo_per_doc(store)
    pd.testing.assert_frame_equal(_triple_frame(upd), full)


def test_update_kg_runs_no_grouped_shuffle(ray_session, corpus_dir,
                                           catalog_pairs, tmp_path,
                                           monkeypatch):
    """Before the entity step the update path builds no ``coarse_grouped``
    stage: the old doc keys come from the ``in_repo`` rows, not from a
    distinct over the store's triples."""
    import ccnerx_ray.functions.grouping as grouping
    from ccnerx_ray.pipelines.kg import update_kg

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    v2, n_rows = _corpus_v2(corpus_dir, str(tmp_path / "v2"))

    def boom(*args, **kwargs):
        raise AssertionError("coarse_grouped on the update path")

    monkeypatch.setattr(grouping, "coarse_grouped", boom)
    s = update_kg(v2, catalog_pairs, store1, str(tmp_path / "upd"), CFG,
                  build_entities=False)
    assert s["docs_total"] == n_rows and s["docs_retagged"] == 7 + 4


def _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs, rows, name,
                       cfg=CFG, old_store=None, include_structure=False):
    """``update_kg`` from the fixture corpus's store to ``rows``, and a
    fresh ``run_kg`` of ``rows``; returns (update summary, updated store,
    fresh store)."""
    from ccnerx_ray.pipelines.kg import update_kg

    old_store = old_store or str(tmp_path / "store1")
    if not os.path.exists(old_store):
        run_kg(corpus_dir, catalog_pairs, old_store, CFG,
               build_entities=False)
    v2 = _write_corpus_rows(rows, str(tmp_path / f"{name}_corpus"))
    upd, full = str(tmp_path / f"{name}_upd"), str(tmp_path / f"{name}_full")
    s = update_kg(v2, catalog_pairs, old_store, upd, cfg,
                  include_structure=include_structure)
    run_kg(v2, catalog_pairs, full, cfg, include_structure=include_structure)
    return s, upd, full


def _entity_frame(store: str):
    """A store's entity table as a sorted frame; its schema must be
    ``ENTITY_SCHEMA``."""
    from ccnerx_ray.stages.canonical import ENTITY_SCHEMA

    t = pa.concat_tables([pq.read_table(f) for f in sorted(
        glob.glob(os.path.join(store + "_entities", "*.parquet")))])
    assert t.schema.equals(ENTITY_SCHEMA)
    df = t.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("case", ["identical", "all_removed", "all_changed"])
def test_update_kg_partition_path_edge_deltas(ray_session, corpus_dir,
                                              catalog_pairs, tmp_path, case):
    """The partition-local carry-forward on an empty delta (identical
    corpus), on a corpus that keeps no old document, and on one that
    changes every document: typed results equal to a fresh build, every
    updated file with a build file's Parquet schema."""
    rows = _corpus_rows(corpus_dir)
    if case == "all_removed":
        rows = [dict(r, repo="moved/" + r["repo"]) for r in rows]
    elif case == "all_changed":
        rows = [dict(r, content=r["content"] + "\nchanged_token = 1")
                for r in rows]
    s, upd, full = _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs,
                                      rows, case)
    assert s["carry"] == "partition"
    assert s["docs_total"] == len(rows)
    if case == "identical":
        assert s["rows_fresh"] == 0 and s["rows_carried"] == s["rows"] > 0
    else:
        assert s["rows_carried"] == 0 and s["docs_retagged"] == len(rows)
    _assert_update_equals_fresh(upd, full)


def _assert_update_equals_fresh(upd: str, full: str) -> None:
    """The updated store's triples and entity table equal the fresh
    build's, and every updated file has a build file's Parquet schema."""
    import pandas as pd

    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA

    pd.testing.assert_frame_equal(_triple_frame(upd), _triple_frame(full))
    pd.testing.assert_frame_equal(_entity_frame(upd), _entity_frame(full))
    build_schema = pq.read_schema(
        glob.glob(os.path.join(full, "part=*", "*.parquet"))[0])
    assert build_schema.equals(TRIPLE_SCHEMA, check_metadata=True)
    for f in glob.glob(os.path.join(upd, "part=*", "*.parquet")):
        assert pq.read_schema(f).equals(build_schema, check_metadata=True)


def test_update_kg_reads_no_old_store_dataset(ray_session, corpus_dir,
                                              catalog_pairs, tmp_path,
                                              monkeypatch, update_way):
    """The old store is read only by per-partition pyarrow tasks, also
    past the broadcast bound and when the update changes ``P``: neither
    ``read_triple_store`` nor ``ray.data.read_parquet`` ever sees a path
    under it."""
    import ray.data

    import ccnerx_ray.io.store as store

    store1 = str(tmp_path / "store1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False)
    old_root = os.path.abspath(store1)

    def guarded(read):
        def wrapped(paths, *args, **kwargs):
            for p in [paths] if isinstance(paths, str) else paths:
                p = os.path.abspath(p)
                assert not (p == old_root or p.startswith(old_root + os.sep)), p
            return read(paths, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(ray.data, "read_parquet",
                        guarded(ray.data.read_parquet))
    monkeypatch.setattr(store, "read_triple_store",
                        guarded(store.read_triple_store))
    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    rows = _corpus_rows(v2)
    partitions, carry = update_way
    s, upd, full = _updated_and_fresh(
        tmp_path, corpus_dir, catalog_pairs, rows, "v2",
        cfg=PipelineConfig(output_partitions=partitions), old_store=store1)
    assert s["carry"] == carry and s["docs_retagged"] == 7 + 4
    assert s["num_partitions"] == partitions
    _assert_update_equals_fresh(upd, full)


@pytest.mark.parametrize("case", ["null_corpus", "null_old_store"])
def test_update_kg_null_key_rows(ray_session, corpus_dir, catalog_pairs,
                                 tmp_path, case, update_way):
    """Rows with a null key column name no document: the tagger skips
    them, structure extraction keeps them. An update equals a fresh build
    for a corpus whose rows all have null keys, and from an old store
    holding null-key structure rows that the new corpus still has: round
    B never carries such a row, the fresh corpus re-extracts it."""
    rows = _corpus_rows(corpus_dir)
    if case == "null_corpus":
        old_rows, new_rows = rows, [dict(r, commit=None) for r in rows]
    else:
        nulls = [dict(r, commit=None) for r in rows[:3]]
        v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
        old_rows, new_rows = rows + nulls, _corpus_rows(v2) + nulls
    old_store = str(tmp_path / "old")
    run_kg(_write_corpus_rows(old_rows, str(tmp_path / "old_corpus")),
           catalog_pairs, old_store, CFG, build_entities=False,
           include_structure=True)
    partitions, carry = update_way
    s, upd, full = _updated_and_fresh(
        tmp_path, corpus_dir, catalog_pairs, new_rows, case,
        cfg=PipelineConfig(output_partitions=partitions),
        old_store=old_store, include_structure=True)
    assert s["carry"] == carry and s["docs_total"] == len(new_rows)
    if case == "null_corpus":   # no old document is kept
        assert s["rows_carried"] == 0 and s["docs_dropped"] > 0
        assert s["docs_retagged"] == len(new_rows)
    _assert_update_equals_fresh(upd, full)


def test_update_kg_dataset_fallback_equals_partition_path(
        ray_session, corpus_dir, catalog_pairs, tmp_path, monkeypatch):
    """Past the broadcast bound the update joins the dropped doc keys with
    a Dataset join but carries the triples partition by partition, and
    for a ``P`` other than the old store's it re-buckets them; lineage
    records which carry ran, and the triples equal the partition
    path's."""
    import json

    import pandas as pd

    import ccnerx_ray.ops.join as join

    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    rows = _corpus_rows(v2)
    s, upd, _ = _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs,
                                   rows, "partition")
    assert s["carry"] == "partition"
    monkeypatch.setattr(join, "BROADCAST_BYTES_DEFAULT", 1)
    s_ds, upd_ds, _ = _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs,
                                         rows, "dataset")
    with open(os.path.join(upd_ds, "_lineage", "_summary.json")) as fh:
        assert json.load(fh)["carry"] == s_ds["carry"] == "partition"
    assert (s_ds["docs_total"], s_ds["docs_retagged"]) == (
        s["docs_total"], s["docs_retagged"])
    pd.testing.assert_frame_equal(_triple_frame(upd_ds), _triple_frame(upd))
    pd.testing.assert_frame_equal(_entity_frame(upd_ds), _entity_frame(upd))
    monkeypatch.undo()

    s_p8, upd_p8, full_p8 = _updated_and_fresh(
        tmp_path, corpus_dir, catalog_pairs, rows, "p8",
        cfg=PipelineConfig(output_partitions=8))
    assert s_p8["carry"] == "rebucket" and s_p8["num_partitions"] == 8
    pd.testing.assert_frame_equal(_triple_frame(upd_p8), _triple_frame(upd))


def test_update_kg_from_chunked_store_equals_fresh_build(
        ray_session, corpus_dir, catalog_pairs, tmp_path):
    """An old store written by ``run_resumable`` in two chunks: each
    partition task reads ``part=K`` of both chunks."""
    import pandas as pd

    from ccnerx_ray.io.store import run_resumable

    chunked = str(tmp_path / "chunked")

    def run_chunk(chunk_files, chunk_dir):
        run_kg(chunk_files, catalog_pairs, chunk_dir, CFG,
               build_entities=False)

    ran = run_resumable(sorted(glob.glob(os.path.join(corpus_dir, "*.parquet"))),
                        chunked, run_chunk, chunk_size=2)
    assert len(ran["chunks_run"]) == 2
    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    s, upd, full = _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs,
                                      _corpus_rows(v2), "v2",
                                      old_store=chunked)
    assert s["carry"] == "partition" and s["docs_retagged"] == 7 + 4
    pd.testing.assert_frame_equal(_triple_frame(upd), _triple_frame(full))
    pd.testing.assert_frame_equal(_entity_frame(upd), _entity_frame(full))


def test_update_kg_lineage_explains_the_run(ray_session, corpus_dir,
                                            catalog_pairs, tmp_path):
    """The update's lineage summary says which carry-forward ran, how many
    documents it dropped, how many rows it carried and tagged afresh, and
    the wall seconds of each phase."""
    import json

    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    s, upd, _ = _updated_and_fresh(tmp_path, corpus_dir, catalog_pairs,
                                   _corpus_rows(v2), "v2")
    with open(os.path.join(upd, "_lineage", "_summary.json")) as fh:
        lineage = json.load(fh)
    assert lineage["carry"] == "partition"
    assert lineage["docs_dropped"] == 5 + 7     # removed + changed
    assert lineage["rows_carried"] + lineage["rows_fresh"] == lineage["rows"]
    assert lineage["rows_carried"] > 0 and lineage["rows_fresh"] > 0
    assert set(lineage["phases_s"]) == {"corpus_keys", "round_a",
                                        "delta_tagging", "round_b",
                                        "entities"}
    assert all(v >= 0 for v in lineage["phases_s"].values())
    assert lineage["phases_s"] == s["phases_s"]


def test_kg_job_update_keeps_the_old_partitions(ray_session, corpus_dir,
                                                tmp_path, monkeypatch):
    """``jobs/kg_job.py --update-from`` defaults ``--partitions`` to the
    old store's, so an update of a 4-partition build stays partition-local
    without repeating the flag; ``--partitions 8`` re-buckets. Lookups on
    both stores equal a pyarrow scan."""
    import importlib.util
    import json
    import sys

    import ray

    path = os.path.join(os.path.dirname(__file__), "..", "jobs", "kg_job.py")
    spec = importlib.util.spec_from_file_location("kg_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    # the job owns its Ray session when it starts one; here it joins the
    # test session, which must outlive it
    monkeypatch.setattr(ray, "shutdown", lambda: None)

    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["kg_job.py", *argv])
        assert job.main() == 0

    def lineage(store):
        with open(os.path.join(store, "_lineage", "_summary.json")) as fh:
            return json.load(fh)

    store = str(tmp_path / "store")
    run("--input", corpus_dir, "--output", store, "--partitions", "4",
        "--no-resume")
    v2, _ = _corpus_v2(corpus_dir, str(tmp_path / "v2"))
    for flags, partitions, carry in [((), 4, "partition"),
                                     (("--partitions", "8"), 8, "rebucket")]:
        upd = str(tmp_path / f"upd{partitions}")
        run("--input", v2, "--output", upd, "--update-from", store, *flags)
        got = lineage(upd)
        assert (got["num_partitions"], got["carry"]) == (partitions, carry)
        _assert_lookup_equals_scan(upd)
