"""Unified KG store: structural (code) triples alongside mention triples.

Covers ``ops/code.py:file_structure_triples`` / ``structure_store_stats``
and the ``run_kg(include_structure=True)`` / ``update_kg`` wiring — the
north rule's "(subj, pred, obj) triple materialization into a partitioned
graph store" with BOTH the NER-mention and code-structure edge families
in one store.
"""

from __future__ import annotations

import glob
import hashlib
import os

import pyarrow as pa
import pytest

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.corpus import (build_catalog, expected_structure_store,
                               generate_corpus, write_corpus)
from ccnerx_ray.ops.code import file_structure_triples, structure_store_stats
from ccnerx_ray.stages.triples import TRIPLE_SCHEMA

CFG = PipelineConfig(output_partitions=4)
SEED = 42
N_ROWS = 40

STRUCT_PREDS = {"imports", "defines_def", "defines_class", "calls", "uses"}


def _corpus(rows):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "repo": [r[0] for r in rows],
        "path": [r[1] for r in rows],
        "commit": ["c" * 40] * len(rows),
        "lang": ["python"] * len(rows),
        "content": [r[2] for r in rows],
    }))


def _rows(ds):
    import ray
    return [r for b in ds.to_arrow_refs() for r in ray.get(b).to_pylist()]


def test_file_structure_triples_hand_worked(ray_session):
    content_a = "import m1\nimport m1\ndef f1 ( x ) :\ny = f1 ( m1 )"
    content_b = "import m1"
    ds = _corpus([("A", "a.py", content_a), ("B", "b.py", content_b)])
    got = sorted((r["subj"], r["pred"], r["obj"], r["path"])
                 for r in _rows(file_structure_triples(ds)))
    # the duplicate `import m1` in a.py dedups per FILE; the same fact in
    # b.py is a separate row (different file)
    assert got == [
        ("A", "calls", "f1", "a.py"),
        ("A", "defines_def", "f1", "a.py"),
        ("A", "imports", "m1", "a.py"),
        ("A", "uses", "m1", "a.py"),
        ("B", "imports", "m1", "b.py"),
    ]
    for r in _rows(file_structure_triples(ds)):
        want = content_a if r["path"] == "a.py" else content_b
        assert r["content_sha256"] == hashlib.sha256(
            want.encode()).hexdigest()
        assert r["commit"] == "c" * 40
        assert r["surface"] == r["norm_key"] == r["label"] == ""


def test_file_structure_triples_schema(ray_session):
    ds = _corpus([("A", "a.py", "import m1")])
    import ray
    t = pa.concat_tables(
        [ray.get(b) for b in file_structure_triples(ds).to_arrow_refs()])
    assert t.schema.equals(TRIPLE_SCHEMA)


def test_structure_store_stats_hand_worked(ray_session):
    ds = _corpus([
        ("A", "a.py", "import m1\nimport m2"),
        ("A", "b.py", "import m1"),
        ("B", "c.py", "def f1 ( x ) :"),
    ])
    got = sorted((r["subj"], r["pred"], r["n_facts"], r["n_objs"])
                 for r in _rows(
                     structure_store_stats(file_structure_triples(ds))))
    # A/imports: 3 file-distinct facts (m1 in two files + m2), 2 objs
    assert got == [("A", "imports", 3, 2), ("B", "defines_def", 1, 1)]


def test_generator_parity_structure_store(ray_session):
    import ray.data
    t = generate_corpus(240, seed=42)
    ds = ray.data.from_arrow([t.slice(i * 30, 30) for i in range(8)])
    got = sorted((r["subj"], r["pred"], r["n_facts"], r["n_objs"])
                 for r in _rows(
                     structure_store_stats(file_structure_triples(ds))))
    want = sorted((r["subj"], r["pred"], r["n_facts"], r["n_objs"])
                  for r in expected_structure_store(240, seed=42).to_pylist())
    assert got == want


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus_struct")
    return write_corpus(str(d), N_ROWS, seed=SEED, num_files=4)


@pytest.fixture(scope="module")
def catalog_pairs():
    return sorted(build_catalog(SEED).surface2label.items())


def test_run_kg_include_structure(ray_session, corpus_dir, catalog_pairs,
                                  tmp_path):
    """One store, two edge families: the structural rows in the unified
    store equal the direct emitter's output, the mention rows equal a
    structure-free run, and the entity table ignores structural rows."""
    from ccnerx_ray.io.store import read_triple_store
    from ccnerx_ray.pipelines.kg import read_corpus, run_kg

    out = str(tmp_path / "store_unified")
    base = str(tmp_path / "store_base")
    summary = run_kg(corpus_dir, catalog_pairs, out, CFG,
                     include_structure=True)
    run_kg(corpus_dir, catalog_pairs, base, CFG, build_entities=False)

    def key(r):
        return tuple(r[c] for c in TRIPLE_SCHEMA.names)

    rows = [r for r in _rows(read_triple_store(out))]
    struct = sorted(key(r) for r in rows if r["pred"] in STRUCT_PREDS)
    ment = sorted(key(r) for r in rows if r["pred"] not in STRUCT_PREDS)
    want_struct = sorted(key(r) for r in _rows(
        file_structure_triples(read_corpus(corpus_dir, CFG))))
    want_ment = sorted(key(r) for r in _rows(read_triple_store(base)))
    assert struct == want_struct and len(struct) > 0
    assert ment == want_ment

    # entity canonicalization only sees mentioned_in rows
    ents = glob.glob(summary["entities_path"] + "/*.parquet")
    assert ents
    import pyarrow.parquet as pq
    keys = pa.concat_tables([pq.read_table(f) for f in ents]) \
             .column("norm_key").to_pylist()
    assert "" not in keys


def test_update_kg_include_structure_equals_full(ray_session, corpus_dir,
                                                 catalog_pairs, tmp_path,
                                                 update_way):
    """Incremental update with structural triples on: carry-forward +
    delta re-extract reproduces a fresh unified run bit-for-bit (triples
    and entity table, both typed), also past the broadcast bound and
    when the update changes ``P``."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ccnerx_ray.io.store import read_triple_store
    from ccnerx_ray.pipelines.kg import run_kg, update_kg
    from ccnerx_ray.stages.canonical import ENTITY_SCHEMA

    store1 = str(tmp_path / "s1")
    run_kg(corpus_dir, catalog_pairs, store1, CFG, build_entities=False,
           include_structure=True)

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    rows = [r for f in files for r in pq.read_table(f).to_pylist()]
    rows = rows[3:]
    for r in rows[:5]:
        r["content"] = r["content"] + "\nimport extra_mod"
    rows.append({"repo": "new/repo", "path": "added.py", "commit": "f" * 40,
                 "lang": "python", "content": "import parse_cfg\nclass K :"})
    v2 = str(tmp_path / "v2")
    os.makedirs(v2)
    t = pa.Table.from_pylist(rows)
    pq.write_table(t, os.path.join(v2, "a.parquet"))

    partitions, carry = update_way
    cfg = PipelineConfig(output_partitions=partitions)
    upd = str(tmp_path / "s_upd")
    full = str(tmp_path / "s_full")
    s_upd = update_kg(v2, catalog_pairs, store1, upd, cfg,
                      include_structure=True)
    run_kg(v2, catalog_pairs, full, cfg, include_structure=True)
    assert s_upd["docs_retagged"] == 5 + 1
    assert s_upd["carry"] == carry

    def frame(store):
        df = read_triple_store(store).to_pandas()
        cols = sorted(c for c in df.columns if c != "part")
        return df[cols].sort_values(cols).reset_index(drop=True)

    def entities(store):
        t = pa.concat_tables([pq.read_table(f) for f in sorted(
            glob.glob(os.path.join(store + "_entities", "*.parquet")))])
        assert t.schema.equals(ENTITY_SCHEMA)
        df = t.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(frame(upd), frame(full))
    pd.testing.assert_frame_equal(entities(upd), entities(full))
    for f in glob.glob(os.path.join(upd, "part=*", "*.parquet")):
        assert pq.read_schema(f).equals(TRIPLE_SCHEMA, check_metadata=True)
