"""ccnerx_ray — a Ray-Data-native knowledge-graph-construction engine.

A from-scratch re-expression of the data-processing capabilities of the
reference repo (Creator-SN/ccNERx, at /root/reference) as idiomatic Ray Data
pipelines: BIOES mention detection with lexicon fusion, candidate generation,
entity-link scoring, surface-form canonicalization and (subj, pred, obj)
triple materialization over Parquet tables of source-code repositories
``(repo, path, commit, lang, content)``.

Architecture (not a port — see SURVEY.md):

* every per-record transform is a vectorized ``map_batches`` over zero-copy
  Arrow batches;
* tag → link → emit runs as one fused ``map_batches`` task whose state
  (trie matcher, tagger model, catalog) is built once per worker process;
* wide steps (canonicalization clustering, dedup) are coarse
  hash-partitioned ``groupby`` aggregations sized from the data;
* small lookup sides (lexicon, entity catalog, vocab) are broadcast via
  ``ray.put`` — never shuffled;
* output is partitioned Parquet with per-partition lineage sidecars for
  resumable runs.

No module in this package calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
