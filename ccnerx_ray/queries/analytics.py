"""Training-data analytics + KG flagship queries over the test tables.

SQL-expressible ops carry a DuckDB oracle with definitions matched token
for token (integer outputs where float hashing would be fragile); the
model-driven / sketch-driven ops (tagger KG, MinHash, SimHash, langid,
fingerprint, IVF) are rows-only checks — the driver records the weaker
check and the pytest suite covers their semantics against planted fixtures
and numpy oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.functions.hashing import sha256_hex
from ccnerx_ray.functions.tokenize import ws_tokens
from ccnerx_ray.ops.dedup import (embedding_dup_pairs, exact_dedup_groups,
                                  minhash_dedup_pairs, simhash_pairs)
from ccnerx_ray.ops.quantize import sq_build_store, sq_knn, sq_knn_store
from ccnerx_ray.ops.similarity import (ivf_build_store, ivf_knn,
                                       ivf_knn_store, knn_bruteforce)
from ccnerx_ray.ops.text import (add_fingerprint, add_langid,
                                 add_quality_score, add_token_stats)

_STOPS_SQL = "('the','a','of','and','to','in','is','for','on','with','that','it','as','at','by')"


def _docs(sf_dir: str, columns=None):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _fan_out(ds):
    """Repartition a TINY single-file dataset across the cluster before a
    compute-heavy stage: the sf tables ship as one parquet file with one
    row group, so the lone read task's streaming block generator trickles
    blocks and caps downstream parallelism at a couple of in-flight tasks
    (measured 3.5s → 1.0s at sf0.1/32cpu). The production corpus path
    (pipelines/kg.py:read_corpus) gets parallelism from file count and
    must NOT do this."""
    import ray
    n = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return ds.repartition(max(16, n))


def _docs_wide(sf_dir: str, columns=None):
    """documents fanned out for compute-heavy per-batch stages; cheap-map
    queries read plain ``_docs``."""
    return _fan_out(_docs(sf_dir, columns))


def _emb(sf_dir: str):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


# ------------------------------------------------------------- token stats
def q_token_stats(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(add_token_stats, batch_format="pyarrow") \
             .select_columns(["doc_id", "n_tokens", "n_uniq_tokens"])


ORACLE_TOKEN_STATS = r"""
WITH t AS (
  -- filtered regex split of the RAW text == Python split() of the
  -- stripped text for ALL whitespace (DuckDB trim() strips spaces only)
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
)
SELECT doc_id, len(tk) AS n_tokens,
       len(list_distinct(tk)) AS n_uniq_tokens
FROM t
"""


# ------------------------------------------------- unigram LM quality score
def q_doc_lm_score(sf_dir: str):
    """CCNet/KenLM-style perplexity quality scoring with the unigram
    model TRAINED from the corpus itself (ops/lm.py): one combiner
    wordcount scan lands the vocab-scale model, then every document is
    scored by its exact-integer surprisal — per-token bits =
    ``bitlen(N) - bitlen(count)`` (floor-log2, ≥0) — so the whole
    train→score loop value-hashes against SQL (``length(bin(x))`` is the
    DuckDB twin of ``int.bit_length``). Model broadcasts under the
    asserted byte bound; the forced-partitioned co-group path is pinned
    bit-equal by `tests/test_lm.py`."""
    from ccnerx_ray.ops.lm import score_documents, train_unigram
    ds = _docs(sf_dir, ["doc_id", "text"])
    model = train_unigram(ds)
    return score_documents(ds, model)


ORACLE_DOC_LM_SCORE = r"""
WITH toks AS (
  SELECT doc_id, unnest(list_filter(string_split_regex(text, '\s+'),
                                    w -> w <> '')) AS w
  FROM documents
),
model AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY w),
nt AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM model),
scored AS (
  SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(length(bin(nt.n)) - length(bin(m.c))) AS BIGINT)
             AS surprisal_bits
  FROM toks t JOIN model m ON t.w = m.w CROSS JOIN nt
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       COALESCE(s.n_tokens, 0) AS n_tokens,
       COALESCE(s.surprisal_bits, 0) AS surprisal_bits,
       CASE WHEN s.n_tokens IS NULL OR s.n_tokens = 0 THEN 0
            ELSE CAST((100 * s.surprisal_bits) // s.n_tokens AS BIGINT)
       END AS mean_surprisal_x100
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""


def q_doc_lm2_score(sf_dir: str):
    """Bigram (conditional) LM scoring — the order-2 sibling of
    `doc_lm_score`: position 0 pays unigram surprisal, position i>0 pays
    ``bitlen(cu(prev)) − bitlen(cb(prev, cur))`` (≈ log2 1/P(cur|prev)),
    all exact-integer (ops/lm.py:score_documents_bigram). The bigram
    table is vocab², so this is the LM whose model OUTGROWS the
    broadcast bound first — the forced-partitioned path (three co-group
    lookups, keys as separate columns) is pinned by parity test."""
    from ccnerx_ray.ops.lm import (score_documents_bigram, train_bigram,
                                   train_unigram)
    ds = _docs(sf_dir, ["doc_id", "text"])
    return score_documents_bigram(ds, train_unigram(ds), train_bigram(ds))


ORACLE_DOC_LM2_SCORE = r"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
),
toks AS (
  SELECT doc_id, tk, unnest(tk) AS w, generate_subscripts(tk, 1) AS i
  FROM t WHERE len(tk) > 0
),
uni AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY w),
nt AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM uni),
big AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
  FROM (SELECT tk[i-1] AS w1, w AS w2 FROM toks WHERE i > 1)
  GROUP BY w1, w2
),
pos AS (
  SELECT p.doc_id,
         CASE WHEN p.i = 1 THEN
           CASE WHEN u.c IS NULL THEN length(bin(nt.n))
                ELSE length(bin(nt.n)) - length(bin(u.c)) END
         ELSE
           CASE WHEN up.c IS NULL THEN
                  CASE WHEN u.c IS NULL THEN length(bin(nt.n))
                       ELSE length(bin(nt.n)) - length(bin(u.c)) END
                WHEN b.c IS NULL THEN length(bin(up.c))
                ELSE length(bin(up.c)) - length(bin(b.c)) END
         END AS bits
  FROM toks p CROSS JOIN nt
  LEFT JOIN uni u ON u.w = p.w
  LEFT JOIN uni up ON p.i > 1 AND up.w = p.tk[p.i - 1]
  LEFT JOIN big b ON p.i > 1 AND b.w1 = p.tk[p.i - 1] AND b.w2 = p.w
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(bits) AS BIGINT) AS surprisal_bits
  FROM pos GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_tokens, 0) AS n_tokens,
       COALESCE(a.surprisal_bits, 0) AS surprisal_bits,
       CASE WHEN a.n_tokens IS NULL OR a.n_tokens = 0 THEN 0
            ELSE CAST((100 * a.surprisal_bits) // a.n_tokens AS BIGINT)
       END AS mean_surprisal_x100
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
"""


# ------------------------------------------------- passage-level exact dedup
def q_passage_dedup(sf_dir: str):
    """Sub-document exact dedup (ops/dedup.py:passage_dedup_stats):
    consecutive 4-token passages, keep the global FIRST occurrence by
    (doc_id, idx), count what later copies would drop. Window 4 so the
    synthetic corpus actually contains cross-document repeats; passage
    identity is the sha256 of the length-prefixed token join — mirrored
    EXACTLY in the oracle, so both sides share identity semantics."""
    from ccnerx_ray.ops.dedup import passage_dedup_stats
    ds = _docs(sf_dir, ["doc_id", "text"])
    return passage_dedup_stats(ds, window=4)


ORACLE_PASSAGE_DEDUP = r"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
),
st AS (
  SELECT doc_id, tk, unnest([x for x in range(1, len(tk) + 1, 4)]) AS s
  FROM t WHERE len(tk) > 0
),
p AS (
  SELECT doc_id, CAST((s - 1) // 4 AS BIGINT) AS idx,
         sha256(array_to_string(list_transform(
             list_slice(tk, s, least(s + 3, len(tk))),
             x -> CAST(length(x) AS VARCHAR) || ':' || x), '')) AS pkey,
         CAST(least(s + 3, len(tk)) - s + 1 AS BIGINT) AS n_toks
  FROM st
),
m AS (
  SELECT doc_id, n_toks,
         CASE WHEN row_number() OVER (PARTITION BY pkey
                                      ORDER BY doc_id, idx) = 1
              THEN 0 ELSE 1 END AS dup
  FROM p
),
a AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_passages,
         CAST(sum(dup) AS BIGINT) AS n_dup_passages,
         CAST(sum(dup * n_toks) AS BIGINT) AS n_tokens_dropped
  FROM m GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(a.n_passages, 0) AS n_passages,
       COALESCE(a.n_dup_passages, 0) AS n_dup_passages,
       COALESCE(a.n_tokens_dropped, 0) AS n_tokens_dropped
FROM documents d LEFT JOIN a ON d.doc_id = a.doc_id
"""


# ------------------------------------------------------ inverted-index store
_INDEX_TERMS = ["table", "query", "scan", "zz_no_such_term"]


def _index_store_dir(sf_dir: str) -> str:
    """Build (or reuse) the term-partitioned inverted-index store for
    this sf_dir under /tmp (the `_ivf_store_dir` recipe: deterministic
    build, source marker invalidates stale stores)."""
    import os
    import shutil

    from ccnerx_ray.ops.index import build_index_store

    src = os.path.join(sf_dir, "documents.parquet")
    # v2: postings carry doc_len; ledger carries n_docs/n_tokens
    marker = f"v2|{src}|{os.path.getsize(src)}|{os.path.getmtime(src)}"
    store = os.path.join("/tmp/ccnerx_invidx",
                         os.path.basename(os.path.normpath(sf_dir)))
    mfile = os.path.join(store, "_source.txt")
    if os.path.exists(mfile) and open(mfile).read() == marker:
        return store
    shutil.rmtree(store, ignore_errors=True)
    build_index_store(_docs(sf_dir, ["doc_id", "text"]), store,
                      num_shards=16)
    with open(mfile, "w") as f:
        f.write(marker)
    return store


def q_index_lookup(sf_dir: str):
    """Partition-pruned EXACT retrieval: postings for the probe terms
    read from ONLY the shards they route to (ops/index.py — the
    text-side sibling of the IVF store, but exact, so the whole
    build→shard→prune→probe loop is oracle-paired; `_lineage/probe.json`
    records bytes_probed < bytes_total). One probe term is deliberately
    absent from the corpus — absence must be exact too."""
    from ccnerx_ray.ops.index import lookup_terms
    return lookup_terms(_index_store_dir(sf_dir), _INDEX_TERMS)


ORACLE_INDEX_LOOKUP = r"""
WITH t AS (
  SELECT doc_id, unnest(list_filter(string_split_regex(text, '\s+'),
                                    w -> w <> '')) AS w
  FROM documents
)
SELECT w AS term, doc_id, CAST(count(*) AS BIGINT) AS tf
FROM t
WHERE w IN ('table', 'query', 'scan', 'zz_no_such_term')
GROUP BY w, doc_id
"""


# ------------------------------------------------- composite curation pass
def q_curation_pass(sf_dir: str):
    """The end-to-end CURATION decision a training-data pipeline
    actually ships: every document gets a drop-reason BITMASK from four
    independent filter families and ``keep = (reasons == 0)`` —

    * bit 1: too short (``n_tokens < 20``),
    * bit 2: repetitive (duplicate-bigram per-mille > 100 — Gopher §A1.1),
    * bit 4: boilerplate spans (>25% of its 4-token passages are
      non-first copies — ``passage_dedup_stats``),
    * bit 8: off-distribution under the corpus's OWN unigram LM
      (``mean_surprisal_x100 > 510`` — the CCNet regime).

    Composition shape: three sources each emit exactly ONE ``(doc_id,
    partial-bitmask)`` row per document (bits are disjoint powers of
    two), a union + one pre-combined reduce sums them into the mask —
    no joins, and each family runs its own already-verified scale path
    (``ops/curation.py:curation_mask``; the operational form is
    ``jobs/curate_job.py``). Thresholds chosen to genuinely split the
    synthetic corpus (each bit fires on some docs at sf0.01). Fully
    SQL-oracle-paired end to end."""
    from ccnerx_ray.ops.curation import curation_mask
    return curation_mask(_docs(sf_dir, ["doc_id", "text"]))


def _curation_oracle_sql() -> str:
    return rf"""
WITH p AS ({ORACLE_PASSAGE_DEDUP}),
s AS ({ORACLE_DOC_LM_SCORE}),
t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
),
r AS (
  SELECT doc_id, len(tk) AS n_tokens,
         greatest(len(tk) - 1, 0) AS nb,
         len(list_distinct([tk[i] || chr(31) || tk[i+1]
                            for i in range(1, len(tk))])) AS ub
  FROM t
),
b AS (
  SELECT r.doc_id,
         (CASE WHEN r.n_tokens < 20 THEN 1 ELSE 0 END)
       + (CASE WHEN r.nb > 0 AND 1000 * (r.nb - r.ub) > 100 * r.nb
               THEN 2 ELSE 0 END)
       + (CASE WHEN p.n_passages > 0
                AND 1000 * p.n_dup_passages > 250 * p.n_passages
               THEN 4 ELSE 0 END)
       + (CASE WHEN s.mean_surprisal_x100 > 510 THEN 8 ELSE 0 END)
         AS reasons
  FROM r JOIN p ON r.doc_id = p.doc_id JOIN s ON r.doc_id = s.doc_id
)
SELECT doc_id, CAST(reasons AS BIGINT) AS reasons,
       CAST(CASE WHEN reasons = 0 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM b
"""


def q_index_bm25(sf_dir: str):
    """Exact-integer BM25 answered FROM the inverted-index store: only
    the shards the query terms route to are read (df pass + score pass
    over the pruned file list), the corpus is never rescanned — and the
    result must be BIT-IDENTICAL to `bm25_topk`'s two-corpus-scan path,
    so it shares that query's oracle (the `ivf_knn_store_full` ≡ exact
    KNN recipe, but here the index itself is exact)."""
    from ccnerx_ray.ops.index import index_bm25
    return index_bm25(_index_store_dir(sf_dir), top_k=10)


# ------------------------------------------------------- repetition signals
def q_repetition(sf_dir: str):
    """Gopher-style within-document duplicate-n-gram signals (quality
    filtering for LLM training corpora: Rae et al. 2021 §A1.1 drops docs
    whose duplicate 2-/3-gram fraction exceeds thresholds). Stateless
    vectorizable map; all-integer output for exact value hashing."""
    from ccnerx_ray.ops.text import add_repetition_stats
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(add_repetition_stats, batch_format="pyarrow") \
             .select_columns(["doc_id", "n_bigrams", "n_uniq_bigrams",
                              "n_trigrams", "n_uniq_trigrams"])


ORACLE_REPETITION = r"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
)
SELECT doc_id,
       CAST(greatest(len(tk) - 1, 0) AS BIGINT) AS n_bigrams,
       CAST(len(list_distinct([tk[i] || chr(31) || tk[i+1]
                               for i in range(1, len(tk))])) AS BIGINT)
         AS n_uniq_bigrams,
       CAST(greatest(len(tk) - 2, 0) AS BIGINT) AS n_trigrams,
       CAST(len(list_distinct([tk[i] || chr(31) || tk[i+1] || chr(31)
                               || tk[i+2]
                               for i in range(1, len(tk) - 1)])) AS BIGINT)
         AS n_uniq_trigrams
FROM t
"""


# ------------------------------------------------------ decontamination
EVAL_SOURCES = ("src0", "src1")     # deterministic eval split of the corpus


def q_decontaminate(sf_dir: str):
    """GPT-3-style 13-gram train/eval decontamination: for every eval
    document (source ∈ EVAL_SOURCES), how many of its distinct 13-grams
    occur verbatim anywhere in the train split. The shuffle carries gram
    digests (int64), never gram text; see ops/decontaminate.py."""
    from ccnerx_ray.ops.decontaminate import ngram_contamination
    ds = _docs(sf_dir, ["doc_id", "source", "text"])
    return ngram_contamination(ds, set(EVAL_SOURCES), n=13)


ORACLE_DECONTAMINATE = r"""
WITH toks AS (
  SELECT doc_id, source,
         list_filter(string_split_regex(text, '\s+'), w -> w <> '') AS l
  FROM documents
), grams AS (
  SELECT doc_id, source,
         unnest([ list_aggregate(l[i:i+12], 'string_agg', chr(31))
                  for i in range(1, len(l) - 11) ]) AS g
  FROM toks
), eg AS (
  SELECT DISTINCT doc_id, g FROM grams WHERE source IN ('src0', 'src1')
), tg AS (
  SELECT DISTINCT g FROM grams WHERE source NOT IN ('src0', 'src1')
), base AS (
  SELECT doc_id, count(*) AS n FROM eg GROUP BY doc_id
), cont AS (
  SELECT doc_id, count(*) AS n FROM eg JOIN tg USING (g) GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(b.n, 0) AS n_grams,
       coalesce(c.n, 0) AS n_contaminated
FROM (SELECT doc_id FROM documents WHERE source IN ('src0', 'src1')) d
LEFT JOIN base b USING (doc_id)
LEFT JOIN cont c USING (doc_id)
"""


def q_dup_ngrams(sf_dir: str):
    """Within-corpus repeated-span exposure: per document, how many of
    its distinct 3-grams occur verbatim in at least one OTHER document
    (the n-gram-windowed form of substring dedup; boilerplate/template
    signal). One corpus scan, digest-only shuffle — ops/dedup.py
    ``shared_ngram_stats``."""
    from ccnerx_ray.ops.dedup import shared_ngram_stats
    ds = _docs(sf_dir, ["doc_id", "text"])
    return shared_ngram_stats(ds, n=3)


ORACLE_DUP_NGRAMS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), w -> w <> '') AS l
  FROM documents
), grams AS (
  SELECT doc_id, unnest([ list_aggregate(l[i:i+2], 'string_agg', chr(31))
                          for i in range(1, len(l) - 1) ]) AS g
  FROM toks
), dg AS (
  SELECT DISTINCT doc_id, g FROM grams
), cnt AS (
  SELECT g, count(*) AS c FROM dg GROUP BY g
), per AS (
  SELECT doc_id, count(*) AS n_grams,
         sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS n_shared
  FROM dg JOIN cnt USING (g) GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(coalesce(p.n_grams, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(p.n_shared, 0) AS BIGINT) AS n_shared
FROM documents d LEFT JOIN per p USING (doc_id)
"""


# ------------------------------------------------------------- profiling
_PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q_profile(sf_dir: str):
    """Numeric column profile of the biggest fact table (null rates,
    ranges, magnitudes) — mergeable partial stats per block, tiny merge;
    the first thing any ingestion run computes at 100 TB."""
    from ccnerx_ray.ops.profile import profile_numeric
    return profile_numeric(_read_rel(sf_dir, "lineitem", _PROFILE_COLS),
                           _PROFILE_COLS)


def _read_rel(sf_dir: str, table: str, columns):
    from ccnerx_ray.queries.relational import _read
    return _read(sf_dir, table, columns)


def _profile_oracle() -> str:
    from ccnerx_ray.ops.profile import profile_oracle_sql
    return profile_oracle_sql("lineitem", _PROFILE_COLS)


ORACLE_PROFILE = _profile_oracle()


_QUANTILE_QS = [(10, 0.01), (250, 0.25), (500, 0.5), (750, 0.75),
                (900, 0.9), (990, 0.99)]


def q_quantiles(sf_dir: str):
    """EXACT order statistics of order totals WITHOUT a global sort:
    histogram-refinement (ops/profile.py:exact_quantiles) — mergeable
    int64 histogram vectors per block, bounded driver collect. Matches
    DuckDB quantile_disc rank-for-rank."""
    import math

    import pyarrow as pa

    from ccnerx_ray.ops.profile import exact_quantiles
    ds = _read_rel(sf_dir, "orders", ["o_totalprice"])
    got = exact_quantiles(ds, "o_totalprice", [q for _, q in _QUANTILE_QS])
    return pa.table({
        "q_permille": pa.array([pm for pm, _ in _QUANTILE_QS], pa.int64()),
        # half-away-from-zero (DuckDB round), not Python's half-to-even
        "value_cents": pa.array(
            [int(math.copysign(math.floor(abs(got[q] * 100) + 0.5), got[q]))
             for _, q in _QUANTILE_QS],
            pa.int64()),
    })


ORACLE_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT CAST({pm} AS BIGINT) AS q_permille, "
    f"CAST(round(quantile_disc(o_totalprice, {q}) * 100) AS BIGINT) "
    f"AS value_cents FROM orders"
    for pm, q in _QUANTILE_QS)


_QUANTILE_CONT_QS = [(250, 0.25), (500, 0.5), (750, 0.75), (900, 0.9)]


def q_quantiles_cont(sf_dir: str):
    """CONTINUOUS (interpolated) quantiles of order totals, exact and
    shuffle-free (ops/profile.py:exact_quantiles_cont): the two order
    statistics flanking each quantile come from the same histogram-
    refinement core as `quantiles`, interpolated with DuckDB's
    quantile_cont operand order. Values reported as quarter-cents
    (x400) — exact integers for quartile fractions on cent-valued
    prices, so the oracle compare is integer-exact, not float-fuzzy."""
    import math

    import pyarrow as pa

    from ccnerx_ray.ops.profile import exact_quantiles_cont
    ds = _read_rel(sf_dir, "orders", ["o_totalprice"])
    got = exact_quantiles_cont(ds, "o_totalprice",
                               [q for _, q in _QUANTILE_CONT_QS])
    return pa.table({
        "q_permille": pa.array([pm for pm, _ in _QUANTILE_CONT_QS],
                               pa.int64()),
        # half-away-from-zero (DuckDB round), not Python's half-to-even
        "value_x400": pa.array(
            [int(math.copysign(math.floor(abs(got[q] * 400) + 0.5), got[q]))
             for _, q in _QUANTILE_CONT_QS],
            pa.int64()),
    })


ORACLE_QUANTILES_CONT = "\nUNION ALL\n".join(
    f"SELECT CAST({pm} AS BIGINT) AS q_permille, "
    f"CAST(round(quantile_cont(o_totalprice, {q}) * 400) AS BIGINT) "
    f"AS value_x400 FROM orders"
    for pm, q in _QUANTILE_CONT_QS)


def q_quantile_summary(sf_dir: str):
    """Discrete AND continuous quantiles of order totals off ONE shared
    front (ops/profile.py:quantile_summary): one count/min/max pass plus
    one histogram-refinement solve covers the union of both rank sets —
    the separate `quantiles` / `quantiles_cont` queries each paid their
    own full scans over the same column (VERDICT r2 pipeline audit).
    Values in quarter-cents (x400, exact integers for quartile fractions
    on cent-valued prices) for both families."""
    import math

    import pyarrow as pa

    from ccnerx_ray.ops.profile import quantile_summary
    ds = _read_rel(sf_dir, "orders", ["o_totalprice"])
    disc, cont = quantile_summary(ds, "o_totalprice",
                                  [q for _, q in _QUANTILE_QS],
                                  [q for _, q in _QUANTILE_CONT_QS])

    def x400(v: float) -> int:
        # half-away-from-zero (DuckDB round), not Python's half-to-even
        return int(math.copysign(math.floor(abs(v * 400) + 0.5), v))

    rows = ([("disc", pm, x400(disc[q])) for pm, q in _QUANTILE_QS]
            + [("cont", pm, x400(cont[q])) for pm, q in _QUANTILE_CONT_QS])
    return pa.table({
        "kind": pa.array([r[0] for r in rows], pa.string()),
        "q_permille": pa.array([r[1] for r in rows], pa.int64()),
        "value_x400": pa.array([r[2] for r in rows], pa.int64()),
    })


ORACLE_QUANTILE_SUMMARY = "\nUNION ALL\n".join(
    [f"SELECT 'disc' AS kind, CAST({pm} AS BIGINT) AS q_permille, "
     f"CAST(round(quantile_disc(o_totalprice, {q}) * 400) AS BIGINT) "
     f"AS value_x400 FROM orders" for pm, q in _QUANTILE_QS]
    + [f"SELECT 'cont' AS kind, CAST({pm} AS BIGINT) AS q_permille, "
       f"CAST(round(quantile_cont(o_totalprice, {q}) * 400) AS BIGINT) "
       f"AS value_x400 FROM orders" for pm, q in _QUANTILE_CONT_QS])


# ------------------------------------------------------------- quality
def q_quality(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(add_quality_score, batch_format="pyarrow") \
             .select_columns(["doc_id", "stopword_pm", "punct_pm", "quality"])


ORACLE_QUALITY = rf"""
WITH t AS (
  SELECT doc_id, text,
    CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                              w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM documents
), m AS (
  SELECT doc_id, text, toks,
    len(toks) AS n,
    len(list_filter(toks, w -> lower(w) IN {_STOPS_SQL})) AS stops,
    length(regexp_replace(text, '[\w\s]', '', 'g')) AS punct,
    1.0 * list_sum(list_transform(toks, w -> length(w))) / len(toks) AS mean_len
  FROM t
)
SELECT doc_id,
  CASE WHEN toks IS NULL THEN 0
       ELSE CAST(floor(1000.0 * stops / n) AS BIGINT) END AS stopword_pm,
  CASE WHEN toks IS NULL THEN 0
       ELSE CAST(floor(1000.0 * punct / greatest(1, length(text))) AS BIGINT) END AS punct_pm,
  CASE WHEN toks IS NULL THEN 0
       ELSE greatest(0, 100
            - CASE WHEN n < 5 THEN 40 ELSE 0 END
            - CASE WHEN mean_len < 2 OR mean_len > 12 THEN 20 ELSE 0 END
            - CASE WHEN floor(1000.0 * punct / greatest(1, length(text))) > 300 THEN 20 ELSE 0 END
            - CASE WHEN stops = 0 THEN 10 ELSE 0 END) END AS quality
FROM m
"""


# ------------------------------------------------------------- exact dedup
def q_exact_dedup(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return exact_dedup_groups(ds).select_columns(["keep_id", "n_copies"])


ORACLE_EXACT_DEDUP = """
SELECT min(doc_id) AS keep_id, count(*) AS n_copies
FROM documents GROUP BY text
"""


# ------------------------------------------------------------- knn
def _query_matrix(sf_dir: str, n: int = 4) -> tuple[np.ndarray, list[int]]:
    import duckdb
    con = duckdb.connect()
    rows = con.sql(
        f"SELECT vec_id, embedding FROM '{sf_dir}/embeddings.parquet' "
        f"WHERE vec_id < {n} ORDER BY vec_id").fetchall()
    con.close()
    return np.stack([np.asarray(r[1], dtype=np.float64) for r in rows]), \
        [r[0] for r in rows]


def q_knn(sf_dir: str):
    Q, qids = _query_matrix(sf_dir)
    out = knn_bruteforce(_emb(sf_dir), Q, query_ids=qids, k=10)
    return out.select_columns(["query_id", "vec_id", "rank"])


ORACLE_KNN = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 4)
SELECT qid AS query_id, vec_id, rank FROM (
  SELECT q.qid, e.vec_id,
         row_number() OVER (PARTITION BY q.qid
             ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                      e.vec_id) AS rank
  FROM q CROSS JOIN embeddings e
) WHERE rank <= 10
"""


# ------------------------------------------------------------- embedding dup
def q_embedding_dedup(sf_dir: str):
    return embedding_dup_pairs(_emb(sf_dir), threshold=0.45)


ORACLE_EMBEDDING_DEDUP = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b
  ON a.vec_id < b.vec_id
 AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45
"""


# --------------------------------------------------------- semantic dedup
def q_semantic_dedup(sf_dir: str):
    """SemDeDup: exact-integer k-means clusters the embedding space, then
    min-id-keeper cosine dedup runs WITHIN clusters only — the scale path
    for ``embedding_dedup``'s all-pairs matrix. Same k/n_iter as
    ``kmeans_clusters`` and the same cosine threshold formulation as
    ``embedding_dedup``, so the oracle reuses both proven contracts."""
    from ccnerx_ray.ops.dedup import semantic_dedup
    return semantic_dedup(_emb(sf_dir), k=8, n_iter=3, threshold=0.45)


def _oracle_semantic_dedup() -> str:
    """kmeans CTE chain (identical arithmetic to the kmeans_clusters
    oracle) + one assignment round under the FINAL centroids (df/af) +
    the within-cluster smaller-id cosine EXISTS."""
    from ccnerx_ray.ops.cluster import kmeans_cte_chain
    return kmeans_cte_chain(k=8, n_iter=3, dim=64) + """,
df AS (
  SELECT p.vid, c.cluster, SUM((p.x - c.c) * (p.x - c.c)) AS dist
  FROM pts p JOIN c3 c USING (dim) GROUP BY p.vid, c.cluster
),
af AS (
  SELECT vid, cluster FROM (
    SELECT vid, cluster,
           row_number() OVER (PARTITION BY vid
                              ORDER BY dist, cluster) AS rn
    FROM df) WHERE rn = 1
),
dup AS (
  SELECT DISTINCT a.vid
  FROM af a JOIN af b ON a.cluster = b.cluster AND b.vid < a.vid
  JOIN embeddings ea ON ea.vec_id = a.vid
  JOIN embeddings eb ON eb.vec_id = b.vid
  WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= 0.45
)
SELECT a.vid AS vec_id, a.cluster,
       CAST(CASE WHEN d.vid IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM af a LEFT JOIN dup d ON d.vid = a.vid
"""


# ------------------------------------------------------------- langid
def q_langid(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(add_langid, batch_format="pyarrow") \
             .select_columns(["doc_id", "pred_lang"])


def _langid_oracle() -> str:
    """Generated from ``_LANG_PROFILES`` so the SQL literals can't drift:
    per-language stopword hit counts, argmax with the Python loop's
    first-max-wins tie-break (langs iterated in sorted order ⇒ the CASE
    tests them in sorted order with >=)."""
    from ccnerx_ray.ops.text import _LANG_PROFILES

    langs = sorted(_LANG_PROFILES)
    hits = ",\n    ".join(
        "len(list_filter(low, w -> w IN ({}))) AS {}".format(
            ", ".join(f"'{s}'" for s in sorted(_LANG_PROFILES[lg])), lg)
        for lg in langs)
    arms = []
    for i, lg in enumerate(langs):
        rest = langs[i + 1:]
        cond = " AND ".join(f"{lg} >= {o}" for o in rest) or "TRUE"
        arms.append(f"WHEN {cond} THEN '{lg}'")
    case = "\n       ".join(arms)
    return rf"""
WITH t AS (
  SELECT doc_id,
    CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_transform(list_filter(string_split_regex(text, '\s+'),
                                         w -> w <> ''),
                             w -> lower(w)) END AS low
  FROM documents
), h AS (
  SELECT doc_id,
    {hits}
  FROM t WHERE low IS NOT NULL
)
SELECT doc_id, CASE WHEN greatest({", ".join(langs)}) = 0 THEN 'und'
       {case}
       ELSE 'und' END AS pred_lang
FROM h
UNION ALL
SELECT doc_id, 'und' AS pred_lang FROM t WHERE low IS NULL
"""


ORACLE_LANGID = _langid_oracle()


# --------------------------------------------------------- fingerprint
def q_fingerprint(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(add_fingerprint, batch_format="pyarrow") \
             .select_columns(["doc_id", "fingerprint"])


# min over 8-token shingles of 16-hex-char sha256 prefixes; lexicographic
# min of fixed-width hex == numeric min of the underlying 64-bit values
# (same definition as ops/text.py add_fingerprint)
ORACLE_FINGERPRINT = r"""
WITH t AS (
  SELECT doc_id, CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM documents
)
SELECT doc_id,
  CASE WHEN toks IS NULL THEN '0'
       WHEN len(toks) <= 8 THEN substr(sha256(array_to_string(toks, ' ')), 1, 16)
       ELSE list_min(list_transform(generate_series(1, len(toks) - 7),
            i -> substr(sha256(array_to_string(toks[i:i+7], ' ')), 1, 16)))
  END AS fingerprint
FROM t
"""


def q_minhash_pairs(sf_dir: str):
    return minhash_dedup_pairs(_docs_wide(sf_dir, ["doc_id", "text"]),
                               threshold=0.5)


def q_simhash_pairs(sf_dir: str):
    return simhash_pairs(_docs_wide(sf_dir, ["doc_id", "text"]),
                         max_hamming=6)


def q_tfidf_top_terms(sf_dir: str):
    """Top-3 tf-idf-weighted terms per document (exact rational tf/df
    score; see :func:`ccnerx_ray.ops.text.tfidf_top_terms`)."""
    from ccnerx_ray.ops.text import tfidf_top_terms
    return tfidf_top_terms(_docs(sf_dir, ["doc_id", "text"]), top_n=3)


ORACLE_TFIDF_TOP_TERMS = r"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS toks
  FROM documents
), tf AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
  FROM (SELECT doc_id, unnest(toks) AS term FROM t)
  GROUP BY 1, 2
), df AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
), r AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         row_number() OVER (PARTITION BY tf.doc_id
                            ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC,
                                     tf.term) AS rank
  FROM tf JOIN df USING (term)
)
SELECT doc_id, term, tf, df, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 3
"""


def q_jaccard_pairs(sf_dir: str):
    """EXACT n-gram Jaccard similarity join (distributed inverted-index
    + group-by-pair count; see :func:`ccnerx_ray.ops.dedup.jaccard_pairs`).
    Unlike minhash_pairs this has no estimation error — the oracle checks
    the true Jaccard values bit-for-bit."""
    from ccnerx_ray.ops.dedup import jaccard_pairs
    return jaccard_pairs(_docs_wide(sf_dir, ["doc_id", "text"]),
                         shingle_k=3, threshold=0.5)


def _shingle_cte_sql(k: int, table: str = "documents") -> str:
    """WITH-prefix CTEs ``t → hsx → sh`` yielding ``(doc_id, hashes
    UBIGINT[])`` in the vectorized-fold shingle domain
    (``functions/hashing.py``: token hash = 60-bit sha256 prefix, shingle
    = FNV64-prime multiply-add fold of the window's k token hashes mod
    2^64, then ``// 16`` = the >> 4 60-bit truncation). The fold is
    mirrored in HUGEINT with an explicit ``% 2^64``, replicating numpy's
    uint64 wraparound exactly — the same double-mod idiom the MinHash
    permutation arithmetic below already uses; FNV64_PRIME ≈ 2^40 keeps
    every intermediate product under 2^105, inside HUGEINT. Fewer than k
    tokens fold ALL of them into one shingle (CASE arm per n < k);
    tokenless docs get an empty list."""
    from ccnerx_ray.functions.hashing import FNV64_PRIME
    mod = 1 << 64

    def fold(terms: list[str]) -> str:
        e = terms[0]
        for nxt in terms[1:]:
            e = f"(CAST({e} AS HUGEINT) * {FNV64_PRIME} + {nxt}) % {mod}"
        return f"CAST(({e}) // 16 AS UBIGINT)"

    win = fold([f"hs[i+{j}]" if j else "hs[i]" for j in range(k)])
    arms = "\n           ".join(
        f"WHEN {n} THEN {fold([f'hs[{j + 1}]' for j in range(n)])}"
        for n in range(1, k))
    return rf"""
WITH t AS (
  SELECT doc_id, CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM {table}
), hsx AS (
  SELECT doc_id, toks,
         list_transform(toks, w ->
             ('0x' || substr(sha256(w), 1, 15))::UBIGINT) AS hs
  FROM t
), sh AS (
  SELECT doc_id,
    CASE WHEN toks IS NULL THEN CAST([] AS UBIGINT[])
         WHEN len(toks) < {k}
         THEN [CASE len(toks)
           {arms}
           END]
         ELSE list_transform(generate_series(1, len(toks) - {k - 1}),
              i -> {win})
    END AS hashes
  FROM hsx
)"""


def _jaccard_oracle(shingle_k: int = 3, threshold: float = 0.5) -> str:
    """Exact set-similarity join in SQL, mirroring
    ``ops/dedup.py:jaccard_pairs`` bit for bit: the same vectorized-fold
    shingle hashes (so even hash-collision semantics agree), distinct per
    doc, self-join on the hash, per-pair shared count, and
    ``n_shared/(n_a+n_b-n_shared)`` — an IEEE-exact double division of
    exact int64s on both sides."""
    return rf"""{_shingle_cte_sql(shingle_k)}, hx AS (
  SELECT DISTINCT doc_id, h
  FROM (SELECT doc_id, unnest(hashes) AS h FROM sh)
), p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n_shared
  FROM hx a JOIN hx b ON a.h = b.h AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), n AS (
  SELECT doc_id, count(*) AS n FROM hx GROUP BY doc_id
)
SELECT p.id_a, p.id_b, na.n AS n_a, nb.n AS n_b, p.n_shared,
       CAST(p.n_shared AS DOUBLE) / (na.n + nb.n - p.n_shared) AS jaccard
FROM p JOIN n na ON na.doc_id = p.id_a JOIN n nb ON nb.doc_id = p.id_b
WHERE CAST(p.n_shared AS DOUBLE) / (na.n + nb.n - p.n_shared) >= {threshold}
"""


def q_ivf_knn(sf_dir: str):
    Q, qids = _query_matrix(sf_dir)
    out = ivf_knn(_emb(sf_dir), Q, query_ids=qids, k=10,
                  n_centroids=8, nprobe=4)
    return out.select_columns(["query_id", "vec_id", "rank"])


def _ivf_store_dir(sf_dir: str) -> str:
    """Build (or rebuild) the centroid-partitioned IVF store for this
    sf_dir under /tmp and return its path. The build is deterministic
    (seeded quantizer), so a rebuild always produces the same routing;
    a marker ties the cached store to the exact source file so stale
    stores from an earlier testdata generation never leak in."""
    import os
    import shutil

    src = os.path.join(sf_dir, "embeddings.parquet")
    marker = f"{src}|{os.path.getsize(src)}|{os.path.getmtime(src)}"
    store = os.path.join("/tmp/ccnerx_ivf",
                         os.path.basename(os.path.normpath(sf_dir)))
    mfile = os.path.join(store, "_source.txt")
    if os.path.exists(mfile) and open(mfile).read() == marker:
        return store
    shutil.rmtree(store, ignore_errors=True)
    ivf_build_store(_emb(sf_dir), store, n_centroids=8)
    with open(mfile, "w") as f:
        f.write(marker)
    return store


def q_ivf_knn_store(sf_dir: str):
    """Partition-pruned ANN (VERDICT r3 #1): vectors routed once into a
    centroid-partitioned Parquet store; the probe reads ONLY the nprobe
    probed partitions, so bytes-read < corpus bytes (recorded in the
    store's `_lineage/probe.json`). Approximate by construction (like
    `ivf_knn`); the store machinery is oracle-checked hash-exact via
    `ivf_knn_store_full`."""
    Q, qids = _query_matrix(sf_dir)
    out = ivf_knn_store(_ivf_store_dir(sf_dir), Q, query_ids=qids,
                        k=10, nprobe=4)
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_ivf_knn_store_full(sf_dir: str):
    """Store probe with nprobe = n_centroids reads every partition, so
    the result must equal exact brute-force KNN — oracle-checks the full
    store path (build routing, partitioned write, pruned read, stored
    list_id masking, merge tie-breaks) against the exact-KNN SQL."""
    Q, qids = _query_matrix(sf_dir)
    out = ivf_knn_store(_ivf_store_dir(sf_dir), Q, query_ids=qids,
                        k=10, nprobe=8)
    return out.select_columns(["query_id", "vec_id", "rank"])


# ------------------------------------------------- scalar quantization
def q_sq_knn(sf_dir: str):
    """SQ8 quantized top-k (``ops/quantize.py``): corpus and queries
    encode under the corpus's own global symmetric scale and rank by the
    exact-integer quantized inner product — the FAISS-SQ8 compression
    loop with every step (amax, floor-codes, int dot, tie-break)
    mirrored bit-for-bit in the oracle."""
    Q, qids = _query_matrix(sf_dir)
    return sq_knn(_emb(sf_dir), Q, query_ids=qids, k=10)


def _sq_store_dir(sf_dir: str) -> str:
    """Build (or reuse) the sharded SQ8 code store for this sf_dir under
    /tmp (the `_ivf_store_dir` recipe: deterministic build, source
    marker invalidates stale stores)."""
    import os
    import shutil

    src = os.path.join(sf_dir, "embeddings.parquet")
    marker = f"{src}|{os.path.getsize(src)}|{os.path.getmtime(src)}"
    store = os.path.join("/tmp/ccnerx_sq",
                         os.path.basename(os.path.normpath(sf_dir)))
    mfile = os.path.join(store, "_source.txt")
    if os.path.exists(mfile) and open(mfile).read() == marker:
        return store
    shutil.rmtree(store, ignore_errors=True)
    sq_build_store(_emb(sf_dir), store, num_shards=8)
    with open(mfile, "w") as f:
        f.write(marker)
    return store


def q_sq_knn_store(sf_dir: str):
    """The same quantized top-k answered FROM the 1-byte code store
    (4× smaller logical width than the float table, measured bytes in
    the build ledger): queries quantize under the STORED scale, scoring
    reads only ``(vec_id, code)`` — bit-identical to ``sq_knn`` over the
    original vectors, so it shares the oracle."""
    Q, qids = _query_matrix(sf_dir)
    return sq_knn_store(_sq_store_dir(sf_dir), Q, query_ids=qids, k=10)


# shared by sq_knn (direct) and sq_knn_store (from the code store; the
# two are bit-identical by construction — pinned by test). Every
# arithmetic step mirrors ops/quantize.py exactly: amax is a pure max
# (no rounding), codes are floor(CAST(v AS DOUBLE) * 127.0 / amax) —
# multiply THEN divide, the same two IEEE-754 double roundings numpy
# performs — and list_dot_product over BIGINT codes accumulates
# integer-valued doubles (exact below 2^53; |dot| ≤ 127²·64).
ORACLE_SQ_KNN = """
WITH s AS (
  SELECT max(abs(CAST(v AS DOUBLE))) AS amax
  FROM embeddings, unnest(embedding) AS t(v)
), c AS (
  SELECT vec_id, list_transform(embedding,
      v -> CAST(floor(CAST(v AS DOUBLE) * 127.0 / amax) AS BIGINT)) AS code
  FROM embeddings, s
), q AS (SELECT vec_id AS qid, code AS qc FROM c WHERE vec_id < 4)
SELECT qid AS query_id, vec_id, rank, qdot FROM (
  SELECT q.qid, c.vec_id,
    CAST(list_dot_product(q.qc, c.code) AS BIGINT) AS qdot,
    row_number() OVER (PARTITION BY q.qid
        ORDER BY list_dot_product(q.qc, c.code) DESC, c.vec_id) AS rank
  FROM q CROSS JOIN c
) WHERE rank <= 10
"""


def q_prompt_corpus(sf_dir: str):
    """M8/M10 end-to-end (VERDICT r3 #6 — the one reference dataflow
    with no registered counterpart): canonical entities → cloze
    prompt + MLM pretraining corpus, the Ray shape of
    ``CC/loaders/lex_loader.py:144-252`` / ``CC/pre_trained.py:17-141``
    (prompt assembly ``tag_convert.py:10-61``). One row per entity:
    flattened ``prompt`` / ``origin`` strings, BIOES ``tags``, the
    masked-position count and the MLM target token (loss is computed
    ONLY at masks — M10's ignore_index contract)."""
    from ccnerx_ray.functions.prompt import build_prompt

    ents = q_kg_entities(sf_dir)

    def assemble(batch: pa.Table) -> pa.Table:
        eids, labs_o, prompts, origins, tags, n_masked, targets = \
            [], [], [], [], [], [], []
        for eid, nk, lab in zip(batch.column("entity_id").to_pylist(),
                                batch.column("norm_key").to_pylist(),
                                batch.column("label").to_pylist()):
            toks = ws_tokens(nk or "")
            if not toks:
                continue
            p = build_prompt(toks, lab)
            eids.append(eid)
            labs_o.append(lab)
            prompts.append(" ".join(p["prompt"]))
            origins.append(" ".join(p["origin"]))
            tags.append(" ".join(p["tags"]))
            n_masked.append(sum(p["mlm_mask"]))
            targets.append(lab.lower())
        return pa.table({
            "entity_id": pa.array(eids, pa.string()),
            "label": pa.array(labs_o, pa.string()),
            "prompt": pa.array(prompts, pa.string()),
            "origin": pa.array(origins, pa.string()),
            "tags": pa.array(tags, pa.string()),
            "n_masked": pa.array(n_masked, pa.int64()),
            "mlm_target": pa.array(targets, pa.string()),
        })

    return ents.map_batches(assemble, batch_format="pyarrow")


def _prompt_corpus_oracle() -> str:
    """SQL mirror: the KG-entities CTE feeds string assembly — prompt =
    tokens ⊕ 'is a' ⊕ [MASK], BIOES tags from the token count (S- for
    singletons, B-/I-*/E- otherwise; three trailing O's cover connector
    + mask), MLM target = lower(label)."""
    return f"""
WITH {_KG_CTE},
agg AS (SELECT surface AS norm_key, label, count(*) AS cnt
        FROM kg_m GROUP BY 1, 2),
tot AS (SELECT norm_key FROM agg GROUP BY 1),
lab AS (SELECT norm_key, label FROM (
          SELECT *, row_number() OVER (PARTITION BY norm_key
                     ORDER BY cnt DESC, label) AS rn FROM agg)
        WHERE rn = 1),
ent AS (SELECT substr(sha256(norm_key), 1, 16) AS entity_id, norm_key,
               label,
               list_filter(string_split_regex(norm_key, '\\s+'),
                           w -> w <> '') AS toks
        FROM tot JOIN lab USING (norm_key))
SELECT entity_id, label,
       array_to_string(toks, ' ') || ' is a [MASK]' AS prompt,
       array_to_string(toks, ' ') || ' is a ' || lower(label) AS origin,
       CASE WHEN len(toks) = 1 THEN 'S-' || label
            ELSE array_to_string(list_transform(
                 generate_series(1, len(toks)),
                 i -> CASE WHEN i = 1 THEN 'B-' || label
                           WHEN i = len(toks) THEN 'E-' || label
                           ELSE 'I-' || label END), ' ')
       END || ' O O O' AS tags,
       CAST(1 AS BIGINT) AS n_masked,
       lower(label) AS mlm_target
FROM ent WHERE len(toks) > 0
"""


def q_doc_embeddings(sf_dir: str):
    """A5 encoder stage (VERDICT r3 #5): PRODUCE an embeddings table
    from documents — deterministic hash-token mean encoder, exposed in
    exact-integer long form (doc_id, dim, n_tokens, sum_micro) so the
    whole encoder is DuckDB-hash-exact; the float `embedding` column
    consumers use is sum_micro/(n_tokens·1e6) of the same integers."""
    from ccnerx_ray.stages.encode import doc_embedding_micros
    return doc_embedding_micros(_docs_wide(sf_dir, ["doc_id", "text"]),
                                dim=8)


def _doc_embeddings_oracle(dim: int = 8) -> str:
    # component = ((h1 + d·h2) mod 2^64) mod 2000001 − 10^6, with h1/h2
    # two 60-bit slices of one sha256 (offset + per-token stride —
    # stages/encode.py documents why a single additive hash collapses
    # every token vector onto one line); intermediates < 2^66, far
    # inside HUGEINT
    return rf"""
WITH t AS (
  SELECT doc_id, CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM documents
), th AS (
  SELECT doc_id, ('0x' || substr(sha256(w), 1, 15))::UBIGINT AS h1,
         ('0x' || substr(sha256(w), 16, 15))::UBIGINT AS h2
  FROM (SELECT doc_id, unnest(toks) AS w FROM t WHERE toks IS NOT NULL)
)
SELECT doc_id, d AS dim, count(*) AS n_tokens,
       CAST(sum(CAST((CAST(h1 AS HUGEINT) + d * CAST(h2 AS HUGEINT))
                     % 18446744073709551616 % 2000001 AS BIGINT)
                - 1000000) AS BIGINT) AS sum_micro
FROM th, (SELECT unnest(generate_series(1, {dim})) AS d) dims
GROUP BY doc_id, d
"""


def q_ivf_knn_full(sf_dir: str):
    """IVF with nprobe = n_centroids probes EVERY cluster, so the result
    must equal exact brute-force KNN — an invariant that oracle-checks
    the whole IVF machinery (driver k-means quantizer, probe routing,
    per-block top-k, merge tie-breaks) against the exact-KNN SQL."""
    Q, qids = _query_matrix(sf_dir)
    out = ivf_knn(_emb(sf_dir), Q, query_ids=qids, k=10,
                  n_centroids=8, nprobe=8)
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_bm25_topk(sf_dir: str):
    """Exact-integer BM25 ranked retrieval (fixed 4-query set, top-10
    docs per query). Two corpus scans, zero corpus-scale shuffles: batch
    stats partials -> Dataset.sum, then complete per-doc scores inside
    each batch with per-batch partial top-k."""
    from ccnerx_ray.ops.retrieval import bm25_topk
    return bm25_topk(_docs_wide(sf_dir, ["doc_id", "text"]))


def _oracle_bm25():
    from ccnerx_ray.ops.retrieval import bm25_oracle_sql
    return bm25_oracle_sql()


def q_kmeans_clusters(sf_dir: str):
    """Distributed exact-integer Lloyd k-means over the embeddings table
    (k=8, 3 iterations): long-form final centroids + membership sizes.
    Corpus is micro-ized once and scanned once per iteration; only the
    k×dim centroid table ever reaches the driver."""
    from ccnerx_ray.ops.cluster import kmeans_lloyd_int
    return kmeans_lloyd_int(
        _emb(sf_dir).select_columns(["vec_id", "embedding"]),
        k=8, n_iter=3)


def _oracle_kmeans():
    from ccnerx_ray.ops.cluster import kmeans_oracle_sql
    return kmeans_oracle_sql(k=8, n_iter=3, dim=64)


def q_centroids(sf_dir: str):
    """Per-label embedding centroid components (mergeable vector
    aggregate: per-batch partial sums → tiny merge; long-form integer
    output). Centroid = sum_micro / (n * 1e6)."""
    from ccnerx_ray.ops.similarity import group_centroids
    return group_centroids(_emb(sf_dir), group_col="label")


ORACLE_CENTROIDS = r"""
WITH e AS (
  SELECT label,
         unnest([{'dim': i, 'val': CAST(embedding[i] AS DOUBLE)}
                 for i in range(1, len(embedding) + 1)], recursive := true)
  FROM embeddings
)
SELECT CAST(label AS BIGINT) AS label, dim, count(*) AS n,
       CAST(sum(CAST(round(val * 1000000) AS BIGINT)) AS BIGINT) AS sum_micro
FROM e GROUP BY label, dim
"""


def _media_n(sf_dir: str) -> int:
    """Media fixture size, derived from the documents ROW COUNT — the
    same (and only) scale signal a static oracle SQL string can read, so
    the Python and SQL sides can never disagree on which leg applies
    (deriving it from the sf dir NAME did, for any dir not literally
    named *0.1)."""
    import pyarrow.parquet as pq
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return 120 if n_docs >= 2000 else 60


def q_media_features(sf_dir: str):
    """REAL pixel/sample decode + featurize over the synthetic media
    table: PNG scanlines (zlib inflate + filter reconstruction), GIF LZW
    decompression and WAV PCM samples are fully decoded by pure-stdlib
    kernels and summarized in exact integer micro units; MP4 rows carry
    their real container duration with ``feat_ok=False`` (pixel decode
    needs a codec — the one honest remaining gap). Oracle-checked by a
    literal-VALUES SQL derived from the generator's PRE-ENCODE arrays,
    so the comparison proves the decode roundtrip value-for-value."""
    import ray.data
    from ccnerx_ray.ops.multimodal import (media_feature_summary,
                                           synthetic_media_table)
    ds = ray.data.from_arrow(synthetic_media_table(_media_n(sf_dir)))
    return media_feature_summary(ds)


def _media_features_oracle_sql() -> str:
    """Literal-VALUES oracle for ``media_features`` (same two-leg shape
    as the ``media_headers`` oracle: the static SQL switches legs on the
    ``documents`` row count, the only sf signal it can read)."""
    from ccnerx_ray.ops.multimodal import expected_media_feature_summary

    def values(n: int) -> str:
        return ",\n".join(
            "({media_id}, '{kind}', '{mime}', {n_units}, {mean_micro}, "
            "{std_micro}, {extra_micro}, {ok})".format(
                **r, ok="TRUE" if r["feat_ok"] else "FALSE")
            for r in expected_media_feature_summary(n).to_pylist())

    cols = ("media_id, kind, mime, n_units, mean_micro, std_micro, "
            "extra_micro, feat_ok")
    casts = ", ".join(
        c if c in ("kind", "mime", "feat_ok")
        else f"CAST({c} AS BIGINT) AS {c}"
        for c in cols.split(", "))
    legs = []
    for n, guard in ((60, "<"), (120, ">=")):
        legs.append(
            f"SELECT {casts} FROM (VALUES\n{values(n)}\n) AS t({cols})\n"
            f"WHERE (SELECT count(*) FROM documents) {guard} 2000")
    return "\nUNION ALL\n".join(legs)


ORACLE_MEDIA_FEATURES = _media_features_oracle_sql()


def q_media_headers(sf_dir: str):
    """REAL container-header decode (PNG IHDR / GIF LSD / WAV RIFF via
    stdlib struct) over the synthetic media table — width/height/sample-
    rate/duration come from parsing genuine bytes, not metadata
    passthrough. Oracle-checked: the SQL side states the generator's
    parameter draws as literals (``expected_media_headers``), so the
    comparison proves the encode→binary→parse roundtrip end to end."""
    import pyarrow as pa
    import ray.data
    from ccnerx_ray.ops.multimodal import (MEDIA_HEADER_SCHEMA,
                                           extract_media_headers,
                                           synthetic_media_table)
    ds = ray.data.from_arrow(synthetic_media_table(_media_n(sf_dir)))
    out = extract_media_headers(ds)
    # int32 production schema → BIGINT to match the oracle's literal types
    schema64 = pa.schema([
        (f.name, pa.int64() if pa.types.is_int32(f.type) else f.type)
        for f in MEDIA_HEADER_SCHEMA])
    return out.map_batches(lambda t: t.cast(schema64), batch_format="pyarrow")


def _media_headers_oracle_sql() -> str:
    """Literal-VALUES oracle for ``media_headers``: the expected table is
    derived from the fixture's parameter draws (never its payload bytes),
    emitted as a VALUES list. The driver runs at sf0.01 (n=60) and the
    sf0.1 sweep at n=120, so the SQL switches on the ``documents`` row
    count — the only sf signal visible to a static SQL string."""
    from ccnerx_ray.ops.multimodal import expected_media_headers

    def values(n: int) -> str:
        return ",\n".join(
            "({media_id}, '{kind}', '{mime}', {width}, {height}, "
            "{sample_rate}, {n_channels}, {bits_per_sample}, {duration_ms}, "
            "{ok})".format(**r, ok="TRUE" if r["header_ok"] else "FALSE")
            for r in expected_media_headers(n).to_pylist())

    cols = ("media_id, kind, mime, width, height, sample_rate, n_channels, "
            "bits_per_sample, duration_ms, header_ok")
    casts = ", ".join(
        c if c in ("kind", "mime", "header_ok")
        else f"CAST({c} AS BIGINT) AS {c}"
        for c in cols.split(", "))
    legs = []
    for n, guard in ((60, "<"), (120, ">=")):
        legs.append(
            f"SELECT {casts} FROM (VALUES\n{values(n)}\n) AS t({cols})\n"
            f"WHERE (SELECT count(*) FROM documents) {guard} 2000")
    return "\nUNION ALL\n".join(legs)


ORACLE_MEDIA_HEADERS = _media_headers_oracle_sql()


def q_media_frames(sf_dir: str):
    """REAL per-frame video decode over the synthetic video table: every
    payload is an uncompressed AVI (raw RGB24 DIB frames in a conformant
    RIFF box tree) fully decoded by the pure-stdlib frame reconstructor,
    one row of exact integer luminance stats per frame. Oracle-checked
    by a literal-VALUES SQL derived from the generator's PRE-ENCODE frame
    arrays, so the comparison proves the encode→AVI→decode roundtrip
    frame-for-frame — the video sibling of ``media_features``."""
    import pyarrow as pa
    import ray.data
    from ccnerx_ray.ops.multimodal import (VIDEO_FRAME_SCHEMA,
                                           synthetic_video_table,
                                           video_frame_summary)
    ds = ray.data.from_arrow(synthetic_video_table(_media_n(sf_dir)))
    return video_frame_summary(ds)


def _media_frames_oracle_sql() -> str:
    """Literal-VALUES oracle for ``media_frames`` (two legs switched on
    the ``documents`` row count, the media-family recipe)."""
    from ccnerx_ray.ops.multimodal import expected_video_frames

    def values(n: int) -> str:
        return ",\n".join(
            "({media_id}, {frame_idx}, {n_pixels}, {mean_micro}, "
            "{std_micro}, {ok})".format(
                **r, ok="TRUE" if r["decode_ok"] else "FALSE")
            for r in expected_video_frames(n).to_pylist())

    cols = ("media_id, frame_idx, n_pixels, mean_micro, std_micro, "
            "decode_ok")
    casts = ", ".join(
        c if c == "decode_ok" else f"CAST({c} AS BIGINT) AS {c}"
        for c in cols.split(", "))
    legs = []
    for n, guard in ((60, "<"), (120, ">=")):
        legs.append(
            f"SELECT {casts} FROM (VALUES\n{values(n)}\n) AS t({cols})\n"
            f"WHERE (SELECT count(*) FROM documents) {guard} 2000")
    return "\nUNION ALL\n".join(legs)


ORACLE_MEDIA_FRAMES = _media_frames_oracle_sql()


# -------------------------------------------------- code analysis (ops/code)
#
# The north-star input is a corpus of SOURCE-CODE repositories; these
# queries run the code-structure extractors (import scanning, symbol
# indexing, cross-repo dependency edges — ops/code.py) over the
# deterministic graft-corpus generator at a documents-count-scaled fixture
# size, the media-fixture recipe. Oracles are literal-VALUES tables derived
# from GENERATION INTENT (corpus.py records which surfaces each structural
# line planted, independent of the Arrow string-kernel parse), so a match
# proves the render→parse→aggregate roundtrip value-for-value.

def _code_n(sf_dir: str) -> int:
    """Code fixture size — documents row count is the only sf signal a
    static oracle SQL string can read (the _media_n rationale)."""
    import pyarrow.parquet as pq
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return 720 if n_docs >= 2000 else 240


def _code_corpus(sf_dir: str):
    """Fixture corpus as a multi-block Dataset (8 slices so the extract
    stages parallelize; generation is row-index-pure — at production scale
    this is a plain pruned ``read_parquet`` of the real corpus)."""
    import ray.data
    from ccnerx_ray.corpus import generate_corpus
    t = generate_corpus(_code_n(sf_dir), seed=42)
    k = 8
    per = (t.num_rows + k - 1) // k
    return ray.data.from_arrow([t.slice(i * per, per) for i in range(k)])


def q_code_imports(sf_dir: str):
    """Import scan → module popularity (module, n_imports, n_repos):
    one fused Arrow-kernel extract pass, then a pre-combined coarse
    reduce — line-scale rows never shuffle."""
    from ccnerx_ray.ops.code import extract_imports, module_popularity
    return module_popularity(extract_imports(_code_corpus(sf_dir)))


def q_code_symbols(sf_dir: str):
    """Symbol index → (symbol, kind, n_defs, n_repos) over def/class
    definition lines."""
    from ccnerx_ray.ops.code import extract_symbols, symbol_stats
    return symbol_stats(extract_symbols(_code_corpus(sf_dir)))


def q_code_calls(sf_dir: str):
    """Call-site scan → (callee, n_calls, n_repos): which symbols the
    corpus actually invokes — the usage-weighted edge of the code KG."""
    from ccnerx_ray.ops.code import call_popularity, extract_structure
    return call_popularity(extract_structure(_code_corpus(sf_dir)))


def q_code_repo_deps(sf_dir: str):
    """Cross-repo dependency graph (src_repo, dst_repo, n_links): import
    lines joined to DISTINCT defining repos via one hash-partitioned
    co-group on the module/symbol key — the structural KG edges a
    source-code corpus adds on top of the NER mention graph. The
    structure table (one corpus scan) is materialized once because it
    feeds BOTH join sides (the doc_packs recipe — a lazy Dataset would
    re-run the scan per consumer)."""
    from ccnerx_ray.ops.code import (extract_structure,
                                     imports_from_structure,
                                     repo_dep_edges,
                                     symbols_from_structure)
    st = extract_structure(_code_corpus(sf_dir)).materialize()
    return repo_dep_edges(imports_from_structure(st),
                          symbols_from_structure(st))


def q_kg_structure(sf_dir: str):
    """Structural edge rows of the unified KG store (per-file-distinct
    (subj=repo, pred, obj) facts with full provenance —
    ``ops/code.py:file_structure_triples``, the triples
    ``run_kg(include_structure=True)`` streams into the same partitioned
    store as the NER mention triples) aggregated to the repo-level
    profile ``(subj, pred, n_facts, n_objs)``. The store write/read
    roundtrip and the update-path carry-forward are pytest-pinned
    (tests/test_structure_store.py); this query oracle-checks the
    emission + aggregation values against generation intent."""
    from ccnerx_ray.ops.code import (file_structure_triples,
                                     structure_store_stats)
    return structure_store_stats(file_structure_triples(_code_corpus(sf_dir)))


def q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (``ops/bpe.py:train_bpe``) over
    the code fixture corpus: the corpus-scale word count is a
    pre-combined coarse reduce, the merge loop runs on the distinct-word
    table (driver fast path under the bounded-collect rule here; the
    distributed loop is pinned bit-identical by a forced-bound parity
    test). Oracle: an independent Counter-based textbook implementation
    (``corpus.py:expected_bpe_merges``) rendered as literal VALUES."""
    from ccnerx_ray.ops.bpe import train_bpe
    return train_bpe(_code_corpus(sf_dir), text_col="content",
                     num_merges=40)


def q_bpe_vocab(sf_dir: str):
    """Trained BPE vocabulary table (base alphabet + merged symbols in
    rank order — ``ops/bpe.py:bpe_vocab``): the Ray-native, learned
    analogue of the reference's ordered ``vocab.txt`` artifact."""
    from ccnerx_ray.ops.bpe import bpe_vocab
    return bpe_vocab(_code_corpus(sf_dir), text_col="content",
                     num_merges=40)


def q_bpe_token_stats(sf_dir: str):
    """Corpus ENCODED with its own trained tokenizer: train the merge
    table, then one stateless ``apply_bpe`` pass (merge rules ride the
    task closure — vocab-scale, not data-scale) and a pre-combined
    per-language reduce of (n_docs, n_tokens). The end-use composition
    the tokenizer family exists for: token budgets under the learned
    vocabulary."""
    from ccnerx_ray.functions.grouping import grouped_reduce
    from ccnerx_ray.ops.bpe import apply_bpe, train_bpe

    corpus = _code_corpus(sf_dir)
    merges = train_bpe(corpus, text_col="content", num_merges=40)
    enc = apply_bpe(_code_corpus(sf_dir), merges, text_col="content")

    def rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = pc.list_value_length(batch.column("bpe_tokens")).cast(pa.int64())
        return pa.table({
            "lang": batch.column("lang"),
            "n_docs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "n_tokens": n,
        })

    return grouped_reduce(enc.map_batches(rows, batch_format="pyarrow"),
                          ["lang"], {"n_docs": "sum", "n_tokens": "sum"},
                          num_buckets=8,
                          out_dtypes={"lang": "string", "n_docs": "int64",
                                      "n_tokens": "int64"},
                          pre_combine=True)


def q_code_pagerank(sf_dir: str):
    """Dependency centrality: exact integer PageRank (3 iterations) over
    the cross-repo dependency graph (``repo_dep_edges`` — import lines
    joined to defining repos) — "which repos does this corpus
    load-bear on?", the graph query a source-code KG exists to answer.
    Edges ride the same intent-derived oracle as ``code_repo_deps``;
    the rank arithmetic reuses the unrolled-CTE integer oracle
    (``ops/graph.py:pagerank_oracle_sql``)."""
    from ccnerx_ray.ops.code import (extract_structure,
                                     imports_from_structure,
                                     repo_dep_edges,
                                     symbols_from_structure)
    from ccnerx_ray.ops.graph import pagerank_int

    st = extract_structure(_code_corpus(sf_dir)).materialize()
    deps = repo_dep_edges(imports_from_structure(st),
                          symbols_from_structure(st))

    def to_uv(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch.column("src_repo"),
                         "v": batch.column("dst_repo")})

    return pagerank_int(deps.map_batches(to_uv, batch_format="pyarrow"),
                        iterations=3, num_buckets=16)


def _code_pagerank_oracle() -> str:
    from ccnerx_ray.corpus import expected_code_repo_deps
    from ccnerx_ray.ops.graph import pagerank_oracle_sql

    def leg(n: int, guard: str) -> str:
        vals = ",\n".join(
            f"('{r['src_repo']}', '{r['dst_repo']}')"
            for r in expected_code_repo_deps(n, seed=42).to_pylist())
        return (f"SELECT u, v FROM (VALUES\n{vals}\n) AS t(u, v)\n"
                f"WHERE (SELECT count(*) FROM documents) {guard} 2000")

    return pagerank_oracle_sql(
        leg(240, "<") + "\nUNION ALL\n" + leg(720, ">="), iterations=3)


def q_kg_resolve(sf_dir: str):
    """Entity resolution for structural edges: distinct structural names
    of the code corpus (``structure_names``) LEFT OUTER joined against
    the catalog-derived entity node table on the canonical norm key —
    one hash-partitioned co-group, both sides distributed
    (``ops/code.py:resolve_structure_entities``). The oracle re-runs the
    ENTIRE resolution in SQL: intent VALUES for the names, raw catalog
    VALUES for the nodes, the norm-key pipeline as DuckDB regexes, the
    entity id as ``substr(sha256(norm_key),1,16)`` and the join itself —
    an end-to-end independent path."""
    import ray.data

    from ccnerx_ray.corpus import build_catalog
    from ccnerx_ray.ops.code import (entities_from_catalog,
                                     extract_structure,
                                     resolve_structure_entities,
                                     structure_name_counts)

    names = structure_name_counts(extract_structure(_code_corpus(sf_dir)))
    ents = ray.data.from_arrow(entities_from_catalog(
        sorted(build_catalog(42).surface2label.items())))
    return resolve_structure_entities(names, ents)


def _sql_norm(expr: str) -> str:
    """DuckDB rendering of the ``tokenize → normalize_surface`` norm-key
    pipeline, exact on the generator's ASCII name domain (verified
    value-for-value against the Python normalizer over every catalog
    surface and dotted form): isolate dots, split underscores, split
    camelCase / ACRONYMWord boundaries, casefold, collapse spaces."""
    return (f"lower(trim(regexp_replace(regexp_replace(regexp_replace("
            f"replace(replace({expr}, '.', ' . '), '_', ' '), "
            f"'([a-z0-9])([A-Z])', '\\1 \\2', 'g'), "
            f"'([A-Z])([A-Z][a-z])', '\\1 \\2', 'g'), ' +', ' ', 'g')))")


def _kg_resolve_oracle_sql() -> str:
    from ccnerx_ray.corpus import build_catalog, expected_structure_names

    def name_values(n: int) -> str:
        return ",\n".join(
            f"('{r['pred']}', '{r['obj']}', {r['n_lines']})"
            for r in expected_structure_names(n, seed=42).to_pylist())

    legs = []
    for n, guard in ((240, "<"), (720, ">=")):
        legs.append(
            f"SELECT pred, obj, CAST(n_lines AS BIGINT) AS n_lines "
            f"FROM (VALUES\n{name_values(n)}\n) AS t(pred, obj, n_lines)\n"
            f"WHERE (SELECT count(*) FROM documents) {guard} 2000")
    cat_vals = ",\n".join(sorted(
        f"('{' '.join(surf)}', '{label}')"
        for surf, label in build_catalog(42).surface2label.items()))
    return f"""
WITH struct AS (
{" UNION ALL ".join(legs)}
), cat(surface, label) AS (VALUES
{cat_vals}
), catn AS (
  SELECT {_sql_norm('surface')} AS norm_key, label, surface FROM cat
), catd AS (
  SELECT norm_key, label FROM (
    SELECT *, row_number() OVER (PARTITION BY norm_key
               ORDER BY label, surface) AS rn FROM catn) WHERE rn = 1
), named AS (
  SELECT pred, obj, {_sql_norm('obj')} AS norm_key, n_lines FROM struct
)
SELECT n.pred, n.obj, n.norm_key, n.n_lines,
       COALESCE(substr(sha256(c.norm_key), 1, 16), '') AS entity_id,
       COALESCE(c.label, '') AS label
FROM named n LEFT JOIN catd c USING (norm_key)
"""


def _code_oracle_sql(expected_fn, cols: tuple[str, ...],
                     str_cols: frozenset) -> str:
    """Two-leg literal-VALUES oracle from a generation-intent expected
    table (legs switched on the documents row count, the media recipe).
    Values contain only [A-Za-z0-9_./]-safe generator output — no SQL
    escaping hazards."""
    def lit(c, v):
        return f"'{v}'" if c in str_cols else str(v)

    def values(n: int) -> str:
        return ",\n".join(
            "(" + ", ".join(lit(c, r[c]) for c in cols) + ")"
            for r in expected_fn(n, seed=42).to_pylist())

    casts = ", ".join(c if c in str_cols else f"CAST({c} AS BIGINT) AS {c}"
                      for c in cols)
    legs = []
    for n, guard in ((240, "<"), (720, ">=")):
        legs.append(
            f"SELECT {casts} FROM (VALUES\n{values(n)}\n) "
            f"AS t({', '.join(cols)})\n"
            f"WHERE (SELECT count(*) FROM documents) {guard} 2000")
    return "\nUNION ALL\n".join(legs)


def _code_oracles() -> dict[str, str]:
    from ccnerx_ray.corpus import (expected_bpe_merges,
                                   expected_bpe_token_stats,
                                   expected_bpe_vocab,
                                   expected_code_calls,
                                   expected_code_imports,
                                   expected_code_repo_deps,
                                   expected_code_symbols,
                                   expected_structure_store)
    return {
        "code_imports": _code_oracle_sql(
            expected_code_imports, ("module", "n_imports", "n_repos"),
            frozenset({"module"})),
        "code_symbols": _code_oracle_sql(
            expected_code_symbols, ("symbol", "kind", "n_defs", "n_repos"),
            frozenset({"symbol", "kind"})),
        "code_calls": _code_oracle_sql(
            expected_code_calls, ("callee", "n_calls", "n_repos"),
            frozenset({"callee"})),
        "code_repo_deps": _code_oracle_sql(
            expected_code_repo_deps, ("src_repo", "dst_repo", "n_links"),
            frozenset({"src_repo", "dst_repo"})),
        "kg_structure": _code_oracle_sql(
            expected_structure_store, ("subj", "pred", "n_facts", "n_objs"),
            frozenset({"subj", "pred"})),
        "bpe_merges": _code_oracle_sql(
            lambda n, seed=42: expected_bpe_merges(n, seed, num_merges=40),
            ("merge_rank", "left_sym", "right_sym", "pair_count"),
            frozenset({"left_sym", "right_sym"})),
        "kg_resolve": _kg_resolve_oracle_sql(),
        "code_pagerank": _code_pagerank_oracle(),
        "bpe_vocab": _code_oracle_sql(
            lambda n, seed=42: expected_bpe_vocab(n, seed, num_merges=40),
            ("token_id", "token", "kind"),
            frozenset({"token", "kind"})),
        "bpe_token_stats": _code_oracle_sql(
            lambda n, seed=42: expected_bpe_token_stats(
                n, seed, num_merges=40),
            ("lang", "n_docs", "n_tokens"), frozenset({"lang"})),
    }


# LAZY on purpose: building these literal-VALUES oracles generates the
# intent corpora + BPE merge tables (~5 s of pure python). Evaluated at
# module import, that cost was paid by EVERY fresh Ray worker unpickling
# any closure from this module tree — a ~5 s per-task-cold-start tax
# that showed up as the hll_custkey 1.3 s → 6 s bench regression this
# round (bisected to the code-oracle commits). ``all_oracles()``
# resolves this once, DRIVER-side, cached; workers never touch it.
_CODE_ORACLE_CACHE: dict[str, str] | None = None


def code_oracles_resolved() -> dict[str, str]:
    global _CODE_ORACLE_CACHE
    if _CODE_ORACLE_CACHE is None:
        _CODE_ORACLE_CACHE = _code_oracles()
    return _CODE_ORACLE_CACHE


# ------------------------------------------------------------- KG flagship
# fixed domain catalog for the documents vocabulary (token tuples → label)
TESTDATA_CATALOG: list[tuple[tuple[str, ...], str]] = sorted({
    (("spark",), "LIB"),
    (("table",), "CLASS"), (("column",), "CLASS"), (("vector",), "CLASS"),
    (("stream",), "CLASS"), (("window",), "CLASS"), (("batch",), "CLASS"),
    (("filter",), "FUNC"), (("scan",), "FUNC"), (("sort",), "FUNC"),
    (("merge",), "FUNC"), (("agg",), "FUNC"), (("join",), "FUNC"),
    (("hash", "join"), "FUNC"), (("merge", "join"), "FUNC"),
    (("sort", "merge"), "FUNC"), (("hash", "agg"), "FUNC"),
    (("customer",), "CONST"), (("order",), "CONST"), (("query",), "CONST"),
})

def kg_cfg() -> PipelineConfig:
    return PipelineConfig(output_partitions=8)


def docs_to_corpus(batch: pa.Table) -> pa.Table:
    """documents → graft corpus shape (repo, path, commit, lang, content);
    commit is derived from the content hash (deterministic)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    srcs = batch.column("source").to_pylist()
    return pa.table({
        "repo": pa.array([f"corpus/{s}" for s in srcs], pa.string()),
        "path": pa.array([f"doc/{i}.txt" for i in ids], pa.string()),
        "commit": pa.array([sha256_hex(t or "")[:40] for t in texts],
                           pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(texts, pa.string()),
    })


def corpus_from_documents(sf_dir: str):
    ds = _fan_out(_docs(sf_dir, ["doc_id", "text", "lang", "source"]))
    return ds.map_batches(docs_to_corpus, batch_format="pyarrow")


def q_kg_triples(sf_dir: str):
    """Flagship KG pipeline over the documents-derived corpus."""
    from ccnerx_ray.pipelines.kg import triples_dataset
    corpus = corpus_from_documents(sf_dir)
    return triples_dataset(corpus, TESTDATA_CATALOG, kg_cfg())


def q_kg_mentions(sf_dir: str):
    from ccnerx_ray.pipelines.kg import mentions_dataset
    corpus = corpus_from_documents(sf_dir)
    return mentions_dataset(corpus, TESTDATA_CATALOG, kg_cfg())


def q_kg_entities(sf_dir: str):
    """Canonical entity table (salted two-phase groupby clustering)."""
    from ccnerx_ray.stages.canonical import canonicalize
    return canonicalize(q_kg_mentions(sf_dir))


def q_kg_label_dist(sf_dir: str):
    """G3: per-label mention counts."""
    from ray.data.aggregate import Count
    out = q_kg_mentions(sf_dir).groupby("linked_label").aggregate(Count())

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["label" if c == "linked_label" else
             ("n_mentions" if c == "count()" else c)
             for c in batch.column_names])

    return out.map_batches(rename, batch_format="pyarrow")


# ------------------------------------------------- KG flagship ORACLES
#
# The tagger (trie candidate generation + LE-fusion emissions + viterbi)
# provably reduces, on catalog-only corpora like the synthetic tables, to
# GREEDY LEFTMOST-LONGEST catalog matching over the token stream (verified
# exact at sf0.001 and sf0.01: 14,944 / 14,528 mentions, zero diffs). The
# greedy scan is sequential, but for THIS catalog the bigram overlap
# chains have length ≤ 2 (no bigram starts at the second token of another
# bigram that is itself pre-emptible), so selection has a closed form with
# one token of lookback — expressible in pure SQL window functions. The
# fragment generator asserts the chain property so a future catalog change
# that breaks the closed form fails loudly instead of silently mismatching.
#
# Preconditions (hold for the synthetic testdata, asserted empirically):
# every document fits one segment (≤ max_seq_length-2 tokens) and has ≥1
# token, so seg_id = 0 and token positions are document-global.

def _kg_sql_fragments() -> tuple[str, str, str, str]:
    cat1 = {s[0]: l for s, l in TESTDATA_CATALOG if len(s) == 1}
    cat2 = {tuple(s): l for s, l in TESTDATA_CATALOG if len(s) == 2}
    assert all(len(s) <= 2 for s, _ in TESTDATA_CATALOG), \
        "closed-form oracle assumes surfaces of at most 2 tokens"
    for (a, _b) in cat2:
        for x in (x for (x, c) in cat2 if c == a):
            assert not [y for (y, c) in cat2 if c == x], \
                "catalog bigram overlap chain longer than 2 — closed form invalid"
    sel2_terms = []
    for (a, b), _lab in sorted(cat2.items()):
        guard = "".join(f" AND prev <> '{x}'"
                        for x in sorted(x for (x, c) in cat2 if c == a))
        sel2_terms.append(f"(tok = '{a}' AND nxt = '{b}'{guard})")
    lab2 = " ".join(f"WHEN tok = '{a}' AND nxt = '{b}' THEN '{lab}'"
                    for (a, b), lab in sorted(cat2.items()))
    lab1 = " ".join(f"WHEN tok = '{w}' THEN '{lab}'"
                    for w, lab in sorted(cat1.items()))
    return (" OR ".join(sel2_terms),
            ", ".join(f"'{w}'" for w in sorted(cat1)), lab2, lab1)


_SEL2, _CAT1_LIST, _LAB2_CASE, _LAB1_CASE = _kg_sql_fragments()

# shared CTE: kg_m(doc_id, text, lang, source, m_start, m_end, surface, label)
_KG_CTE = rf"""
toks AS (
  SELECT doc_id, text, lang, source,
         regexp_extract_all(text,
             '[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]') AS t
  FROM documents
), pos AS (
  SELECT doc_id, text, lang, source, t, len(t) AS n,
         unnest(generate_series(1, len(t))) AS i
  FROM toks
), tk AS (
  SELECT doc_id, text, lang, source, i,
         t[i] AS tok,
         CASE WHEN i > 1 THEN t[i-1] ELSE '' END AS prev,
         CASE WHEN i < n THEN t[i+1] ELSE '' END AS nxt
  FROM pos
), sel AS (
  SELECT *, CASE WHEN {_SEL2} THEN 1 ELSE 0 END AS sel2 FROM tk
), selc AS (
  SELECT *, CASE WHEN sel2 = 0
                  AND COALESCE(lag(sel2) OVER (PARTITION BY doc_id ORDER BY i), 0) = 0
                  AND tok IN ({_CAT1_LIST})
                 THEN 1 ELSE 0 END AS sel1
  FROM sel
), kg_m AS (
  SELECT doc_id, text, lang, source, i - 1 AS m_start, i + 1 AS m_end,
         tok || ' ' || nxt AS surface, CASE {_LAB2_CASE} END AS label
  FROM selc WHERE sel2 = 1
  UNION ALL
  SELECT doc_id, text, lang, source, i - 1 AS m_start, i AS m_end,
         tok AS surface, CASE {_LAB1_CASE} END AS label
  FROM selc WHERE sel1 = 1
)
"""

# catalog surfaces are already normalized (lowercase, single-space), so
# norm_key = surface, every link is an exact catalog hit (score 1.0) and
# entity_id = sha256(norm_key)[:16]
ORACLE_KG_MENTIONS = f"""
WITH {_KG_CTE}
SELECT sha256(text) AS content_sha256,
       'corpus/' || source AS repo,
       'doc/' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
       substr(sha256(text), 1, 40) AS commit,
       lang,
       CAST(0 AS INTEGER) AS seg_id,
       CAST(m_start AS INTEGER) AS start,
       CAST(m_end AS INTEGER) AS "end",
       label, surface, surface AS norm_key,
       substr(sha256(surface), 1, 16) AS entity_id,
       label AS linked_label,
       CAST(1.0 AS DOUBLE) AS link_score,
       TRUE AS in_catalog,
       label AS cand_labels,
       CAST(1 AS INTEGER) AS n_cands
FROM kg_m
"""

ORACLE_KG_LABEL_DIST = f"""
WITH {_KG_CTE}
SELECT label, count(*) AS n_mentions FROM kg_m GROUP BY label
"""

ORACLE_KG_ENTITIES = f"""
WITH {_KG_CTE},
agg AS (SELECT surface AS norm_key, label, count(*) AS cnt
        FROM kg_m GROUP BY 1, 2),
tot AS (SELECT norm_key, CAST(sum(cnt) AS BIGINT) AS n_mentions
        FROM agg GROUP BY 1),
lab AS (SELECT norm_key, label FROM (
          SELECT *, row_number() OVER (PARTITION BY norm_key
                     ORDER BY cnt DESC, label) AS rn FROM agg)
        WHERE rn = 1)
SELECT substr(sha256(norm_key), 1, 16) AS entity_id, norm_key, label,
       norm_key AS repr_surface, n_mentions
FROM tot JOIN lab USING (norm_key)
"""

_COOCCUR_CAP = PipelineConfig().cooccur_cap

ORACLE_KG_TRIPLES = f"""
WITH {_KG_CTE},
m AS (SELECT doc_id, substr(sha256(surface), 1, 16) AS eid, label, surface
      FROM kg_m),
fr AS (
  SELECT doc_id, text, lang, source,
         'corpus/' || source AS repo,
         'doc/' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         substr(sha256(text), 1, 40) AS commit,
         sha256(text) AS sha,
         'corpus/' || source || ':' || 'doc/' || CAST(doc_id AS VARCHAR)
             || '.txt' || '@' || substr(sha256(text), 1, 12) AS file_ref
  FROM toks WHERE len(t) > 0
),
ment AS (SELECT DISTINCT doc_id, eid, label, surface FROM m),
uniq AS (SELECT DISTINCT doc_id, eid FROM m),
co AS (
  SELECT a.doc_id, a.eid AS ea, b.eid AS eb,
         row_number() OVER (PARTITION BY a.doc_id
                            ORDER BY a.eid, b.eid) AS rn
  FROM uniq a JOIN uniq b
    ON a.doc_id = b.doc_id AND a.eid < b.eid
)
SELECT i.eid AS subj, 'instance_of' AS pred, i.label AS obj,
       f.repo, f.path, f.commit, f.sha AS content_sha256,
       '' AS surface, '' AS norm_key, '' AS label
FROM (SELECT DISTINCT doc_id, eid, label FROM m) i JOIN fr f USING (doc_id)
UNION ALL
SELECT t.eid, 'mentioned_in', f.file_ref, f.repo, f.path, f.commit, f.sha,
       t.surface, t.surface, t.label
FROM ment t JOIN fr f USING (doc_id)
UNION ALL
SELECT c.ea, 'co_occurs_with', c.eb, f.repo, f.path, f.commit, f.sha,
       '', '', ''
FROM co c JOIN fr f USING (doc_id) WHERE c.rn <= {_COOCCUR_CAP}
UNION ALL
SELECT f.file_ref, 'in_repo', f.repo, f.repo, f.path, f.commit, f.sha,
       '', '', ''
FROM fr f
UNION ALL
SELECT f.file_ref, 'has_lang', f.lang, f.repo, f.path, f.commit, f.sha,
       '', '', ''
FROM fr f
"""

# alias pairs over the (tiny) canonical entity table: same label, same
# first char of norm_key, char-3-gram jaccard_pm >= threshold·1e6 —
# integer arithmetic on both sides
ORACLE_KG_ALIASES = f"""
WITH {_KG_CTE},
agg AS (SELECT surface AS norm_key, label, count(*) AS cnt
        FROM kg_m GROUP BY 1, 2),
tot AS (SELECT norm_key FROM agg GROUP BY norm_key),
lab AS (SELECT norm_key, label FROM (
          SELECT *, row_number() OVER (PARTITION BY norm_key
                     ORDER BY cnt DESC, label) AS rn FROM agg)
        WHERE rn = 1),
ent AS (
  SELECT substr(sha256(norm_key), 1, 16) AS entity_id, norm_key, label,
         replace(norm_key, ' ', '') AS s2
  FROM tot JOIN lab USING (norm_key)
),
g AS (
  SELECT entity_id, norm_key, label, substr(norm_key, 1, 1) AS c1,
         CASE WHEN length(s2) = 0 THEN CAST([] AS VARCHAR[])
              WHEN length(s2) < 3 THEN [s2]
              ELSE list_distinct(list_transform(
                     generate_series(1, length(s2) - 2),
                     i -> s2[i:i+2])) END AS grams
  FROM ent
),
gg AS (
  SELECT *,
         row_number() OVER (PARTITION BY label, c1
                            ORDER BY entity_id) AS rnc,
         row_number() OVER (PARTITION BY label, ming
                            ORDER BY entity_id) AS rng
  FROM (SELECT *, COALESCE(list_min(grams), '') AS ming FROM g))
SELECT a.entity_id AS canonical_id, b.entity_id AS alias_id,
       CAST((1000000 * len(list_intersect(a.grams, b.grams)))
            // len(list_distinct(list_concat(a.grams, b.grams))) AS BIGINT)
           AS jaccard_pm
FROM gg a JOIN gg b
  ON a.label = b.label AND a.entity_id < b.entity_id
 AND ((a.c1 = b.c1 AND a.rnc <= 256 AND b.rnc <= 256)
   OR (a.ming = b.ming AND a.rng <= 256 AND b.rng <= 256))
WHERE len(list_intersect(a.grams, b.grams)) > 0
  AND (1000000 * len(list_intersect(a.grams, b.grams)))
      // len(list_distinct(list_concat(a.grams, b.grams))) >= 300000
"""


ANALYTICS_QUERIES = {
    "token_stats": q_token_stats,
    "doc_lm_score": q_doc_lm_score,
    "doc_lm2_score": q_doc_lm2_score,
    "passage_dedup": q_passage_dedup,
    "index_lookup": q_index_lookup,
    "index_bm25": q_index_bm25,
    "curation_pass": q_curation_pass,
    "repetition": q_repetition,
    "decontaminate": q_decontaminate,
    "dup_ngrams": q_dup_ngrams,
    "profile": q_profile,
    "quantiles": q_quantiles,
    "quantiles_cont": q_quantiles_cont,
    "quantile_summary": q_quantile_summary,
    "quality": q_quality,
    "exact_dedup": q_exact_dedup,
    "knn": q_knn,
    "embedding_dedup": q_embedding_dedup,
    "semantic_dedup": q_semantic_dedup,
    "langid": q_langid,
    "fingerprint": q_fingerprint,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "jaccard_pairs": q_jaccard_pairs,
    "tfidf_top_terms": q_tfidf_top_terms,
    "ivf_knn": q_ivf_knn,
    "ivf_knn_full": q_ivf_knn_full,
    "ivf_knn_store": q_ivf_knn_store,
    "ivf_knn_store_full": q_ivf_knn_store_full,
    "sq_knn": q_sq_knn,
    "sq_knn_store": q_sq_knn_store,
    "doc_embeddings": q_doc_embeddings,
    "prompt_corpus": q_prompt_corpus,
    "centroids": q_centroids,
    "kmeans_clusters": q_kmeans_clusters,
    "bm25_topk": q_bm25_topk,
    "media_features": q_media_features,
    "media_headers": q_media_headers,
    "media_frames": q_media_frames,
    "code_imports": q_code_imports,
    "code_symbols": q_code_symbols,
    "code_calls": q_code_calls,
    "code_repo_deps": q_code_repo_deps,
    "kg_structure": q_kg_structure,
    "bpe_merges": q_bpe_merges,
    "kg_resolve": q_kg_resolve,
    "code_pagerank": q_code_pagerank,
    "bpe_vocab": q_bpe_vocab,
    "bpe_token_stats": q_bpe_token_stats,
    "kg_triples": q_kg_triples,
    "kg_mentions": q_kg_mentions,
    "kg_entities": q_kg_entities,
    "kg_label_dist": q_kg_label_dist,
}

ANALYTICS_ORACLE = {
    "token_stats": ORACLE_TOKEN_STATS,
    "doc_lm_score": ORACLE_DOC_LM_SCORE,
    "doc_lm2_score": ORACLE_DOC_LM2_SCORE,
    "passage_dedup": ORACLE_PASSAGE_DEDUP,
    "index_lookup": ORACLE_INDEX_LOOKUP,
    "index_bm25": _oracle_bm25(),   # index path ≡ two-scan bm25_topk
    "curation_pass": _curation_oracle_sql(),
    "repetition": ORACLE_REPETITION,
    "decontaminate": ORACLE_DECONTAMINATE,
    "dup_ngrams": ORACLE_DUP_NGRAMS,
    "profile": ORACLE_PROFILE,
    "quantiles": ORACLE_QUANTILES,
    "quantiles_cont": ORACLE_QUANTILES_CONT,
    "quantile_summary": ORACLE_QUANTILE_SUMMARY,
    "quality": ORACLE_QUALITY,
    "exact_dedup": ORACLE_EXACT_DEDUP,
    "knn": ORACLE_KNN,
    "embedding_dedup": ORACLE_EMBEDDING_DEDUP,
    "semantic_dedup": _oracle_semantic_dedup(),
    "langid": ORACLE_LANGID,
    "fingerprint": ORACLE_FINGERPRINT,
    "ivf_knn_full": ORACLE_KNN,       # nprobe=all ⇒ must equal exact KNN
    "ivf_knn_store_full": ORACLE_KNN,  # store probe of every partition
    "sq_knn": ORACLE_SQ_KNN,
    "sq_knn_store": ORACLE_SQ_KNN,    # probe of the code store — bit-
                                      # identical to sq_knn by construction
    "doc_embeddings": _doc_embeddings_oracle(),
    "prompt_corpus": _prompt_corpus_oracle(),
    "centroids": ORACLE_CENTROIDS,
    "kmeans_clusters": _oracle_kmeans(),
    "bm25_topk": _oracle_bm25(),
    "kg_mentions": ORACLE_KG_MENTIONS,
    "kg_label_dist": ORACLE_KG_LABEL_DIST,
    "kg_entities": ORACLE_KG_ENTITIES,
    "kg_triples": ORACLE_KG_TRIPLES,
    "kg_aliases": ORACLE_KG_ALIASES,
    "media_headers": ORACLE_MEDIA_HEADERS,
    "media_features": ORACLE_MEDIA_FEATURES,
    "media_frames": ORACLE_MEDIA_FRAMES,
    # the code-family oracles join in all_oracles() via
    # code_oracles_resolved() — see the lazy-evaluation note above
    # ivf_knn / ivf_knn_store (approximate by construction; their
    # machinery is oracle-checked via ivf_knn_full / ivf_knn_store_full)
    # are the only rows-only queries
}


def q_kg_aliases(sf_dir: str):
    """Alias pairs over the canonical entity table (T2/A4 analogue)."""
    from ccnerx_ray.stages.canonical import alias_pairs
    return alias_pairs(q_kg_entities(sf_dir), threshold=0.3)


ANALYTICS_QUERIES["kg_aliases"] = q_kg_aliases


def q_kg_entities_store(sf_dir: str):
    """Store-derived entity table (`run_kg`'s production shape, VERDICT r2
    #3): ONE tagger pass emits triples; entities are canonicalized from
    the stream's ``mentioned_in`` rows — never a second pass over the
    corpus. Support therefore counts one row per DISTINCT
    (document, entity, surface) — the store-native ``n_mentions`` — so
    this carries its own oracle rather than reusing ``kg_entities``'s
    per-mention counts."""
    from ccnerx_ray.stages.canonical import entities_from_triples
    return entities_from_triples(q_kg_triples(sf_dir))


ORACLE_KG_ENTITIES_STORE = f"""
WITH {_KG_CTE},
dm AS (SELECT DISTINCT doc_id, surface, label FROM kg_m),
agg AS (SELECT surface AS norm_key, label, count(*) AS cnt
        FROM dm GROUP BY 1, 2),
tot AS (SELECT norm_key, CAST(sum(cnt) AS BIGINT) AS n_mentions
        FROM agg GROUP BY 1),
lab AS (SELECT norm_key, label FROM (
          SELECT *, row_number() OVER (PARTITION BY norm_key
                     ORDER BY cnt DESC, label) AS rn FROM agg)
        WHERE rn = 1)
SELECT substr(sha256(norm_key), 1, 16) AS entity_id, norm_key, label,
       norm_key AS repr_surface, n_mentions
FROM tot JOIN lab USING (norm_key)
"""

ANALYTICS_QUERIES["kg_entities_store"] = q_kg_entities_store
ANALYTICS_ORACLE["kg_entities_store"] = ORACLE_KG_ENTITIES_STORE


def q_kg_triples_ckpt(sf_dir: str):
    """Flagship KG pipeline with ON-DISK weights through the ACTOR-POOL
    tagger (VERDICT r2 #2 directive): a checkpoint is written once
    (atomic), then every pool actor loads it in ``__init__`` — the
    reference's trained-predictor regime (``predicter.py:52-83``:
    construct once, load ``.pth``, serve batches). The checkpoint holds
    the same parameters the seeded model derives, so the output equals
    ``kg_triples`` and shares its closed-form oracle — proving the
    weight-loading path changes nothing but the weight SOURCE. The
    fixed pool is sized from the session's CPU count."""
    import os

    import ray

    from ccnerx_ray.model.tagger import save_checkpoint
    from ccnerx_ray.pipelines.kg import (_broadcast_catalog,
                                         segments_dataset)
    from ccnerx_ray.stages.tag import MentionTagger

    cfg = kg_cfg()
    ckpt = f"/tmp/ccnerx_tagger_seed{cfg.model_seed}.npz"
    if not os.path.exists(ckpt):
        save_checkpoint(ckpt, cfg)
    corpus = corpus_from_documents(sf_dir)
    ref = _broadcast_catalog(TESTDATA_CATALOG)
    segs = segments_dataset(corpus, cfg)
    n = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return segs.map_batches(
        MentionTagger,
        fn_constructor_kwargs={"catalog_ref": ref, "cfg": cfg,
                               "emit": "triples",
                               "checkpoint_path": ckpt},
        batch_format="pyarrow",
        batch_size=cfg.featurize_batch_size,
        # fixed pool (production shape): all actors start and load the
        # checkpoint immediately; the autoscaling (1, N) ramp serialized
        # the per-actor npz loads behind demand and cost ~2x wall time
        concurrency=max(2, n - 1),
    )


ANALYTICS_QUERIES["kg_triples_ckpt"] = q_kg_triples_ckpt
ANALYTICS_ORACLE["kg_triples_ckpt"] = ORACLE_KG_TRIPLES


def q_kg_two_hop(sf_dir: str):
    """Two-hop neighborhood sizes over the materialized co-occurrence
    graph — the downstream query a KG store actually serves ("what
    relates to X directly, and through one intermediate?"). Edges are
    the flagship pipeline's ``co_occurs_with`` triples; the counting is
    ``ops/graph.py:two_hop_counts`` (middle-node wedge enumeration +
    global pair dedup + anti-join against direct edges)."""
    from ccnerx_ray.ops.graph import two_hop_counts

    triples = q_kg_triples(sf_dir)

    def co_edges(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.equal(batch.column("pred"), "co_occurs_with")
        b = batch.filter(keep)
        return pa.table({"u": b.column("subj"), "v": b.column("obj")})

    return two_hop_counts(
        triples.map_batches(co_edges, batch_format="pyarrow"))


ORACLE_KG_TWO_HOP = f"""
WITH t AS ({ORACLE_KG_TRIPLES}),
e AS (SELECT DISTINCT subj AS a, obj AS b FROM t
      WHERE pred = 'co_occurs_with'),
sym AS (SELECT a, b FROM e UNION ALL SELECT b AS a, a AS b FROM e),
none1 AS (SELECT a AS entity, count(*) AS n1 FROM sym GROUP BY 1),
w AS (SELECT DISTINCT s1.b AS x, s2.b AS y
      FROM sym s1 JOIN sym s2 ON s1.a = s2.a AND s1.b < s2.b),
h2 AS (SELECT x, y FROM w
       WHERE NOT EXISTS (SELECT 1 FROM e
                         WHERE e.a = w.x AND e.b = w.y)),
n2s AS (SELECT x AS entity FROM h2 UNION ALL SELECT y AS entity FROM h2),
n2 AS (SELECT entity, count(*) AS n2 FROM n2s GROUP BY 1)
SELECT none1.entity, CAST(none1.n1 AS BIGINT) AS n_neighbors,
       CAST(COALESCE(n2.n2, 0) AS BIGINT) AS n_two_hop
FROM none1 LEFT JOIN n2 USING (entity)
"""

ANALYTICS_QUERIES["kg_two_hop"] = q_kg_two_hop
ANALYTICS_ORACLE["kg_two_hop"] = ORACLE_KG_TWO_HOP


def q_doc_splits(sf_dir: str):
    """Deterministic hash-bucket train/val/test assignment over the
    corpus (``ops/sampling.py:hash_split``) — a pure map, no shuffle;
    the scalable replacement for the reference's driver-side seeded
    ``random.sample`` splits (``expand_data.py:34-51``)."""
    from ccnerx_ray.ops.sampling import hash_split

    return hash_split(_docs(sf_dir, ["doc_id"]), id_col="doc_id")


ORACLE_DOC_SPLITS = """
SELECT doc_id,
       CASE WHEN pm < 900 THEN 'train'
            WHEN pm < 950 THEN 'val'
            ELSE 'test' END AS split,
       CAST(pm AS BIGINT) AS bucket_pm
FROM (SELECT doc_id,
             ('0x' || substr(sha256('split:' || CAST(doc_id AS VARCHAR)),
                             1, 15))::UBIGINT % 1000 AS pm
      FROM documents)
"""

ANALYTICS_QUERIES["doc_splits"] = q_doc_splits
ANALYTICS_ORACLE["doc_splits"] = ORACLE_DOC_SPLITS


_MIXTURE_RATES = {"en": 300, "zh": 1000, "es": 1000, "de": 1000,
                  "fr": 1000}


def q_doc_mixture(sf_dir: str):
    """Deterministic domain-mixture sampling
    (``ops/sampling.py:mixture_sample``): rebalance the training mix by
    down-sampling the dominant language (en → 30%) while keeping every
    scarce-language doc — a pure map + filter on the hash_split bucket
    arithmetic, no shuffle, stable across runs/retries/partitionings."""
    from ccnerx_ray.ops.sampling import mixture_sample

    return mixture_sample(_docs(sf_dir, ["doc_id", "lang"]),
                          _MIXTURE_RATES)


ORACLE_DOC_MIXTURE = f"""
SELECT doc_id, lang, CAST(pm AS BIGINT) AS bucket_pm,
       CAST(rate AS BIGINT) AS rate_pm
FROM (SELECT doc_id, lang,
             ('0x' || substr(sha256('mix:' || CAST(doc_id AS VARCHAR)),
                             1, 15))::UBIGINT % 1000 AS pm,
             CASE lang {" ".join(
                 f"WHEN '{d}' THEN {r}"
                 for d, r in sorted(_MIXTURE_RATES.items()))}
                  ELSE 0 END AS rate
      FROM documents)
WHERE pm < rate
"""

ANALYTICS_QUERIES["doc_mixture"] = q_doc_mixture
ANALYTICS_ORACLE["doc_mixture"] = ORACLE_DOC_MIXTURE


def q_split_drift(sf_dir: str):
    """Corpus drift monitor (``ops/drift.py``): the top tokens driving
    the distribution shift between the hash-split train and val slices,
    ranked by the exact-integer cross-entropy gap ``gain_bits = c_a ·
    (bits_b − bits_a)`` — one combiner scan, vocab-scale reduce, lossless
    per-block top-n partials (the corpus's 31-token vocab means the n=20
    cut genuinely bites at every sf)."""
    from ccnerx_ray.ops.drift import split_drift

    return split_drift(_docs(sf_dir, ["doc_id", "text"]), top_n=20)


# mirrors ops/drift.py step for step: the hash_split per-mille bucket
# (doc_splits' 60-bit sha256 prefix), the ws_tokens '\s+' tokenizer, the
# lm.py bit-length surprisal convention (length(bin(x)) ==
# int.bit_length for x > 0; OOV pays bitlen(N)), and the (gain desc,
# token asc) LIMIT — the empty-slice N=0 degenerate (bin(0) = '0')
# never occurs on the registered tables and is documented in the module.
ORACLE_SPLIT_DRIFT = r"""
WITH d AS (
  SELECT text,
         ('0x' || substr(sha256('split:' || CAST(doc_id AS VARCHAR)),
                         1, 15))::UBIGINT % 1000 AS pm
  FROM documents
), s AS (
  SELECT CASE WHEN pm < 900 THEN 'train'
              WHEN pm < 950 THEN 'val' ELSE 'test' END AS split, text
  FROM d
), toks AS (
  SELECT split, unnest(list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')) AS w
  FROM s WHERE split IN ('train', 'val')
), counts AS (
  SELECT w AS token,
         CAST(sum(CASE WHEN split = 'train' THEN 1 ELSE 0 END)
              AS BIGINT) AS c_a,
         CAST(sum(CASE WHEN split = 'val' THEN 1 ELSE 0 END)
              AS BIGINT) AS c_b
  FROM toks GROUP BY w
), tot AS (
  SELECT CAST(sum(c_a) AS BIGINT) AS na,
         CAST(sum(c_b) AS BIGINT) AS nb FROM counts
), scored AS (
  SELECT token, c_a, c_b,
         CAST(CASE WHEN c_a > 0 THEN length(bin(na)) - length(bin(c_a))
                   ELSE length(bin(na)) END AS BIGINT) AS bits_a,
         CAST(CASE WHEN c_b > 0 THEN length(bin(nb)) - length(bin(c_b))
                   ELSE length(bin(nb)) END AS BIGINT) AS bits_b
  FROM counts, tot
)
SELECT token, c_a, c_b, bits_a, bits_b,
       c_a * (bits_b - bits_a) AS gain_bits
FROM scored ORDER BY gain_bits DESC, token LIMIT 20
"""

ANALYTICS_QUERIES["split_drift"] = q_split_drift
ANALYTICS_ORACLE["split_drift"] = ORACLE_SPLIT_DRIFT


def q_doc_chunks(sf_dir: str):
    """RAG/embedding-ingestion chunking (``ops/chunk.py``): overlapping
    24-token windows at stride 16 — a pure flat map; every token lands
    in ≥1 chunk, tail chunks run short, the 10-99-token corpus docs
    yield 1-7 chunks each."""
    from ccnerx_ray.ops.chunk import chunk_documents

    return chunk_documents(_docs(sf_dir, ["doc_id", "text"]),
                           window=24, stride=16)


# mirrors ops/chunk.py: ws_tokens '\s+' tokenizer, starts 0,16,32,…
# while start < n (DuckDB range(0, n, 16) — empty for n = 0, so
# zero-token docs yield no chunks), 1-based inclusive list_slice for the
# window, single-space re-join for chunk identity over tokens.
ORACLE_DOC_CHUNKS = r"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
)
SELECT doc_id,
       CAST(s // 16 AS BIGINT) AS chunk_id,
       CAST(s AS BIGINT) AS start_tok,
       CAST(len(sl) AS BIGINT) AS n_tokens,
       array_to_string(sl, ' ') AS chunk_text
FROM (SELECT doc_id, s, list_slice(tk, s + 1, least(s + 24, len(tk))) AS sl
      FROM t, unnest(range(0, len(tk), 16)) AS g(s))
"""

ANALYTICS_QUERIES["doc_chunks"] = q_doc_chunks
ANALYTICS_ORACLE["doc_chunks"] = ORACLE_DOC_CHUNKS


# ------------------------------------------------------ count-min sketch
def q_cms_tokens(sf_dir: str):
    """Count-Min register table over corpus tokens
    (``ops/sketches.py:cms_registers``, depth 4 × width 512): mergeable
    approximate token frequencies where the exact vocab-keyed count
    table would be the all-to-all. Same sha256-prefix contract as the
    HLL family, so the whole register table is hash-exact; point
    estimates (min over rows) are pytest-pinned ≥ exact counts."""
    from ccnerx_ray.ops.sketches import cms_registers

    return cms_registers(_docs(sf_dir, ["text"]), "text",
                         depth=4, width=512, tokenize=True)


ORACLE_CMS_TOKENS = r"""
WITH tok AS (
  SELECT w, count(*) AS c
  FROM (SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                  w -> w <> '')) AS w
        FROM documents)
  GROUP BY w
), h AS (
  SELECT r,
         ('0x' || substr(sha256(CAST(r AS VARCHAR) || ':' || w), 1, 15))
           ::UBIGINT % 512 AS idx,
         c
  FROM tok, (SELECT unnest(generate_series(0, 3)) AS r)
)
SELECT CAST(r AS BIGINT) AS row, CAST(idx AS BIGINT) AS idx,
       CAST(sum(c) AS BIGINT) AS cnt
FROM h GROUP BY r, idx
"""

ANALYTICS_QUERIES["cms_tokens"] = q_cms_tokens
ANALYTICS_ORACLE["cms_tokens"] = ORACLE_CMS_TOKENS


# ------------------------------------------------------ PMI phrase mining
def q_pmi_pairs(sf_dir: str):
    """Top adjacent token pairs by PMI (``ops/pmi.py:pmi_top_pairs``):
    collocation discovery with the rank-by-exact-ratio contract — counts
    only in the output (ints + tokens), ratio c_xy/(c_x·c_y) compared as
    one IEEE double division on both engines, ties on (tok_x, tok_y)."""
    from ccnerx_ray.ops.pmi import pmi_top_pairs

    return pmi_top_pairs(_docs(sf_dir, ["doc_id", "text"]),
                         top_n=25, min_count=5)


ORACLE_PMI_PAIRS = r"""
WITH t AS (
  SELECT list_filter(string_split_regex(text, '\s+'),
                     w -> w <> '') AS tk
  FROM documents
), uni AS (
  SELECT w, count(*) AS c
  FROM (SELECT unnest(tk) AS w FROM t) GROUP BY w
), bi AS (
  SELECT x, y, count(*) AS c FROM (
    SELECT tk[i] AS x, tk[i + 1] AS y
    FROM t, unnest(range(1, len(tk))) AS g(i)
  ) GROUP BY x, y
)
SELECT b.x AS tok_x, b.y AS tok_y, CAST(b.c AS BIGINT) AS c_xy,
       CAST(ux.c AS BIGINT) AS c_x, CAST(uy.c AS BIGINT) AS c_y
FROM bi b JOIN uni ux ON ux.w = b.x JOIN uni uy ON uy.w = b.y
WHERE b.c >= 5
ORDER BY CAST(b.c AS DOUBLE) / (ux.c * uy.c) DESC, b.x, b.y
LIMIT 25
"""

ANALYTICS_QUERIES["pmi_pairs"] = q_pmi_pairs
ANALYTICS_ORACLE["pmi_pairs"] = ORACLE_PMI_PAIRS


# ------------------------------------------------- embedding covariance
def q_embedding_cov(sf_dir: str):
    """Exact integer second-moment table over the embeddings table
    (``ops/covariance.py``): upper-triangle Σxᵢxⱼ + per-dim sums + count
    in one scan of d(d+1)/2-row partials — the Gram/covariance primitive
    behind PCA and whitening, value-hash exact (ints only)."""
    from ccnerx_ray.ops.covariance import embedding_moment_sums

    return embedding_moment_sums(_emb(sf_dir)
                                 .select_columns(["embedding"]))


ORACLE_EMBEDDING_COV = """
WITH pts AS (
  SELECT vec_id,
         unnest([{'d': i,
                  'x': CAST(round(CAST(embedding[i] AS DOUBLE)
                                  * 1000000) AS BIGINT)}
                 for i in range(1, 65)], recursive := true)
  FROM embeddings
)
SELECT CAST(a.d AS BIGINT) AS dim_i, CAST(b.d AS BIGINT) AS dim_j,
       CAST(sum(CAST(a.x AS HUGEINT) * b.x) AS BIGINT) AS s
FROM pts a JOIN pts b ON a.vec_id = b.vec_id AND a.d <= b.d
GROUP BY a.d, b.d
UNION ALL
SELECT CAST(d AS BIGINT), 0, CAST(sum(x) AS BIGINT) FROM pts GROUP BY d
UNION ALL
SELECT 0, 0, CAST(count(*) AS BIGINT) FROM embeddings
"""

ANALYTICS_QUERIES["embedding_cov"] = q_embedding_cov
ANALYTICS_ORACLE["embedding_cov"] = ORACLE_EMBEDDING_COV


_RAG_QUERIES = ["window agg stream", "hash join key",
                "sort merge order", "vector scan filter"]


def q_rag_chunk_knn(sf_dir: str):
    """The composed RAG loop (``ops/rag.py``): chunk → embed (A5
    hash-token micro encoder) → SQ8-quantize → quantized-dot top-10 for
    four fixed text queries. Every stage is already-verified machinery;
    this registers the COMPOSITION, end-to-end hash-exact (see the
    module's determinism ledger for why a float pipeline can hash)."""
    from ccnerx_ray.ops.rag import rag_chunk_knn

    return rag_chunk_knn(_docs(sf_dir, ["doc_id", "text"]), _RAG_QUERIES,
                         window=24, stride=16, dim=8, k=10)


def _rag_chain() -> str:
    # the WHOLE loop in SQL, through the quantized dot: doc_chunks'
    # windows, the doc_embeddings HUGEINT double-mod encoder over chunk
    # tokens AND query tokens (one unified `units` relation, queries
    # flagged), the one-division float vector, sq_knn's amax/floor-codes
    # (chunk corpus only — queries quantize under the corpus scale), and
    # the integer dot via a per-dimension join. Shared prefix of the
    # rag_chunk_knn and rag_rerank oracles — both append their ranking.
    qvals = ", ".join(f"({i}, '{t}')"
                      for i, t in enumerate(_RAG_QUERIES))
    return rf"""
WITH t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '') AS tk
  FROM documents
), ch AS (
  SELECT doc_id, CAST(s // 16 AS BIGINT) AS chunk_id,
         list_slice(tk, s + 1, least(s + 24, len(tk))) AS toks
  FROM t, unnest(range(0, len(tk), 16)) AS g(s)
), qt AS (SELECT * FROM (VALUES {qvals}) v(qid, qtext)),
units AS (
  SELECT FALSE AS is_q, doc_id * 4096 + chunk_id AS uid, toks FROM ch
  UNION ALL
  SELECT TRUE, qid,
         list_filter(string_split_regex(qtext, '\s+'), w -> w <> '')
  FROM qt
), th AS (
  SELECT is_q, uid, ('0x' || substr(sha256(w), 1, 15))::UBIGINT AS h1,
         ('0x' || substr(sha256(w), 16, 15))::UBIGINT AS h2
  FROM (SELECT is_q, uid, unnest(toks) AS w FROM units)
), sums AS (
  SELECT is_q, uid, d,
    CAST(sum(CAST((CAST(h1 AS HUGEINT) + d * CAST(h2 AS HUGEINT))
                  % 18446744073709551616 % 2000001 AS BIGINT)
             - 1000000) AS BIGINT) AS sum_micro,
    count(*) AS n_tok
  FROM th, (SELECT unnest(generate_series(1, 8)) AS d) dims
  GROUP BY is_q, uid, d
), vecs AS (
  SELECT is_q, uid, d, sum_micro / (n_tok * 1000000.0) AS x FROM sums
), s AS (SELECT max(abs(x)) AS amax FROM vecs WHERE NOT is_q),
codes AS (
  SELECT is_q, uid, d,
         CAST(floor(x * 127.0 / amax) AS BIGINT) AS code
  FROM vecs, s
), dots AS (
  SELECT q.uid AS query_id, c.uid AS cid,
         CAST(sum(q.code * c.code) AS BIGINT) AS qdot
  FROM codes q JOIN codes c ON q.d = c.d AND q.is_q AND NOT c.is_q
  GROUP BY q.uid, c.uid
)"""


def _rag_oracle() -> str:
    # the quantized (qdot desc, packed cid asc) top-k
    return _rag_chain() + """
SELECT query_id, cid // 4096 AS doc_id, cid % 4096 AS chunk_id,
       rank, qdot
FROM (SELECT query_id, cid, qdot,
             row_number() OVER (PARTITION BY query_id
                 ORDER BY qdot DESC, cid) AS rank
      FROM dots)
WHERE rank <= 10
"""


def q_rag_rerank(sf_dir: str):
    """Two-stage retrieve-then-rerank (``ops/rag.py:rag_rerank``): SQ8
    quantized top-30 candidates per query, then exact-integer rescoring
    of ONLY those candidates on the unquantized encoder sums, ranked by
    the one-division ratio ``rdot / n_tokens`` — the production shape
    (cheap wide stage, precise narrow stage), end-to-end hash-exact."""
    from ccnerx_ray.ops.rag import rag_rerank

    return rag_rerank(_docs(sf_dir, ["doc_id", "text"]), _RAG_QUERIES,
                      window=24, stride=16, dim=8, k=10, m=30)


def _rag_rerank_oracle() -> str:
    # stage 1: quantized rank ≤ m (same tie-break as rag_chunk_knn);
    # stage 2: exact integer sum_micro dot over the candidates, ranked
    # by the ONE-division double ratio rdot / n_tokens (|rdot| < 2^53 —
    # exactly representable; ties on packed cid)
    return _rag_chain() + """,
cand AS (
  SELECT query_id, cid FROM (
    SELECT query_id, cid,
           row_number() OVER (PARTITION BY query_id
               ORDER BY qdot DESC, cid) AS rank
    FROM dots) WHERE rank <= 30
),
resc AS (
  SELECT ca.query_id, ca.cid,
         CAST(sum(q.sum_micro * c.sum_micro) AS BIGINT) AS rdot,
         CAST(max(c.n_tok) AS BIGINT) AS n_tokens
  FROM cand ca
  JOIN sums q ON q.is_q AND q.uid = ca.query_id
  JOIN sums c ON NOT c.is_q AND c.uid = ca.cid AND c.d = q.d
  GROUP BY ca.query_id, ca.cid
)
SELECT query_id, cid // 4096 AS doc_id, cid % 4096 AS chunk_id,
       rank, rdot, n_tokens
FROM (SELECT query_id, cid, rdot, n_tokens,
             row_number() OVER (PARTITION BY query_id
                 ORDER BY CAST(rdot AS DOUBLE) / n_tokens DESC,
                          cid) AS rank
      FROM resc)
WHERE rank <= 10
"""


ANALYTICS_QUERIES["rag_chunk_knn"] = q_rag_chunk_knn
ANALYTICS_ORACLE["rag_chunk_knn"] = _rag_oracle()
ANALYTICS_QUERIES["rag_rerank"] = q_rag_rerank
ANALYTICS_ORACLE["rag_rerank"] = _rag_rerank_oracle()

def q_kg_triples_lebert(sf_dir: str):
    """Flagship KG pipeline through the LEBert word-attention fusion
    emission path (VERDICT r3 #3; model/fusion.py mirrors
    CC/LEBert.py:172-196 with seeded weights). Paired with the SAME
    closed-form oracle as kg_triples: on a catalog-driven corpus the
    lexicon prior dominates the seeded fusion perturbation, so the
    fused tagger must emit identical triples — a corpus-scale
    hash-exact check that the fusion layer preserves decode semantics,
    not just the fixture pytest."""
    import dataclasses
    from ccnerx_ray.pipelines.kg import triples_dataset
    corpus = corpus_from_documents(sf_dir)
    cfg = dataclasses.replace(kg_cfg(), fusion="lebert")
    return triples_dataset(corpus, TESTDATA_CATALOG, cfg)


ANALYTICS_QUERIES["kg_triples_lebert"] = q_kg_triples_lebert
ANALYTICS_ORACLE["kg_triples_lebert"] = ORACLE_KG_TRIPLES


def q_kg_triples_attn(sf_dir: str):
    """Flagship KG pipeline through the MULTI-LAYER ATTENTION backbone
    with mid-stack LEBert fusion (VERDICT r4 #2; model/attention.py —
    the structural twin of the reference's transformer stack,
    CC/LEBert.py:141-196: N seeded self-attention layers, the
    word-attention adapter injected after layer ``attn_fusion_layer``,
    CRF decode unchanged). Shares kg_triples' closed-form oracle: on a
    catalog-driven corpus the lexicon prior dominates the seeded
    contextual perturbation, so the attention tagger must emit
    identical triples — corpus-scale hash-exact evidence that the
    backbone swap preserves decode semantics."""
    import dataclasses

    from ccnerx_ray.pipelines.kg import triples_dataset
    corpus = corpus_from_documents(sf_dir)
    cfg = dataclasses.replace(kg_cfg(), backbone="attn", fusion="lebert")
    return triples_dataset(corpus, TESTDATA_CATALOG, cfg)


ANALYTICS_QUERIES["kg_triples_attn"] = q_kg_triples_attn
ANALYTICS_ORACLE["kg_triples_attn"] = ORACLE_KG_TRIPLES


def q_kg_mentions_join(sf_dir: str):
    """Flagship mention table through the DISTRIBUTED catalog-linking
    path (VERDICT r4 #1; ``stages/link.py:link_exploded_mentions``): the
    link catalog is a Dataset, candidate labels are aggregated with a
    coarse groupby, and ``broadcast_bytes=0`` FORCES the hash-partitioned
    lookup joins — so the driver gate exercises the exact machinery a
    10⁸-surface catalog would use. Shares ``kg_mentions``'s closed-form
    oracle: the two linker realizations must be value-hash identical."""
    from ccnerx_ray.pipelines.kg import mentions_dataset_join
    from ccnerx_ray.stages.link import catalog_dataset

    corpus = corpus_from_documents(sf_dir)
    return mentions_dataset_join(
        corpus, TESTDATA_CATALOG, catalog_dataset(TESTDATA_CATALOG),
        kg_cfg(), broadcast_bytes=0)


ANALYTICS_QUERIES["kg_mentions_join"] = q_kg_mentions_join
ANALYTICS_ORACLE["kg_mentions_join"] = ORACLE_KG_MENTIONS



def q_minhash_dedup_keepers(sf_dir: str):
    """Full near-dup dedup pipeline: MinHash-LSH pairs → connected
    components → one keeper (min doc_id) per duplicate cluster."""
    from ccnerx_ray.ops.dedup import dup_components
    pairs = q_minhash_pairs(sf_dir)
    return dup_components(pairs)


ANALYTICS_QUERIES["minhash_dedup_keepers"] = q_minhash_dedup_keepers


def q_stratified_docs(sf_dir: str):
    """Deterministic per-language document sample (5 per lang)."""
    from ccnerx_ray.ops.sampling import stratified_sample
    ds = _docs(sf_dir, ["doc_id", "lang"])
    return stratified_sample(ds, "lang", "doc_id", n_per_key=5, seed=2021) \
        .select_columns(["lang", "doc_id"])


ANALYTICS_QUERIES["stratified_docs"] = q_stratified_docs


def q_prefix_leakage(sf_dir: str):
    """J5 prefix-containment superset scan (reference ``NER.ipynb`` cell 1
    checks eval texts against a train superset via ``startswith``; r1
    approximated it with an exact-key anti-join — this is the real
    semantics): for each document, how many OTHER documents have this
    document's text as a prefix (equality counts — exact dups are the
    common leakage case).

    Scale shape: bucket by FIRST CHARACTER (``startswith`` with a
    non-empty prefix implies an equal first char — exact for every
    input, unlike a first-token key which misses single-token prefixes
    that continue mid-token) → within bucket, sort texts once and
    binary-search each prefix range (lower bound by ``bisect``, upper
    bound by a predicate binary search on ``startswith`` — a sentinel
    like ``e + U+10FFFF`` would miss texts whose next char IS U+10FFFF)
    — O(k log k) per bucket, so even the skewed buckets a 26-way key
    produces stay cheap; at extreme scale, widen the key to the first
    token and route single-token docs through a side pass."""
    import bisect

    import pandas as pd

    def add_first_token(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ft = [(t[:1] if t else "") for t in texts]
        return batch.append_column("_ft", pa.array(ft, pa.string()))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        out_id, out_n = [], []
        for _, sub in g.groupby("_ft", sort=False):
            texts = sorted(sub["text"])
            for did, e in zip(sub["doc_id"], sub["text"]):
                lo = bisect.bisect_left(texts, e)
                a, b = lo, len(texts)    # first non-prefix index ≥ lo
                while a < b:
                    m = (a + b) // 2
                    if texts[m].startswith(e):
                        a = m + 1
                    else:
                        b = m
                n = a - lo - 1           # minus self
                if n > 0:
                    out_id.append(int(did))
                    out_n.append(n)
        return pd.DataFrame({"doc_id": out_id, "n_matches": out_n})

    ds = _docs(sf_dir, ["doc_id", "text"]).filter(expr="text != ''")
    keyed = ds.map_batches(add_first_token, batch_format="pyarrow")
    from ccnerx_ray.functions.grouping import coarse_grouped
    return coarse_grouped(keyed, ["_ft"], local, num_buckets=64,
                          out_dtypes={"doc_id": "int64",
                                      "n_matches": "int64"})


ORACLE_PREFIX_LEAKAGE = """
SELECT e.doc_id, CAST(count(*) AS BIGINT) AS n_matches
FROM documents e JOIN documents t
  ON t.doc_id <> e.doc_id AND starts_with(t.text, e.text)
WHERE e.text <> ''
GROUP BY e.doc_id
"""

ANALYTICS_QUERIES["prefix_leakage"] = q_prefix_leakage
ANALYTICS_ORACLE["prefix_leakage"] = ORACLE_PREFIX_LEAKAGE


def q_winnow_pairs(sf_dir: str):
    """True-winnowing near-dup candidates (MOSS scheme): pairs of docs
    sharing ≥1 window-selected shingle hash, with the shared count."""
    from ccnerx_ray.ops.dedup import winnow_pairs
    return winnow_pairs(_docs_wide(sf_dir, ["doc_id", "text"]), k=8, w=4)


# mirrors ops/text.py:winnow_fingerprints exactly: 8-token shingles →
# 16-hex sha256 prefixes → min per window of 4 → distinct per doc
ORACLE_WINNOW_PAIRS = r"""
WITH t AS (
  SELECT doc_id, CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM documents
), sh AS (
  SELECT doc_id,
    CASE WHEN len(toks) <= 8
         THEN [substr(sha256(array_to_string(toks, ' ')), 1, 16)]
         ELSE list_transform(generate_series(1, len(toks) - 7),
              i -> substr(sha256(array_to_string(toks[i:i+7], ' ')), 1, 16))
    END AS hashes
  FROM t WHERE toks IS NOT NULL
), fps AS (
  SELECT doc_id,
    CASE WHEN len(hashes) <= 4 THEN [list_min(hashes)]
         ELSE list_distinct(list_transform(
              generate_series(1, len(hashes) - 3),
              i -> list_min(hashes[i:i+3])))
    END AS fp_set
  FROM sh
), u AS (SELECT doc_id, unnest(fp_set) AS fp FROM fps)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM u a JOIN u b ON a.fp = b.fp AND a.doc_id < b.doc_id
GROUP BY 1, 2
"""

ANALYTICS_QUERIES["winnow_pairs"] = q_winnow_pairs
ANALYTICS_ORACLE["winnow_pairs"] = ORACLE_WINNOW_PAIRS


def _minhash_oracle(num_perm: int = 64, shingle_k: int = 3,
                    bands: int = 16, threshold: float = 0.5,
                    seed: int = 1, max_bucket: int = 64) -> str:
    """Full MinHash+LSH in SQL, mirroring ``ops/dedup.py`` bit for bit:

    * shingle hashes: the vectorized-fold domain (``_shingle_cte_sql`` —
      60-bit sha256 token hashes, FNV64 multiply-add window fold);
    * permutations: the SAME seeded (a, b) coefficients, injected as
      literals; the arithmetic replicates numpy's uint64 WRAPAROUND
      (``(a*h+b) mod 2^64 mod p``) via HUGEINT double-mod;
    * banding: a candidate pair shares ≥1 exact band of r = P/bands
      signature components (the Python side hashes the band to a bucket
      key; equal bands ⇔ equal buckets modulo a ~2^-64 hash collision);
    * verification: est_jaccard = equal-component fraction (k/64 is a
      dyadic rational — float-exact on both sides), filtered at
      ``threshold``."""
    from ccnerx_ray.functions.hashing import _MINHASH_PRIME, minhash_params

    a, b = minhash_params(num_perm, seed)
    A = "[" + ", ".join(str(int(x)) for x in a) + "]"
    B = "[" + ", ".join(str(int(x)) for x in b) + "]"
    P = _MINHASH_PRIME
    r = num_perm // bands
    return rf"""{_shingle_cte_sql(shingle_k)}, hx AS (
  SELECT doc_id, unnest(hashes) AS h FROM sh
), pv AS (
  -- row-based min instead of nested list lambdas: ~9x faster in DuckDB
  SELECT doc_id, i,
         min(CAST((CAST(({A})[i] AS HUGEINT) * h + ({B})[i])
                  % 18446744073709551616 % {P} AS BIGINT)) AS v
  FROM hx, (SELECT unnest(generate_series(1, {num_perm})) AS i) perms
  GROUP BY doc_id, i
), sig AS (
  SELECT doc_id, list(v ORDER BY i) AS s FROM pv GROUP BY doc_id
  UNION ALL
  SELECT doc_id, list_transform(generate_series(1, {num_perm}),
                                i -> CAST({P} AS BIGINT))
  FROM sh WHERE len(hashes) = 0
), bk AS (
  SELECT doc_id, s, bi, band_key,
         row_number() OVER (PARTITION BY bi, band_key
                            ORDER BY doc_id) AS rn
  FROM (
    SELECT doc_id, s, bi,
           array_to_string(s[bi*{r}+1 : bi*{r}+{r}], ',') AS band_key
    FROM (SELECT doc_id, s, unnest(generate_series(0, {bands - 1})) AS bi
          FROM sig))
)
SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
       len(list_filter(generate_series(1, {num_perm}),
                       i -> a.s[i] = b.s[i])) / {num_perm}.0 AS est_jaccard
FROM bk a JOIN bk b
  ON a.bi = b.bi AND a.band_key = b.band_key AND a.doc_id < b.doc_id
 AND a.rn <= {max_bucket} AND b.rn <= {max_bucket}
WHERE len(list_filter(generate_series(1, {num_perm}),
                      i -> a.s[i] = b.s[i])) / {num_perm}.0 >= {threshold}
"""


ANALYTICS_ORACLE["minhash_pairs"] = _minhash_oracle()
ANALYTICS_ORACLE["jaccard_pairs"] = _jaccard_oracle()
ANALYTICS_ORACLE["tfidf_top_terms"] = ORACLE_TFIDF_TOP_TERMS


def _simhash_oracle(max_hamming: int = 6, max_bucket: int = 64) -> str:
    """Full SimHash in SQL, mirroring ``ops/dedup.py:simhash_pairs``:
    sha256-derived 64-bit token hashes, per-bit ±1 votes, fingerprint =
    bits with positive vote, ``max_hamming+1`` disjoint bands of
    ``64 // bands`` bits (equal bands ⇔ equal Python bucket keys modulo a
    ~2^-64 hash collision), exact popcount verify — INCLUDING the
    ``max_bucket`` cap (both sides keep only the ``max_bucket``
    smallest-id members of each band bucket; caught live when the sf0.01
    gate flagged one truncated pair and the ``lsh_rows_truncated``
    metric confirmed 55 dropped rows)."""
    bands = max_hamming + 1
    width = 64 // bands
    return rf"""
WITH t AS (
  SELECT doc_id, CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                             w -> w <> '')) = 0 THEN NULL
         ELSE list_filter(string_split_regex(text, '\s+'),
                          w -> w <> '') END AS toks
  FROM documents
), th AS (
  SELECT doc_id, ('0x' || substr(sha256(w), 1, 16))::UBIGINT AS h
  FROM (SELECT doc_id, unnest(toks) AS w FROM t WHERE toks IS NOT NULL)
), bits AS (
  SELECT doc_id, b,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS vote
  FROM th, (SELECT unnest(generate_series(0, 63)) AS b) bb
  GROUP BY doc_id, b
), fp AS (
  SELECT doc_id,
         CAST(COALESCE(sum(CASE WHEN vote > 0
                           THEN CAST(1 AS HUGEINT) << b
                           ELSE CAST(0 AS HUGEINT) END),
                       0) AS UBIGINT) AS f
  FROM bits GROUP BY doc_id
  UNION ALL
  SELECT doc_id, CAST(0 AS UBIGINT) FROM t WHERE toks IS NULL
), bands AS (
  SELECT doc_id, f, bi, key,
         row_number() OVER (PARTITION BY bi, key ORDER BY doc_id) AS rn
  FROM (
    SELECT doc_id, f, bi, (f >> (bi * {width})) & {(1 << width) - 1} AS key
    FROM (SELECT doc_id, f, unnest(generate_series(0, {bands - 1})) AS bi
          FROM fp))
)
SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.f, b.f)) AS BIGINT) AS hamming
FROM bands a JOIN bands b
  ON a.bi = b.bi AND a.key = b.key AND a.doc_id < b.doc_id
 AND a.rn <= {max_bucket} AND b.rn <= {max_bucket}
WHERE bit_count(xor(a.f, b.f)) <= {max_hamming}
"""


ANALYTICS_ORACLE["simhash_pairs"] = _simhash_oracle()

# connected components over the (SQL-reproducible) MinHash pair set:
# recursive transitive closure, component = min reachable id — the same
# semantics as ops/dedup.py:dup_components
ANALYTICS_ORACLE["minhash_dedup_keepers"] = f"""
WITH RECURSIVE mh AS (
  SELECT * FROM ({_minhash_oracle()})
),
edges AS (SELECT id_a AS a, id_b AS b FROM mh
          UNION ALL SELECT id_b, id_a FROM mh),
walk(node, reach) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT w.node, e.b FROM walk w JOIN edges e ON e.a = w.reach
)
SELECT node AS doc_id, CAST(min(reach) AS BIGINT) AS component
FROM walk GROUP BY node
"""

# rank = sha256('seed|key|id') hex prefix on BOTH sides — the stratified
# sample is oracle-exact, not merely deterministic
ORACLE_STRATIFIED_DOCS = """
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang
             ORDER BY substr(sha256('2021|' || lang || '|' ||
                      CAST(doc_id AS VARCHAR)), 1, 16), doc_id) AS rn
  FROM documents
) WHERE rn <= 5
"""

ANALYTICS_ORACLE["stratified_docs"] = ORACLE_STRATIFIED_DOCS


# ------------------------------------------------------------ PII redaction
def q_pii_redact(sf_dir: str):
    """PII scrubbing (email / IPv4 / 10-digit phone → typed placeholders)
    with per-document match counts. The synthetic corpus contains no PII,
    so the query plants it deterministically from table columns — the
    SAME derivation the oracle builds in SQL — proving the regex
    machinery end to end on real matches (the operator itself,
    ``ops/text.py:redact_pii``, runs on any text column)."""
    from ccnerx_ray.ops.text import redact_pii

    ds = _docs(sf_dir, ["doc_id", "text", "source"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        t = [f"{x} contact {s}@example.com ip 10.0.{i % 256}.7 ph {i:010d}"
             for x, s, i in zip(batch.column("text").to_pylist(),
                                batch.column("source").to_pylist(), ids)]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(t, pa.string())})

    return (ds.map_batches(derive, batch_format="pyarrow")
              .map_batches(redact_pii, batch_format="pyarrow")
              .select_columns(["doc_id", "redacted", "n_emails", "n_ips",
                               "n_phones"]))


def _pii_oracle() -> str:
    from ccnerx_ray.ops.text import PII_EMAIL_RE, PII_IP_RE, PII_PHONE_RE
    return """
WITH t0 AS (
  SELECT doc_id,
         text || ' contact ' || source || '@example.com ip 10.0.'
              || CAST(doc_id %% 256 AS VARCHAR) || '.7 ph '
              || lpad(CAST(doc_id AS VARCHAR), 10, '0') AS t
  FROM documents
), e AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(t, '%(em)s')) AS BIGINT) AS n_emails,
         regexp_replace(t, '%(em)s', '<EMAIL>', 'g') AS t1
  FROM t0
), i AS (
  SELECT doc_id, n_emails,
         CAST(len(regexp_extract_all(t1, '%(ip)s')) AS BIGINT) AS n_ips,
         regexp_replace(t1, '%(ip)s', '<IP>', 'g') AS t2
  FROM e
)
SELECT doc_id,
       regexp_replace(t2, '%(ph)s', '<PHONE>', 'g') AS redacted,
       n_emails, n_ips,
       CAST(len(regexp_extract_all(t2, '%(ph)s')) AS BIGINT) AS n_phones
FROM i
""" % {"em": PII_EMAIL_RE, "ip": PII_IP_RE, "ph": PII_PHONE_RE}


ANALYTICS_QUERIES["pii_redact"] = q_pii_redact
ANALYTICS_ORACLE["pii_redact"] = _pii_oracle()


# -------------------------------------------------------- sequence packing
def q_doc_packs(sf_dir: str):
    """Token-budget sequence packing for LLM training (one row per pack):
    documents ordered by doc_id within each source fill 512-token packs,
    ``pack_id = exclusive_prefix_tokens // 512``. Distributed as a
    chunked keyed prefix sum (``ops/text.py:pack_documents``) — no whole
    source partition ever sits in one worker."""
    from ccnerx_ray.ops.text import pack_documents
    ds = _docs(sf_dir, ["doc_id", "text", "source"])
    return pack_documents(ds, budget=512)


ORACLE_DOC_PACKS = r"""
WITH t AS (
  SELECT source, doc_id,
         CAST(len(list_filter(string_split_regex(text, '\s+'),
                              w -> w <> '')) AS BIGINT) AS n_tokens
  FROM documents
), w AS (
  SELECT source, n_tokens,
         SUM(n_tokens) OVER (PARTITION BY source ORDER BY doc_id)
             - n_tokens AS excl
  FROM t
)
SELECT source, CAST(excl // 512 AS BIGINT) AS pack_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS pack_tokens
FROM w GROUP BY 1, 2
"""

ANALYTICS_QUERIES["doc_packs"] = q_doc_packs
ANALYTICS_ORACLE["doc_packs"] = ORACLE_DOC_PACKS


# --------------------------------------------------------- graph centrality
def q_graph_pagerank(sf_dir: str):
    """Exact integer PageRank (3 iterations) + degree over the bipartite
    part–supplier co-occurrence graph from lineitem — the KG-analytics
    centrality primitive (``ops/graph.py``; see module docstring for why
    integer arithmetic makes an iterative graph algorithm value-hash
    exact). Edge build: distinct pairs via hash-partitioned dedup; each
    iteration is one adaptive join + one mergeable grouped sum."""
    import ray.data

    from ccnerx_ray.functions.grouping import drop_duplicate_rows
    from ccnerx_ray.ops.graph import pagerank_int

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_partkey", "l_suppkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        p = ["p%d" % x for x in batch.column("l_partkey").to_pylist()]
        s = ["s%d" % x for x in batch.column("l_suppkey").to_pylist()]
        return pa.table({"u": pa.array(p, pa.string()),
                         "v": pa.array(s, pa.string())})

    edges = drop_duplicate_rows(
        ds.map_batches(to_edges, batch_format="pyarrow"), ["u", "v"],
        num_buckets=64)
    return pagerank_int(edges, iterations=3)


def _pagerank_oracle() -> str:
    from ccnerx_ray.ops.graph import pagerank_oracle_sql
    return pagerank_oracle_sql(
        "SELECT DISTINCT 'p' || CAST(l_partkey AS VARCHAR) AS u, "
        "'s' || CAST(l_suppkey AS VARCHAR) AS v FROM lineitem",
        iterations=3)


ANALYTICS_QUERIES["graph_pagerank"] = q_graph_pagerank
ANALYTICS_ORACLE["graph_pagerank"] = _pagerank_oracle()


def _co_pair_counts(triples, num_buckets: int):
    """Distinct-doc co-occurrence counts per entity pair from the
    flagship triple stream → ``(ea, eb, c_xy)``. One ``co_occurs_with``
    row exists per (document, pair) — the per-doc cap applied at triple
    materialization (``cooccur_cap``) is part of the contract — so the
    keyed sum counts documents."""
    from ccnerx_ray.functions.grouping import grouped_reduce

    def co(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("pred"), "co_occurs_with"))
        return pa.table({"ea": b.column("subj"), "eb": b.column("obj"),
                         "c_xy": pa.array(np.ones(len(b), np.int64))})

    return grouped_reduce(
        triples.map_batches(co, batch_format="pyarrow"),
        ["ea", "eb"], {"c_xy": "sum"}, num_buckets=num_buckets,
        pre_combine=True,
        out_dtypes={"ea": "string", "eb": "string", "c_xy": "int64"})


def q_kg_rel_pmi(sf_dir: str):
    """KG edge CONFIDENCE weighting — the step between "these entities
    co-occur" and "this is a relation worth keeping": rank the
    ``co_occurs_with`` edges by document-level PMI (distinct-doc pair
    count over the product of the entities' distinct-doc frequencies),
    so association-driven pairs beat popularity-driven ones. The
    reference materializes co-occurrence pairs unweighted; a production
    KG prunes on exactly this signal. Counts are exact ints (the
    ``pmi_pairs`` hashing ledger: ONE IEEE double division only for
    ordering); machinery is ``ops/pmi.py:assoc_top_pairs``."""
    from ccnerx_ray.functions.grouping import (drop_duplicate_rows,
                                               grouped_reduce)
    from ccnerx_ray.ops import join as joinmod
    from ccnerx_ray.ops.pmi import assoc_top_pairs

    nb = joinmod.derive_hash_partitions(None)
    # the triple stream feeds two consumers (pair scan + marginal scan)
    # — materialize ONCE (the doc_packs recipe)
    triples = q_kg_triples(sf_dir).materialize()
    pairs = _co_pair_counts(triples, nb)

    def ment(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("pred"), "mentioned_in"))
        return pa.table({"eid": b.column("subj"), "doc": b.column("obj")})

    # (eid, doc) made GLOBALLY distinct → per-batch partial counts sum
    # exactly (the user_retention recipe)
    dm = drop_duplicate_rows(
        triples.map_batches(ment, batch_format="pyarrow"),
        ["eid", "doc"], num_buckets=nb)

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({"eid": batch.column("eid"),
                         "c": pa.array(np.ones(batch.num_rows, np.int64))})

    marg = grouped_reduce(dm.map_batches(ones, batch_format="pyarrow"),
                          ["eid"], {"c": "sum"}, num_buckets=nb,
                          pre_combine=True,
                          out_dtypes={"eid": "string", "c": "int64"})
    return assoc_top_pairs(pairs, marg, top_n=30, min_count=2)


ORACLE_KG_REL_PMI = f"""
WITH t AS ({ORACLE_KG_TRIPLES}),
pc_ AS (SELECT subj AS ea, obj AS eb, count(*) AS c_xy FROM t
        WHERE pred = 'co_occurs_with' GROUP BY 1, 2),
dm AS (SELECT DISTINCT subj AS eid, obj AS doc FROM t
       WHERE pred = 'mentioned_in'),
mg AS (SELECT eid, CAST(count(*) AS BIGINT) AS c FROM dm GROUP BY 1)
SELECT ea, eb, CAST(c_xy AS BIGINT) AS c_xy,
       a.c AS c_x, b.c AS c_y
FROM pc_ JOIN mg a ON pc_.ea = a.eid JOIN mg b ON pc_.eb = b.eid
WHERE c_xy >= 2
ORDER BY CAST(c_xy AS DOUBLE) / (a.c * b.c) DESC, ea, eb
LIMIT 30
"""

ANALYTICS_QUERIES["kg_rel_pmi"] = q_kg_rel_pmi
ANALYTICS_ORACLE["kg_rel_pmi"] = ORACLE_KG_REL_PMI


def q_kg_negatives(sf_dir: str):
    """Filtered negative sampling over the materialized co-occurrence
    edges — the KG-embedding training-data prep (TransE-family): two
    deterministic corrupted tails per distinct edge, indexed into the
    sorted entity vocabulary by 60-bit sha256 arithmetic, with
    corruptions that hit a true edge (either orientation) or the
    subject itself dropped. Machinery:
    ``ops/negatives.py:negative_edge_samples`` (pure-map generation +
    one hash-partitioned anti-join on the collision-free pair key)."""
    from ccnerx_ray.functions.grouping import drop_duplicate_rows
    from ccnerx_ray.ops import join as joinmod
    from ccnerx_ray.ops.negatives import (collect_vocab,
                                          negative_edge_samples)

    nb = joinmod.derive_hash_partitions(None)
    triples = q_kg_triples(sf_dir).materialize()

    def co(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("pred"), "co_occurs_with"))
        return pa.table({"ea": b.column("subj"), "eb": b.column("obj")})

    edges = drop_duplicate_rows(
        triples.map_batches(co, batch_format="pyarrow"), ["ea", "eb"],
        num_buckets=nb)

    def ment_ids(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = batch.filter(pc.equal(batch.column("pred"), "mentioned_in"))
        return pa.table({"eid": b.column("subj")})

    vocab_ds = drop_duplicate_rows(
        triples.map_batches(ment_ids, batch_format="pyarrow"), ["eid"],
        num_buckets=nb)
    vocab = collect_vocab(vocab_ds)
    return negative_edge_samples(edges, vocab, k=2, salt="neg")


ORACLE_KG_NEGATIVES = f"""
WITH t AS ({ORACLE_KG_TRIPLES}),
e AS (SELECT DISTINCT subj AS ea, obj AS eb FROM t
      WHERE pred = 'co_occurs_with'),
vs AS (SELECT DISTINCT subj AS eid FROM t WHERE pred = 'mentioned_in'),
nv AS (SELECT count(*) AS n FROM vs),
v AS (SELECT eid, row_number() OVER (ORDER BY eid) - 1 AS idx FROM vs),
gen AS (
  SELECT ea, eb, i,
         CAST(('0x' || substr(sha256(
               'neg:' || CAST(length(ea) AS VARCHAR) || ':' || ea || ':'
               || CAST(length(eb) AS VARCHAR) || ':' || eb || ':'
               || CAST(i AS VARCHAR)), 1, 15))::UBIGINT
              % CAST(nv.n AS UBIGINT) AS BIGINT) AS idx
  FROM e CROSS JOIN (SELECT unnest(generate_series(0, 1)) AS i) s, nv
),
neg AS (SELECT g.ea AS subj, g.eb AS obj, v.eid AS neg_obj,
               CAST(g.i AS BIGINT) AS sample_i
        FROM gen g JOIN v USING (idx)),
sym AS (SELECT ea, eb FROM e UNION ALL SELECT eb AS ea, ea AS eb FROM e)
SELECT subj, obj, neg_obj, sample_i FROM neg
WHERE neg_obj <> subj
  AND NOT EXISTS (SELECT 1 FROM sym
                  WHERE sym.ea = neg.subj AND sym.eb = neg.neg_obj)
"""

ANALYTICS_QUERIES["kg_negatives"] = q_kg_negatives
ANALYTICS_ORACLE["kg_negatives"] = ORACLE_KG_NEGATIVES


def q_embedding_rp(sf_dir: str):
    """Signed random projection (JL / Achlioptas ±1) of the embeddings
    table to 16 integer components (``ops/projection.py:rp_project``) —
    the dimensionality-reduction pure map that runs before ANN /
    clustering at corpus scale. Exact int64 arithmetic end to end (the
    kmeans micro contract + a sha256-derived sign matrix), so the
    long-form projected table value-hashes."""
    from ccnerx_ray.ops.projection import rp_project

    return rp_project(_emb(sf_dir).select_columns(["vec_id", "embedding"]),
                      d_out=16, d_in=64)


ORACLE_EMBEDDING_RP = """
WITH pts AS (
  SELECT vec_id,
         unnest([{'d': i,
                  'x': CAST(round(CAST(embedding[i] AS DOUBLE)
                                  * 1000000) AS BIGINT)}
                 for i in range(1, 65)], recursive := true)
  FROM embeddings
),
sm AS (
  SELECT a.i, b.j,
         CASE WHEN ('0x' || substr(sha256(
                    'rp:' || CAST(a.i AS VARCHAR) || ':'
                    || CAST(b.j AS VARCHAR)), 1, 15))::UBIGINT % 2 = 0
              THEN 1 ELSE -1 END AS s
  FROM (SELECT unnest(generate_series(1, 64)) AS i) a
  CROSS JOIN (SELECT unnest(generate_series(1, 16)) AS j) b
)
SELECT p.vec_id, CAST(sm.j AS BIGINT) AS dim,
       CAST(sum(p.x * sm.s) AS BIGINT) AS y
FROM pts p JOIN sm ON p.d = sm.i
GROUP BY p.vec_id, sm.j
"""

ANALYTICS_QUERIES["embedding_rp"] = q_embedding_rp
ANALYTICS_ORACLE["embedding_rp"] = ORACLE_EMBEDDING_RP


def q_rp_knn(sf_dir: str):
    """Two-stage ANN with the random projection as stage 1
    (``ops/projection.py:rp_knn``): exact-integer projected-dot cuts to
    25 candidates per query, true cosine re-ranks to the final 10 — the
    JL sibling of ``rag_rerank``'s quantized two-stage shape. The
    oracle re-runs projection, candidate cut and rerank wholly in SQL."""
    from ccnerx_ray.ops.projection import rp_knn

    Q, qids = _query_matrix(sf_dir)
    return rp_knn(_emb(sf_dir).select_columns(["vec_id", "embedding"]),
                  Q, query_ids=qids, k=10, m=25)


ORACLE_RP_KNN = """
WITH pts AS (
  SELECT vec_id,
         unnest([{'d': i,
                  'x': CAST(round(CAST(embedding[i] AS DOUBLE)
                                  * 1000000) AS BIGINT)}
                 for i in range(1, 65)], recursive := true)
  FROM embeddings
),
sm AS (
  SELECT a.i, b.j,
         CASE WHEN ('0x' || substr(sha256(
                    'rp:' || CAST(a.i AS VARCHAR) || ':'
                    || CAST(b.j AS VARCHAR)), 1, 15))::UBIGINT % 2 = 0
              THEN 1 ELSE -1 END AS s
  FROM (SELECT unnest(generate_series(1, 64)) AS i) a
  CROSS JOIN (SELECT unnest(generate_series(1, 16)) AS j) b
),
proj AS (
  SELECT p.vec_id, sm.j, CAST(sum(p.x * sm.s) AS BIGINT) AS y
  FROM pts p JOIN sm ON p.d = sm.i GROUP BY 1, 2
),
qp AS (SELECT vec_id AS qid, j, y FROM proj WHERE vec_id < 4),
s1 AS (
  SELECT q.qid, c.vec_id AS cid,
         sum(CAST(q.y AS HUGEINT) * c.y) AS pdot
  FROM qp q JOIN proj c ON q.j = c.j GROUP BY 1, 2
),
cand AS (
  SELECT qid, cid FROM (
    SELECT qid, cid, row_number() OVER (PARTITION BY qid
               ORDER BY pdot DESC, cid) AS rn FROM s1)
  WHERE rn <= 25
),
rer AS (
  SELECT cand.qid AS query_id, cand.cid AS vec_id,
         row_number() OVER (PARTITION BY cand.qid
             ORDER BY list_cosine_similarity(qe.embedding, ce.embedding)
                      DESC, cand.cid) AS rank
  FROM cand
  JOIN embeddings qe ON qe.vec_id = cand.qid
  JOIN embeddings ce ON ce.vec_id = cand.cid
)
SELECT query_id, vec_id, rank FROM rer WHERE rank <= 10
"""

ANALYTICS_QUERIES["rp_knn"] = q_rp_knn
ANALYTICS_ORACLE["rp_knn"] = ORACLE_RP_KNN


def q_pca_embeddings(sf_dir: str):
    """Two-pass corpus PCA (``ops/covariance.py``): fit from the
    exact-integer moment table (the ``embedding_cov`` scan + a tiny
    driver eigendecomposition), then project every embedding onto the
    top-4 components in a pure map. ROWS-ONLY: eigendecomposition has
    no SQL mirror — the fit arithmetic is covered through the
    hash-exact ``embedding_cov`` oracle (same scan, same moments) and
    the pytest suite pins component recovery against ``np.cov``/
    ``np.linalg.eigh`` and projection equality."""
    from ccnerx_ray.ops.covariance import pca_components, pca_project

    emb = _emb(sf_dir).select_columns(["vec_id", "embedding"])
    comps, mean, _ = pca_components(emb, n_components=4)
    return pca_project(emb, comps, mean)


ANALYTICS_QUERIES["pca_embeddings"] = q_pca_embeddings
# no ORACLE entry: rows-only by construction (driver records the weaker
# check; fit arithmetic is oracle-exact via embedding_cov)


# ------------------------------------------------- graph traversal
# (walks / BFS / link prediction over the materialized KG — the
# downstream workloads the triple store exists to feed; ops/walks.py)
def _kg_co_edges(sf_dir: str):
    """``co_occurs_with`` triples of the flagship pipeline as a (u, v)
    edge Dataset — the same graph ``kg_two_hop`` queries."""
    triples = q_kg_triples(sf_dir)

    def co_edges(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.equal(batch.column("pred"), "co_occurs_with")
        b = batch.filter(keep)
        return pa.table({"u": b.column("subj"), "v": b.column("obj")})

    return triples.map_batches(co_edges, batch_format="pyarrow")


_KG_SYM_SQL = f"""t AS ({{kg}}),
e AS (SELECT DISTINCT subj AS a, obj AS b FROM t
      WHERE pred = 'co_occurs_with'),
sym AS (SELECT a, b FROM e UNION ALL SELECT b AS a, a AS b FROM e)"""


def q_kg_walks(sf_dir: str):
    """Deterministic random walks over the KG co-occurrence graph
    (``ops/walks.py:random_walks``): one 4-step walk from every node,
    next hop = the neighbor minimizing the sha256 choice key — the
    DeepWalk training-corpus generator (walks feed skip-gram exactly as
    ``kg_negatives`` feeds TransE), reproducible bit-for-bit in SQL via
    a recursive CTE + ``arg_min`` over the identical hash."""
    from ccnerx_ray.ops.walks import random_walks

    return random_walks(_kg_co_edges(sf_dir), length=4)


ORACLE_KG_WALKS = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)}
SELECT walk_id, CAST(step AS BIGINT) AS step, node FROM (
  -- the recursive CTE lives in a subquery: DuckDB's WITH RECURSIVE
  -- binder cannot resolve a nested WITH inside a sibling member (the
  -- kg CTE), but an inner recursive scope referencing the outer plain
  -- CTEs resolves fine
  WITH RECURSIVE walk(walk_id, step, node) AS (
    SELECT a, 0, a FROM (SELECT DISTINCT a FROM sym)
    UNION ALL
    SELECT w.walk_id, w.step + 1,
           arg_min(s.b, substr(sha256('walk:' || w.walk_id || ':'
                   || CAST(w.step + 1 AS VARCHAR) || ':' || s.b), 1, 15)
                   || s.b)
    FROM walk w JOIN sym s ON s.a = w.node
    WHERE w.step < 4
    GROUP BY w.walk_id, w.step
  )
  SELECT * FROM walk)
"""

ANALYTICS_QUERIES["kg_walks"] = q_kg_walks
ANALYTICS_ORACLE["kg_walks"] = ORACLE_KG_WALKS


def q_kg_bfs(sf_dir: str):
    """Multi-source BFS hop distances over the KG co-occurrence graph
    (``ops/walks.py:bfs_distances``): every entity within 3 hops of the
    seed set (entities whose id starts with hex 0–3 — a deterministic
    ~¼ slice of the id space), with its exact minimum distance. The
    neighborhood-radius query a KG store serves ("what is near X, and
    how near?")."""
    import pyarrow.compute as pc

    from ccnerx_ray.ops.walks import bfs_distances

    edges = _kg_co_edges(sf_dir).materialize()   # two consumers

    def nodes(batch: pa.Table) -> pa.Table:
        ent = pa.chunked_array(
            [batch.column("u").combine_chunks(),
             batch.column("v").combine_chunks()], type=pa.string())
        keep = pc.less_equal(pc.utf8_slice_codeunits(ent, 0, 1), "3")
        return pa.table({"entity": ent.filter(keep)})

    seeds = edges.map_batches(nodes, batch_format="pyarrow")
    return bfs_distances(edges, seeds, max_depth=3)


ORACLE_KG_BFS = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)}
SELECT entity, CAST(min(dist) AS BIGINT) AS dist FROM (
  WITH RECURSIVE bfs(entity, dist) AS (
    SELECT DISTINCT a, 0 FROM sym WHERE substr(a, 1, 1) <= '3'
    UNION
    SELECT sym.b, bfs.dist + 1 FROM bfs JOIN sym ON sym.a = bfs.entity
    WHERE bfs.dist < 3
  )
  SELECT * FROM bfs) GROUP BY entity
"""

ANALYTICS_QUERIES["kg_bfs"] = q_kg_bfs
ANALYTICS_ORACLE["kg_bfs"] = ORACLE_KG_BFS


def q_kg_link_pred(sf_dir: str):
    """Common-neighbor link prediction over the KG co-occurrence graph
    (``ops/walks.py:common_neighbor_pairs``): the top-25 NON-adjacent
    entity pairs sharing the most neighbors — the classic KG-completion
    candidate scorer (Liben-Nowell & Kleinberg), exact-integer counts,
    deterministic (cn DESC, x, y) cut."""
    from ccnerx_ray.ops.walks import common_neighbor_pairs

    return common_neighbor_pairs(_kg_co_edges(sf_dir), top_n=25)


ORACLE_KG_LINK_PRED = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)},
w AS (SELECT s1.b AS x, s2.b AS y, CAST(count(*) AS BIGINT) AS cn
      FROM sym s1 JOIN sym s2 ON s1.a = s2.a AND s1.b < s2.b
      GROUP BY 1, 2),
cand AS (SELECT * FROM w WHERE NOT EXISTS
         (SELECT 1 FROM e WHERE e.a = w.x AND e.b = w.y))
SELECT x, y, cn FROM cand ORDER BY cn DESC, x, y LIMIT 25
"""

ANALYTICS_QUERIES["kg_link_pred"] = q_kg_link_pred
ANALYTICS_ORACLE["kg_link_pred"] = ORACLE_KG_LINK_PRED


def q_kg_skipgram(sf_dir: str):
    """Skip-gram training pairs from the walk corpus
    (``ops/walks.py:skipgram_pairs``): window-2 (center, context)
    counts over the ``kg_walks`` output — the exact table a
    word2vec-style node-embedding trainer consumes (DeepWalk: walks are
    sentences, nodes are words). One walk-keyed co-group + one
    combiner-backed keyed count; pair volume is linear in the walk
    corpus."""
    from ccnerx_ray.ops.walks import random_walks, skipgram_pairs

    return skipgram_pairs(random_walks(_kg_co_edges(sf_dir), length=4),
                          window=2)


ORACLE_KG_SKIPGRAM = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)},
wk AS (
  SELECT * FROM (
    WITH RECURSIVE walk(walk_id, step, node) AS (
      SELECT a, 0, a FROM (SELECT DISTINCT a FROM sym)
      UNION ALL
      SELECT w.walk_id, w.step + 1,
             arg_min(s.b, substr(sha256('walk:' || w.walk_id || ':'
                     || CAST(w.step + 1 AS VARCHAR) || ':' || s.b), 1,
                     15) || s.b)
      FROM walk w JOIN sym s ON s.a = w.node
      WHERE w.step < 4
      GROUP BY w.walk_id, w.step
    )
    SELECT * FROM walk)
)
SELECT w1.node AS center, w2.node AS context,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM wk w1 JOIN wk w2 ON w1.walk_id = w2.walk_id
 AND w2.step BETWEEN w1.step - 2 AND w1.step + 2
 AND w2.step <> w1.step
GROUP BY 1, 2
"""

ANALYTICS_QUERIES["kg_skipgram"] = q_kg_skipgram
ANALYTICS_ORACLE["kg_skipgram"] = ORACLE_KG_SKIPGRAM


def q_kg_ppr(sf_dir: str):
    """Personalized PageRank around a seed slice of the KG
    (``ops/graph.py:ppr_int``): exact integer micro-unit arithmetic —
    mass starts at, and teleports back to, the entities whose id begins
    with hex 0–3 (the ``kg_bfs`` seed rule) — the "what matters around
    THESE entities?" centrality a KG store serves for entity-context
    ranking. Bit-identical across partitionings; the oracle unrolls the
    iterations into chained integer CTEs."""
    import pyarrow.compute as pc

    from ccnerx_ray.functions.grouping import drop_duplicate_rows
    from ccnerx_ray.ops.graph import ppr_int

    # ppr_int's contract (as pagerank_int's): duplicate-free directed
    # pairs — co_occurs_with triples repeat per supporting document
    edges = drop_duplicate_rows(_kg_co_edges(sf_dir),
                                ["u", "v"]).materialize()  # two consumers

    def nodes(batch: pa.Table) -> pa.Table:
        ent = pa.chunked_array(
            [batch.column("u").combine_chunks(),
             batch.column("v").combine_chunks()], type=pa.string())
        keep = pc.less_equal(pc.utf8_slice_codeunits(ent, 0, 1), "3")
        return pa.table({"entity": ent.filter(keep)})

    seeds = edges.map_batches(nodes, batch_format="pyarrow")
    return ppr_int(edges, seeds, iterations=3)


def _kg_ppr_oracle() -> str:
    from ccnerx_ray.ops.graph import ppr_oracle_sql

    edge_sql = (f"WITH t AS ({ORACLE_KG_TRIPLES}) "
                "SELECT DISTINCT subj AS u, obj AS v FROM t "
                "WHERE pred = 'co_occurs_with'")
    # sd may reference the oracle's own symmetrized CTE `e` — every
    # node appears as e.u there, so this is the same "id prefix ≤ '3'"
    # slice the Ray side takes
    seeds_sql = "SELECT u AS node FROM e WHERE substr(u, 1, 1) <= '3'"
    return ppr_oracle_sql(edge_sql, seeds_sql, iterations=3)


ANALYTICS_QUERIES["kg_ppr"] = q_kg_ppr
ANALYTICS_ORACLE["kg_ppr"] = _kg_ppr_oracle()


def q_kg_clustering(sf_dir: str):
    """Per-entity triangle participation over the KG co-occurrence
    graph (``ops/graph.py:node_triangle_counts``): ``(entity, degree,
    n_triangles)`` — the exact-integer numerator/denominator of the
    local clustering coefficient (how clique-like is each entity's
    neighborhood?), float-free so the result value-hashes."""
    from ccnerx_ray.ops.graph import node_triangle_counts

    return node_triangle_counts(_kg_co_edges(sf_dir))


ORACLE_KG_CLUSTERING = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)},
deg AS (SELECT a AS node, CAST(count(*) AS BIGINT) AS degree
        FROM sym GROUP BY a),
tri AS (SELECT s1.a AS m
        FROM sym s1 JOIN sym s2 ON s1.a = s2.a AND s1.b < s2.b
        WHERE EXISTS (SELECT 1 FROM e
                      WHERE e.a = s1.b AND e.b = s2.b)),
tc AS (SELECT m AS entity, count(*) AS n_triangles FROM tri GROUP BY m)
SELECT d.node AS entity, d.degree,
       CAST(COALESCE(tc.n_triangles, 0) AS BIGINT) AS n_triangles
FROM deg d LEFT JOIN tc ON d.node = tc.entity
"""

ANALYTICS_QUERIES["kg_clustering"] = q_kg_clustering
ANALYTICS_ORACLE["kg_clustering"] = ORACLE_KG_CLUSTERING


def q_kg_degree_dist(sf_dir: str):
    """Degree distribution of the KG co-occurrence graph — the one-look
    graph-health profile (hub skew, isolated-entity mass) every KG
    build report carries: ``(degree, n_nodes)``. One edge dedup, the
    standard combiner-backed degree reduce
    (``ops/graph.py:degree_counts``), one node-scale re-count."""
    from ccnerx_ray.functions.grouping import (drop_duplicate_rows,
                                               grouped_reduce)
    from ccnerx_ray.ops.graph import degree_counts, symmetrize

    edges = drop_duplicate_rows(_kg_co_edges(sf_dir), ["u", "v"])
    deg = degree_counts(symmetrize(edges), "u", num_buckets=16)

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({
            "degree": batch.column("degree"),
            "n_nodes": pa.array(np.ones(batch.num_rows,
                                        dtype=np.int64))})

    return grouped_reduce(deg.map_batches(ones, batch_format="pyarrow"),
                          ["degree"], {"n_nodes": "sum"}, num_buckets=8,
                          out_dtypes={"degree": "int64",
                                      "n_nodes": "int64"},
                          pre_combine=True)


ORACLE_KG_DEGREE_DIST = f"""
WITH {_KG_SYM_SQL.format(kg=ORACLE_KG_TRIPLES)},
deg AS (SELECT a AS node, CAST(count(*) AS BIGINT) AS degree
        FROM sym GROUP BY a)
SELECT degree, CAST(count(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY degree
"""

ANALYTICS_QUERIES["kg_degree_dist"] = q_kg_degree_dist
ANALYTICS_ORACLE["kg_degree_dist"] = ORACLE_KG_DEGREE_DIST


def q_kg_walks_weighted(sf_dir: str):
    """WEIGHTED random walks over the KG co-occurrence graph
    (``ops/walks.py:random_walks(weight_col=...)``): edge weight = the
    pair's co-occurrence support (triple rows per (subj, obj)), next
    hop drawn ∝ weight by exact integer inverse-CDF — one sha256 draw
    per (walk, step), window-cumsum selection — so frequently
    co-occurring entities attract the walk (the node2vec-style biased
    corpus), reproducible bit-for-bit in SQL."""
    from ccnerx_ray.functions.grouping import grouped_reduce
    from ccnerx_ray.ops.walks import random_walks

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "w", pa.array(np.ones(batch.num_rows, dtype=np.int64)))

    weighted = grouped_reduce(
        _kg_co_edges(sf_dir).map_batches(ones, batch_format="pyarrow"),
        ["u", "v"], {"w": "sum"}, num_buckets=16,
        out_dtypes={"u": "string", "v": "string", "w": "int64"},
        pre_combine=True)
    return random_walks(weighted, length=4, salt="wwalk",
                        weight_col="w")


ORACLE_KG_WALKS_WEIGHTED = f"""
WITH t AS ({ORACLE_KG_TRIPLES}),
e AS (SELECT subj AS a, obj AS b, CAST(count(*) AS BIGINT) AS w
      FROM t WHERE pred = 'co_occurs_with' GROUP BY 1, 2),
sym AS (SELECT a, b, w FROM e
        UNION ALL SELECT b AS a, a AS b, w FROM e)
SELECT walk_id, CAST(step AS BIGINT) AS step, node FROM (
  WITH RECURSIVE walk(walk_id, step, node) AS (
    SELECT a, 0, a FROM (SELECT DISTINCT a FROM sym)
    UNION ALL
    SELECT w2.walk_id, w2.step + 1,
           (SELECT s.b FROM (
              SELECT s0.b,
                     sum(s0.w) OVER (ORDER BY s0.b
                         ROWS UNBOUNDED PRECEDING) AS cum,
                     sum(s0.w) OVER () AS tot
              FROM sym s0 WHERE s0.a = w2.node) s
            WHERE s.cum > (('0x' || substr(sha256('wwalk:' || w2.walk_id
                  || ':' || CAST(w2.step + 1 AS VARCHAR)), 1, 15))
                  ::UBIGINT % s.tot)
            ORDER BY s.b LIMIT 1)
    FROM walk w2 WHERE w2.step < 4
  )
  SELECT * FROM walk)
"""

ANALYTICS_QUERIES["kg_walks_weighted"] = q_kg_walks_weighted
ANALYTICS_ORACLE["kg_walks_weighted"] = ORACLE_KG_WALKS_WEIGHTED


def q_kg_node2vec(sf_dir: str):
    """SECOND-ORDER biased walks over the KG co-occurrence graph
    (``ops/walks.py:node2vec_walks``, Grover & Leskovec's node2vec):
    the transition out of ``cur`` depends on the previous node — return
    / common-neighbor / far class weights 1 / 4 / 2 (≙ p = 4, q = 2
    scaled integer) — the exploration-tunable walk corpus that
    completes the embedding-prep family (uniform `kg_walks`, weighted
    `kg_walks_weighted`, second-order here). Exact integer inverse-CDF
    per step; membership of (prev, nbr) in the edge set decided by two
    distributed semi/anti joins on the canonical pair key."""
    from ccnerx_ray.functions.grouping import drop_duplicate_rows
    from ccnerx_ray.ops.walks import node2vec_walks

    edges = drop_duplicate_rows(_kg_co_edges(sf_dir), ["u", "v"])
    return node2vec_walks(edges, length=4, w_return=1, w_common=4,
                          w_far=2)


ORACLE_KG_NODE2VEC = f"""
WITH t AS ({ORACLE_KG_TRIPLES}),
ed AS (SELECT DISTINCT least(subj, obj) AS a, greatest(subj, obj) AS b
       FROM t WHERE pred = 'co_occurs_with'),
sym AS (SELECT a, b FROM ed UNION ALL SELECT b AS a, a AS b FROM ed)
SELECT walk_id, CAST(step AS BIGINT) AS step, node FROM (
  WITH RECURSIVE walk(walk_id, step, prev, node) AS (
    SELECT a, 0, CAST(NULL AS VARCHAR), a
    FROM (SELECT DISTINCT a FROM sym)
    UNION ALL
    SELECT w2.walk_id, w2.step + 1, w2.node,
           (SELECT s.b FROM (
              SELECT s0.b,
                     sum(s0.cw) OVER (ORDER BY s0.b
                         ROWS UNBOUNDED PRECEDING) AS cum,
                     sum(s0.cw) OVER () AS tot
              FROM (SELECT s1.b,
                           CASE WHEN w2.prev IS NULL THEN 1
                                WHEN s1.b = w2.prev THEN 1
                                WHEN EXISTS (SELECT 1 FROM ed
                                     WHERE ed.a = least(w2.prev, s1.b)
                                       AND ed.b = greatest(w2.prev, s1.b))
                                THEN 4 ELSE 2 END AS cw
                    FROM sym s1 WHERE s1.a = w2.node) s0) s
            WHERE s.cum > (('0x' || substr(sha256('n2v:' || w2.walk_id
                  || ':' || CAST(w2.step + 1 AS VARCHAR)), 1, 15))
                  ::UBIGINT % s.tot)
            ORDER BY s.b LIMIT 1)
    FROM walk w2 WHERE w2.step < 4
  )
  SELECT * FROM walk)
"""

ANALYTICS_QUERIES["kg_node2vec"] = q_kg_node2vec
ANALYTICS_ORACLE["kg_node2vec"] = ORACLE_KG_NODE2VEC
