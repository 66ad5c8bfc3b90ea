"""Surface-form canonicalization: combiner + one coarse groupby.

The reference groups entity surfaces by label / exact string key in-memory
(``label_collections.py:63-95``, ``label_counter.py:26-54`` — G4/G5). At
10^12-file scale a bare ``groupby(norm_key)`` is an all-to-all shuffle of
every mention row AND a skew bomb (a monorepo's dominant identifiers form
giant groups — SURVEY.md §7). This stage defuses both:

1. **combiner** (``map_batches``): partial count per
   ``(norm_key, label, surface)`` inside each batch — a hot key collapses
   to one row per (key, label, surface) per batch before anything moves,
   so the shuffle carries digest-scale rows whatever the skew;
2. **final reduce**: one coarse ``groupby(norm_key)`` over the partials,
   its fan-out sized from the input (``grouping.derive_hash_partitions``),
   picks the majority label and representative surface (ties broken
   lexicographically — deterministic).

Output: one row per canonical entity
``(entity_id, norm_key, label, repr_surface, n_mentions)``.

Two entry points:
* :func:`canonicalize` — over the flat mention table (G4 parity path);
* :func:`entities_from_triples` — over ``mentioned_in`` rows of the triple
  store, so the entity table is built WITHOUT a second pass over the corpus
  (the store is orders of magnitude smaller than the input).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.functions.hashing import entity_id

ENTITY_SCHEMA = pa.schema([
    ("entity_id", pa.string()),
    ("norm_key", pa.string()),
    ("label", pa.string()),
    ("repr_surface", pa.string()),
    ("n_mentions", pa.int64()),
])


def make_combiner(key_col: str = "norm_key", label_col: str = "linked_label",
                  surface_col: str = "surface"):
    """Combiner factory: within-batch partial counts (pre-shuffle)."""

    def combine(batch: pa.Table) -> pa.Table:
        df = pa.Table.from_arrays(
            [batch.column(key_col), batch.column(label_col), batch.column(surface_col)],
            names=["norm_key", "label", "surface"]).to_pandas()
        g = (df.groupby(["norm_key", "label", "surface"], sort=False)
               .size().reset_index(name="cnt"))
        # without the pandas schema metadata: a schema carrying it is
        # unhashable, and the shuffle's schema dedup fails on it
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    return combine


def _finalize_local(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized per-coarse-group finalize: majority label + representative
    surface per norm_key, ties broken lexicographically (sort order makes
    the choice deterministic)."""
    lab = (g.groupby(["norm_key", "label"], sort=False)["cnt"].sum()
            .reset_index()
            .sort_values(["norm_key", "cnt", "label"],
                         ascending=[True, False, True])
            .drop_duplicates("norm_key")[["norm_key", "label"]])
    surf = (g.groupby(["norm_key", "surface"], sort=False)["cnt"].sum()
             .reset_index()
             .sort_values(["norm_key", "cnt", "surface"],
                          ascending=[True, False, True])
             .drop_duplicates("norm_key")[["norm_key", "surface"]])
    tot = g.groupby("norm_key", sort=False)["cnt"].sum().reset_index()
    out = lab.merge(surf, on="norm_key").merge(tot, on="norm_key")
    out = out.rename(columns={"surface": "repr_surface", "cnt": "n_mentions"})
    out["entity_id"] = [entity_id(nk) for nk in out["norm_key"]]
    out["n_mentions"] = out["n_mentions"].astype("int64")
    return out[["entity_id", "norm_key", "label", "repr_surface", "n_mentions"]]


def canonicalize(mentions, label_col: str = "linked_label",
                 input_bytes: int | None = None):
    """flat mention Dataset → canonical entity Dataset.

    The reduce runs as one coarse hash-partitioned groupby
    (:func:`ccnerx_ray.functions.grouping.coarse_grouped`) with a
    vectorized pandas reduction inside, so the per-group ``map_groups``
    overhead never appears. Its fan-out comes from ``input_bytes`` (a
    size the caller already holds, e.g. the store's lineage bytes; no
    extra pass) through ``derive_hash_partitions``; ``None`` means the
    CPU count."""
    from ccnerx_ray.functions.grouping import (coarse_grouped,
                                               derive_hash_partitions)

    partials = mentions.map_batches(make_combiner(label_col=label_col),
                                    batch_format="pyarrow")
    return coarse_grouped(
        partials, ["norm_key"], _finalize_local,
        num_buckets=derive_hash_partitions(input_bytes),
        out_dtypes={"entity_id": "string", "norm_key": "string",
                    "label": "string", "repr_surface": "string",
                    "n_mentions": "int64"})


def entities_from_triples(triples, input_bytes: int | None = None):
    """Triple-store Dataset → canonical entity Dataset.

    Counts segment-level support (one ``mentioned_in`` row per distinct
    entity per segment), which is the store-native notion of ``n_mentions``.
    ``input_bytes`` sizes the shuffle (see :func:`canonicalize`).
    """
    ment = triples.map_batches(filter_mentioned_in, batch_format="pyarrow")
    return canonicalize(ment, label_col="label", input_bytes=input_bytes)


def filter_mentioned_in(batch: pa.Table) -> pa.Table:
    """Arrow-native predicate filter (used where expr-filter isn't enough)."""
    return batch.filter(pc.equal(batch.column("pred"), "mentioned_in"))


def _char_ngrams(s: str, n: int = 3) -> set:
    s = s.replace(" ", "")
    if len(s) < n:
        return {s} if s else set()
    return {s[i:i + n] for i in range(len(s) - n + 1)}


def alias_pairs(entities, threshold: float = 0.6, max_group: int = 256,
                scorer: str = "ngram", embedding=None):
    """Near-alias detection over the canonical entity table — the engine's
    deterministic stand-in for the reference's SBert-scored same-label
    candidate ranking (``label_counter.py:56-68``, T2/A4): entities with
    the same label whose normalized keys have char-3-gram Jaccard ≥
    ``threshold`` become ``(alias_of)`` pairs (smaller entity_id wins as
    canonical; deterministic). Similarity is emitted as ``jaccard_pm`` =
    ``(1e6 · |∩|) // |∪|`` — exact integer arithmetic that the DuckDB
    oracle reproduces bit-for-bit (float ratios would hash-mismatch).

    ``scorer="semantic"`` (with an ``embedding`` table) routes to
    :func:`alias_pairs_semantic` — embedding-cosine scoring that catches
    SYNONYM aliases sharing no character n-grams, the recall gap between
    this stand-in and the reference's SBert ranking (VERDICT r2 missing
    #2).

    The entity table is orders of magnitude smaller than the corpus, so
    bounded candidate buckets do the pair search. TWO bucket families per
    entity (a pair is a candidate if it shares EITHER bucket — union
    recall, still bounded like LSH banding):

    * ``(label, first char of norm_key)`` — prefix family;
    * ``(label, lexicographic min 3-gram)`` — an identity-hash MinHash
      band, which catches aliases that differ in their first character
      (e.g. ``parse foo`` vs ``xparse foo``).

    Both bucket keys are deterministic string functions, so the DuckDB
    oracle reproduces candidate generation exactly; duplicate pairs from
    the two families are deduped in a second coarse group."""
    import pandas as pd

    from ccnerx_ray.functions.grouping import coarse_grouped

    if scorer == "semantic":
        if embedding is None:
            raise ValueError("scorer='semantic' requires an embedding table")
        return alias_pairs_semantic(entities, embedding,
                                    threshold=threshold,
                                    max_group=max_group)
    if scorer != "ngram":
        raise ValueError(f"unknown alias scorer {scorer!r}")

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch.column("norm_key").to_pylist()
        labs = batch.column("label").to_pylist()
        prefix = [f"{l}|c:{k[:1]}" for l, k in zip(labs, keys)]
        ming = [f"{l}|g:{min(_char_ngrams(k), default='')}"
                for l, k in zip(labs, keys)]
        doubled = pa.concat_tables([batch, batch])
        return doubled.append_column(
            "_bucket", pa.array(prefix + ming, pa.string()))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        from ccnerx_ray.state import metrics

        ida, idb, sim = [], [], []
        truncated = 0
        for _, sub in g.groupby("_bucket", sort=False):
            if len(sub) < 2:
                continue
            truncated += max(0, len(sub) - max_group)
            sub = sub.sort_values("entity_id").head(max_group)
            eids = sub["entity_id"].tolist()
            grams = [_char_ngrams(k) for k in sub["norm_key"]]
            for x in range(len(eids)):
                for y in range(x + 1, len(eids)):
                    inter = len(grams[x] & grams[y])
                    if not inter:
                        continue
                    jpm = (1_000_000 * inter) // len(grams[x] | grams[y])
                    if jpm >= int(threshold * 1_000_000):
                        ida.append(eids[x])
                        idb.append(eids[y])
                        sim.append(jpm)
        metrics.incr("alias_rows_truncated", truncated)
        return pd.DataFrame({"canonical_id": ida, "alias_id": idb,
                             "jaccard_pm": sim})

    keyed = entities.map_batches(add_bucket, batch_format="pyarrow")
    pairs = coarse_grouped(keyed, ["_bucket"], local,
                           out_dtypes={"canonical_id": "string",
                                       "alias_id": "string",
                                       "jaccard_pm": "int64"})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["canonical_id", "alias_id"])
                 .drop_duplicates(subset=["canonical_id", "alias_id"]))

    return coarse_grouped(pairs, ["canonical_id", "alias_id"], dedup,
                          out_dtypes={"canonical_id": "string",
                                      "alias_id": "string",
                                      "jaccard_pm": "int64"})


def alias_pairs_semantic(entities, embedding, threshold: float = 0.8,
                         max_group: int = 256, n_bits: int = 8,
                         n_bands: int = 2, seed: int = 13):
    """Embedding-cosine alias detection (the reference's SBert-scored
    same-label ranking, ``label_counter.py:10-13,56-75`` A4/T2, with the
    repo's deterministic embedding table standing in for the encoder):
    an entity's vector is the L2-normalized mean of its norm_key token
    vectors (``WordEmbedding.lookup`` — hash-seeded fallback keeps it
    retry-stable); same-label entities with cosine ≥ ``threshold``
    become alias pairs, scored as ``cos_pm = floor(1e6·cos)``.

    Candidate generation is hyperplane-LSH banding (the same bounded-
    bucket discipline as the n-gram path): ``n_bands`` seeded random
    hyperplane families of ``n_bits`` sign bits each; a pair is a
    candidate if it collides in ANY band (union recall; P[collide/band]
    = (1 - θ/π)^n_bits). Buckets cap at ``max_group`` (metric-counted).
    The embedding table broadcasts once via ``ray.put``; vectors are
    computed in the bucketing pass and ride the (tiny) entity shuffle as
    a list column, never recomputed per pair."""
    import pandas as pd
    import ray

    from ccnerx_ray.functions.grouping import coarse_grouped

    dim = embedding.dimension
    rng = np.random.default_rng(seed)
    planes = [rng.standard_normal((n_bits, dim)) for _ in range(n_bands)]
    emb_ref = ray.put(embedding)
    planes_ref = ray.put(planes)

    def add_bucket(batch: pa.Table) -> pa.Table:
        emb = ray.get(emb_ref)
        pl = ray.get(planes_ref)
        keys = batch.column("norm_key").to_pylist()
        labs = batch.column("label").to_pylist()
        V = np.stack([
            np.mean([emb.lookup(t) for t in (k.split() or [""])], axis=0)
            for k in keys]) if keys else np.zeros((0, dim))
        V = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
        parts = []
        for fam, P in enumerate(pl):
            bits = (V @ P.T > 0).astype(np.uint8)
            codes = ["".join(map(str, row)) for row in bits]
            t = batch.append_column(
                "_bucket", pa.array([f"{l}|h{fam}:{c}"
                                     for l, c in zip(labs, codes)],
                                    pa.string()))
            parts.append(t.append_column(
                "_vec", pa.array(list(V), pa.list_(pa.float64()))))
        return pa.concat_tables(parts)

    def local(g: pd.DataFrame) -> pd.DataFrame:
        from ccnerx_ray.state import metrics

        ida, idb, sim = [], [], []
        truncated = 0
        thr_pm = int(threshold * 1_000_000)
        for _, sub in g.groupby("_bucket", sort=False):
            if len(sub) < 2:
                continue
            truncated += max(0, len(sub) - max_group)
            sub = sub.sort_values("entity_id").head(max_group)
            eids = sub["entity_id"].tolist()
            M = np.stack(sub["_vec"].to_numpy())
            C = M @ M.T
            for x in range(len(eids)):
                for y in range(x + 1, len(eids)):
                    pm = int(np.floor(C[x, y] * 1_000_000))
                    if pm >= thr_pm:
                        ida.append(eids[x])
                        idb.append(eids[y])
                        sim.append(pm)
        metrics.incr("alias_rows_truncated", truncated)
        return pd.DataFrame({"canonical_id": ida, "alias_id": idb,
                             "cos_pm": sim})

    keyed = entities.map_batches(add_bucket, batch_format="pyarrow")
    pairs = coarse_grouped(keyed, ["_bucket"], local,
                           out_dtypes={"canonical_id": "string",
                                       "alias_id": "string",
                                       "cos_pm": "int64"})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["canonical_id", "alias_id"])
                 .drop_duplicates(subset=["canonical_id", "alias_id"]))

    return coarse_grouped(pairs, ["canonical_id", "alias_id"], dedup,
                          out_dtypes={"canonical_id": "string",
                                      "alias_id": "string",
                                      "cos_pm": "int64"})
