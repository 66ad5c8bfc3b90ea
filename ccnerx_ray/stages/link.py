"""Entity-link scoring: mention rows × entity catalog → linked rows.

The reference's linking resources are dict lookups — word→tag-sequence
(``vocab_tag.py:24-37``, J2) and external-entity labels
(``ftloader_v1.py:317-341``, J3) — plus a similarity-ranked candidate
top-k (``label_counter.py:56-68``, T2). Two realizations of the SAME
scoring contract (parity test-enforced):

* :class:`LinkScorer` — catalog ≪ corpus (the reference's regime): a
  broadcast join realized as per-batch dict lookups inside
  ``map_batches`` (never a shuffle; SURVEY.md §2.5).
* :func:`link_exploded_mentions` — the at-scale path (VERDICT r4 #1): a
  real KG links against a catalog of 10⁸–10⁹ surfaces that won't
  ``ray.put``. The catalog stays a DATASET; candidate labels are
  aggregated distributed (one coarse groupby per key kind), and mentions
  hash-partition join against the lookup tables via
  ``ops.join.adaptive_join`` (which still takes the shuffle-free
  broadcast fast path whenever the aggregated lookup provably fits).
  Note the TAGGER's lexicon is a separate, bounded artifact (the
  reference caps it at ``max_scan_num`` = 1.5M words, ``le_loader.py:25``)
  — only the LINK catalog needs fact-scale treatment.

Scoring (deterministic):
* exact surface match in catalog  → link_score 1.0, labels ← catalog labels;
* normalized-key match            → link_score 0.9, labels ← catalog labels;
* otherwise NIL                   → link_score 0.0, label ← tagger label.

MULTI-LABEL semantics (reference ``ftloader_v1.py:317-341`` /
``mlabel_le_loader.py:199-215``): a surface may carry up to
``max_label_num`` candidate labels. Candidates are kept sorted
(lexicographic — deterministic), the primary ``linked_label`` is the
first candidate, and the full candidate set is surfaced as the
pipe-joined ``cand_labels`` string plus ``n_cands`` (a string rather
than ``list<string>`` keeps the column oracle-hashable).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.functions.tokenize import normalize_surface


class LinkScorer:
    """Batch callable; catalog dicts built once per instance. Operates on
    the nested segment-mention rows (list columns) from MentionTagger,
    looking up each distinct surface and norm key of a batch once."""

    def __init__(self, catalog_pairs: list[tuple[tuple[str, ...], str]] | None = None,
                 max_label_num: int = 3):
        pairs = [(tuple(s), l) for s, l in (catalog_pairs or [])]
        self.max_label_num = max_label_num
        by_surface: dict[str, list[str]] = {}
        by_norm: dict[str, list[str]] = {}
        for surf, lab in sorted(pairs):
            by_surface.setdefault(" ".join(surf), []).append(lab)
            by_norm.setdefault(normalize_surface(surf), []).append(lab)
        self.by_surface = {s: sorted(set(ls)) for s, ls in by_surface.items()}
        self.by_norm = {k: sorted(set(ls)) for k, ls in by_norm.items()}

    def link_one(self, surface: str, norm_key: str,
                 label: str) -> tuple[float, list[str], bool]:
        """→ (score, candidate labels ≤ max_label_num, in_catalog). The
        per-mention reference the oracle composes; ``__call__`` scores a
        whole batch the same way."""
        cands = self.by_surface.get(surface)
        if cands is not None:
            return 1.0, cands[:self.max_label_num], True
        cands = self.by_norm.get(norm_key)
        if cands is not None:
            return 0.9, cands[:self.max_label_num], True
        return 0.0, [label], False

    def __call__(self, batch: pa.Table) -> pa.Table:
        surfaces = batch.column("surfaces").combine_chunks()
        s_hit, s_first, s_cands, s_n = self._lookup(
            self.by_surface, pc.list_flatten(surfaces))
        nk_hit, nk_first, nk_cands, nk_n = self._lookup(
            self.by_norm,
            pc.list_flatten(batch.column("norm_keys").combine_chunks()))
        labels = pc.list_flatten(batch.column("labels").combine_chunks())
        nk_hit &= ~s_hit
        # exact hit → 1.0, else normalized-key hit → 0.9, else NIL with the
        # tagger label as the one candidate
        exact, norm = pa.array(s_hit), pa.array(nk_hit)
        columns = {
            "link_scores": pa.array(np.where(s_hit, 1.0,
                                             np.where(nk_hit, 0.9, 0.0))),
            "linked_labels": pc.if_else(exact, s_first,
                                        pc.if_else(norm, nk_first, labels)),
            "in_catalog": pa.array(s_hit | nk_hit),
            "cand_labels": pc.if_else(exact, s_cands,
                                      pc.if_else(norm, nk_cands, labels)),
            "n_cands": pa.array(np.where(s_hit, s_n, np.where(nk_hit, nk_n, 1)),
                                pa.int32()),
        }
        offsets = pc.subtract(surfaces.offsets, surfaces.offsets[0])
        for name, values in columns.items():
            batch = batch.append_column(
                name, pa.ListArray.from_arrays(offsets, values))
        return batch

    def _lookup(self, table: dict[str, list[str]], keys: pa.Array):
        """Per-mention hit mask, first candidate, pipe-joined candidates
        and candidate count, each looked up once per distinct key."""
        enc = keys.dictionary_encode()
        idx = enc.indices.to_numpy()
        distinct = enc.dictionary.to_pylist()
        cands = [table.get(k, [])[:self.max_label_num] for k in distinct]
        hit = np.array([k in table for k in distinct], dtype=bool)[idx]
        first = pa.array([c[0] if c else None for c in cands], pa.string())
        joined = pa.array(["|".join(c) for c in cands], pa.string())
        n = np.array([len(c) for c in cands], dtype=np.int64)[idx]
        return hit, first.take(enc.indices), joined.take(enc.indices), n


# --------------------------------------------------------------------------
# Distributed catalog linking (VERDICT r4 #1): the catalog as a Dataset
# --------------------------------------------------------------------------

def catalog_dataset(catalog_pairs, parallelism: int = 4):
    """Small-side helper (tests / parity): catalog pairs → a Dataset of
    ``(surface, norm_key, label)`` rows — the shape a production catalog
    parquet carries. A real deployment reads this with
    ``read_parquet(..., columns=["surface", "norm_key", "label"])``."""
    import ray.data

    from ccnerx_ray.functions.tokenize import normalize_surface as norm

    rows = [{"surface": " ".join(s), "norm_key": norm(tuple(s)),
             "label": lab} for s, lab in catalog_pairs]
    return ray.data.from_items(rows, override_num_blocks=parallelism)


def catalog_candidates(catalog_ds, key_col: str, out_col: str,
                       max_label_num: int = 3, num_buckets: int = 256):
    """Distributed candidate-label aggregation: ``(key, label)`` rows →
    one row per key with ``out_col`` = the sorted distinct labels,
    truncated to ``max_label_num``, pipe-joined — EXACTLY the
    :class:`LinkScorer` candidate contract, computed as a coarse groupby
    (both sides stay distributed; per-key label sets are tiny, so the
    aggregated table is ~one row per catalog key)."""
    from ccnerx_ray.functions.grouping import coarse_grouped

    def local(g):
        g = (g[[key_col, "label"]].drop_duplicates()
             .sort_values([key_col, "label"], kind="mergesort"))
        g = g[g.groupby(key_col, sort=False).cumcount() < max_label_num]
        out = (g.groupby(key_col, sort=False)["label"]
                .agg("|".join).reset_index())
        out.columns = [key_col, out_col]
        return out

    return coarse_grouped(catalog_ds.select_columns([key_col, "label"]),
                          [key_col], local, num_buckets=num_buckets,
                          out_dtypes={key_col: "string", out_col: "string"})


def _cogroup_link(mentions, catalog_ds, max_label_num: int,
                  num_buckets: int):
    """One hash-partitioned co-group on ``norm_key`` that appends BOTH
    candidate columns (``_s_cands`` exact-surface, ``_nk_cands``
    normalized-key) to the mention table. Correct because ``norm_key``
    is a pure function of the surface string, so a catalog row with the
    mention's exact surface necessarily shares its ``norm_key`` group.
    Catalog rows are per-batch-deduped to distinct
    ``(norm_key, surface, label)`` triples before the shuffle (a free
    combiner); the probe is shuffled exactly once."""
    import numpy as np
    import pandas as pd

    from ccnerx_ray.functions.grouping import (_ARROW_TYPES,
                                               coarse_grouped)

    sch = mentions.schema()
    names, types = list(sch.names), list(sch.types)
    for required in ("surface", "norm_key", "label"):
        if required not in names:
            raise ValueError(
                f"mention table is missing column {required!r}")
    for added in ("_s_cands", "_nk_cands", "_lu"):
        if added in names:
            raise ValueError(f"probe already has column {added!r}")
    # pin the empty-block schema when every probe type is nameable,
    # same discipline as grouping.lookup_join_on
    rev = {v: k for k, v in _ARROW_TYPES.items()}
    derived = {nm: rev.get(tp) for nm, tp in zip(names, types)}
    out_dtypes = None
    if all(v is not None for v in derived.values()):
        out_dtypes = dict(derived)
        out_dtypes["_s_cands"] = "string"
        out_dtypes["_nk_cands"] = "string"

    def mark(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return (batch
                .append_column("_s_cands", pa.nulls(n, pa.string()))
                .append_column("_nk_cands", pa.nulls(n, pa.string()))
                .append_column("_lu",
                               pa.array(np.zeros(n, dtype=np.int8))))

    def lut_rows(batch: pa.Table) -> pa.Table:
        t = (batch.select(["norm_key", "surface", "label"])
             .group_by(["norm_key", "surface", "label"]).aggregate([]))
        n = t.num_rows
        cols = {}
        for nm, tp in zip(names, types):
            cols[nm] = (t.column(nm).cast(tp)
                        if nm in ("norm_key", "surface", "label")
                        else pa.nulls(n, tp))
        return (pa.table(cols)
                .append_column("_s_cands", pa.nulls(n, pa.string()))
                .append_column("_nk_cands", pa.nulls(n, pa.string()))
                .append_column("_lu",
                               pa.array(np.ones(n, dtype=np.int8))))

    both = mentions.map_batches(mark, batch_format="pyarrow").union(
        catalog_ds.map_batches(lut_rows, batch_format="pyarrow"))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        lut = g[g["_lu"] == 1]
        probe = g[g["_lu"] == 0].drop(columns=["_lu"])
        if len(lut) and len(probe):
            pairs = (lut[["norm_key", "surface", "label"]]
                     .drop_duplicates())
            # exact candidates: sorted distinct labels per SURFACE,
            # truncated to max_label_num — catalog_candidates verbatim
            ex = (pairs[["surface", "label"]].drop_duplicates()
                  .sort_values(["surface", "label"], kind="mergesort"))
            ex = ex[ex.groupby("surface", sort=False)
                    .cumcount() < max_label_num]
            s_map = ex.groupby("surface", sort=False)["label"] \
                .agg("|".join)
            # normalized candidates: same contract per NORM_KEY
            nk = (pairs[["norm_key", "label"]].drop_duplicates()
                  .sort_values(["norm_key", "label"], kind="mergesort"))
            nk = nk[nk.groupby("norm_key", sort=False)
                    .cumcount() < max_label_num]
            nk_map = nk.groupby("norm_key", sort=False)["label"] \
                .agg("|".join)
            probe = probe.assign(
                _s_cands=probe["surface"].map(s_map),
                _nk_cands=probe["norm_key"].map(nk_map))
        return probe

    return coarse_grouped(both, ["norm_key"], local, num_buckets,
                          out_dtypes=out_dtypes)


def link_exploded_mentions(mentions, catalog_ds, *, max_label_num: int = 3,
                           broadcast_bytes: int | None = None,
                           catalog_bytes_hint: int | None = None,
                           probe_bytes_hint: int | None = None,
                           num_buckets: int | None = None):
    """Hash-partitioned entity linking over a FLAT mention table (the
    ``explode_mentions`` shape, each row carrying ``surface`` /
    ``norm_key`` / ``label``) against a catalog *Dataset* of
    ``(surface, norm_key, label)`` rows.

    Scoring is the :class:`LinkScorer` contract verbatim — exact surface
    hit → 1.0, normalized-key hit → 0.9, else NIL 0.0 with the tagger
    label — computed as two candidate columns (``_s_cands`` exact,
    ``_nk_cands`` normalized) plus one vectorized finalize. Strategy
    (the ``adaptive_join`` stats discipline):

    * the aggregated per-key lookups are BROADCAST (``ray.put`` once,
      zero-copy per task, no shuffle) only when ``catalog_bytes_hint``
      — normally the catalog parquet's metadata size, an upper bound
      since aggregation only shrinks — provably fits
      ``broadcast_bytes``, re-checked block-by-block while
      materializing;
    * otherwise (including ``catalog_bytes_hint=None``, the scale-safe
      default, and ``broadcast_bytes=0``, which the parity tests use to
      force it) ONE hash-partitioned co-group on ``norm_key`` resolves
      BOTH passes: ``norm_key`` is a pure function of the surface
      string (:func:`~ccnerx_ray.functions.tokenize.normalize_surface`
      flattens token-internal whitespace, so the key is
      tokenization-invariant), hence every catalog row that can match a
      mention exactly OR by normalized key lives in the mention's
      ``norm_key`` group. Both sides stay distributed, nothing lands on
      the driver, and the probe is shuffled once (not once per pass).

    Appends ``linked_label, link_score, in_catalog, cand_labels,
    n_cands`` — bit-identical to the broadcast scorer on the same
    catalog (test-enforced)."""
    import numpy as np
    import pyarrow.compute as pc

    from ccnerx_ray.functions import grouping
    from ccnerx_ray.ops import join as joinmod
    from ccnerx_ray.state import metrics

    if broadcast_bytes is None:
        broadcast_bytes = joinmod.BROADCAST_BYTES_DEFAULT
    if num_buckets is None:
        # bytes/CPU-derived shuffle width (the repo-wide sizing rule,
        # ops/join.py:derive_hash_partitions): clamp(probe/256 MiB,
        # cpus, 4*cpus). Unknown probe size → one bucket per core —
        # never a fixed fan-out that launches a task per empty
        # partition at small scale or under-partitions a 100-TB probe.
        num_buckets = joinmod.derive_hash_partitions(probe_bytes_hint)

    def broadcast_passes():
        """Both aggregated lookups as driver tables, or None if the
        bound is not provably met (never materializes past it)."""
        if not (broadcast_bytes > 0 and catalog_bytes_hint is not None
                and catalog_bytes_hint <= broadcast_bytes):
            return None
        tbls = []
        for key, out_col in (("surface", "_s_cands"),
                             ("norm_key", "_nk_cands")):
            lut = catalog_candidates(catalog_ds, key, out_col,
                                     max_label_num, num_buckets)
            tbl = joinmod._materialize_build(lut, broadcast_bytes,
                                             catalog_bytes_hint)
            if tbl is None:
                return None
            tbls.append(tbl)
        return tbls

    def make_add(ref, key: str, out_col: str):
        def add(batch: pa.Table) -> pa.Table:
            b, _keys, idx = joinmod._prepared_build(ref, key)
            if idx is None:
                raise ValueError(
                    "catalog candidate table has duplicate keys")
            indexer = idx.get_indexer(batch.column(key).to_pandas())
            matched = indexer >= 0
            picked = b.column(out_col).take(
                pa.array(np.where(matched, indexer, 0), type=pa.int64(),
                         mask=~matched))
            return batch.append_column(out_col, picked)
        return add

    tbls = broadcast_passes()
    if tbls is not None:
        import ray
        m = mentions
        for tbl, (key, out_col) in zip(tbls, (("surface", "_s_cands"),
                                              ("norm_key", "_nk_cands"))):
            m = m.map_batches(make_add(ray.put(tbl), key, out_col),
                              batch_format="pyarrow")
    else:
        metrics.incr("link_catalog_partitioned")
        m = _cogroup_link(mentions, catalog_ds, max_label_num,
                          num_buckets)

    def finalize(batch: pa.Table) -> pa.Table:
        s = batch.column("_s_cands")
        nk = batch.column("_nk_cands")
        s_hit = pc.is_valid(s)
        nk_hit = pc.is_valid(nk)
        score = pc.if_else(s_hit, 1.0, pc.if_else(nk_hit, 0.9, 0.0))
        cands = pc.coalesce(s, nk, batch.column("label"))
        # linked_label = first candidate = text before the first '|'
        first = pc.list_element(pc.split_pattern(cands, "|",
                                                 max_splits=1), 0)
        n_cands = pc.cast(
            pc.add(pc.count_substring(cands, "|"), 1), pa.int32())
        return (batch.drop_columns(["_s_cands", "_nk_cands"])
                .append_column("linked_label", first)
                .append_column("link_score", pc.cast(score, pa.float64()))
                .append_column("in_catalog", pc.or_(s_hit, nk_hit))
                .append_column("cand_labels", cands)
                .append_column("n_cands", n_cands))

    return m.map_batches(finalize, batch_format="pyarrow")
