"""Mention-tagging stage: segments → per-segment nested mention rows.

The hot stateful stage of the KG pipeline. One ``MentionTagger`` holds the
trie, the entity catalog and the tagger weights (built once per worker
process by ``make_fused_tagger_fn`` — the analogue of the reference
predictor object, ``predicter.py:17-83``); ``__call__`` runs per Arrow
batch: emissions + viterbi decode (``crf.py:89-134`` semantics) + BIOES
span extraction (``label.py:11-44``).

Design note (deviation from a literal stage-per-step translation):
featurize → tag → span-extract are fused into one call so the wide
``matched_word_ids[L, W]`` intermediate never crosses the object store
(SURVEY.md §7 "wide featurized rows ... project aggressively").

The call is columnar from decode to output: the batch's tokens are
dictionary-encoded, the model decodes them to a flat array of tag ids,
``functions/bioes.py:entity_spans`` finds the BIOES spans over the ids
with numpy (every ``get_entities`` quirk kept), surfaces are joined with
Arrow kernels, and ``normalize_surface`` / ``entity_id`` run once per
distinct surface of the batch. With ``emit="triples"`` / ``"mentions"``
link scoring and triple emission follow in the same call, equally
columnar; no Python loop runs per mention or triple (the per-token
Python left is the trie's scan for candidate spans).
``extract_mention_rows`` is the per-row reference the single-process
oracle composes (``pipelines/oracle.py``), so oracle parity compares two
independent implementations.

Output is NESTED: one row per segment with ``list<...>`` mention columns
(starts/ends/labels/surfaces/norm_keys/entity_ids). Keeping a segment's
mentions inside one row makes every downstream per-segment computation
(entity linking, co-occurrence triple emission) an exact stateless
``map_batches`` — no groupby shuffle, and no correctness dependence on how
Ray re-blocks rows between stages. ``explode_mentions`` flattens to the
classic mention table when needed.

Mentions carry ``entity_id = sha256(norm_key)[:16]`` — computable per row
without any shuffle; the canonicalization groupby only builds the entity
TABLE, it is not needed to link mentions (this is what keeps the pipeline
one-shuffle at 10^12-file scale).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.functions.bioes import (entity_spans, get_entities,
                                        normalize_tags, tag_label)
from ccnerx_ray.functions.hashing import entity_id
from ccnerx_ray.functions.tokenize import normalize_surface
from ccnerx_ray.model.tagger import TaggerModel
from ccnerx_ray.state.catalog import EntityCatalog

PASS_THROUGH = ("content_sha256", "repo", "path", "commit", "lang", "seg_id")

SEGMENT_MENTIONS_SCHEMA = pa.schema([
    ("content_sha256", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("lang", pa.string()),
    ("seg_id", pa.int32()),
    ("n_tokens", pa.int32()),
    ("starts", pa.list_(pa.int32())),
    ("ends", pa.list_(pa.int32())),
    ("labels", pa.list_(pa.string())),
    ("surfaces", pa.list_(pa.string())),
    ("norm_keys", pa.list_(pa.string())),
    ("entity_ids", pa.list_(pa.string())),
])

MENTION_SCHEMA = pa.schema([
    ("content_sha256", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("lang", pa.string()),
    ("seg_id", pa.int32()),
    ("start", pa.int32()),
    ("end", pa.int32()),
    ("label", pa.string()),
    ("surface", pa.string()),
    ("norm_key", pa.string()),
    ("entity_id", pa.string()),
])


def extract_mention_rows(tokens: list[str], tags: list[str]) -> list[tuple]:
    """BIOES decode of one segment → [(start, end, label, surface, norm_key,
    entity_id)] with the reference's M-→I- normalization applied first
    (trainer.py:211-214). The per-row reference the oracle composes;
    :class:`MentionTagger` computes the same columns over whole batches."""
    out = []
    for start, end, label, word in get_entities(normalize_tags(tags), tokens):
        surface = " ".join(word)
        nk = normalize_surface(word)
        out.append((start, end, label, surface, nk, entity_id(nk)))
    return out


class MentionTagger:
    """Batch callable: Arrow segment batch → nested mention batch.

    ``emit="segments"`` (default) returns the nested mention rows;
    ``emit="triples"`` / ``"mentions"`` FUSE link scoring and triple
    emission / mention flattening into the same call (no nested
    intermediates in the object store; equality with the three stages
    composed one after another is test-enforced); ``"mentions_raw"``
    flattens the unlinked mentions."""

    EMITS = ("segments", "triples", "mentions", "mentions_raw")

    def __init__(self, catalog_pairs: list[tuple[tuple[str, ...], str]] | None = None,
                 cfg: PipelineConfig | None = None, catalog_ref=None,
                 emit: str = "segments", checkpoint_path: str | None = None,
                 extra_lexicon_ref=None):
        """``catalog_pairs`` inline for tests; ``catalog_ref`` a ``ray.put``
        handle for production (broadcast once, read per instance).
        ``emit`` must be one of :attr:`EMITS` (``ValueError`` otherwise).
        ``checkpoint_path`` loads on-disk weights ONCE per actor (the
        reference's predictor regime, ``predicter.py:52-83`` — every
        actor of the pool reads the artifact in ``__init__``, never per
        batch); ``None`` uses the config-seeded weights.
        ``extra_lexicon_ref``: ``ray.put`` handle of additional trie
        words (token tuples) beyond the catalog — the reference's
        1-1.5M-entry ``max_scan_num`` lexicon regime (``Readme.md:59``,
        ``le_loader.py:25``); broadcast once, trie built per actor."""
        if emit not in self.EMITS:
            # a typo ('Triples') silently returning nested segment rows
            # would be invisible downstream — fail loudly instead
            raise ValueError(f"unknown emit {emit!r}; expected one of "
                             f"{self.EMITS}")
        self.cfg = cfg or PipelineConfig()
        if catalog_ref is not None:
            import ray
            catalog_pairs = ray.get(catalog_ref)
        catalog = EntityCatalog.from_pairs(catalog_pairs or [])
        weights = None
        if checkpoint_path is not None:
            from ccnerx_ray.model.tagger import load_checkpoint
            weights = load_checkpoint(checkpoint_path)
        extra_lexicon = None
        if extra_lexicon_ref is not None:
            import ray
            extra_lexicon = ray.get(extra_lexicon_ref)
        self.model = TaggerModel(catalog, self.cfg, weights=weights,
                                 extra_lexicon=extra_lexicon)
        # entity label of each tag id, as get_entities reads it
        self._labels = pa.array([tag_label(t)
                                 for t in normalize_tags(self.model.tags)],
                                pa.string())
        self.emit = emit
        if emit in ("triples", "mentions"):
            from ccnerx_ray.stages.link import LinkScorer
            from ccnerx_ray.stages.triples import make_triple_emitter
            self._linker = LinkScorer(catalog_pairs=catalog_pairs)
            self._emitter = make_triple_emitter(self.cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        nested = self._tag_batch(batch)
        if self.emit == "triples":
            return self._emitter(self._linker(nested))
        if self.emit == "mentions":
            return explode_mentions(self._linker(nested))
        if self.emit == "mentions_raw":
            # flat UNLINKED mentions — the probe side of the
            # hash-partitioned catalog join (stages/link.py:
            # link_exploded_mentions); linking happens downstream
            return explode_mentions(nested)
        return nested

    def _tag_batch(self, batch: pa.Table) -> pa.Table:
        """Decode the batch's dictionary-encoded tokens to tag ids, find
        the BIOES spans over the ids and build the surfaces with Arrow
        kernels; normalization and hashing run once per distinct
        surface."""
        tokens = batch.column("tokens").combine_chunks()
        flat = pc.list_flatten(tokens)
        lengths = pc.list_value_length(tokens).fill_null(0).to_numpy()
        enc = flat.dictionary_encode()
        ids = self.model.tag_ids(enc.indices.to_numpy(), lengths,
                                 enc.dictionary.to_pylist())
        seg, start, end, tag, first = entity_spans(ids, lengths,
                                                   self.model.tags)
        # surface tokens of mention k: flat[offset + first_k : offset + end_k]
        size = end - first
        lo = (np.cumsum(lengths) - lengths)[seg] + first
        take = np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size),
                                                 size)
        surfaces = pc.binary_join(pa.ListArray.from_arrays(
            _offsets(size), flat.take(pa.array(take, pa.int64()))), " ")
        # tokens hold no whitespace, so a surface splits back into them
        distinct = surfaces.dictionary_encode()
        norm = [normalize_surface(s.split(" "))
                for s in distinct.dictionary.to_pylist()]
        norm_keys = pa.array(norm, pa.string()).take(distinct.indices)
        entity_ids = pa.array([entity_id(k) for k in norm],
                              pa.string()).take(distinct.indices)

        seg_offsets = _offsets(np.bincount(seg, minlength=batch.num_rows))
        lists = {
            "starts": pa.array(start, pa.int32()),
            "ends": pa.array(end, pa.int32()),
            "labels": self._labels.take(pa.array(tag, pa.int64())),
            "surfaces": surfaces,
            "norm_keys": norm_keys,
            "entity_ids": entity_ids,
        }
        cols = [batch.column(c).cast(SEGMENT_MENTIONS_SCHEMA.field(c).type)
                for c in PASS_THROUGH]
        cols.append(pa.array(lengths, pa.int32()))
        cols.extend(pa.ListArray.from_arrays(seg_offsets, v)
                    for v in lists.values())
        return pa.Table.from_arrays(cols, schema=SEGMENT_MENTIONS_SCHEMA)


def _offsets(sizes: np.ndarray) -> pa.Array:
    """List offsets for consecutive runs of ``sizes`` values."""
    return pa.array(np.concatenate([[0], np.cumsum(sizes)]), pa.int32())


_PROCESS_MODELS: dict = {}


def make_fused_tagger_fn(catalog_ref, cfg: PipelineConfig, emit: str = "triples"):
    """Task-based fused tagger: a plain ``map_batches`` function holding the
    model as a per-worker-process singleton (built on first batch, reused
    for every later task on that worker).

    Why tasks, not actors, for the CPU tagger: the model is cheap to build
    (seeded numpy + a small trie — no GPU weights), and task scheduling
    uses every CPU in the cluster immediately, where a fixed actor pool
    pays spin-up and pins parallelism to the pool size (measured: 2.2×
    faster end-to-end at 32 CPUs on the scaling corpus)."""
    key = (catalog_ref.hex() if hasattr(catalog_ref, "hex") else id(catalog_ref),
           cfg, emit)

    def tag_fused(batch: pa.Table) -> pa.Table:
        m = _PROCESS_MODELS.get(key)
        if m is None:
            if len(_PROCESS_MODELS) > 4:
                _PROCESS_MODELS.clear()
            m = MentionTagger(catalog_ref=catalog_ref, cfg=cfg, emit=emit)
            _PROCESS_MODELS[key] = m
        return m(batch)

    return tag_fused


def explode_mentions(batch: pa.Table) -> pa.Table:
    """Stateless flattener: nested segment-mention rows → one row per
    mention (the classic mentions table, M5 in SURVEY.md §2.3). Uses the
    linked label when the link stage has run. The list columns are
    flattened and the segment columns taken by each mention's parent
    row."""
    flat = {"starts": "start", "ends": "end", "labels": "label",
            "surfaces": "surface", "norm_keys": "norm_key",
            "entity_ids": "entity_id"}
    schema = MENTION_SCHEMA
    if "linked_labels" in batch.column_names:
        flat.update(linked_labels="linked_label", link_scores="link_score",
                    in_catalog="in_catalog")
        schema = schema.append(pa.field("linked_label", pa.string())) \
                       .append(pa.field("link_score", pa.float64())) \
                       .append(pa.field("in_catalog", pa.bool_()))
    if "cand_labels" in batch.column_names:
        flat.update(cand_labels="cand_labels", n_cands="n_cands")
        schema = schema.append(pa.field("cand_labels", pa.string())) \
                       .append(pa.field("n_cands", pa.int32()))
    parent = pc.list_parent_indices(batch.column("starts"))
    cols = {c: batch.column(c).take(parent) for c in PASS_THROUGH}
    cols.update({out: pc.list_flatten(batch.column(c))
                 for c, out in flat.items()})
    return pa.Table.from_arrays([cols[f.name].cast(f.type) for f in schema],
                                schema=schema)
