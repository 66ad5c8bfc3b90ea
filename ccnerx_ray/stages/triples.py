"""Triple materialization: linked segment-mention rows → (subj, pred, obj).

The north rule's final stage: deterministic (subj, pred, obj) emission with
full provenance ``(repo, path, commit, content_sha256)``. The reference stops
at tagged JSONL (``weibo.py:57-64``) and grouped surface collections
(``label_collections.py:63-95``); triple materialization is the KG extension
mandated by BASELINE.json ``north_rule``.

Emission rules per segment (all deterministic). :func:`segment_triples`
states them one segment at a time and is the per-row reference the
single-process conformance oracle composes; :func:`make_triple_emitter`
applies them to a whole batch with numpy sorts over dictionary ranks and
Arrow ``take``s, in the same row order (test-enforced), so
pipeline-vs-oracle P/R compares two independent implementations:

* ``(entity_id, "instance_of", linked_label)`` — once per distinct
  (entity, label) in the segment;
* ``(entity_id, "mentioned_in", file_ref)`` — once per distinct entity in
  the segment; ``file_ref = repo:path@commit[:12]``; carries ``surface`` /
  ``norm_key`` / ``label`` provenance (first occurrence in the segment) so
  the canonical-entity table can be built from the triple store alone (no
  second pass over the corpus);
* ``(entity_a, "co_occurs_with", entity_b)`` — distinct pairs ``a < b``
  within the segment, sorted, capped at ``cfg.cooccur_cap`` per segment
  (cap is part of the semantics: a pathological segment with hundreds of
  mentions must not emit O(n²) pairs at 10^12-file scale);
* ``(file_ref, "in_repo", repo)`` and ``(file_ref, "has_lang", lang)`` —
  only from ``seg_id == 0`` so each file emits them exactly once. The
  ``in_repo`` rows are therefore the store's document manifest: exactly
  one per document with a non-null key that has any triple, each carrying
  the full doc key ``(repo, path, commit, content_sha256)``
  (``pipelines/kg.py:update_kg`` reads the old store's keys from them).

Rows come out per segment in rule order (``instance_of``,
``mentioned_in``, ``co_occurs_with``, ``in_repo``, ``has_lang``), each rule's
rows sorted as above. Stateless ``map_batches`` stage — each nested segment
row carries everything needed, so triple emission never shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.config import PipelineConfig

TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
    ("surface", pa.string()),
    ("norm_key", pa.string()),
    ("label", pa.string()),
])


def file_ref(repo: str, path: str, commit: str) -> str:
    return f"{repo}:{path}@{commit[:12]}"


def segment_triples(seg: dict, cooccur_cap: int) -> list[tuple[str, str, str, str, str, str]]:
    """One nested segment row → [(subj, pred, obj, surface, norm_key, label)].

    Pure function; the per-row reference the conformance oracle composes
    (SURVEY.md §5: golden-equivalence between independent compositions of
    the same rules).
    """
    fref = file_ref(seg["repo"], seg["path"], seg["commit"])
    out: list[tuple[str, str, str, str, str, str]] = []

    # distinct (entity, label) / (entity, surface) within the segment, in
    # first-occurrence order made deterministic by sorting at the end
    inst: dict[tuple[str, str], None] = {}
    ment: dict[str, tuple[str, str, str]] = {}
    eids = seg["entity_ids"]
    labels = seg.get("linked_labels") or seg["labels"]
    for j, eid in enumerate(eids):
        inst.setdefault((eid, labels[j]), None)
        ment.setdefault(eid, (seg["surfaces"][j], seg["norm_keys"][j], labels[j]))
    for (eid, lab) in sorted(inst):
        out.append((eid, "instance_of", lab, "", "", ""))
    for eid in sorted(ment):
        surf, nk, lab = ment[eid]
        out.append((eid, "mentioned_in", fref, surf, nk, lab))

    uniq = sorted(ment)
    pairs = [(a, b) for i, a in enumerate(uniq) for b in uniq[i + 1:]]
    for a, b in pairs[:cooccur_cap]:
        out.append((a, "co_occurs_with", b, "", "", ""))

    if seg["seg_id"] == 0:
        out.append((fref, "in_repo", seg["repo"], "", "", ""))
        out.append((fref, "has_lang", seg["lang"], "", "", ""))
    return out


PREDICATES = ("instance_of", "mentioned_in", "co_occurs_with", "in_repo",
              "has_lang")


def make_triple_emitter(cfg: PipelineConfig):
    """Returns the stateless map_batches function (closure over config):
    :func:`segment_triples`' rules over a whole batch, in the same row
    order, computed with numpy sorts over the mentions' dictionary ranks
    and one Arrow ``take`` per output column."""
    cap = cfg.cooccur_cap

    def emit(batch: pa.Table) -> pa.Table:
        S = batch.num_rows
        eids = batch.column("entity_ids").combine_chunks()
        label_col = ("linked_labels" if "linked_labels" in batch.column_names
                     else "labels")
        ent = pc.list_flatten(eids)
        lab = pc.list_flatten(batch.column(label_col).combine_chunks())
        seg = pc.list_parent_indices(eids).to_numpy().astype(np.intp)
        M = len(seg)
        e_rank, l_rank = _ranks(ent), _ranks(lab)
        pos = np.arange(M)

        # instance_of: distinct (entity, label) per segment, sorted
        o = np.lexsort((l_rank, e_rank, seg))
        inst = o[_group_starts(seg[o], e_rank[o], l_rank[o])]
        # mentioned_in: distinct entities per segment, sorted, each with its
        # first mention's surface / norm key / label
        o = np.lexsort((pos, e_rank, seg))
        ment = o[_group_starts(seg[o], e_rank[o])]
        # co_occurs_with: the first `cap` pairs (i < j) of the sorted
        # distinct entities u_0 < u_1 < ..., in (i, j) order
        m = np.bincount(seg[ment], minlength=S)
        n_pairs = np.clip(np.minimum(m * (m - 1) // 2, cap), 0, None)
        pair_seg = np.repeat(np.arange(S), n_pairs)
        i, j = _pair_indices(np.arange(len(pair_seg))
                             - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs),
                             m[pair_seg])
        group0 = (np.cumsum(m) - m)[pair_seg]
        # in_repo / has_lang: once per file, from its first segment
        meta = np.flatnonzero(pc.equal(batch.column("seg_id"), 0)
                              .to_numpy(zero_copy_only=False))

        fref = pc.binary_join_element_wise(
            pc.binary_join_element_wise(batch.column("repo"),
                                        batch.column("path"), ":"),
            pc.utf8_slice_codeunits(batch.column("commit"), 0, 12), "@")
        # (segment, block, subj, obj, provenance mention) per row; subj /
        # obj index the concatenations below, provenance -1 means ""
        blocks = [
            (seg[inst], 0, inst, inst + M, -1),
            (seg[ment], 1, ment, 2 * M + seg[ment], ment),
            (pair_seg, 2, ment[group0 + i], ment[group0 + j], -1),
            (meta, 3, M + meta, 2 * M + S + meta, -1),
            (meta, 4, M + meta, 2 * M + 2 * S + meta, -1),
        ]
        cols = [np.concatenate([np.broadcast_to(np.asarray(b[k]), b[0].shape)
                                for b in blocks]).astype(np.int64)
                for k in range(5)]
        order = np.lexsort((cols[1], cols[0]))  # stable: block order kept
        row_seg, pred, subj, obj, prov = (c[order] for c in cols)
        prov = np.where(prov < 0, M, prov)

        def take(values: list, idx: np.ndarray) -> pa.Array:
            return pa.concat_arrays(
                [_string(v) for v in values]).take(pa.array(idx))

        empty = pa.array([""], pa.string())
        out = {
            "subj": take([ent, fref], subj),
            "pred": take([pa.array(PREDICATES)], pred),
            "obj": take([ent, lab, fref, batch.column("repo"),
                         batch.column("lang")], obj),
        }
        for c in ("repo", "path", "commit", "content_sha256"):
            out[c] = take([batch.column(c)], row_seg)
        for c, src in (("surface", "surfaces"), ("norm_key", "norm_keys"),
                       ("label", label_col)):
            flat = pc.list_flatten(batch.column(src).combine_chunks())
            out[c] = take([flat, empty], prov)
        return pa.Table.from_arrays([out[n] for n in TRIPLE_SCHEMA.names],
                                    schema=TRIPLE_SCHEMA)

    return emit


def _string(values) -> pa.Array:
    """One string array from an Array or ChunkedArray."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    return values.cast(pa.string())


def _ranks(values: pa.Array) -> np.ndarray:
    """Each value's rank among the distinct values in code-point order
    (Python's ``str`` order), via the batch's dictionary."""
    enc = values.dictionary_encode()
    rank = pc.rank(enc.dictionary, sort_keys="ascending").to_numpy()
    return rank[enc.indices.to_numpy()].astype(np.intp)


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal sorted keys."""
    n = len(keys[0])
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for k in keys:
        first[1:] |= k[1:] != k[:-1]
    return first


def _pair_indices(k: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``k``-th pair ``(i, j)``, ``i < j < m``, in (i, j) order: row
    ``i`` holds the ``m - 1 - i`` pairs after ``c(i) = i (2m - i - 1) / 2``.
    ``i`` is the float root of ``c(i) = k``, corrected by one step either
    way, so it is exact in integers."""
    def c(i):
        return i * (2 * m - i - 1) // 2
    b = 2 * m - 1
    i = ((b - np.sqrt(np.maximum(b * b - 8 * k, 0))) // 2).astype(np.int64)
    i = np.where(c(i + 1) <= k, i + 1, i)
    i = np.where(c(i) > k, i - 1, i)
    return i, i + 1 + k - c(i)
