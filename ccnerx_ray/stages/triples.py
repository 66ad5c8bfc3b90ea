"""Triple materialization: linked segment-mention rows → (subj, pred, obj).

The north rule's final stage: deterministic (subj, pred, obj) emission with
full provenance ``(repo, path, commit, content_sha256)``. The reference stops
at tagged JSONL (``weibo.py:57-64``) and grouped surface collections
(``label_collections.py:63-95``); triple materialization is the KG extension
mandated by BASELINE.json ``north_rule``.

Emission rules per segment (all deterministic; shared verbatim with the
single-process conformance oracle, so pipeline-vs-oracle P/R is exact):

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
  ``in_repo`` rows are therefore the store's document manifest (see
  :func:`filter_in_repo`).

Stateless ``map_batches`` stage — each nested segment row carries everything
needed, so triple emission never shuffles.
"""

from __future__ import annotations

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

    Pure function; the conformance oracle calls this too (SURVEY.md §5:
    golden-equivalence between independent compositions of the same core).
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


def make_triple_emitter(cfg: PipelineConfig):
    """Returns the stateless map_batches function (closure over config)."""
    cap = cfg.cooccur_cap

    def emit(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c).to_pylist() for c in batch.column_names}
        out = {name: [] for name in TRIPLE_SCHEMA.names}
        for i in range(batch.num_rows):
            seg = {c: cols[c][i] for c in cols}
            for subj, pred, obj, surf, nk, lab in segment_triples(seg, cap):
                out["subj"].append(subj)
                out["pred"].append(pred)
                out["obj"].append(obj)
                out["repo"].append(seg["repo"])
                out["path"].append(seg["path"])
                out["commit"].append(seg["commit"])
                out["content_sha256"].append(seg["content_sha256"])
                out["surface"].append(surf)
                out["norm_key"].append(nk)
                out["label"].append(lab)
        return pa.Table.from_pydict(out, schema=TRIPLE_SCHEMA)

    return emit


def filter_in_repo(batch: pa.Table) -> pa.Table:
    """Keep the ``in_repo`` rows: exactly one per document with a
    non-null key that has any triple (the ``seg_id == 0`` rule above),
    each carrying the full doc key ``(repo, path, commit,
    content_sha256)`` — a store's document manifest, read without a
    distinct over its triples."""
    return batch.filter(pc.equal(batch.column("pred"), "in_repo"))
