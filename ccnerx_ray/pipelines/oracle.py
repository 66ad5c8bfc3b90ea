"""Single-process conformance oracle (SURVEY.md §5b).

An independent, driver-style composition of the same core semantics — the
reference's correctness model is exactly this kind of golden-equivalence
harness between two implementations (``t2.py:80-111`` compares old vs new
loader row-by-row). The oracle:

* processes one document at a time, one segment per decode call (batch of
  1) — so agreement with the Ray pipeline also proves decode is independent
  of batch composition (SURVEY.md §7 M3);
* uses plain Python loops and dicts — no Ray, no Arrow;
* shares only the tokenizer, the surface normalizer and the tagger model
  with the pipeline. Span extraction (``get_entities`` through
  ``extract_mention_rows``), linking (``LinkScorer.link_one``) and triple
  emission (``segment_triples``) are per-row reference implementations
  that only the oracle calls; the pipeline's columnar twins are separate
  code, so parity compares two implementations of each rule.

``prf`` computes set precision/recall/F1 over distinct (subj, pred, obj) —
the BASELINE.json metric (target ≥ 0.95; we hold it at 1.0).
"""

from __future__ import annotations

import pyarrow as pa

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.functions.hashing import sha256_hex
from ccnerx_ray.functions.tokenize import segment_tokens
from ccnerx_ray.model.tagger import TaggerModel
from ccnerx_ray.stages.link import LinkScorer
from ccnerx_ray.stages.tag import extract_mention_rows
from ccnerx_ray.stages.triples import segment_triples
from ccnerx_ray.state.catalog import EntityCatalog


def oracle_triples(corpus: pa.Table, catalog_pairs,
                   cfg: PipelineConfig = PipelineConfig()) -> set[tuple[str, str, str]]:
    """Reference-style sequential run → distinct (subj, pred, obj) set."""
    model = TaggerModel(EntityCatalog.from_pairs(catalog_pairs), cfg)
    linker = LinkScorer(catalog_pairs=catalog_pairs)
    max_tokens = cfg.max_seq_length - 2
    out: set[tuple[str, str, str]] = set()
    rows = corpus.to_pylist()
    for row in rows:
        if any(row.get(c) is None for c in ("repo", "path", "commit", "content")):
            continue
        sha = sha256_hex(row["content"])
        for seg_id, toks in enumerate(segment_tokens(row["content"], max_tokens)):
            tags = model.tag_segments([toks])[0]   # batch of exactly one
            mrows = extract_mention_rows(toks, tags)
            linked = [linker.link_one(m[3], m[4], m[2]) for m in mrows]
            seg = {
                "repo": row["repo"], "path": row["path"], "commit": row["commit"],
                "lang": row["lang"], "seg_id": seg_id, "content_sha256": sha,
                "starts": [m[0] for m in mrows], "ends": [m[1] for m in mrows],
                "labels": [m[2] for m in mrows], "surfaces": [m[3] for m in mrows],
                "norm_keys": [m[4] for m in mrows], "entity_ids": [m[5] for m in mrows],
                "linked_labels": [l[1][0] for l in linked],  # primary label
            }
            for s, p, o, _surf, _nk, _lab in segment_triples(seg, cfg.cooccur_cap):
                out.add((s, p, o))
    return out


def prf(pred: set, gold: set) -> tuple[float, float, float]:
    """Set precision / recall / F1 (entity-level metric family of
    ``trainer.py:222-246``, applied to triples)."""
    if not pred and not gold:
        return 1.0, 1.0, 1.0
    tp = len(pred & gold)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    f = 2 * p * r / (p + r) if (p + r) else 0.0
    return p, r, f
