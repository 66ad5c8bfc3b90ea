"""Stage-level tests: segmenter, tagger actor output shape, link scoring,
triple emission, canonicalization combiner — on hand-built micro-fixtures
(SURVEY.md §5a)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.stages.link import LinkScorer
from ccnerx_ray.stages.segment import SEGMENT_SCHEMA, make_segmenter
from ccnerx_ray.stages.tag import (MentionTagger, SEGMENT_MENTIONS_SCHEMA,
                                   explode_mentions)
from ccnerx_ray.stages.triples import make_triple_emitter, segment_triples

CFG = PipelineConfig()
CATALOG = [(("parse_foo",), "FUNC"), (("Widget",), "CLASS"),
           (("libz", ".", "parse_foo"), "FUNC")]


def corpus_batch() -> pa.Table:
    rows = [
        {"repo": "o/r", "path": "a.py", "commit": "c" * 40, "lang": "python",
         "content": "import parse_foo\nx = Widget ( parse_foo )"},
        {"repo": "o/r2", "path": "b.py", "commit": "d" * 40, "lang": "python",
         "content": "y = 1 + 2"},
        {"repo": None, "path": None, "commit": None, "lang": None,
         "content": None},  # quarantined, not crashed (M12)
    ]
    return pa.Table.from_pylist(rows)


def test_segmenter_schema_and_quarantine():
    seg = make_segmenter(CFG)(corpus_batch())
    assert seg.schema.equals(SEGMENT_SCHEMA)
    assert set(seg.column("repo").to_pylist()) == {"o/r", "o/r2"}
    # content hash is the per-row invariant (reader.py:32-51 analogue)
    assert all(len(h) == 64 for h in seg.column("content_sha256").to_pylist())


def test_segmenter_missing_column_raises():
    with pytest.raises(ValueError):
        make_segmenter(CFG)(pa.table({"repo": ["x"]}))


def tagged_batch() -> pa.Table:
    seg = make_segmenter(CFG)(corpus_batch())
    return MentionTagger(catalog_pairs=CATALOG, cfg=CFG)(seg)


def test_tagger_nested_output():
    out = tagged_batch()
    assert out.schema.equals(SEGMENT_MENTIONS_SCHEMA)
    row = out.to_pylist()[0]
    assert "parse_foo" in row["surfaces"]
    assert "Widget" in row["surfaces"]
    labels = dict(zip(row["surfaces"], row["labels"]))
    assert labels["parse_foo"] == "FUNC"
    assert labels["Widget"] == "CLASS"


def test_link_scorer_nested():
    linked = LinkScorer(catalog_pairs=CATALOG)(tagged_batch())
    row = linked.to_pylist()[0]
    by_surf = dict(zip(row["surfaces"], zip(row["link_scores"], row["linked_labels"])))
    assert by_surf["parse_foo"] == (1.0, "FUNC")
    # unknown surfaces are NIL with tagger label kept
    for s, (score, _) in by_surf.items():
        assert score in (0.0, 0.9, 1.0)


def test_explode_mentions_flat():
    linked = LinkScorer(catalog_pairs=CATALOG)(tagged_batch())
    flat = explode_mentions(linked)
    assert flat.num_rows == sum(len(s) for s in linked.column("surfaces").to_pylist())
    assert "linked_label" in flat.column_names
    assert "norm_key" in flat.column_names


def test_segment_triples_rules():
    seg = {
        "repo": "o/r", "path": "a.py", "commit": "c" * 40, "lang": "python",
        "seg_id": 0, "content_sha256": "s" * 64,
        "starts": [0, 3, 5], "ends": [1, 4, 6],
        "labels": ["FUNC", "CLASS", "FUNC"],
        "surfaces": ["parse_foo", "Widget", "parse_foo"],
        "norm_keys": ["parse foo", "widget", "parse foo"],
        "entity_ids": ["e1", "e2", "e1"],
        "linked_labels": ["FUNC", "CLASS", "FUNC"],
    }
    trips = segment_triples(seg, cooccur_cap=8)
    spo = {(s, p, o) for s, p, o, *_ in trips}
    assert ("e1", "instance_of", "FUNC") in spo
    assert ("e2", "instance_of", "CLASS") in spo
    fref = "o/r:a.py@" + "c" * 12
    assert ("e1", "mentioned_in", fref) in spo
    assert ("e1", "co_occurs_with", "e2") in spo        # a < b ordering
    assert ("e2", "co_occurs_with", "e1") not in spo
    assert (fref, "in_repo", "o/r") in spo              # seg_id == 0 only
    assert (fref, "has_lang", "python") in spo
    # duplicate mention of e1 emits no duplicate triples
    assert len(spo) == len(trips)

    seg2 = dict(seg, seg_id=1)
    spo2 = {(s, p, o) for s, p, o, *_ in segment_triples(seg2, 8)}
    assert not any(p in ("in_repo", "has_lang") for _, p, _o in spo2)


def test_cooccur_cap_deterministic():
    n = 10
    seg = {
        "repo": "o/r", "path": "a.py", "commit": "c" * 40, "lang": "go",
        "seg_id": 1, "content_sha256": "s" * 64,
        "starts": list(range(n)), "ends": [i + 1 for i in range(n)],
        "labels": ["FUNC"] * n,
        "surfaces": [f"s{i}" for i in range(n)],
        "norm_keys": [f"s{i}" for i in range(n)],
        "entity_ids": [f"e{i:02d}" for i in range(n)],
        "linked_labels": ["FUNC"] * n,
    }
    trips = segment_triples(seg, cooccur_cap=5)
    pairs = [(s, o) for s, p, o, *_ in trips if p == "co_occurs_with"]
    assert len(pairs) == 5
    # cap takes the lexicographically first sorted pairs — deterministic
    assert pairs == sorted(pairs)


def test_triple_emitter_batch():
    linked = LinkScorer(catalog_pairs=CATALOG)(tagged_batch())
    trips = make_triple_emitter(CFG)(linked)
    assert trips.num_rows > 0
    preds = set(trips.column("pred").to_pylist())
    assert {"instance_of", "mentioned_in", "in_repo", "has_lang"} <= preds
    # provenance travels on every row
    assert all(len(h) == 64 for h in trips.column("content_sha256").to_pylist())


def test_segmenter_robustness_edge_inputs():
    """CRLF, unicode identifiers, huge single line, empty content."""
    import pyarrow as pa
    rows = [
        {"repo": "o/r", "path": "a", "commit": "c" * 40, "lang": "py",
         "content": "x = 1\r\ny = 2\r\n"},
        {"repo": "o/r", "path": "b", "commit": "c" * 40, "lang": "py",
         "content": "naïve_ß = übung ( λ )"},
        {"repo": "o/r", "path": "c", "commit": "c" * 40, "lang": "py",
         "content": " ".join(f"t{i}" for i in range(5000))},  # 1 huge line
        {"repo": "o/r", "path": "d", "commit": "c" * 40, "lang": "py",
         "content": ""},
    ]
    seg = make_segmenter(CFG)(pa.Table.from_pylist(rows))
    by_path = {}
    for r in seg.to_pylist():
        by_path.setdefault(r["path"], []).append(r)
    assert len(by_path["a"]) == 1 and by_path["a"][0]["tokens"][0] == "x"
    assert "übung" in by_path["b"][0]["tokens"] or "bung" in str(by_path["b"][0]["tokens"])
    # huge line hard-splits into max_tokens windows, nothing dropped
    total = sum(len(r["tokens"]) for r in by_path["c"])
    assert total == 5000
    assert all(len(r["tokens"]) <= CFG.max_seq_length - 2 for r in by_path["c"])
    assert "d" not in by_path  # empty content yields no segments


def test_multilabel_link_scoring():
    """Reference ftloader_v1.py:317-341 semantics: a surface keeps up to
    max_label_num candidate labels; primary is deterministic
    (lexicographic first), ambiguity surfaced as cand_labels/n_cands."""
    amb = CATALOG + [(("parse_foo",), "CLASS")]
    ls = LinkScorer(catalog_pairs=amb)
    score, cands, in_cat = ls.link_one("parse_foo", "parse foo", "FUNC")
    assert (score, cands, in_cat) == (1.0, ["CLASS", "FUNC"], True)

    linked = LinkScorer(catalog_pairs=amb)(tagged_batch())
    flat = explode_mentions(linked).to_pylist()
    pf = [r for r in flat if r["surface"] == "parse_foo"]
    assert pf and all(r["cand_labels"] == "CLASS|FUNC" and r["n_cands"] == 2
                      and r["linked_label"] == "CLASS" for r in pf)
    w = [r for r in flat if r["surface"] == "Widget"]
    assert w and all(r["cand_labels"] == "CLASS" and r["n_cands"] == 1
                     for r in w)

    # the cap is honored
    many = amb + [(("parse_foo",), "LIB"), (("parse_foo",), "CONST")]
    _, capped, _ = LinkScorer(catalog_pairs=many,
                              max_label_num=3).link_one(
        "parse_foo", "parse foo", "FUNC")
    assert capped == ["CLASS", "CONST", "FUNC"]


def test_batch_path_calls_no_per_row_helper(monkeypatch):
    """``extract_mention_rows``, ``get_entities``, ``segment_triples`` and
    ``LinkScorer.link_one`` are the oracle's per-row reference: with each
    one raising, every ``MentionTagger`` emit still runs."""
    import ccnerx_ray.functions.bioes as bioes
    import ccnerx_ray.stages.tag as tag
    import ccnerx_ray.stages.triples as triples
    from ccnerx_ray.corpus import build_catalog, generate_corpus

    def per_row(*args, **kwargs):
        raise AssertionError("per-row reference helper on the batch path")

    for module, name in ((tag, "extract_mention_rows"), (tag, "get_entities"),
                         (bioes, "get_entities"),
                         (triples, "segment_triples"),
                         (LinkScorer, "link_one")):
        monkeypatch.setattr(module, name, per_row)
    cat = sorted(build_catalog(5).surface2label.items())
    seg = make_segmenter(CFG)(generate_corpus(10, seed=5))
    for emit in MentionTagger.EMITS:
        out = MentionTagger(catalog_pairs=cat, cfg=CFG, emit=emit)(seg)
        assert out.num_rows > 0, emit
