"""Featurizer stage (M1-M4) and fused-vs-staged triple path equality."""

from __future__ import annotations

import pyarrow as pa

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.stages.featurize import Featurizer, feature_schema
from ccnerx_ray.stages.segment import make_segmenter

CFG = PipelineConfig(max_seq_length=16, max_word_num=3)
LEX = [("parse_foo",), ("Widget",), ("libz", ".", "parse_foo")]


def seg_batch():
    rows = [{"repo": "o/r", "path": "a.py", "commit": "c" * 40,
             "lang": "python",
             "content": "x = Widget ( parse_foo )\nlibz . parse_foo ( x )"}]
    return make_segmenter(CFG)(pa.Table.from_pylist(rows))


def test_featurizer_shapes_and_padding():
    f = Featurizer(lexicon_words=LEX, cfg=CFG)
    out = f(seg_batch())
    assert out.schema.equals(feature_schema())
    row = out.to_pylist()[0]
    L, W = CFG.max_seq_length, CFG.max_word_num
    assert len(row["input_ids"]) == L
    assert len(row["matched_word_ids"]) == L * W
    # [CLS] first, [SEP] closes, zero padding after (le_loader.py:154-173)
    n = sum(row["attention_mask"])
    assert row["input_ids"][0] == f.token_vocab.token2id("[CLS]")
    assert row["input_ids"][n - 1] == f.token_vocab.token2id("[SEP]")
    assert all(x == 0 for x in row["input_ids"][n:])


def test_featurizer_matched_words_positions():
    f = Featurizer(lexicon_words=LEX, cfg=CFG)
    out = f(seg_batch()).to_pylist()[0]
    W = CFG.max_word_num
    wid = f.word_vocab.token2id(("Widget",))
    toks = seg_batch().column("tokens").to_pylist()[0]
    pos = toks.index("Widget") + 1          # +1 for [CLS]
    assert wid in out["matched_word_ids"][pos * W:(pos + 1) * W]
    assert out["matched_word_mask"][pos * W] == 1


def test_featurizer_predict_mode_default_O():
    f = Featurizer(lexicon_words=LEX, cfg=CFG)
    row = f(seg_batch()).to_pylist()[0]
    o_id = f.tag_vocab.token2id("O")
    n = sum(row["attention_mask"])
    assert all(x == o_id for x in row["labels"][:n])  # M11


def test_featurizer_truncation():
    f = Featurizer(lexicon_words=LEX, cfg=CFG)
    long = {"content_sha256": "s" * 64, "seg_id": 0,
            "tokens": [f"t{i}" for i in range(100)]}
    out = f(pa.Table.from_pylist([long])).to_pylist()[0]
    assert sum(out["attention_mask"]) == CFG.max_seq_length  # truncated + CLS/SEP


def _staged(corpus: pa.Table, cat, cfg, last) -> pa.Table:
    """The three stages composed in-process, one after another: segment →
    tag → link, then ``last`` (triple emitter or mention flattener)."""
    from ccnerx_ray.stages.link import LinkScorer
    from ccnerx_ray.stages.tag import MentionTagger

    nested = MentionTagger(catalog_pairs=cat, cfg=cfg)(
        make_segmenter(cfg)(corpus))
    return last(LinkScorer(catalog_pairs=cat)(nested))


def _per_row_segments(segments: pa.Table, model, linker) -> list[dict]:
    """Segment rows with their mentions from the per-row reference, one
    segment at a time: ``extract_mention_rows`` → ``link_one``."""
    from ccnerx_ray.stages.tag import extract_mention_rows

    rows = segments.to_pylist()
    for seg in rows:
        mrows = extract_mention_rows(
            seg["tokens"], model.tag_segments([seg["tokens"]])[0])
        seg.update({k: [m[i] for m in mrows] for i, k in enumerate(
            ("starts", "ends", "labels", "surfaces", "norm_keys",
             "entity_ids"))})
        seg["linked_labels"] = [linker.link_one(m[3], m[4], m[2])[1][0]
                                for m in mrows]
    return rows


def _per_row_triples(rows: list[dict], cap: int) -> pa.Table:
    """``segment_triples`` of each reference segment row, in order."""
    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA, segment_triples

    out = {name: [] for name in TRIPLE_SCHEMA.names}
    for seg in rows:
        for row in segment_triples(seg, cap):
            for name, v in zip(("subj", "pred", "obj", "surface",
                                "norm_key", "label"), row):
                out[name].append(v)
            for name in ("repo", "path", "commit", "content_sha256"):
                out[name].append(seg[name])
    return pa.Table.from_pydict(out, schema=TRIPLE_SCHEMA)


def test_fused_equals_staged():
    """The fused columnar ``emit="triples"`` call returns exactly the
    per-row reference composition — same rows, same order — in every
    backbone × fusion config and co-occurrence cap; an empty and an all-O
    batch give typed empty tables."""
    from ccnerx_ray.corpus import build_catalog, generate_corpus
    from ccnerx_ray.model.tagger import TaggerModel
    from ccnerx_ray.stages.link import LinkScorer
    from ccnerx_ray.stages.tag import MentionTagger
    from ccnerx_ray.stages.triples import TRIPLE_SCHEMA
    from ccnerx_ray.state.catalog import EntityCatalog

    for seed in (1, 2, 3):
        cat = sorted(build_catalog(seed).surface2label.items())
        linker = LinkScorer(catalog_pairs=cat)
        for backbone in ("mlp", "attn"):
            for fusion in ("boost", "lebert"):
                cfg = PipelineConfig(backbone=backbone, fusion=fusion)
                segs = make_segmenter(cfg)(generate_corpus(80, seed=seed))
                rows = _per_row_segments(
                    segs, TaggerModel(EntityCatalog.from_pairs(cat), cfg),
                    linker)
                for cap in (2, 8):
                    fused = MentionTagger(
                        catalog_pairs=cat, emit="triples",
                        cfg=PipelineConfig(backbone=backbone, fusion=fusion,
                                           cooccur_cap=cap))(segs)
                    want = _per_row_triples(rows, cap)
                    assert want.num_rows > 0
                    assert fused.equals(want), (seed, backbone, fusion, cap)

    # no catalog: nothing is boosted and every tag is O
    tagger = MentionTagger(catalog_pairs=[], emit="triples")
    segs = make_segmenter(CFG)(generate_corpus(4, seed=1))
    later = segs.filter(pa.compute.greater(segs.column("seg_id"), 0))
    assert later.num_rows and all(
        t == "O" for toks in later.column("tokens").to_pylist()
        for t in tagger.model.tag_segments([toks])[0])
    for batch in (segs.slice(0, 0), later):
        out = tagger(batch)
        assert out.num_rows == 0 and out.schema.equals(TRIPLE_SCHEMA)


def test_fused_mentions_equals_staged(ray_session, tmp_path):
    from ccnerx_ray.corpus import build_catalog, generate_corpus, write_corpus
    from ccnerx_ray.pipelines.kg import mentions_dataset, read_corpus
    from ccnerx_ray.stages.tag import explode_mentions

    cfg = PipelineConfig()
    d = write_corpus(str(tmp_path / "c"), 20, seed=12, num_files=2)
    cat = sorted(build_catalog(12).surface2label.items())
    key = lambda r: (r["content_sha256"], r["seg_id"], r["start"], r["end"],
                     r["surface"], r["linked_label"])
    fused = sorted(key(r) for r in mentions_dataset(
        read_corpus(d, cfg), cat, cfg).take_all())
    staged = sorted(key(r) for r in _staged(
        generate_corpus(20, seed=12), cat, cfg, explode_mentions).to_pylist())
    assert fused == staged and len(fused) > 0
