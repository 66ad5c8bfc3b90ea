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


def test_fused_equals_staged(ray_session, tmp_path):
    """The fused task path and the three stages composed in-process emit
    identical triple sets."""
    from ccnerx_ray.corpus import build_catalog, generate_corpus, write_corpus
    from ccnerx_ray.pipelines.kg import read_corpus, triples_dataset
    from ccnerx_ray.stages.triples import make_triple_emitter

    cfg = PipelineConfig()
    d = write_corpus(str(tmp_path / "c"), 20, seed=11, num_files=2)
    cat = sorted(build_catalog(11).surface2label.items())
    fused = {(r["subj"], r["pred"], r["obj"])
             for r in triples_dataset(read_corpus(d, cfg), cat, cfg).take_all()}
    staged = {(r["subj"], r["pred"], r["obj"])
              for r in _staged(generate_corpus(20, seed=11), cat, cfg,
                               make_triple_emitter(cfg)).to_pylist()}
    assert fused == staged and len(fused) > 0


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
