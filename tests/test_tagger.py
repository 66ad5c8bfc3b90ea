"""Deterministic tagger: planted entities decode; batch independence."""

import numpy as np
import pytest

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.functions.bioes import get_entities
from ccnerx_ray.model.crf import viterbi_decode
from ccnerx_ray.model.tagger import TaggerModel
from ccnerx_ray.state.catalog import EntityCatalog


def make_model(cfg=PipelineConfig()):
    cat = EntityCatalog.from_pairs([
        (("parse_cfg",), "FUNC"),
        (("Widget",), "CLASS"),
        (("libfoo",), "LIB"),
        (("libfoo", ".", "parse_cfg"), "FUNC"),
        (("MAX_N",), "CONST"),
    ])
    return TaggerModel(cat, cfg)


def test_single_token_entity_decodes():
    m = make_model()
    toks = ["x", "=", "parse_cfg", "(", "y", ")"]
    tags = m.tag_segments([toks])[0]
    ents = get_entities(tags, toks)
    assert (2, 3, "FUNC", ["parse_cfg"]) in [(s, e, l, list(w)) for s, e, l, w in ents]


def test_multi_token_entity_decodes():
    m = make_model()
    toks = ["import", "libfoo", ".", "parse_cfg"]
    tags = m.tag_segments([toks])[0]
    ents = [(s, e, l) for s, e, l, _ in get_entities(tags, toks)]
    # the 3-token qualified name should win over its parts via lexicon fusion
    assert (1, 4, "FUNC") in ents


def test_filler_tokens_stay_o():
    m = make_model()
    toks = ["x", "=", "x", "+", "1"]
    tags = m.tag_segments([toks])[0]
    assert tags == ["O"] * len(toks)


def test_valid_bioes_grammar():
    m = make_model()
    toks = ["Widget", "MAX_N", "x", "libfoo", ".", "parse_cfg", "y"] * 3
    tags = m.tag_segments([toks])[0]
    prev = "O"
    for t in tags:
        if t[0] == "I" or t[0] == "E":
            assert prev[0] in ("B", "I") and prev[1:] == t[1:], (prev, t)
        prev = t
    assert tags[-1][0] in ("O", "E", "S")


def test_batch_composition_independence():
    m = make_model()
    segs = [["x", "=", "parse_cfg"], ["import", "libfoo"],
            ["Widget", "y", "MAX_N", "z", "w", "q"]]
    together = m.tag_segments(segs)
    solo = [m.tag_segments([s])[0] for s in segs]
    assert together == solo


def test_base_row_independent_of_batch_shape():
    """A token's cached MLP row is bit-identical computed alone, inside
    batches of any size (a BLAS matmul's last bit depends on the batch
    shape) and after a cache hit."""
    toks = [f"tok{i}" for i in range(500)]
    alone = np.stack([make_model()._base_rows([t])[0] for t in toks])
    for n in (2, 3, 5, 17, 500):
        m = make_model()
        assert m._base_rows(toks[:n]).tobytes() == alone[:n].tobytes(), n
        assert m._base_rows(toks[:n][::-1]).tobytes() == \
            alone[:n][::-1].tobytes(), n     # cache hits


def test_deterministic_across_instances():
    toks = ["import", "libfoo", ".", "parse_cfg", "x", "Widget"]
    a = make_model().tag_segments([toks])[0]
    b = make_model().tag_segments([toks])[0]
    assert a == b


def test_empty_segment():
    m = make_model()
    assert m.tag_segments([[]]) == [[]]
    assert m.tag_segments([]) == []


@pytest.mark.parametrize("backbone", ["mlp", "attn"])
@pytest.mark.parametrize("fusion", ["boost", "lebert"])
def test_batched_tags_equal_decoded_emissions(backbone, fusion):
    """The batched path (row-cache gather in the MLP backbone) and the
    per-segment ``emissions`` path decode the same tags, each on a fresh
    model so neither reads rows the other cached."""
    cfg = PipelineConfig(backbone=backbone, fusion=fusion)
    base = ["import", "libfoo", ".", "parse_cfg", "x", "=", "Widget", "(",
            "MAX_N", ")", "parse_cfg", "y", "libfoo", "libfoo"]
    batch = [base[i % 5:i % 5 + n] * (1 + i % 3) for i, n in
             enumerate([3, 9, 0, 14, 1, 7, 5, 12, 2, 10, 6])]
    assert [] in batch
    batched = make_model(cfg).tag_segments(batch)
    per_seg, solo = make_model(cfg), make_model(cfg)
    for i, seg in enumerate(batch):
        e = per_seg.emissions(seg)
        assert e.shape == (len(seg), per_seg.num_tags + 2)
        decoded = ([per_seg.tags[t] for t in viterbi_decode(
            e[None], np.ones((1, len(seg))), per_seg.crf)[0]]
            if seg else [])
        assert batched[i] == decoded, i
        assert batched[i] == solo.tag_segments([seg])[0], i
    assert any(t != "O" for tags in batched for t in tags)


def test_checkpoint_roundtrip_equals_seeded(tmp_path):
    """A model constructed from the on-disk checkpoint tags identically
    to the seeded in-memory model (same parameters, different source —
    VERDICT r2 #2: the weight-loading path must change nothing)."""
    from ccnerx_ray.model.tagger import load_checkpoint, save_checkpoint

    cfg = PipelineConfig()
    ckpt = str(tmp_path / "tagger.npz")
    save_checkpoint(ckpt, cfg)
    seeded = make_model()
    loaded = TaggerModel(seeded.catalog, cfg,
                         weights=load_checkpoint(ckpt))
    segs = [["x", "=", "parse_cfg", "(", "y", ")"],
            ["import", "libfoo", ".", "parse_cfg"],
            ["MAX_N", "Widget", "unseen_token", "Widget"],
            []]
    assert seeded.tag_segments(segs) == loaded.tag_segments(segs)


def test_checkpoint_rejects_mismatched_tags(tmp_path):
    """Loading a checkpoint whose tag vocabulary differs from the config
    must fail loudly, not decode garbage."""
    import pytest

    from ccnerx_ray.model.tagger import load_checkpoint, save_checkpoint

    ckpt = str(tmp_path / "tagger.npz")
    save_checkpoint(ckpt, PipelineConfig())
    other = PipelineConfig(entity_labels=("FUNC", "CLASS"))
    cat = EntityCatalog.from_pairs([(("x",), "FUNC")])
    with pytest.raises(ValueError, match="tag vocabulary"):
        TaggerModel(cat, other, weights=load_checkpoint(ckpt))


# --------------------------------------------------- LEBert word fusion

def make_fused_model():
    from ccnerx_ray.state.catalog import EntityCatalog
    cat = EntityCatalog.from_pairs([
        (("parse_cfg",), "FUNC"),
        (("Widget",), "CLASS"),
        (("libfoo",), "LIB"),
        (("libfoo", ".", "parse_cfg"), "FUNC"),
        (("MAX_N",), "CONST"),
    ])
    return TaggerModel(cat, PipelineConfig(fusion="lebert"))


def test_lebert_fusion_same_spans_as_boost_on_fixture():
    """VERDICT r3 #3: the word-attention fusion path (LEBert.py:172-196
    information flow, seeded weights) must decode the SAME entity spans
    as the production boost path on the fixture corpus — the fusion
    perturbation is O(1) while the lexicon prior is the label signal."""
    plain, fused = make_model(), make_fused_model()
    for toks in (["x", "=", "parse_cfg", "(", "y", ")"],
                 ["import", "libfoo", ".", "parse_cfg"],
                 ["n", "<", "MAX_N", "and", "Widget", "ok"],
                 ["x", "=", "x", "+", "1"]):
        a = get_entities(plain.tag_segments([toks])[0], toks)
        b = get_entities(fused.tag_segments([toks])[0], toks)
        assert [(s, e, l) for s, e, l, _ in a] == \
            [(s, e, l) for s, e, l, _ in b], toks


def test_lebert_fusion_changes_emissions_where_words_match():
    """The fusion is ACTIVE, not a no-op: emissions differ from the
    boost path exactly at positions covered by matched words (wordless
    positions are identity by design — see model/fusion.py)."""
    import numpy as np
    plain, fused = make_model(), make_fused_model()
    toks = ["x", "=", "parse_cfg", "(", "y", ")"]
    e0, e1 = plain.emissions(toks), fused.emissions(toks)
    assert not np.allclose(e0[2], e1[2])          # covered by parse_cfg
    assert np.allclose(e0[0], e1[0])              # 'x' matches no word


def test_position_word_slots_cap_and_cover():
    from ccnerx_ray.model.fusion import position_word_slots
    spans = [(0, 2, ("a", "b")), (1, 3, ("b", "c")), (1, 2, ("b",)),
             (1, 2, ("B",)), (1, 2, ("bb",))]
    at = position_word_slots(spans, 3, max_word_num=2)
    assert at[0] == [("a", "b")]
    assert at[1] == [("a", "b"), ("b", "c")]      # capped at 2
    assert at[2] == [("b", "c")]


def test_lebert_attention_normalizes():
    """Masked softmax: attention over present word slots sums to 1 and
    absent slots get ~0 weight."""
    import numpy as np
    from ccnerx_ray.model.fusion import WordAttentionFusion
    f = WordAttentionFusion(hidden_dim=6, word_dim=4, seed=9)
    H = np.random.default_rng(0).standard_normal((3, 6))
    W = np.random.default_rng(1).standard_normal((3, 2, 4))
    mask = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    out = f.fuse(H, W, mask)
    assert out.shape == (3, 6)
    assert np.allclose(out[2], H[2])              # wordless → identity
    assert not np.allclose(out[0], H[0])
