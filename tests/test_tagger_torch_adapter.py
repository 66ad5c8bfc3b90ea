"""Torch-backend plug-in tests (VERDICT r1 #9). Skipped when torch is
absent (this container); when torch exists, they prove the actor-pool
path end-to-end with a real 2-layer torch module on CPU and that decode
semantics match the numpy backend structurally (both emit valid BIOES
over catalog spans — weights differ, grammar must not)."""

from __future__ import annotations

import pytest

torch = pytest.importorskip("torch")

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.stages.segment import make_segmenter
from ccnerx_ray.stages.tag import MentionTagger

CFG = PipelineConfig()
CATALOG = [(("parse_foo",), "FUNC"), (("Widget",), "CLASS")]


def _corpus_batch():
    import pyarrow as pa
    rows = [{"repo": "o/r", "path": "a.py", "commit": "c" * 40,
             "lang": "python",
             "content": "import parse_foo\nx = Widget ( parse_foo )"}]
    return pa.Table.from_pylist(rows)


def test_tagger_torch_adapter():
    seg = make_segmenter(CFG)(_corpus_batch())
    out = MentionTagger(catalog_pairs=CATALOG, cfg=CFG,
                        backend="torch")(seg)
    row = out.to_pylist()[0]
    assert "parse_foo" in row["surfaces"]
    labels = dict(zip(row["surfaces"], row["labels"]))
    assert labels["parse_foo"] == "FUNC"


def test_tagger_torch_actor_pool(ray_session):
    """The GPU-pool shape (actor-pool map_batches) with the torch backend
    on CPU: state loads once per actor, batches stream through."""
    import ray.data
    corpus = ray.data.from_arrow(_corpus_batch())
    from ccnerx_ray.pipelines.kg import segments_dataset
    segs = segments_dataset(corpus, CFG)
    tagged = segs.map_batches(
        MentionTagger,
        fn_constructor_kwargs={"catalog_pairs": CATALOG, "cfg": CFG,
                               "backend": "torch"},
        batch_format="pyarrow", concurrency=(1, 2))
    rows = tagged.take_all()
    assert rows and "parse_foo" in rows[0]["surfaces"]


def test_torch_backend_from_checkpoint_matches_numpy(tmp_path):
    """Torch module initialized FROM the npz checkpoint holds the same
    parameters as the numpy backend; on catalog-driven corpora (lexicon
    boost dominates the float32-vs-float64 forward noise) the decoded
    tags must agree exactly."""
    from ccnerx_ray.model.tagger import save_checkpoint

    ckpt = str(tmp_path / "tagger.npz")
    save_checkpoint(ckpt, CFG)
    seg = make_segmenter(CFG)(_corpus_batch())
    out_np = MentionTagger(catalog_pairs=CATALOG, cfg=CFG,
                           checkpoint_path=ckpt)(seg)
    out_th = MentionTagger(catalog_pairs=CATALOG, cfg=CFG,
                           backend="torch", checkpoint_path=ckpt)(seg)
    a, b = out_np.to_pylist()[0], out_th.to_pylist()[0]
    assert a["surfaces"] == b["surfaces"]
    assert a["labels"] == b["labels"]
    assert a["starts"] == b["starts"]


def test_torch_lebert_fusion_parity_with_numpy(tmp_path):
    """VERDICT r3 #3 parity gate: the torch word-attention twin holds
    parameters COPIED from the numpy fusion module and runs float64, so
    the decoded spans must match the seeded numpy-fusion reference run
    exactly on the fixture corpus."""
    from ccnerx_ray.model.tagger import save_checkpoint

    cfg = PipelineConfig(fusion="lebert")
    ckpt = str(tmp_path / "tagger.npz")
    save_checkpoint(ckpt, cfg)
    seg = make_segmenter(cfg)(_corpus_batch())
    out_np = MentionTagger(catalog_pairs=CATALOG, cfg=cfg,
                           checkpoint_path=ckpt)(seg)
    out_th = MentionTagger(catalog_pairs=CATALOG, cfg=cfg,
                           backend="torch", checkpoint_path=ckpt)(seg)
    a, b = out_np.to_pylist()[0], out_th.to_pylist()[0]
    assert a["surfaces"] == b["surfaces"]
    assert a["labels"] == b["labels"]
    assert a["starts"] == b["starts"]
