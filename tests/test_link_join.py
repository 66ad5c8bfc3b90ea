"""Distributed catalog linking (VERDICT r4 #1): the hash-partitioned
``link_exploded_mentions`` path must reproduce the broadcast
:class:`LinkScorer` contract bit-for-bit, and a fact-scale catalog must
never land on the driver."""

import pandas as pd
import pyarrow as pa
import pytest


LEXICON = [
    (("spark",), "LIB"),
    (("filter",), "FUNC"),
    (("hash", "join"), "FUNC"),
    (("table",), "CLASS"),
]

# catalog for LINKING — deliberately different from the tagger lexicon:
# * ("spark",) exact hit with FOUR labels (truncation to max_label_num=3)
# * ("HashJoin",) normalizes to "hash join" → norm-key-only hit (0.9)
# * ("table",) absent entirely → NIL (0.0, tagger label kept)
CATALOG = [
    (("spark",), "LIB"), (("spark",), "FUNC"),
    (("spark",), "CLASS"), (("spark",), "CONST"),
    (("filter",), "FUNC"),
    (("HashJoin",), "CLASS"),
]

DOCS = [
    {"repo": "r/a", "path": "a.py", "commit": "c1", "lang": "py",
     "content": "spark filter runs a hash join over table rows"},
    {"repo": "r/b", "path": "b.py", "commit": "c2", "lang": "py",
     "content": "table spark table ; filter"},
]


def _mention_frames(broadcast_bytes):
    import ray.data

    from ccnerx_ray.config import PipelineConfig
    from ccnerx_ray.pipelines.kg import (_broadcast_catalog,
                                         segments_dataset)
    from ccnerx_ray.stages.link import (LinkScorer, catalog_dataset,
                                        link_exploded_mentions)
    from ccnerx_ray.stages.tag import MentionTagger, explode_mentions

    cfg = PipelineConfig()
    corpus = ray.data.from_items(DOCS)
    segs = segments_dataset(corpus, cfg)
    ref = _broadcast_catalog(LEXICON)
    nested = segs.map_batches(
        MentionTagger,
        fn_constructor_kwargs={"catalog_ref": ref, "cfg": cfg},
        batch_format="pyarrow", concurrency=(1, 2))

    scorer = LinkScorer(catalog_pairs=CATALOG)
    via_broadcast = nested.map_batches(
        scorer, batch_format="pyarrow").map_batches(
        explode_mentions, batch_format="pyarrow").to_pandas()

    raw = nested.map_batches(explode_mentions, batch_format="pyarrow")
    via_join = link_exploded_mentions(
        raw, catalog_dataset(CATALOG),
        broadcast_bytes=broadcast_bytes).to_pandas()
    return via_broadcast, via_join


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (df.sort_values(["path", "seg_id", "start", "end"])
              .reset_index(drop=True).sort_index(axis=1))


@pytest.mark.parametrize("broadcast_bytes", [0, None],
                         ids=["forced-hash-join", "adaptive"])
def test_link_join_parity_all_score_classes(ray_session, broadcast_bytes):
    """Exact-surface (1.0, multi-label truncated), norm-key-only (0.9),
    and NIL (0.0) mentions all link identically through the broadcast
    scorer and the partitioned join — including with the broadcast fast
    path disabled (``broadcast_bytes=0`` forces ``Dataset.join``)."""
    base, got = _mention_frames(broadcast_bytes)
    assert len(base) > 0
    pd.testing.assert_frame_equal(_canon(base), _canon(got))

    by_surface = {r.surface: r for r in base.itertuples()}
    spark = by_surface["spark"]
    assert spark.link_score == 1.0 and spark.n_cands == 3
    assert spark.cand_labels == "CLASS|CONST|FUNC"   # sorted, truncated
    assert spark.linked_label == "CLASS"
    hj = by_surface["hash join"]
    assert hj.link_score == 0.9 and hj.in_catalog
    assert hj.linked_label == "CLASS"                # via norm key
    tbl = by_surface["table"]
    assert tbl.link_score == 0.0 and not tbl.in_catalog
    assert tbl.linked_label == "CLASS" and tbl.n_cands == 1  # tagger label


def test_link_join_big_catalog_never_broadcasts(ray_session, monkeypatch):
    """A 10⁶-surface catalog with a byte hint above the broadcast bound
    must take the hash-partitioned path on BOTH lookup joins —
    ``_materialize_build`` (the only gate to the ``ray.put`` broadcast)
    must never even be attempted; linking results stay correct against
    planted keys."""
    import ray.data

    import ccnerx_ray.ops.join as joinmod
    from ccnerx_ray.stages.link import link_exploded_mentions

    N = 1_000_000

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        return pa.table({
            "surface": pa.array([f"sym {i}" for i in ids], pa.string()),
            "norm_key": pa.array([f"sym {i}" for i in ids], pa.string()),
            "label": pa.array(["FUNC" if i % 2 else "CLASS"
                               for i in ids], pa.string()),
        })

    catalog = ray.data.range(N).map_batches(gen, batch_format="pyarrow")

    mentions = ray.data.from_items([
        {"surface": "sym 17", "norm_key": "sym 17", "label": "CONST"},
        {"surface": "sym 424242", "norm_key": "sym 424242",
         "label": "CONST"},
        {"surface": "nowhere", "norm_key": "nowhere", "label": "CONST"},
    ])

    attempts = []
    real = joinmod._materialize_build

    def spy(build, broadcast_bytes, estimate_bytes):
        attempts.append(estimate_bytes)
        return real(build, broadcast_bytes, estimate_bytes)

    monkeypatch.setattr(joinmod, "_materialize_build", spy)

    out = link_exploded_mentions(
        mentions, catalog,
        broadcast_bytes=1 << 20,            # 1 MiB bound
        catalog_bytes_hint=40 * N,          # ~40 B/row upper estimate
    ).to_pandas().set_index("surface")

    assert attempts == [], \
        f"broadcast materialization was attempted: {attempts}"
    assert out.loc["sym 17"].link_score == 1.0
    assert out.loc["sym 17"].linked_label == "FUNC"
    assert out.loc["sym 424242"].link_score == 1.0
    assert out.loc["sym 424242"].linked_label == "CLASS"
    assert out.loc["nowhere"].link_score == 0.0
    assert not out.loc["nowhere"].in_catalog
