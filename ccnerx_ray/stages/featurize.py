"""Featurizer stage: segments → fixed-shape feature tensors (M1-M4).

The reference's per-document workhorse ``convert_embedding``
(``CC/loaders/le_loader.py:144-193``): truncate to ``max_seq_length-2``,
wrap in ``[CLS]``/``[SEP]``, map tokens and tags to ids, zero-pad, build
``attention_mask``/``token_type_ids``, and attach per-position trie-matched
word ids (``matched_word_ids[L, W]`` + mask) with ``<unk>{len}`` fallback
(``vocab.py:80-104``).

In the production KG pipeline this stage is FUSED into the tagger actor
(the wide ``[L, W]`` intermediates never cross the object store —
stages/tag.py design note); this standalone actor exposes the feature
table for API parity with the reference loaders, for training-data export,
and for tests. Arrow layout: fixed-length ``list<int32>`` columns (``L``
per row; ``L*W`` flattened row-major for the matched-word pair)."""

from __future__ import annotations

import pyarrow as pa

from ccnerx_ray.config import PipelineConfig, bioes_tag_list
from ccnerx_ray.state.trie import Trie
from ccnerx_ray.state.vocab import Vocab

CLS, SEP, PAD = "[CLS]", "[SEP]", "<pad>"


def feature_schema() -> pa.Schema:
    return pa.schema([
        ("content_sha256", pa.string()),
        ("seg_id", pa.int32()),
        ("input_ids", pa.list_(pa.int32())),
        ("token_type_ids", pa.list_(pa.int32())),
        ("attention_mask", pa.list_(pa.int32())),
        ("labels", pa.list_(pa.int32())),
        ("matched_word_ids", pa.list_(pa.int32())),   # L*W row-major
        ("matched_word_mask", pa.list_(pa.int32())),
    ])


class Featurizer:
    """Actor-pool callable: vocabs + trie built once per actor
    (``__init__`` ≙ the loader's ``read_data_set``, le_loader.py:48-70)."""

    def __init__(self, lexicon_words: list[tuple[str, ...]] | None = None,
                 cfg: PipelineConfig | None = None, lexicon_ref=None,
                 unk_num: int = 10):
        self.cfg = cfg or PipelineConfig()
        if lexicon_ref is not None:
            import ray
            lexicon_words = ray.get(lexicon_ref)
        words = sorted({tuple(w) for w in (lexicon_words or [])})
        self.trie = Trie.from_words(words, use_single=self.cfg.use_single,
                                    max_scan_num=self.cfg.max_scan_num)
        # deterministic driver-reproducible vocab ids (G2: insertion order
        # is load-bearing; sorted build makes it stable across actors)
        self.token_vocab = Vocab.from_list(
            (t for w in words for t in w), is_word=True, unk_num=unk_num)
        self.token_vocab.add(CLS)
        self.token_vocab.add(SEP)
        self.word_vocab = Vocab.from_list(words, is_word=True, unk_num=unk_num)
        self.tag_vocab = Vocab.from_list(bioes_tag_list(self.cfg.entity_labels))

    def featurize_one(self, tokens: list[str],
                      tags: list[str] | None = None) -> dict:
        cfg = self.cfg
        L, W = cfg.max_seq_length, cfg.max_word_num
        toks = list(tokens)[:L - 2]                       # le_loader.py:147
        tags = (list(tags)[:L - 2] if tags is not None
                else ["O"] * len(toks))                   # M11 predict default
        seq = [CLS] + toks + [SEP]
        n = len(seq)
        input_ids = [self.token_vocab.token2id(t) for t in seq] + [0] * (L - n)
        attention = [1] * n + [0] * (L - n)
        token_type = [0] * L
        label_ids = [self.tag_vocab.token2id("O")] + \
            [self.tag_vocab.token2id(t) for t in tags] + \
            [self.tag_vocab.token2id("O")]
        label_ids += [0] * (L - len(label_ids))

        matched = self.trie.matched_word_list(toks, max_words=W)
        word_ids = [0] * (L * W)
        word_mask = [0] * (L * W)
        for pos, words in enumerate(matched):
            row = (pos + 1) * W                           # +1 for [CLS] slot
            for k, w in enumerate(words[:W]):
                word_ids[row + k] = self.word_vocab.token2id(tuple(w))
                word_mask[row + k] = 1
        return {"input_ids": input_ids, "token_type_ids": token_type,
                "attention_mask": attention, "labels": label_ids,
                "matched_word_ids": word_ids, "matched_word_mask": word_mask}

    def __call__(self, batch: pa.Table) -> pa.Table:
        token_lists = batch.column("tokens").to_pylist()
        tag_lists = (batch.column("tags").to_pylist()
                     if "tags" in batch.column_names else [None] * len(token_lists))
        out = {name: [] for name in feature_schema().names}
        out["content_sha256"] = batch.column("content_sha256").to_pylist()
        out["seg_id"] = batch.column("seg_id").to_pylist()
        for toks, tags in zip(token_lists, tag_lists):
            f = self.featurize_one(toks, tags)
            for k, v in f.items():
                out[k].append(v)
        return pa.Table.from_pydict(out, schema=feature_schema())


def corpus_matched_words(segments, lexicon_words, cfg: PipelineConfig | None = None,
                         concurrency: int = 4):
    """G1: corpus-wide matched-word set (``lexicon_factory.py:37-58``) —
    per-segment trie matches, exploded, hash-distinct, sorted. The shuffle
    moves distinct surface strings only (per-batch set union first)."""
    import ray

    cfg = cfg or PipelineConfig()
    ref = ray.put([tuple(w) for w in lexicon_words])

    class Matcher:
        def __init__(self):
            words = sorted({tuple(w) for w in ray.get(ref)})
            self.trie = Trie.from_words(words, use_single=cfg.use_single,
                                        max_scan_num=cfg.max_scan_num)

        def __call__(self, batch: pa.Table) -> pa.Table:
            seen: set[str] = set()
            for toks in batch.column("tokens").to_pylist():
                for w in self.trie.all_matched_words(toks):
                    seen.add(" ".join(w))
            return pa.table({"word": pa.array(sorted(seen), pa.string())})

    return (segments.map_batches(Matcher, batch_format="pyarrow",
                                 concurrency=(1, concurrency))
            .groupby("word").count().select_columns(["word"]).sort("word"))
