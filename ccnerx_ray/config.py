"""Typed pipeline configuration.

Mirrors the declarative kwargs schema of the reference
(``CC/loaders/utils/parser.py:21-96`` — typed keys, defaults, coercion) as a
plain dataclass; the reference's loader kwargs that matter for inference are
kept under the same names where they exist (``max_seq_length``,
``max_word_num``, ``max_scan_num`` — ``CC/loaders/le_loader.py:25-28``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the KG-construction pipeline.

    Defaults follow the reference loader defaults
    (``CC/loaders/le_loader.py:25-28``) where a counterpart exists.
    """

    # --- featurization (reference: le_loader.py:25-28) ---
    max_seq_length: int = 128        # tokens per segment incl. [CLS]/[SEP] slots
    max_word_num: int = 5            # matched lexicon words kept per position
    max_scan_num: int = 1_500_000    # lexicon line cap (le_loader.py:25)
    use_single: bool = True          # trie single-token matches (lexicon_tree.py:26-29)

    # --- deterministic model (numpy LE-fusion tagger; replaces torch weights) ---
    model_seed: int = 20210 + 2021   # reference reproducibility seed family (set_seed(2021))
    embed_dim: int = 32              # token embedding dim (reference: 200-d word2vec, embedding.py:43)
    hidden_dim: int = 24             # emission MLP hidden
    lexicon_boost: float = 8.0       # LE-fusion strength of catalog label priors
    fusion: str = "boost"            # "boost" (additive label priors — the
                                     # oracle-paired production path) or
                                     # "lebert" (word-attention fusion over
                                     # matched-word embeddings, LEBert.py:
                                     # 172-196 information flow; boost still
                                     # applies on top — seeded weights carry
                                     # no label signal of their own)
    backbone: str = "mlp"            # "mlp" (2-layer emission MLP — the
                                     # oracle-paired production default) or
                                     # "attn" (seeded multi-layer self-
                                     # attention encoder, the structural
                                     # twin of the reference's BERT stack;
                                     # with fusion="lebert" the word
                                     # attention is injected MID-STACK at
                                     # attn_fusion_layer, the LEBert.py:
                                     # 141-196 layer-assembly information
                                     # flow)
    attn_layers: int = 3             # encoder depth in attn mode
    attn_heads: int = 4              # attention heads (divides embed_dim)
    attn_fusion_layer: int = 1       # lexicon fusion applied AFTER this
                                     # layer index (mid-stack, like the
                                     # reference's add_layer; LEBert.py:141)

    # --- co-occurrence emission ---
    cooccur_cap: int = 8              # max co-occurrence pairs emitted per segment

    # --- execution knobs (sized for 32-CPU single node; scale by cluster) ---
    featurize_batch_size: int = 256  # map_batches rows per task (sorted by length inside)
    tagger_batch_size: int = 64      # decode chunk: tight L per sorted chunk
    read_parallelism: int = -1       # -1 = let Ray decide

    # --- output ---
    output_partitions: int = 16      # hash(subj) % P partitioned triple store

    # --- entity label set (BIOES over these; analogue of labels.txt, F4) ---
    entity_labels: tuple = ("FUNC", "CLASS", "LIB", "CONST")


DEFAULT_CONFIG = PipelineConfig()


def bioes_tag_list(labels: tuple | list = DEFAULT_CONFIG.entity_labels) -> list[str]:
    """Closed BIOES tag vocabulary, ``O`` first.

    Mirrors the tag-list file convention of the reference
    (``CC/loaders/utils/cn_data_manager.py:212-218`` — one tag per line, the
    order defines tag ids).
    """
    tags = ["O"]
    for lab in labels:
        for p in ("B", "I", "E", "S"):
            tags.append(f"{p}-{lab}")
    return tags
