"""LEBert-style word-attention fusion (VERDICT r3 #3).

Mirrors the information flow of the reference's lexicon-fusion layer
(``CC/LEBert.py:172-196``): per position, the ≤ ``max_word_num`` matched
lexicon words are projected into the hidden space
(``word_transform`` → act → ``word_word_weight``), scored against the
position's hidden state through a bilinear form (``attn_W``), softmaxed
with a −10000 additive mask over absent word slots, and the
attention-weighted word vector is ADDED to the hidden state followed by
LayerNorm. Weights here are SEEDED deterministic stand-ins (the repo's
model policy: weights are read-only inputs, never trained in-pipeline);
a trained checkpoint drops into the same arrays.

One deliberate deviation, documented: positions with NO matched words
skip fusion entirely (identity). The reference softmaxes an all-masked
row into a uniform mix of PAD projections, adding a constant bias vector
at wordless positions — an artifact of fixed-shape batching that a
per-position implementation has no reason to replicate.
"""

from __future__ import annotations

import numpy as np


class WordAttentionFusion:
    """Seeded numpy word-attention fusion over matched-word embeddings."""

    def __init__(self, hidden_dim: int, word_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.word_dim = word_dim
        # word_transform: word-embedding space -> hidden (LEBert 200->768)
        self.Wt = rng.standard_normal((word_dim, hidden_dim)) / np.sqrt(word_dim)
        self.bt = rng.standard_normal(hidden_dim) * 0.1
        # word_word_weight: hidden -> hidden
        self.Ww = rng.standard_normal((hidden_dim, hidden_dim)) / np.sqrt(hidden_dim)
        self.bw = rng.standard_normal(hidden_dim) * 0.1
        # bilinear attention form
        self.attn_W = rng.standard_normal((hidden_dim, hidden_dim)) / np.sqrt(hidden_dim)

    def fuse(self, H: np.ndarray, W: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
        """``H [L, Dh]`` hidden states, ``W [L, Wn, word_dim]`` matched-
        word embeddings (zero-padded), ``mask [L, Wn]`` 1 where a word is
        present → fused ``[L, Dh]``."""
        L = H.shape[0]
        if L == 0 or W.shape[1] == 0:
            return H
        wo = np.tanh(W @ self.Wt + self.bt) @ self.Ww + self.bw  # [L,Wn,Dh]
        alpha = np.einsum("ld,lwd->lw", H @ self.attn_W, wo)
        alpha = alpha - 10000.0 * (1.0 - mask)
        alpha = alpha - alpha.max(axis=1, keepdims=True)
        ex = np.exp(alpha)
        alpha = ex / ex.sum(axis=1, keepdims=True)               # [L,Wn]
        weighted = np.einsum("lw,lwd->ld", alpha, wo)
        has_word = mask.any(axis=1)
        fused = np.where(has_word[:, None], H + weighted, H)
        # LayerNorm (gamma=1, beta=0) on fused positions only
        mu = fused.mean(axis=1, keepdims=True)
        sd = np.sqrt(fused.var(axis=1, keepdims=True) + 1e-12)
        normed = (fused - mu) / sd
        return np.where(has_word[:, None], normed, H)


def position_word_slots(spans, length: int, max_word_num: int):
    """LEBert loader semantics: every position collects the matched
    words whose span COVERS it, capped at ``max_word_num`` slots (trie
    emission order — deterministic). Returns ``list[list[word]]``."""
    at: list[list] = [[] for _ in range(length)]
    for start, end, word in spans:
        for k in range(start, end):
            if len(at[k]) < max_word_num:
                at[k].append(word)
    return at
