"""Seeded multi-layer self-attention encoder (VERDICT r4 #2).

The structural twin of the reference's transformer backbone: the
reference assembles N encoder layers and injects the LEBert
word-attention adapter BETWEEN layers at a configurable index
(``CC/LEBert.py:141-171`` builds the layer stack with ``add_layer``
deciding where the lexicon adapter sits; ``CC/LEBert.py:172-196`` is the
adapter itself, mirrored in :mod:`ccnerx_ray.model.fusion`). Here each
layer is the standard pre-softmax-scaled multi-head self-attention +
residual + LayerNorm followed by a position-wise FFN + residual +
LayerNorm, all in float64 numpy with weights derived from the config
seed alone — the repo's model policy (weights are read-only inputs,
never trained in-pipeline); a trained checkpoint drops into the same
arrays via the ``weights=`` dict and the npz checkpoint path.

Positions enter through the classic sinusoidal encoding (parameter-free
and deterministic), so emissions are CONTEXTUAL — the per-token row
cache of the MLP backbone does not apply, which is exactly the regime a
real BERT tagger runs in.
"""

from __future__ import annotations

import numpy as np

_LN_EPS = 1e-12


def layer_norm(x: np.ndarray) -> np.ndarray:
    """LayerNorm with gamma=1, beta=0 (the :mod:`fusion` convention)."""
    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(x.var(axis=-1, keepdims=True) + _LN_EPS)
    return (x - mu) / sd


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Parameter-free positional encoding [L, D] (Vaswani et al. 2017)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    pe = np.empty((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe


_LAYER_PARAMS = ("Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo",
                 "Wf1", "bf1", "Wf2", "bf2")


def seeded_layer_params(dim: int, ffn_dim: int, seed: int) -> dict:
    """One encoder layer's parameter dict, derived from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(dim)
    p = {}
    for name in ("Wq", "Wk", "Wv", "Wo"):
        p[name] = rng.standard_normal((dim, dim)) * s
        p["b" + name[1].lower()] = rng.standard_normal(dim) * 0.02
    p["Wf1"] = rng.standard_normal((dim, ffn_dim)) * s
    p["bf1"] = rng.standard_normal(ffn_dim) * 0.02
    p["Wf2"] = rng.standard_normal((ffn_dim, dim)) / np.sqrt(ffn_dim)
    p["bf2"] = rng.standard_normal(dim) * 0.02
    return p


class SeededAttentionEncoder:
    """N-layer float64 self-attention encoder with an optional fusion
    hook applied between layers (the LEBert adapter slot)."""

    def __init__(self, dim: int, num_layers: int, num_heads: int,
                 seed: int, ffn_mult: int = 2,
                 layer_weights: list[dict] | None = None):
        if dim % num_heads:
            raise ValueError(f"attn_heads={num_heads} must divide "
                             f"embed_dim={dim}")
        self.dim = dim
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.ffn_dim = dim * ffn_mult
        if layer_weights is not None:
            if len(layer_weights) != num_layers:
                raise ValueError("checkpoint layer count mismatch")
            self.layers = [dict(p) for p in layer_weights]
        else:
            self.layers = [seeded_layer_params(dim, self.ffn_dim,
                                               seed + 100 + i)
                           for i in range(num_layers)]

    def layer_forward(self, X: np.ndarray, p: dict) -> np.ndarray:
        """One encoder layer: scaled-dot MHA + residual/LN, FFN (tanh) +
        residual/LN. ``X [L, D]`` → ``[L, D]``."""
        L, D = X.shape
        h, dh = self.num_heads, D // self.num_heads
        # per-head views [h, L, dh]: batched matmuls (BLAS), not einsum
        Q = (X @ p["Wq"] + p["bq"]).reshape(L, h, dh).transpose(1, 0, 2)
        K = (X @ p["Wk"] + p["bk"]).reshape(L, h, dh).transpose(1, 0, 2)
        V = (X @ p["Wv"] + p["bv"]).reshape(L, h, dh).transpose(1, 0, 2)
        scores = Q @ K.transpose(0, 2, 1) / np.sqrt(dh)
        scores -= scores.max(axis=-1, keepdims=True)
        ex = np.exp(scores)
        A = ex / ex.sum(axis=-1, keepdims=True)           # [h, L, L]
        ctx = (A @ V).transpose(1, 0, 2).reshape(L, D)
        X = layer_norm(X + ctx @ p["Wo"] + p["bo"])
        ffn = np.tanh(X @ p["Wf1"] + p["bf1"]) @ p["Wf2"] + p["bf2"]
        return layer_norm(X + ffn)

    def forward(self, X: np.ndarray, fusion_hook=None,
                fusion_layer: int | None = None) -> np.ndarray:
        """``X [L, D]`` (embeddings + positions added by the caller) →
        contextual hidden states ``[L, D]``. ``fusion_hook(H) -> H`` is
        applied after layer index ``fusion_layer`` (the LEBert adapter
        slot; a hook after the LAST layer index is also legal)."""
        H = X
        for i in range(self.num_layers):
            H = self.layer_forward(H, self.layers[i])
            if fusion_hook is not None and i == fusion_layer:
                H = fusion_hook(H)
        return H

    def flat_weights(self, prefix: str = "attn") -> dict:
        """Layer params flattened for the npz checkpoint
        (``{prefix}_{layer}_{name}`` keys)."""
        out = {}
        for i, p in enumerate(self.layers):
            for name in _LAYER_PARAMS:
                out[f"{prefix}_{i}_{name}"] = p[name]
        return out


def unflatten_layer_weights(weights: dict, num_layers: int,
                            prefix: str = "attn") -> list[dict] | None:
    """Inverse of :meth:`SeededAttentionEncoder.flat_weights`; ``None``
    when the checkpoint carries no attention arrays (mlp-backbone npz)."""
    if f"{prefix}_0_Wq" not in weights:
        return None
    return [{name: np.asarray(weights[f"{prefix}_{i}_{name}"],
                              dtype=np.float64)
             for name in _LAYER_PARAMS}
            for i in range(num_layers)]
