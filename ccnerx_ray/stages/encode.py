"""A5 document/sentence encoder stage — the pipeline that PRODUCES an
embeddings table from text (the r3 gap: every semantic op consumed a
precomputed fixture table; VERDICT r3 #5).

Reference anchor: ``CC/loaders/finetune/ftloader_v1.py:83-137`` encodes
sentences through a BERT tower inside the loader. Here the encoder is an
actor-pool ``map_batches`` stage whose deterministic backend is a
hash-token mean: each token gets a reproducible vector whose component d
is an exact INTEGER in micro units,

    c(w, d) = ((h1(w) + d · h2(w)) mod 2^64) mod 2_000_001 − 1_000_000

with ``(h1, h2)`` two independent 60-bit slices of one sha256
(``functions/hashing.py:token_hash_pairs60``). The per-token STRIDE h2
is what makes token vectors near-orthogonal — mixing d additively into a
single hash made every token vector the same unit ramp plus an offset
(measured: all documents collinear, |cos| ≈ 1 between unrelated docs).
A document embedding is
``sum(c) / (n_tokens · 1e6)`` per dimension, the sum is an order-free
int64 aggregate, and DuckDB reproduces the whole table bit for bit in
HUGEINT arithmetic (the same double-mod idiom as the MinHash oracle).
A learned encoder drops into the same stage by replacing the backend
(the actor signature, batch plumbing and output schema do not change);
per the repo's model policy the deterministic backend is the tested
default — weights are read-only inputs, never trained here.

Scale shape: stateless-per-batch compute but the stage is still run as a
callable-class actor pool (constants + caches built once per actor, the
learned-backend slot needs the actor anyway); one sha256 per UNIQUE
token per batch (process-cached), everything after is vectorized
(factorize → [uniq, dim] component matrix → gather → ``add.reduceat``
per doc). Zero shuffles — the output is a map of the input.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import pandas as pd

from ccnerx_ray.functions.hashing import token_hash_pairs60
from ccnerx_ray.functions.tokenize import ws_tokens

_MICRO_MOD = 2_000_001           # components land in [-1e6, 1e6] micros
_MICRO_OFF = 1_000_000


def token_component_micros(h1: np.ndarray, h2: np.ndarray,
                           dim: int) -> np.ndarray:
    """[n_tokens, dim] int64 component matrix in micro units from the
    (offset, stride) token-hash pairs, exactly the SQL ``((h1 + d·h2) %
    2^64) % 2000001 − 10^6`` (d is 1-based, matching
    ``generate_series(1, dim)``)."""
    d = np.arange(1, dim + 1, dtype=np.uint64)
    z = h1.astype(np.uint64)[:, None] + d[None, :] * h2.astype(
        np.uint64)[:, None]
    return (z % np.uint64(_MICRO_MOD)).astype(np.int64) - _MICRO_OFF


def _doc_sums(texts, dim: int):
    """Per-doc (n_tokens, sum-of-component-micros) for a batch: one
    factorize + one sha256 per unique token, then vectorized gather and
    a single ``add.reduceat`` over the flat token matrix."""
    tok_lists = [ws_tokens(t or "") for t in texts]
    n_tok = np.fromiter((len(t) for t in tok_lists), dtype=np.int64,
                        count=len(tok_lists))
    offsets = np.concatenate([[0], np.cumsum(n_tok)])
    flat_toks = [t for toks in tok_lists for t in toks]
    if not flat_toks:
        return n_tok, np.zeros((len(texts), dim), dtype=np.int64)
    codes, uniques = pd.factorize(np.asarray(flat_toks, dtype=object))
    h1, h2 = token_hash_pairs60(list(uniques))
    comp = token_component_micros(h1, h2, dim)[codes]  # [n_flat, dim]
    starts = offsets[:-1].clip(max=max(len(flat_toks) - 1, 0))
    sums = np.add.reduceat(comp, starts, axis=0)
    sums[n_tok == 0] = 0          # reduceat artifacts on empty segments
    return n_tok, sums


class DocEncoder:
    """Actor-pool encoder: ``(id, text) → (id, embedding list<float64>,
    n_tokens)``; embedding[d] = sum_micro[d] / (n_tokens · 1e6). Docs
    with zero tokens emit an all-zero vector (n_tokens = 0)."""

    def __init__(self, dim: int = 32, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.dim = int(dim)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        n_tok, sums = _doc_sums(texts, self.dim)
        denom = np.maximum(n_tok, 1)[:, None] * 1e6
        vecs = sums.astype(np.float64) / denom
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            "n_tokens": pa.array(n_tok, pa.int64()),
        })


def pool_resources(num_gpus: float) -> dict:
    """Per-actor resource kwargs for a stateful ``map_batches`` pool: 0.0
    adds nothing, so CPU deployments schedule exactly as before;
    fractional values share one device across pool actors."""
    return {"num_gpus": float(num_gpus)} if num_gpus else {}


def doc_embeddings(ds, dim: int = 32, text_col: str = "text",
                   id_col: str = "doc_id", concurrency: int = 4,
                   batch_size: int = 512, num_gpus: float = 0.0):
    """The embeddings-producing pipeline: documents → (id, embedding,
    n_tokens) via an actor pool of :class:`DocEncoder`. ``num_gpus``
    reserves GPUs per encoder actor (the A5 GPU-pool slot, SURVEY §2.4);
    0.0 = CPU pool, scheduling unchanged."""
    return ds.map_batches(DocEncoder,
                          fn_constructor_kwargs={"dim": dim,
                                                 "text_col": text_col,
                                                 "id_col": id_col},
                          concurrency=concurrency, batch_size=batch_size,
                          batch_format="pyarrow",
                          **pool_resources(num_gpus))


def doc_embedding_micros(ds, dim: int = 8, text_col: str = "text",
                         id_col: str = "doc_id"):
    """Oracle-exact long form of the encoder: ``(doc_id, dim, n_tokens,
    sum_micro)`` — one row per (doc, dimension), integers only, docs
    with zero tokens omitted (the SQL GROUP BY has no rows for them)."""

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
        n_tok, sums = _doc_sums(texts, dim)
        keep = n_tok > 0
        ids, n_tok, sums = ids[keep], n_tok[keep], sums[keep]
        n = len(ids)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    n), pa.int64()),
            "n_tokens": pa.array(np.repeat(n_tok, dim), pa.int64()),
            "sum_micro": pa.array(sums.ravel(), pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


class HashWordEmbedding:
    """``WordEmbedding``-shaped lookup over the encoder's hash-token
    vector family (float components = micros / 1e6): lets
    ``alias_pairs_semantic`` and friends run with NO fixture table —
    entity vectors are derived exactly like document vectors, so the
    alias scorer catches bag-equal (word-order) variants for free."""

    def __init__(self, dimension: int = 32):
        self.dimension = int(dimension)

    def lookup(self, word: str) -> np.ndarray:
        h1, h2 = token_hash_pairs60([word])
        return (token_component_micros(h1, h2, self.dimension)[0]
                .astype(np.float64) / 1e6)
