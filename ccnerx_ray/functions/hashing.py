"""Deterministic hashing primitives.

Replaces the reference's retry-unstable key functions — Python ``hash()``
dedup keys (``CC/loaders/utils/label_counter.py:39``) and md5 file etags
(``CC/loaders/utils/reader.py:32-51``) — with content hashes that are stable
across processes, actors and retries (SURVEY.md §4 "non-determinism traps").

Everything here is pure and importable inside any UDF.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def sha256_hex(s: str | bytes) -> str:
    """Per-row content invariant column (replaces the reference's per-file
    etag, reader.py:32-51)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.sha256(s).hexdigest()


def stable_hash64(s: str | bytes) -> int:
    """Stable unsigned 63-bit key (replaces Python hash() at
    label_counter.py:39; safe as int64 Arrow column)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little") >> 1


def sha256_column(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized-ish sha256 of a string column (hashlib per value is
    C-speed; negligible next to featurization)."""
    vals = col.to_pylist()
    return pa.array([None if v is None else sha256_hex(v) for v in vals], type=pa.string())


def stable_hash64_column(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """:func:`stable_hash64` of every value (null stays null): one blake2b
    per distinct value of the column's dictionary, then a ``take``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    hashes = pa.array([stable_hash64(v) for v in enc.dictionary.to_pylist()],
                      type=pa.int64())
    return hashes.take(enc.indices)


def entity_id(norm_key: str) -> str:
    """Deterministic canonical-entity id: first 16 hex chars of sha256 of
    the normalized surface key (the :func:`sha256_hex16` contract — the
    KG oracles recompute it as ``substr(sha256(norm_key), 1, 16)``)."""
    return sha256_hex16(norm_key)


def sha256_hex16(s: str | bytes) -> str:
    """16-hex-char sha256 prefix — the oracle-critical contract shared by
    fingerprinting, winnowing and stratified-rank keys; the DuckDB mirror
    is ``substr(sha256(x), 1, 16)``. Keep every Python user on this ONE
    helper so the Python/SQL pairing can't drift."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.sha256(s).hexdigest()[:16]


def sha256_int60(s: str | bytes) -> int:
    """60-bit integer from the first 15 hex chars of sha256 — the shingle
    hash domain of the MinHash pipeline. sha256-derived so the DuckDB
    oracle reproduces it exactly (``('0x' || substr(sha256(x),1,15))::
    UBIGINT``); 60 bits keeps ``a*h`` inside HUGEINT for the oracle's
    permutation arithmetic."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int(hashlib.sha256(s).hexdigest()[:15], 16)


def sha256_int64(s: str | bytes) -> int:
    """64-bit integer from the first 16 hex chars of sha256 — the SimHash
    token-hash domain (DuckDB-reproducible:
    ``('0x' || substr(sha256(x),1,16))::UBIGINT``)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int(hashlib.sha256(s).hexdigest()[:16], 16)


# --------------------------------------------------------------------------
# Vectorized shingle hashing (VERDICT r3 #2)
#
# The r3 shingle hash was sha256 over the JOINED shingle text — one Python
# hashlib call (plus a string join) per shingle, the dominant CPU of the
# whole dedup family at corpus scale. The r4 contract splits it:
#
#   token hash   h(t)  = int(sha256(t)[:15 hex], 16)        (60-bit)
#   shingle hash s     = fold(h_1..h_k) >> 4                (60-bit)
#   fold(a, x)         = (a * FNV64_PRIME + x)  mod 2^64
#
# Python computes h ONCE PER UNIQUE TOKEN (hashlib is C-speed and tokens
# are Zipf — uniques are a small fraction of occurrences, plus a
# process-level cache across batches), and the fold is pure numpy uint64
# wraparound over sliding windows — zero per-shingle Python. DuckDB
# mirrors the fold in HUGEINT with an explicit % 2^64, exactly like the
# MinHash permutation arithmetic below; FNV64_PRIME is ~2^40, so the
# HUGEINT product stays under 2^104 (DuckDB HUGEINT overflows at 2^127).
# The >> 4 keeps the result in the 60-bit domain the MinHash oracle's
# HUGEINT permutation arithmetic requires.
# --------------------------------------------------------------------------

FNV64_PRIME = 1099511628211          # 2^40-ish odd multiplier (FNV-64)
_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_MAX = 1 << 20


def token_hashes60(tokens) -> np.ndarray:
    """60-bit sha256 token hashes (``sha256_int60`` of each token) as a
    uint64 array, one hashlib call per CACHE-MISSING token only."""
    out = np.empty(len(tokens), dtype=np.uint64)
    cache = _TOKEN_HASH_CACHE
    for i, t in enumerate(tokens):
        v = cache.get(t)
        if v is None:
            v = int(hashlib.sha256(t.encode("utf-8")).hexdigest()[:15], 16)
            if len(cache) < _TOKEN_HASH_CACHE_MAX:
                cache[t] = v
        out[i] = v
    return out


def fold_shingles60(h: np.ndarray, k: int) -> np.ndarray:
    """All k-windows of the token-hash array folded to 60-bit shingle
    hashes, vectorized (the sliding windows are k strided slices; uint64
    multiply-add wraps mod 2^64 natively). Fewer than k tokens fold to
    ONE shingle over all of them (the r3 "short doc = single shingle"
    semantics); empty input → empty output."""
    h = np.asarray(h, dtype=np.uint64)
    n = len(h)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    M = np.uint64(FNV64_PRIME)
    if n < k:
        s = h[0]
        for j in range(1, n):
            s = s * M + h[j]
        return np.array([int(s) >> 4], dtype=np.int64)
    s = h[:n - k + 1].copy()
    for j in range(1, k):
        s = s * M + h[j:n - k + 1 + j]
    return (s >> np.uint64(4)).astype(np.int64)


def batch_token_hash_lists(texts, tokenizer,
                           hasher=None) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize every text and hash each token ONCE per unique token in
    the batch: returns (flat uint64 token hashes, int64 doc offsets) with
    ``offsets[i]:offsets[i+1]`` slicing doc i's hashes. ``pd.factorize``
    does the unique-ing at C speed. ``hasher`` maps a list of unique
    tokens to a uint64 array (default :func:`token_hashes60`)."""
    import pandas as pd

    if hasher is None:
        hasher = token_hashes60
    tok_lists = [tokenizer(t or "") for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    offsets = np.concatenate([[0], np.cumsum(lens)])
    flat = [t for toks in tok_lists for t in toks]
    if not flat:
        return np.empty(0, dtype=np.uint64), offsets
    codes, uniques = pd.factorize(np.asarray(flat, dtype=object))
    return hasher(list(uniques))[codes], offsets


_TOKEN_HASH_PAIR_CACHE: dict[str, tuple[int, int]] = {}


def token_hash_pairs60(tokens) -> tuple[np.ndarray, np.ndarray]:
    """TWO independent 60-bit hashes per token from one sha256 (hex
    slices [0:15] and [15:30]; SQL mirrors: ``substr(sha256(w), 1, 15)``
    / ``substr(sha256(w), 16, 15)``) — the (offset, stride) pair of the
    encoder's token-vector family. One hashlib call per missing token."""
    h1 = np.empty(len(tokens), dtype=np.uint64)
    h2 = np.empty(len(tokens), dtype=np.uint64)
    cache = _TOKEN_HASH_PAIR_CACHE
    for i, t in enumerate(tokens):
        v = cache.get(t)
        if v is None:
            hx = hashlib.sha256(t.encode("utf-8")).hexdigest()
            v = (int(hx[:15], 16), int(hx[15:30], 16))
            if len(cache) < _TOKEN_HASH_CACHE_MAX:
                cache[t] = v
        h1[i] = v[0]
        h2[i] = v[1]
    return h1, h2


_TOKEN_HASH64_CACHE: dict[str, int] = {}


def token_hashes64(tokens) -> np.ndarray:
    """64-bit sha256 token hashes (``sha256_int64`` of each token — the
    SimHash domain; oracle mirror ``('0x'||substr(sha256(w),1,16))::
    UBIGINT``) as uint64, one hashlib call per cache-missing token."""
    out = np.empty(len(tokens), dtype=np.uint64)
    cache = _TOKEN_HASH64_CACHE
    for i, t in enumerate(tokens):
        v = cache.get(t)
        if v is None:
            v = int(hashlib.sha256(t.encode("utf-8")).hexdigest()[:16], 16)
            if len(cache) < _TOKEN_HASH_CACHE_MAX:
                cache[t] = v
        out[i] = v
    return out


def splitmix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out) — the
    bucket-key mixer for LSH bands (bucket equality must track band
    equality modulo a ~2^-64 collision; any good 64-bit mix qualifies,
    this one is already the repo's Bloom-probe standard)."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_MINHASH_PRIME = (1 << 61) - 1


def minhash_params(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) coefficients for num_perm universal-hash permutations."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MINHASH_PRIME, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MINHASH_PRIME, size=num_perm, dtype=np.int64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature of a set of shingle hashes: for each permutation i,
    ``min((a_i * h + b_i) mod p)``. Vectorized [S] x [P] → [P] int64."""
    if len(shingle_hashes) == 0:
        return np.full(len(a), _MINHASH_PRIME, dtype=np.int64)
    h = shingle_hashes.astype(np.uint64)[:, None]
    vals = (h * a.astype(np.uint64)[None, :] + b.astype(np.uint64)[None, :]) % np.uint64(_MINHASH_PRIME)
    return vals.min(axis=0).astype(np.int64)


def simhash64(token_hashes: np.ndarray) -> int:
    """64-bit SimHash over token hashes (unweighted)."""
    if len(token_hashes) == 0:
        return 0
    bits = ((token_hashes.astype(np.uint64)[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)
