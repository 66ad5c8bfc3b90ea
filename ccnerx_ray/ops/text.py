"""Text analysis over a document table: token counting, quality scoring,
language ID, document fingerprinting.

All are stateless vectorized ``map_batches`` stages over Arrow batches.
Outputs that feed the DuckDB correctness oracle are INTEGER columns with
SQL-reproducible definitions (float scores would hash-mismatch on last-ulp
differences); heuristic outputs (langid, fingerprint) have no SQL oracle
and are covered by unit tests + rows-only checks.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.functions.hashing import stable_hash64
from ccnerx_ray.functions.tokenize import ws_tokens


# BPE-ish subword pieces: runs of letters / digits / single symbol
_BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z0-9]")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is for on with that it as at by".split()),
    "de": frozenset("der die das und zu in ist für auf mit dass es als bei von".split()),
    "fr": frozenset("le la les et de un une dans est pour sur avec que il au".split()),
    "es": frozenset("el la los las y de un una en es para con que se por".split()),
    "zh": frozenset("的 了 在 是 我 有 和 就 不 人 都 一 上 也".split()),
}
# punct == what RE2 '[\w\s]' deletion leaves: ASCII \w and
# ASCII \s WITHOUT \x0b (RE2's \s is [\t\n\f\r ])
_PUNCT_RE = re.compile(r"[^0-9A-Za-z_ \t\n\f\r]")


def add_token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append integer token statistics: ``n_tokens`` (whitespace tokens),
    ``n_uniq_tokens``, ``n_pieces`` (BPE-ish subword count)."""
    texts = batch.column(text_col).to_pylist()
    n_tok, n_uniq, n_pieces = [], [], []
    for t in texts:
        toks = ws_tokens(t)
        n_tok.append(len(toks))
        n_uniq.append(len(set(toks)))
        n_pieces.append(len(_BPE_RE.findall(t)) if t else 0)
    return (batch
            .append_column("n_tokens", pa.array(n_tok, pa.int64()))
            .append_column("n_uniq_tokens", pa.array(n_uniq, pa.int64()))
            .append_column("n_pieces", pa.array(n_pieces, pa.int64())))


def add_repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append Gopher-style within-document repetition signals: counts of
    word bigrams/trigrams and their distinct counts (the duplicate-n-gram
    fraction is ``1 - n_uniq/n``, left to the consumer so every emitted
    column stays an exact integer for the value-hash oracle).

    N-gram keys join tokens on ``\\x1f`` — the same representation the
    SQL oracle uses — so both sides share identical (theoretical)
    collision semantics for tokens containing the separator."""
    texts = batch.column(text_col).to_pylist()
    nb, ub, nt, ut = [], [], [], []
    for t in texts:
        toks = ws_tokens(t)
        bigs = ["\x1f".join(p) for p in zip(toks, toks[1:])]
        tris = ["\x1f".join(p) for p in zip(toks, toks[1:], toks[2:])]
        nb.append(len(bigs))
        ub.append(len(set(bigs)))
        nt.append(len(tris))
        ut.append(len(set(tris)))
    return (batch
            .append_column("n_bigrams", pa.array(nb, pa.int64()))
            .append_column("n_uniq_bigrams", pa.array(ub, pa.int64()))
            .append_column("n_trigrams", pa.array(nt, pa.int64()))
            .append_column("n_uniq_trigrams", pa.array(ut, pa.int64())))


def add_quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append quality signals (length / punctuation / stopword ratios) and a
    0-100 integer ``quality`` score. Heuristic; deterministic."""
    texts = batch.column(text_col).to_pylist()
    quality, stop_ratio_pm, punct_pm = [], [], []
    en_stops = _LANG_PROFILES["en"]
    for t in texts:
        toks = ws_tokens(t)
        if not toks:
            quality.append(0)
            stop_ratio_pm.append(0)
            punct_pm.append(0)
            continue
        n = len(toks)
        stops = sum(1 for w in toks if w.lower() in en_stops)
        punct = len(_PUNCT_RE.findall(t))
        mean_len = sum(len(w) for w in toks) / n
        # per-mille integers keep the column oracle-safe
        sr = int(1000 * stops / n)
        pr = int(1000 * punct / max(1, len(t)))
        q = 100
        if n < 5:
            q -= 40
        if mean_len < 2 or mean_len > 12:
            q -= 20
        if pr > 300:
            q -= 20
        if sr == 0:
            q -= 10
        quality.append(max(0, q))
        stop_ratio_pm.append(sr)
        punct_pm.append(pr)
    return (batch
            .append_column("stopword_pm", pa.array(stop_ratio_pm, pa.int64()))
            .append_column("punct_pm", pa.array(punct_pm, pa.int64()))
            .append_column("quality", pa.array(quality, pa.int64())))


def add_langid(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``pred_lang``: argmax of per-language stopword hit rate with a
    deterministic tie-break (lexicographic), ``und`` when nothing hits."""
    texts = batch.column(text_col).to_pylist()
    preds = []
    for t in texts:
        toks = ws_tokens(t)
        low = [w.lower() for w in toks]
        best, best_score = "und", 0
        for lang in sorted(_LANG_PROFILES):
            hits = sum(1 for w in low if w in _LANG_PROFILES[lang])
            if hits > best_score:
                best, best_score = lang, hits
        preds.append(best)
    return batch.append_column("pred_lang", pa.array(preds, pa.string()))


def add_fingerprint(batch: pa.Table, text_col: str = "text",
                    window: int = 8) -> pa.Table:
    """Append ``fingerprint``: winnowing-style fingerprint — the
    lexicographic min of 16-hex-char sha256 prefixes over each
    ``window``-token shingle (equal fingerprints ⇒ likely
    near-duplicates). Hex-string min over fixed-width prefixes ==
    numeric min of the underlying 64-bit values, and sha256 is
    reproducible in the DuckDB oracle (``substr(sha256(x), 1, 16)``) —
    which is why this uses sha256 rather than blake2b
    (:func:`~ccnerx_ray.functions.hashing.stable_hash64`)."""
    from ccnerx_ray.functions.hashing import sha256_hex16 as h16

    texts = batch.column(text_col).to_pylist()
    fps = []
    for t in texts:
        toks = ws_tokens(t)
        if not toks:
            fps.append("0")
            continue
        if len(toks) <= window:
            fps.append(h16(" ".join(toks)))
            continue
        fps.append(min(h16(" ".join(toks[i:i + window]))
                       for i in range(len(toks) - window + 1)))
    return batch.append_column("fingerprint", pa.array(fps, pa.string()))


def winnow_fingerprints(text: str, k: int = 8, w: int = 4) -> list[str]:
    """TRUE winnowing (Schleimer/Wilkerson/Aiken, the MOSS scheme): hash
    the k-token shingles, slide a window of ``w`` consecutive shingle
    hashes, keep each window's minimum — the distinct selected hashes are
    the document's fingerprint SET (guarantees any shared run of
    ``k + w - 1`` tokens yields a shared fingerprint). Hashes are
    16-hex-char sha256 prefixes so the DuckDB oracle reproduces the
    selection exactly."""
    from ccnerx_ray.functions.hashing import sha256_hex16 as h16

    toks = ws_tokens(text)
    if not toks:
        return []

    if len(toks) <= k:
        return [h16(" ".join(toks))]
    sh = [h16(" ".join(toks[i:i + k])) for i in range(len(toks) - k + 1)]
    if len(sh) <= w:
        return [min(sh)]
    fps = {min(sh[i:i + w]) for i in range(len(sh) - w + 1)}
    return sorted(fps)


# --------------------------------------------------------------- PII scrub
# RE2-compatible patterns (no lookaround/backrefs) so the DuckDB oracle
# applies the IDENTICAL regex; compiled with re.ASCII so Python's \d and
# \b match RE2's ASCII-only semantics (unicode digits / CJK-adjacent
# word boundaries would otherwise diverge — contract-tested in tests/).
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE_RE = r"\b\d{10}\b"

_PII_EMAIL = re.compile(PII_EMAIL_RE, re.ASCII)
_PII_IP = re.compile(PII_IP_RE, re.ASCII)
_PII_PHONE = re.compile(PII_PHONE_RE, re.ASCII)


def scrub_pii(text: str) -> tuple[str, int, int, int]:
    """Sequentially redact emails → IPv4s → 10-digit phones (the order
    matters: IP octets must not be half-eaten by the phone rule). Returns
    ``(redacted, n_emails, n_ips, n_phones)`` with each count taken on
    the text AFTER the previous rule ran — exactly what the nested
    ``regexp_replace`` oracle counts."""
    t1, n_e = _PII_EMAIL.subn("<EMAIL>", text)
    t2, n_i = _PII_IP.subn("<IP>", t1)
    t3, n_p = _PII_PHONE.subn("<PHONE>", t2)
    return t3, n_e, n_i, n_p


def redact_pii(batch: pa.Table, text_col: str = "text",
               out_col: str = "redacted") -> pa.Table:
    """Append ``redacted`` plus integer match counts (``n_emails``,
    ``n_ips``, ``n_phones``). Stateless vectorized-per-batch stage; the
    compiled patterns are module-level (compiled once per process)."""
    red, ne, ni, np_ = [], [], [], []
    for t in batch.column(text_col).to_pylist():
        r, a, b, c = scrub_pii(t or "")
        red.append(r)
        ne.append(a)
        ni.append(b)
        np_.append(c)
    return (batch
            .append_column(out_col, pa.array(red, pa.string()))
            .append_column("n_emails", pa.array(ne, pa.int64()))
            .append_column("n_ips", pa.array(ni, pa.int64()))
            .append_column("n_phones", pa.array(np_, pa.int64())))


# --------------------------------------------------- sequence packing (LLM)
def pack_documents(ds, budget: int = 512, key_col: str = "source",
                   id_col: str = "doc_id", text_col: str = "text",
                   chunk: int = 4096):
    """Token-budget sequence packing: assign documents (ordered by
    ``id_col`` within ``key_col``) to training packs of ``budget`` tokens
    — ``pack_id = exclusive_prefix_tokens // budget``, i.e. the
    budget-quantized contiguous packing a data loader would consume.
    Returns one row per pack: ``(key, pack_id, n_docs, pack_tokens)``.

    This is a keyed ORDERED prefix sum at corpus scale, computed without
    ever holding a whole key's documents in one worker (the weakness of
    the naive per-key window): documents are chunked by ``id_col // chunk``
    (bounded groups), chunk token-subtotals reduce to a tiny dataset,
    per-chunk starting offsets come from an exclusive cumsum over that
    tiny dataset, offsets join back (stats-adaptive: broadcast while the
    chunk index is small, hash join when it is not), and each bounded
    chunk group resolves its documents' global prefixes locally."""
    import pandas as pd

    from ccnerx_ray.functions.grouping import coarse_grouped, grouped_reduce
    from ccnerx_ray.ops.join import adaptive_join

    # size every shuffle from the input bytes (parquet metadata — known
    # before execution) instead of fixed 64/256-bucket constants: a
    # node-scale corpus pays a task launch per empty partition in each
    # of the four grouped stages (cf. the pagerank/triangles r4 sizing),
    # while a 100-TB corpus still fans out to the 256 cap.
    width = int(min(max((ds.size_bytes() or 0) // (64 << 20), 4), 256))

    def tokenize_chunked(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        keys = batch.column(key_col).to_pylist()
        ntok = np.fromiter((len(ws_tokens(t or ""))
                            for t in batch.column(text_col).to_pylist()),
                           dtype=np.int64, count=batch.num_rows)
        ck = ids // chunk
        return pa.table({
            key_col: pa.array(keys, pa.string()),
            "chunk": pa.array(ck, pa.int64()),
            "chunk_key": pa.array(
                [f"{k}#{c}" for k, c in zip(keys, ck)], pa.string()),
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
        })

    # t1 feeds BOTH the chunk-sum reduce and the offset join; left lazy,
    # the whole read+tokenize pipeline would execute twice. Its rows drop
    # the text column (id + counts + key, ~1000× smaller than the
    # corpus), so one materialization — spillable by the object store —
    # is strictly cheaper than a second corpus scan at any scale.
    t1 = ds.map_batches(tokenize_chunked,
                        batch_format="pyarrow").materialize()
    chunk_sums = grouped_reduce(
        t1.select_columns([key_col, "chunk", "n_tokens"]),
        [key_col, "chunk"], {"n_tokens": "sum"}, num_buckets=width,
        pre_combine=True,
        out_dtypes={key_col: "string", "chunk": "int64",
                    "n_tokens": "int64"})

    def offsets_local(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "chunk"])
        tot = g["n_tokens"].to_numpy()
        incl = (pd.Series(tot).groupby(g[key_col].to_numpy())
                  .cumsum().to_numpy())
        return pd.DataFrame({
            "chunk_key": [f"{k}#{c}" for k, c in
                          zip(g[key_col], g["chunk"])],
            "offset": (incl - tot).astype("int64"),
        })

    offsets = coarse_grouped(chunk_sums, [key_col], offsets_local,
                             num_buckets=min(16, width),
                             out_dtypes={"chunk_key": "string",
                                         "offset": "int64"})
    joined = adaptive_join(t1, offsets, on="chunk_key")

    def assign_local(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "chunk", id_col])
        ntok = g["n_tokens"].to_numpy()
        incl = (pd.Series(ntok)
                  .groupby(g["chunk_key"].to_numpy()).cumsum().to_numpy())
        prefix = g["offset"].to_numpy() + incl - ntok
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "pack_id": (prefix // budget).astype("int64"),
            "n_docs": np.ones(len(g), dtype="int64"),
            "pack_tokens": ntok,
        })

    per_doc = coarse_grouped(joined, [key_col, "chunk"], assign_local,
                             num_buckets=width,
                             out_dtypes={key_col: "string",
                                         "pack_id": "int64",
                                         "n_docs": "int64",
                                         "pack_tokens": "int64"})
    return grouped_reduce(per_doc, [key_col, "pack_id"],
                          {"n_docs": "sum", "pack_tokens": "sum"},
                          num_buckets=width, pre_combine=True,
                          out_dtypes={key_col: "string", "pack_id": "int64",
                                      "n_docs": "int64",
                                      "pack_tokens": "int64"})


def tfidf_top_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                    top_n: int = 3, num_buckets: int = 256):
    """Corpus-weighted top terms per document (tf-idf shape): the score
    is the exact rational ``tf / df`` (document frequency from the whole
    corpus), so both this and the SQL oracle rank by an IEEE-exact
    double of two int64s — no transcendental idf to drift on the last
    ulp. Ties break by term text ascending (deterministic).

    Distributed shape (three digest-size shuffles, never the documents):
    per-doc term counts via a local Counter → corpus df via a coarse
    groupby on term → df joined back to the term rows
    (:func:`ccnerx_ray.ops.join.adaptive_join` — broadcast when the
    vocabulary is small, hash-partitioned when not) → per-doc top-n via
    a coarse groupby on doc id."""
    from collections import Counter

    import pandas as pd

    from ccnerx_ray.functions.grouping import coarse_grouped, grouped_reduce
    from ccnerx_ray.ops.join import adaptive_join

    def term_counts(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        oi, ot, oc = [], [], []
        for i, t in zip(ids, texts):
            for term, n in Counter(ws_tokens(t)).items():
                oi.append(i)
                ot.append(term)
                oc.append(n)
        return pa.table({
            id_col: pa.array(oi, batch.schema.field(id_col).type),
            "term": pa.array(ot, pa.string()),
            "tf": pa.array(oc, pa.int64()),
        })

    # tf_rows feeds BOTH the df reduce and the idf join probe; left
    # lazy the whole read+tokenize pipeline would run twice. Its rows
    # drop the document text, so one spillable materialization beats a
    # second corpus scan at any scale (cf. pack_documents).
    tf_rows = ds.map_batches(term_counts,
                             batch_format="pyarrow").materialize()
    width = int(min(max((ds.size_bytes() or 0) // (64 << 20), 8),
                    num_buckets))
    df_rows = grouped_reduce(
        tf_rows.map_batches(
            lambda b: b.select(["term"]).append_column(
                "df", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["term"], {"df": "sum"}, num_buckets=width,
        out_dtypes={"term": "string", "df": "int64"}, pre_combine=True)
    joined = adaptive_join(tf_rows, df_rows, on="term")

    def top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["_s"] = g["tf"].to_numpy() / g["df"].to_numpy()
        g = g.sort_values([id_col, "_s", "term"],
                          ascending=[True, False, True])
        g["rank"] = g.groupby(id_col, sort=False).cumcount() + 1
        g = g[g["rank"] <= top_n]
        return g[[id_col, "term", "tf", "df", "rank"]]

    return coarse_grouped(joined, [id_col], top,
                          num_buckets=min(64, width),
                          out_dtypes={id_col: "int64", "term": "string",
                                      "tf": "int64", "df": "int64",
                                      "rank": "int64"})
