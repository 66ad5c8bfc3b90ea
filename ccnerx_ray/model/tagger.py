"""Deterministic lexicon-fusion tagging model (numpy).

Plays the role of the reference's LEBert + BiLSTM + CRF inference stack:

* hash-seeded token embeddings stand in for BERT wordpiece embeddings
  (``CC/loaders/le_loader.py:156``, fallback style of ``embedding.py:67-69``
  made content-deterministic);
* **lexicon fusion**: trie-matched catalog words inject their BIOES label
  prior into the per-position emission scores — the same information flow
  as LEBert's word-attention adapter (``CC/LEBert.py:172-196``), reduced to
  an additive prior with strength ``lexicon_boost``;
* a seeded 2-layer MLP produces the base emission scores (the BiLSTM+fc
  analogue, ``CC/birnncrf.py:6-41`` / ``crf.py:44-45``);
* transitions are seeded and structured to the BIOES grammar, decode is the
  reference-exact viterbi (:mod:`ccnerx_ray.model.crf`).

All weights derive from ``PipelineConfig.model_seed`` alone, and a token's
emission row is computed by a fixed-order sum whose value does not depend on
how many rows are computed with it, so every actor, every retry and the
single-process oracle produce bit-identical emissions, and hence identical
tags, for identical token sequences regardless of batch composition
(SURVEY.md §7 M3 "decode determinism across batch boundaries").
"""

from __future__ import annotations

import hashlib

import numpy as np

from ccnerx_ray.config import PipelineConfig, bioes_tag_list
from ccnerx_ray.model.crf import CRFParams, IMPOSSIBLE, viterbi_paths
from ccnerx_ray.state.catalog import EntityCatalog
from ccnerx_ray.state.trie import Trie


def _token_seed(token: str, salt: int) -> int:
    h = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                        key=salt.to_bytes(8, "little")).digest()
    return int.from_bytes(h, "little")


def save_checkpoint(path: str, cfg: PipelineConfig = PipelineConfig()) -> str:
    """Serialize the seeded model's weights to an ``.npz`` checkpoint —
    the stand-in for the reference's ``torch.save`` model artifact
    (``CC/trainer.py:366-380``). Loading it through
    ``MentionTagger(checkpoint_path=...)`` exercises the per-actor
    weight-loading path of ``predicter.py:52-83`` end to end. Write is
    atomic (tmp + rename) so concurrent actors never read a torn file."""
    import os
    import tempfile

    tags = bioes_tag_list(cfg.entity_labels)
    T = len(tags) + 2
    rng = np.random.default_rng(cfg.model_seed)
    D, H = cfg.embed_dim, cfg.hidden_dim
    payload = {
        "W1": rng.standard_normal((D, H)) / np.sqrt(D),
        "b1": rng.standard_normal(H) * 0.1,
        "W2": rng.standard_normal((H, T)) * 0.4 / np.sqrt(H),
        "b2": rng.standard_normal(T) * 0.1,
        "transitions": _structured_transitions(tags, cfg.model_seed + 1),
        "tags": np.array(tags),
        "o_bias": np.float64(3.0),
        "emb_salt": np.int64(cfg.model_seed + 2),
    }
    if cfg.backbone == "attn":
        # attention-backbone checkpoints are self-contained: all N layer
        # parameter sets plus the tag-space projection ride in the same
        # flat npz (keys attn_<layer>_<name>, Wp, bp)
        from ccnerx_ray.model.attention import SeededAttentionEncoder
        enc = SeededAttentionEncoder(D, cfg.attn_layers, cfg.attn_heads,
                                     cfg.model_seed)
        payload.update(enc.flat_weights())
        rng2 = np.random.default_rng(cfg.model_seed + 50)
        payload["Wp"] = rng2.standard_normal((D, T)) * 0.4 / np.sqrt(D)
        payload["bp"] = rng2.standard_normal(T) * 0.1
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp.npz")  # .npz: savez keeps name
    os.close(fd)
    np.savez(tmp, **payload)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str) -> dict:
    """Read an ``.npz`` checkpoint into the ``weights=`` dict
    :class:`TaggerModel` accepts."""
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _structured_transitions(tags: list[str], seed: int) -> np.ndarray:
    """BIOES-grammar transition matrix in the reference layout
    ``transitions[to, from]`` (crf.py:31-34), with small (0.15σ) seeded noise on the
    allowed arcs — a deterministic stand-in for trained weights."""
    T = len(tags) + 2
    start_idx, stop_idx = T - 2, T - 1
    rng = np.random.default_rng(seed)
    trans = np.full((T, T), IMPOSSIBLE, dtype=np.float64)

    def allowed(frm: str, to: str) -> bool:
        fh = frm[0]
        th = to[0]
        if fh in ("O", "E", "S"):
            return th in ("O", "B", "S")
        # B-X / I-X may only continue to I-X / E-X of the SAME label
        if fh in ("B", "I"):
            return th in ("I", "E") and to[1:] == frm[1:]
        return False

    for i, frm in enumerate(tags):          # i = from
        for j, to in enumerate(tags):       # j = to
            if allowed(frm, to):
                trans[j, i] = 0.15 * rng.standard_normal()
    # START may open O/B/S; O/E/S may close to STOP
    for j, to in enumerate(tags):
        if to[0] in ("O", "B", "S"):
            trans[j, start_idx] = 0.15 * rng.standard_normal()
    for i, frm in enumerate(tags):
        if frm[0] in ("O", "E", "S"):
            trans[stop_idx, i] = 0.15 * rng.standard_normal()
    trans[start_idx, :] = IMPOSSIBLE   # crf.py:33
    trans[:, stop_idx] = IMPOSSIBLE    # crf.py:34
    return trans


class TaggerModel:
    """Deterministic tagger: tokens → BIOES tag strings. Weights come
    from the config seed, or — the production regime the reference's
    ``predicter.py:52-83`` embodies (load a trained ``.pth`` once per
    predictor) — from an on-disk checkpoint via ``weights=``
    (:func:`load_checkpoint`), loaded once per actor/worker process."""

    def __init__(self, catalog: EntityCatalog, cfg: PipelineConfig = PipelineConfig(),
                 extra_lexicon: list[tuple[str, ...]] | None = None,
                 weights: dict | None = None):
        self.cfg = cfg
        self.catalog = catalog
        self.tags = bioes_tag_list(cfg.entity_labels)
        self.tag2id = {t: i for i, t in enumerate(self.tags)}
        self.num_tags = len(self.tags)
        T = self.num_tags + 2

        words = list(catalog.words())
        if extra_lexicon:
            words.extend(extra_lexicon)
        # deterministic build order (vocab-id determinism, SURVEY.md §7)
        self.trie = Trie.from_words(sorted(set(words)), use_single=cfg.use_single,
                                    max_scan_num=cfg.max_scan_num)

        if weights is not None:
            saved_tags = [str(t) for t in weights["tags"]]
            if saved_tags != self.tags:
                raise ValueError(
                    "checkpoint tag vocabulary does not match the config's "
                    f"entity labels: {saved_tags[:4]}... vs {self.tags[:4]}...")
            self.W1 = np.asarray(weights["W1"], dtype=np.float64)
            self.b1 = np.asarray(weights["b1"], dtype=np.float64)
            self.W2 = np.asarray(weights["W2"], dtype=np.float64)
            self.b2 = np.asarray(weights["b2"], dtype=np.float64)
            self.o_bias = float(weights["o_bias"])
            self.crf = CRFParams(
                np.asarray(weights["transitions"], dtype=np.float64),
                T - 2, T - 1)
            self._emb_salt = int(weights["emb_salt"])
        else:
            rng = np.random.default_rng(cfg.model_seed)
            D, H = cfg.embed_dim, cfg.hidden_dim
            self.W1 = rng.standard_normal((D, H)) / np.sqrt(D)
            self.b1 = rng.standard_normal(H) * 0.1
            self.W2 = rng.standard_normal((H, T)) * 0.4 / np.sqrt(H)
            self.b2 = rng.standard_normal(T) * 0.1
            self.o_bias = 3.0  # favor O absent lexicon evidence
            self.crf = CRFParams(
                _structured_transitions(self.tags, cfg.model_seed + 1),
                T - 2, T - 1)
            self._emb_salt = cfg.model_seed + 2
        self._emb_cache: dict[str, np.ndarray] = {}
        # per-token BASE emission row cache (emission = f(token) + boosts;
        # the MLP runs once per distinct token, ever, per process)
        self._row_cache: dict[str, np.ndarray] = {}
        self.encoder = None
        if cfg.backbone == "attn":
            # multi-layer self-attention backbone (VERDICT r4 #2): the
            # structural twin of the reference's transformer stack
            # (CC/LEBert.py:141-171); hidden width = embed_dim so the
            # residual stream is well-defined, projection to tag space
            # via a dedicated seeded (Wp, bp)
            from ccnerx_ray.model.attention import (
                SeededAttentionEncoder, unflatten_layer_weights)
            lw = (unflatten_layer_weights(weights, cfg.attn_layers)
                  if weights is not None else None)
            self.encoder = SeededAttentionEncoder(
                cfg.embed_dim, cfg.attn_layers, cfg.attn_heads,
                cfg.model_seed, layer_weights=lw)
            if weights is not None and "Wp" in weights:
                self.Wp = np.asarray(weights["Wp"], dtype=np.float64)
                self.bp = np.asarray(weights["bp"], dtype=np.float64)
            else:
                rng2 = np.random.default_rng(cfg.model_seed + 50)
                self.Wp = (rng2.standard_normal((cfg.embed_dim, T))
                           * 0.4 / np.sqrt(cfg.embed_dim))
                self.bp = rng2.standard_normal(T) * 0.1
        elif cfg.backbone != "mlp":
            raise ValueError(f"unknown backbone {cfg.backbone!r}; "
                             "expected 'mlp' or 'attn'")
        self.fusion = None
        if cfg.fusion == "lebert":
            from ccnerx_ray.model.fusion import WordAttentionFusion
            # in attn mode the fusion adapter operates mid-stack on the
            # D-wide residual stream (LEBert injects between encoder
            # layers); in mlp mode it fuses the H-wide hidden state
            fdim = cfg.embed_dim if self.encoder is not None \
                else cfg.hidden_dim
            self.fusion = WordAttentionFusion(fdim, cfg.embed_dim,
                                              cfg.model_seed + 3)
            self._word_emb_cache: dict[tuple, np.ndarray] = {}
        elif cfg.fusion != "boost":
            raise ValueError(f"unknown fusion mode {cfg.fusion!r}")

    # --- embeddings -----------------------------------------------------
    def _embed(self, token: str) -> np.ndarray:
        vec = self._emb_cache.get(token)
        if vec is None:
            r = np.random.default_rng(_token_seed(token, self._emb_salt))
            vec = r.uniform(-1.0, 1.0, self.cfg.embed_dim)
            if len(self._emb_cache) < 500_000:
                self._emb_cache[token] = vec
        return vec

    def _word_embed(self, word: tuple) -> np.ndarray:
        """Matched-word embedding = mean of its token embeddings (the
        deterministic stand-in for LEBert's 200-d word2vec rows)."""
        vec = self._word_emb_cache.get(word)
        if vec is None:
            vec = np.mean([self._embed(t) for t in word], axis=0)
            if len(self._word_emb_cache) < 500_000:
                self._word_emb_cache[word] = vec
        return vec

    def _matched_words(self, spans, L: int) -> tuple[np.ndarray, np.ndarray]:
        """LEBert fusion inputs: ``[L, max_word_num, embed_dim]`` embeddings
        of the trie words covering each position (zero-padded) and their
        ``[L, max_word_num]`` presence mask."""
        from ccnerx_ray.model.fusion import position_word_slots

        Wn = self.cfg.max_word_num
        Wm = np.zeros((L, Wn, self.cfg.embed_dim))
        mask = np.zeros((L, Wn))
        for k, words in enumerate(position_word_slots(spans, L, Wn)):
            for j, w in enumerate(words):
                Wm[k, j] = self._word_embed(w)
                mask[k, j] = 1.0
        return Wm, mask

    def _tag_scores(self, e: np.ndarray) -> np.ndarray:
        """O bias and impossible START/STOP columns on ``[L, T]`` backbone
        outputs (in place; never emit START/STOP mid-sequence)."""
        e[:, self.tag2id["O"]] += self.o_bias
        e[:, -2:] = IMPOSSIBLE
        return e

    def _apply_boost(self, e: np.ndarray, spans) -> None:
        """Additive lexicon label priors on candidate spans (in place)."""
        pos: list[int] = []
        tag: list[int] = []
        for start, end, word in spans:
            lab = self.catalog.label(word)
            if lab is None:
                continue
            if end - start == 1:
                pos.append(start)
                tag.append(self.tag2id[f"S-{lab}"])
            else:
                pos.extend(range(start, end))
                tag.append(self.tag2id[f"B-{lab}"])
                tag.extend([self.tag2id[f"I-{lab}"]] * (end - start - 2))
                tag.append(self.tag2id[f"E-{lab}"])
        # add.at accumulates repeated cells, like one += per span
        np.add.at(e, (np.asarray(pos, dtype=np.intp),
                      np.asarray(tag, dtype=np.intp)), self.cfg.lexicon_boost)

    def _contextual_emissions(self, tokens: list[str]) -> np.ndarray:
        """Unary scores of the position-contextual modes. ``fusion="lebert"``
        fuses the hidden states with each position's matched-word
        embeddings through word attention (``model/fusion.py``;
        LEBert.py:172-196 information flow) before the tag projection.
        ``backbone="attn"`` runs token embeddings + sinusoidal positions
        through N self-attention layers, with that adapter (if any)
        injected after layer ``attn_fusion_layer`` (mid-stack, the
        CC/LEBert.py:141-196 information flow), then a seeded projection.
        O bias, START/STOP mask and the additive lexicon boost apply as in
        the MLP backbone (seeded weights carry no label signal)."""
        L = len(tokens)
        X = np.stack([self._embed(t) for t in tokens])
        spans = list(self.trie.spans(tokens,
                                     max_words=self.cfg.max_word_num))
        if self.fusion is not None:
            Wm, mask = self._matched_words(spans, L)
        if self.encoder is not None:
            from ccnerx_ray.model.attention import sinusoidal_positions

            hook = None
            if self.fusion is not None:
                def hook(H):
                    return self.fusion.fuse(H, Wm, mask)
            H = self.encoder.forward(
                X + sinusoidal_positions(L, self.cfg.embed_dim),
                fusion_hook=hook, fusion_layer=self.cfg.attn_fusion_layer)
            e = H @ self.Wp + self.bp
        else:
            H = np.tanh(X @ self.W1 + self.b1)
            e = self.fusion.fuse(H, Wm, mask) @ self.W2 + self.b2
        self._apply_boost(self._tag_scores(e), spans)
        return e

    # --- emissions ------------------------------------------------------
    def emissions(self, tokens: list[str]) -> np.ndarray:
        """Per-position unary scores [L, num_tags+2] = backbone(embedding)
        + lexicon-fusion label priors + O bias; START/STOP columns
        impossible."""
        if not tokens:
            return np.zeros((0, self.num_tags + 2))
        if self.fusion is not None or self.encoder is not None:
            return self._contextual_emissions(tokens)
        e = self._base_rows(tokens)
        self._apply_boost(e, self.trie.spans(
            tokens, max_words=self.cfg.max_word_num))
        return e

    def _base_rows(self, tokens: list[str]) -> np.ndarray:
        """[len(tokens), T] MLP-backbone rows (MLP + O bias + START/STOP
        mask), cache-assisted; tokens not yet cached run through one
        vectorized MLP. Both layers are sums in a fixed index order (one
        elementwise multiply-add per input unit), not a BLAS matmul whose
        blocking depends on the batch shape, so a token's row is
        bit-identical however many rows are computed with it."""
        T = self.num_tags + 2
        out = np.empty((len(tokens), T), dtype=np.float64)
        missing: list[tuple[int, str]] = []
        for u, tok in enumerate(tokens):
            row = self._row_cache.get(tok)
            if row is None:
                missing.append((u, tok))
            else:
                out[u] = row
        if missing:
            X = np.stack([self._embed(t) for _, t in missing])
            E = self._tag_scores(_dense(np.tanh(_dense(X, self.W1, self.b1)),
                                        self.W2, self.b2))
            for k, (u, tok) in enumerate(missing):
                out[u] = E[k]
                if len(self._row_cache) < 500_000:
                    self._row_cache[tok] = E[k]
        return out

    # --- decode ---------------------------------------------------------
    def tag_segments(self, segments: list[list[str]]) -> list[list[str]]:
        """Tag a batch of token segments → BIOES tag strings per segment
        (:meth:`tag_ids` over a dictionary of the batch's tokens)."""
        if not segments:
            return []
        vocab: dict[str, int] = {}
        codes = np.fromiter((vocab.setdefault(t, len(vocab))
                             for seg in segments for t in seg), dtype=np.intp)
        lengths = np.fromiter((len(seg) for seg in segments), dtype=np.intp,
                              count=len(segments))
        ids = self.tag_ids(codes, lengths, list(vocab))
        return [[self.tags[t] for t in part.tolist()]
                for part in np.split(ids, np.cumsum(lengths)[:-1])]

    def tag_ids(self, codes: np.ndarray, lengths: np.ndarray,
                vocab: list[str]) -> np.ndarray:
        """Decode dictionary-encoded segments → one tag id (an index into
        ``self.tags``) per token.

        ``vocab`` holds the distinct tokens, ``codes`` the segments'
        tokens concatenated, as indices into ``vocab`` (the shape
        ``pa.Array.dictionary_encode`` gives), and ``lengths`` each
        segment's token count. Segments are decoded in chunks of
        ``tagger_batch_size`` sorted by length (little viterbi padding),
        padded and masked like the reference's batched predict
        (``predicter.py:130-171``); a segment's tags do not depend on the
        chunk it lands in. In the MLP mode emissions are one gather from
        the per-token rows of ``vocab`` plus sparse lexicon boosts."""
        codes = np.asarray(codes, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.intp)
        out = np.zeros(len(codes), dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        tokens = np.asarray(vocab, dtype=object)[codes].tolist()
        contextual = self.fusion is not None or self.encoder is not None
        # position-contextual modes have no per-token rows
        base = None if contextual else self._base_rows(vocab)
        order = np.argsort(lengths, kind="stable")
        order = order[lengths[order] > 0]
        T = self.num_tags + 2
        B = self.cfg.tagger_batch_size
        for off in range(0, len(order), B):
            idxs = order[off:off + B]
            L = int(lengths[idxs].max())
            valid = np.arange(L)[None, :] < lengths[idxs][:, None]
            flat = np.where(valid, starts[idxs][:, None] + np.arange(L), 0)
            segs = [tokens[a:a + n] for a, n in
                    zip(starts[idxs].tolist(), lengths[idxs].tolist())]
            if contextual:
                feats = np.zeros((len(idxs), L, T))
                for i, seg in enumerate(segs):
                    feats[i, :len(seg)] = self._contextual_emissions(seg)
            else:
                feats = base[codes[flat]]            # [B, L, T] gather
                feats[~valid] = 0.0                  # padded positions stay zero
                # lexicon fusion: sparse additive label priors per span
                for i, seg in enumerate(segs):
                    self._apply_boost(feats[i], self.trie.spans(
                        seg, max_words=self.cfg.max_word_num))
            paths, _ = viterbi_paths(feats, valid.astype(np.float64), self.crf)
            out[flat[valid]] = paths[valid]
        return out


def _dense(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X @ W + b`` summed over the input units in index order, one
    elementwise multiply-add each: every output element gets the same
    rounding whatever the number of rows."""
    acc = X[:, :1] * W[0]
    for d in range(1, W.shape[0]):
        acc += X[:, d:d + 1] * W[d]
    return acc + b
