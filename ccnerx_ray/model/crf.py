"""Numpy CRF viterbi decode with the reference's exact decode semantics.

Replicates ``CC/crf.py:89-134`` (``__viterbi_decode``):

* tag space is ``num_tags + 2`` with ``start_idx = T-2``, ``stop_idx = T-1``
  (crf.py:25-27);
* ``transitions[j, i]`` is the score of moving FROM tag ``i`` TO tag ``j``
  (crf.py:31-34); the start row and stop column are ``IMPOSSIBLE = -1e4``;
* per step: ``acc[b, j, i] = max_score[b, i] + transitions[j, i]``, max over
  the last axis with FIRST-max tie-break (torch ``.max(dim=-1)`` ≡ numpy
  ``argmax``), then add the emission; masked steps carry ``max_score``
  forward unchanged (crf.py:106-114);
* termination adds ``transitions[stop_idx]`` then backtracks through the
  back-pointers of the first ``seq_len`` steps and drops the start tag
  (crf.py:116-133).

Decode is per-row given the mask, so batch composition cannot change a
row's path — the property the Ray pipeline relies on (SURVEY.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IMPOSSIBLE = -1e4


@dataclass
class CRFParams:
    """Seeded transition matrix in the reference's layout."""

    transitions: np.ndarray  # [T, T], T = num_tags + 2
    start_idx: int
    stop_idx: int

    @classmethod
    def seeded(cls, num_tags: int, seed: int) -> "CRFParams":
        T = num_tags + 2
        rng = np.random.default_rng(seed)
        trans = rng.standard_normal((T, T))
        start_idx, stop_idx = T - 2, T - 1
        trans[start_idx, :] = IMPOSSIBLE   # nothing transitions into START
        trans[:, stop_idx] = IMPOSSIBLE    # nothing transitions out of STOP
        return cls(trans, start_idx, stop_idx)


def viterbi_paths(features: np.ndarray, masks: np.ndarray,
                  params: CRFParams) -> tuple[np.ndarray, np.ndarray]:
    """Batch viterbi decode to an id matrix.

    :param features: [B, L, T] unary scores already in the T = num_tags+2
        space (the reference's ``fc`` projection output, crf.py:44-45).
    :param masks: [B, L] 0/1.
    :return: ``(paths, lengths)``: row ``b``'s best tag path is
        ``paths[b, :lengths[b]]`` (``lengths`` = the row's mask sum); the
        rest of the row is 0.
    """
    B, L, T = features.shape
    trans = params.transitions
    bps = np.zeros((L, B, T), dtype=np.intp)

    max_score = np.full((B, T), IMPOSSIBLE, dtype=np.float64)
    max_score[:, params.start_idx] = 0.0

    # preallocated step buffer — allocator traffic is what limits 32-way
    # concurrency on one node
    acc = np.empty((B, T, T), dtype=np.float64)
    rows = np.arange(B)[:, None]
    cols = np.arange(T)[None, :]

    for t in range(L):
        mask_t = masks[:, t] != 0.0                              # [B]
        np.add(max_score[:, None, :], trans[None, :, :], out=acc)  # [B, to, from]
        bp_t = np.argmax(acc, axis=-1)                           # first-max, like torch
        bps[t] = bp_t
        # the max is the value at the argmax: one reduction, not two
        step = acc[rows, cols, bp_t]
        step += features[:, t]
        # masked steps carry max_score forward unchanged (crf.py:106-114)
        np.copyto(max_score, step, where=mask_t[:, None])

    max_score = max_score + trans[params.stop_idx][None, :]
    cur = np.argmax(max_score, axis=-1)
    lengths = masks.sum(axis=1).astype(np.intp)

    # backtrack all rows at once (crf.py:116-133): a row's last position
    # holds its best final tag, and position t holds bps[t + 1] applied to
    # the tag at t + 1; the start tag bps[0] yields is dropped
    paths = np.zeros((B, L), dtype=np.intp)
    for t in range(L - 1, -1, -1):
        if t + 1 < L:
            cur = np.where(t + 1 < lengths, bps[t + 1, rows[:, 0], cur], cur)
        paths[:, t] = cur
    paths[np.arange(L)[None, :] >= lengths[:, None]] = 0
    return paths, lengths


def viterbi_decode(features: np.ndarray, masks: np.ndarray,
                   params: CRFParams) -> list[list[int]]:
    """:func:`viterbi_paths` as per-row tag-id lists (length = row's mask
    sum)."""
    paths, lengths = viterbi_paths(features, masks, params)
    return [paths[b, :n].tolist() for b, n in enumerate(lengths)]
