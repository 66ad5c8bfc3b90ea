"""BIOES/BMES tag-sequence codec with the reference's exact semantics.

``get_entities`` replicates ``CC/loaders/utils/label.py:11-44`` including
its quirks (they change P/R and are therefore conformance-relevant,
SURVEY.md §7):

* a sentinel start-tag is appended so a trailing entity is flushed
  (label.py:16-17);
* the emitted span is ``(start, end_exclusive, label, tokens)`` where
  ``end`` is the index at which the entity was flushed;
* a *broken* ``I-``/``M-`` without a preceding ``B-`` opens a new entity at
  that position (tolerated, label.py:28-32);
* every non-``O`` token since ``start`` is appended to the surface — even
  when its label part disagrees with the open entity (label.py:33-34).

``get_labels`` replicates label.py:47-55; ``normalize_tags`` replicates the
``M-`` → ``I-`` bridge applied before scoring (``CC/trainer.py:211-214``).

``entity_spans`` is the columnar twin of ``get_entities ∘ normalize_tags``
for many segments of integer tag ids at once (numpy, no per-token Python);
``get_entities`` stays the reference it is tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_START = {"B"}
_MIDDLE = {"M", "I"}
_OUTSIDE = {"O"}
_SINGLE = {"S"}


def get_entities(labels: Sequence[str], text: Sequence[str]) -> list[tuple]:
    """Extract entity spans ``(start, end, label, tokens)`` from a BIOES/BMES
    tag sequence (semantics of label.py:11-44; non-mutating)."""
    out: list[tuple] = []
    word: list = []
    cur_label = None
    start = -1
    labs = list(labels) + ["B-"]
    toks = list(text) + ["[SEP]"]
    for i, (label, ch) in enumerate(zip(labs, toks)):
        head = label[0] if label else "O"
        if head in _START or head in _OUTSIDE or head in _SINGLE:
            if cur_label is not None:
                out.append((start, i, cur_label, word))
            word = []
            cur_label = None
            start = -1
        if head in _START or head in _SINGLE:
            cur_label = "-".join(label.split("-")[1:])
            start = i
        if head in _MIDDLE and cur_label is None:
            # broken I-/M- start tolerated (label.py:28-32)
            cur_label = "-".join(label.split("-")[1:])
            start = i
        if head not in _OUTSIDE:
            word.append(ch)
    return out


def get_labels(label: str, length: int, has_end: bool = True,
               middle_symbol: str = "I", has_single: bool = True) -> list[str]:
    """Span → BIOES tag list (label.py:47-55)."""
    labels = [f"{middle_symbol}-{label}"] * length
    if length == 1 and has_single:
        labels[0] = f"S-{label}"
        return labels
    if has_end:
        labels[-1] = f"E-{label}"
    labels[0] = f"B-{label}"
    return labels


def normalize_tags(labels: Sequence[str]) -> list[str]:
    """BMES→BIO bridge: ``M-`` → ``I-`` (trainer.py:211-214) applied before
    metric computation and span comparison."""
    return [lab.replace("M-", "I-") for lab in labels]


def tag_label(tag: str) -> str:
    """The entity label a tag opens, as ``get_entities`` reads it."""
    return "-".join(tag.split("-")[1:])


def entity_spans(ids: np.ndarray, lengths: np.ndarray, tags: Sequence[str]
                 ) -> tuple[np.ndarray, ...]:
    """``get_entities(normalize_tags(...), tokens)`` over a batch of
    segments given as tag ids, with every quirk of the reference.

    ``ids`` are the segments' tag ids concatenated (indices into ``tags``),
    ``lengths`` the tokens per segment. Returns ``(seg, start, end, tag,
    first)``, one entry per entity in ``get_entities`` order: the segment
    index, the span's ``start`` / ``end`` within the segment, the id of the
    tag that opened it (its :func:`tag_label` is the entity label) and the
    position of its first surface token — the surface is
    ``tokens[first:end]``, which starts before ``start`` when a stray
    ``E-`` precedes a broken ``I-`` start.

    A B/O/S tag (and each segment's first token) starts a run that lasts
    up to the next one; the sentinel flush of ``get_entities`` is the end
    of the segment. A run opened by B/S is one entity; otherwise its first
    I/M opens one, and a run without either yields none. Every non-O token
    of a run is in its surface."""
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    heads = [t[0] if t else "O" for t in normalize_tags(tags)]
    opens = np.array([h in _START or h in _SINGLE for h in heads], dtype=bool)
    outside = np.array([h in _OUTSIDE for h in heads], dtype=bool)
    middle = np.array([h in _MIDDLE for h in heads], dtype=bool)

    offsets = np.cumsum(lengths) - lengths
    run_start = opens[ids] | outside[ids]
    run_start[offsets[lengths > 0]] = True
    a = np.flatnonzero(run_start)
    # a run ends where the next begins; each segment's first token starts
    # a run, so a run never crosses a segment end
    r = np.append(a[1:], len(ids))
    run_id = np.cumsum(run_start) - 1
    mid = np.flatnonzero(middle[ids])
    first_mid = np.full(len(a), -1, dtype=np.intp)
    runs, first = np.unique(run_id[mid], return_index=True)
    first_mid[runs] = mid[first]
    start = np.where(opens[ids[a]], a, first_mid)
    keep = start >= 0
    a, r, start = a[keep], r[keep], start[keep]
    seg = np.repeat(np.arange(len(lengths)), lengths)[a]
    base = offsets[seg]
    return (seg, start - base, r - base, ids[start],
            a + outside[ids[a]] - base)
