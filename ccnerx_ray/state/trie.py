"""Lexicon trie with the reference's matching semantics, over token sequences.

Semantics replicated from the reference trie (``CC/loaders/utils/
lexicon_tree.py:14-129``), independently re-implemented for sequences of
code tokens instead of Chinese characters. The load-bearing quirks are kept
because they change candidate sets and hence downstream P/R (SURVEY.md §7):

* ``use_single`` toggles whether length-1 words may match at all
  (lexicon_tree.py:26-29: ``min_len`` 0 vs 1);
* enumerate stops scanning past ``max_depth`` (lexicon_tree.py:87-88);
* **single-unit demotion** in ``enumerate_match``: if more than one word
  matches at a position and the first is length-1, it is dropped
  (lexicon_tree.py:94-96);
* in the per-position match list, a length-1 word is skipped at its own
  start position when other words already start there
  (lexicon_tree.py:124-126), and both the enumerate list and the final
  per-position list are capped at ``max_words`` (lexicon_tree.py:119-128).

A "word" here is a tuple of tokens (e.g. a dotted qualified name split into
``("pkg", ".", "name")``); keys are exact token matches.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class _Node:
    __slots__ = ("children", "is_word")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.is_word = False


class Trie:
    """Token-sequence trie (semantics of lexicon_tree.py:14-129)."""

    def __init__(self, use_single: bool = True):
        self.root = _Node()
        self.max_depth = 0
        self.min_len = 0 if use_single else 1

    def insert(self, word: Sequence[str]) -> "Trie":
        node = self.root
        depth = 0
        for tok in word:
            nxt = node.children.get(tok)
            if nxt is None:
                nxt = _Node()
                node.children[tok] = nxt
            node = nxt
            depth += 1
        node.is_word = True
        if depth > self.max_depth:
            self.max_depth = depth
        return self

    @classmethod
    def from_words(cls, words: Iterable[Sequence[str]], use_single: bool = True,
                   max_scan_num: int | None = None) -> "Trie":
        """Build from an iterable of token-tuples, capped at ``max_scan_num``
        entries (reference lexicon scan cap, ``le_loader.py:25`` /
        ``lexicon_factory.py:10-34``)."""
        t = cls(use_single=use_single)
        for i, w in enumerate(words):
            if max_scan_num is not None and i >= max_scan_num:
                break
            t.insert(w)
        return t

    def search(self, word: Sequence[str]) -> bool:
        node = self.root
        for tok in word:
            node = node.children.get(tok)
            if node is None:
                return False
        return node.is_word

    def enumerate_match(self, sent: Sequence[str]) -> list[tuple[str, ...]]:
        """All lexicon words starting at ``sent[0]``, with the reference's
        single-unit demotion (lexicon_tree.py:74-96)."""
        matched: list[tuple[str, ...]] = []
        node = self.root
        for i, tok in enumerate(sent):
            if i > self.max_depth:
                break
            node = node.children.get(tok)
            if node is None:
                break
            if i >= self.min_len and node.is_word:
                matched.append(tuple(sent[: i + 1]))
        if len(matched) > 1 and len(matched[0]) == 1:
            matched = matched[1:]
        return matched

    def all_matched_words(self, sent: Sequence[str]) -> list[tuple[str, ...]]:
        """Sorted distinct matches anywhere in the sequence
        (lexicon_tree.py:98-112)."""
        out = set()
        for i in range(len(sent)):
            for w in self.enumerate_match(sent[i:]):
                out.add(w)
        return sorted(out)

    def matched_word_list(self, sent: Sequence[str],
                          max_words: int | None = None) -> list[list[tuple[str, ...]]]:
        """Per-position matched-word lists (lexicon_tree.py:114-129),
        including the start-position single-unit skip (ll.124-126) and the
        two ``max_words`` caps (ll.119-120, 127-128)."""
        matched: list[list[tuple[str, ...]]] = [[] for _ in range(len(sent))]
        for i in range(len(sent)):
            words = self.enumerate_match(sent[i:])
            if max_words is not None:
                words = words[:max_words]
            for w in words:
                for j in range(i + 1, i + len(w)):
                    matched[j].append(w)
                if len(matched[i]) > 0 and len(w) == 1:
                    continue
                matched[i].append(w)
            if max_words is not None:
                matched[i] = matched[i][:max_words]
        return matched

    def spans(self, sent: Sequence[str],
              max_words: int | None = None) -> list[tuple[int, int, tuple[str, ...]]]:
        """Candidate spans ``(start, end_exclusive, word)`` — the candidate-
        generation view used by the mention pipeline. Uses the same
        enumerate/demotion semantics as :meth:`matched_word_list`.
        Positions whose token starts no word are skipped before the
        ``sent[i:]`` copy (they match nothing)."""
        out: list[tuple[int, int, tuple[str, ...]]] = []
        first = self.root.children
        for i, tok in enumerate(sent):
            if tok not in first:
                continue
            words = self.enumerate_match(sent[i:])
            if max_words is not None:
                words = words[:max_words]
            for w in words:
                out.append((i, i + len(w), w))
        return out
