"""BIOES codec vs reference semantics (label.py:11-55; trainer.py:211-214)."""

import random

import numpy as np

from ccnerx_ray.config import bioes_tag_list
from ccnerx_ray.functions.bioes import (entity_spans, get_entities, get_labels,
                                        normalize_tags, tag_label)


def spans(labels, text):
    return [(s, e, lab, list(w)) for s, e, lab, w in get_entities(labels, text)]


def test_simple_entity():
    labs = ["O", "B-FUNC", "E-FUNC", "O"]
    text = ["x", "foo", "bar", "y"]
    assert spans(labs, text) == [(1, 3, "FUNC", ["foo", "bar"])]


def test_single_token_entity():
    assert spans(["S-LIB"], ["numpy"]) == [(0, 1, "LIB", ["numpy"])]


def test_entity_at_start_and_end():
    labs = ["B-A", "E-A", "O", "B-B", "E-B"]
    text = ["a", "b", "c", "d", "e"]
    got = spans(labs, text)
    assert got == [(0, 2, "A", ["a", "b"]), (3, 5, "B", ["d", "e"])]


def test_adjacent_entities():
    labs = ["B-A", "E-A", "B-B", "E-B"]
    got = spans(labs, ["1", "2", "3", "4"])
    assert got == [(0, 2, "A", ["1", "2"]), (2, 4, "B", ["3", "4"])]


def test_broken_middle_start_tolerated():
    # I- without B- opens an entity (label.py:28-32)
    labs = ["I-X", "E-X", "O"]
    assert spans(labs, ["a", "b", "c"]) == [(0, 2, "X", ["a", "b"])]


def test_empty():
    assert spans([], []) == []


def test_inputs_not_mutated():
    labs = ["S-A"]
    text = ["t"]
    get_entities(labs, text)
    assert labs == ["S-A"] and text == ["t"]


def test_get_labels():
    assert get_labels("X", 1) == ["S-X"]
    assert get_labels("X", 2) == ["B-X", "E-X"]
    assert get_labels("X", 4) == ["B-X", "I-X", "I-X", "E-X"]
    assert get_labels("X", 2, has_end=False) == ["B-X", "I-X"]
    assert get_labels("X", 1, has_single=False) == ["B-X"]


def test_normalize_m_to_i():
    assert normalize_tags(["B-X", "M-X", "E-X"]) == ["B-X", "I-X", "E-X"]


def test_roundtrip():
    labs = get_labels("FUNC", 3)
    assert spans(labs, ["a", "b", "c"]) == [(0, 3, "FUNC", ["a", "b", "c"])]


def test_entity_spans_equal_get_entities():
    """The numpy span finder returns exactly ``get_entities(normalize_tags(
    tags), tokens)`` — start, end, label and surface tokens — on seeded
    random batches of tag ids, illegal sequences included."""
    tags = bioes_tag_list(("FUNC", "CLASS")) + ["M-FUNC"]
    tid = {t: i for i, t in enumerate(tags)}
    # illegal or edge sequences every batch carries: a broken I- start, a
    # stray E- before an I-, a trailing B-, an empty segment and all-O
    fixed = [["O", "I-FUNC", "E-FUNC"], ["E-CLASS", "I-FUNC", "O"],
             ["O", "S-FUNC", "B-CLASS"], [], ["O", "O", "O"],
             ["M-FUNC", "E-CLASS", "B-FUNC", "I-CLASS", "S-FUNC"]]
    rng = random.Random(7)
    for _ in range(300):
        segs = [[tid[t] for t in s] for s in fixed]
        segs += [[rng.randrange(len(tags)) for _ in range(rng.randrange(12))]
                 for _ in range(rng.randrange(6))]
        rng.shuffle(segs)
        lengths = np.array([len(s) for s in segs], dtype=np.int64)
        ids = np.array([t for s in segs for t in s], dtype=np.int64)
        got = [[] for _ in segs]
        for seg, start, end, tag, first in zip(*entity_spans(ids, lengths,
                                                             tags)):
            got[seg].append((start, end, tag_label(normalize_tags(
                [tags[tag]])[0]), first))
        for k, seg in enumerate(segs):
            toks = [f"t{k}_{i}" for i in range(len(seg))]
            want = get_entities(normalize_tags([tags[t] for t in seg]), toks)
            assert [(s, e, lab, toks[f:e]) for s, e, lab, f in got[k]] == \
                [(s, e, lab, list(w)) for s, e, lab, w in want], seg
