"""Trie semantics vs the reference (lexicon_tree.py:14-129), incl. quirks."""

from ccnerx_ray.state.trie import Trie


def build(words, use_single=True):
    return Trie.from_words([tuple(w.split()) for w in words], use_single=use_single)


def test_insert_search():
    t = build(["foo", "foo . bar", "baz"])
    assert t.search(("foo",))
    assert t.search(("foo", ".", "bar"))
    assert not t.search(("foo", "."))
    assert t.max_depth == 3


def test_enumerate_single_demotion():
    # >1 matches and first is length-1 → drop it (lexicon_tree.py:94-96)
    t = build(["a", "a b"])
    assert t.enumerate_match(["a", "b", "c"]) == [("a", "b")]
    # only one match → single survives
    assert t.enumerate_match(["a", "z"]) == [("a",)]


def test_use_single_false_blocks_len1():
    t = build(["a", "a b"], use_single=False)
    assert t.enumerate_match(["a", "z"]) == []
    assert t.enumerate_match(["a", "b"]) == [("a", "b")]


def test_matched_word_list_position_semantics():
    # word covers interior positions; start-position single-skip (ll.124-126)
    t = build(["x", "x y", "y"])
    m = t.matched_word_list(["x", "y"])
    # position 0: "x" demoted by enumerate (two matches), so only ("x","y")
    assert m[0] == [("x", "y")]
    # position 1: covered by ("x","y"); then "y" single — matched[1] nonempty → skipped
    assert m[1] == [("x", "y")]


def test_max_words_cap():
    t = build(["a", "a b", "a b c", "a b c d"])
    m = t.matched_word_list(["a", "b", "c", "d"], max_words=2)
    assert len(m[0]) == 2


def test_spans():
    t = build(["foo", "foo . bar"])
    s = build(["foo", "foo . bar"]).spans(["foo", ".", "bar", "foo"])
    assert (0, 1, ("foo",)) in s or (0, 3, ("foo", ".", "bar")) in s
    # both matches at position 0 (no demotion: first match len 1 but "foo" is 1 token... demotion applies)
    starts0 = [w for (a, b, w) in s if a == 0]
    assert ("foo", ".", "bar") in starts0
    assert (3, 4, ("foo",)) in s


def test_lexicon_scale_memory_bound():
    """A1 reference-scale regime (1-1.5M words, ``le_loader.py:25``),
    asserted at 100k for test runtime: trie heap stays under 400 B/word
    (measured ~176 B/word at 1.5M — an actor holding the full reference
    lexicon costs ~250 MiB, well inside a worker heap; `bench.py
    --lexicon` records the full-scale numbers)."""
    import tracemalloc

    from ccnerx_ray.corpus import synthetic_lexicon
    from ccnerx_ray.state.trie import Trie

    words = synthetic_lexicon(100_000)
    assert len(set(words)) == len(words)
    tracemalloc.start()
    trie = Trie.from_words(words)
    cur, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert trie.max_depth == 2
    per_word = cur / len(words)
    assert per_word < 400, f"{per_word:.0f} B/word exceeds the 400 B bound"
    # the trie actually matches its entries
    assert trie.search(words[0]) and trie.search(words[1])


def test_spans_skip_matches_full_scan():
    """Skipping positions whose token starts no word gives the spans of a
    scan of every position."""
    import random

    t = build(["a", "a b", "b c d", "c", "d a b"])
    rng = random.Random(3)
    for _ in range(200):
        sent = [rng.choice("abcdxy") for _ in range(rng.randrange(15))]
        full = [(i, i + len(w), w) for i in range(len(sent))
                for w in t.enumerate_match(sent[i:])[:2]]
        assert t.spans(sent, max_words=2) == full
