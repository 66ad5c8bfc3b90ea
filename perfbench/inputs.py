"""Seeded benchmark inputs: the base corpus, its update delta and the
lookup subject mix. Every input is a pure function of the seed.

The corpus rows come from ``ccnerx_ray.corpus._gen_row`` with the catalog
of ``build_catalog(seed)``, so the ~50% monorepo skew and the planted
entity mentions are the generator's own. The file-size tail (90% small,
9% medium, 1% large files) is kept at exactly those shares instead of
being left to chance: the 1% tail holds close to half of all lines, so a
plain draw of a thousand rows would move the total work by a quarter from
one seed to the next and hide any real change behind the seed.
"""

from __future__ import annotations

import hashlib
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from ccnerx_ray.corpus import CORPUS_SCHEMA, _gen_row, build_catalog

# (size class, upper line count, share of the corpus) — the generator draws
# 3-29 lines (90%), 100-399 lines (9%) or 2000-3999 lines (1%)
SIZE_CLASSES = (("small", 30, 0.90), ("medium", 400, 0.09), ("large", None, 0.01))

# update delta, as shares of the base corpus
CHANGED_SHARE = 0.05
REMOVED_SHARE = 0.02
ADDED_SHARE = 0.03

# lookup subject mix: hot entity ids, cold entity ids, file_ref subjects,
# subjects absent from the store
LOOKUP_MIX = (("hot", 0.40), ("cold", 0.25), ("file_ref", 0.25), ("miss", 0.10))
HOT_SHARE = 0.1   # top tenth of entity ids by triple count are "hot"


def catalog_pairs(seed: int) -> list:
    return sorted(build_catalog(seed).surface2label.items())


def _size_class(content: str) -> str:
    n_lines = content.count("\n") + 1
    for name, upper, _share in SIZE_CLASSES:
        if upper is None or n_lines < upper:
            return name
    raise AssertionError("unreachable")


class RowSource:
    """Draws generator rows in index order and hands them out per size
    class, skipping any (repo, path) already handed out so that every
    document key stays unique."""

    def __init__(self, seed: int, n_hint: int):
        self.seed = seed
        self.n_hint = n_hint
        self.surfaces = catalog_pairs(seed)
        self.next_index = 0
        self.pending: dict[str, list[dict]] = {c[0]: [] for c in SIZE_CLASSES}
        self.seen: set[tuple[str, str]] = set()

    def take(self, size_class: str) -> dict:
        queue = self.pending[size_class]
        while not queue:
            row, _planted, _events = _gen_row(self.seed, self.next_index,
                                              self.surfaces, self.n_hint)
            self.next_index += 1
            key = (row["repo"], row["path"])
            if key in self.seen:
                continue
            self.seen.add(key)
            self.pending[_size_class(row["content"])].append(row)
        return queue.pop(0)

    def take_mix(self, n: int) -> list[dict]:
        """``n`` rows with the size classes at their exact shares, in a
        seeded order."""
        counts = [round(n * share) for _name, _upper, share in SIZE_CLASSES]
        counts[0] = n - sum(counts[1:])
        rows = [self.take(name)
                for (name, _upper, _share), k in zip(SIZE_CLASSES, counts)
                for _ in range(k)]
        random.Random(f"{self.seed}|order|{n}").shuffle(rows)
        return rows


def _commit(seed: int, repo: str, path: str, version: int) -> str:
    return hashlib.sha256(f"{seed}|{repo}|{path}|v{version}".encode()).hexdigest()[:40]


def make_corpora(seed: int, n_docs: int) -> tuple[list[dict], list[dict], dict]:
    """Base corpus rows, new corpus rows and the delta counts.

    The new corpus drops ``REMOVED_SHARE`` of the base documents, gives
    ``CHANGED_SHARE`` of them new content under a new commit (same repo,
    path and language — a file edited in place) and adds ``ADDED_SHARE``
    new documents, so an incremental update runs all three branches."""
    src = RowSource(seed, n_docs)
    base = src.take_mix(n_docs)
    rng = random.Random(f"{seed}|delta")
    order = list(range(n_docs))
    rng.shuffle(order)
    n_removed = round(n_docs * REMOVED_SHARE)
    n_changed = round(n_docs * CHANGED_SHARE)
    removed = set(order[:n_removed])
    changed = set(order[n_removed:n_removed + n_changed])
    new = []
    for i, row in enumerate(base):
        if i in removed:
            continue
        if i in changed:
            donor = src.take(_size_class(row["content"]))
            row = dict(row, content=donor["content"],
                       commit=_commit(seed, row["repo"], row["path"], 2))
        new.append(row)
    added = src.take_mix(round(n_docs * ADDED_SHARE))
    new.extend(added)
    delta = {"docs_removed": n_removed, "docs_changed": n_changed,
             "docs_added": len(added)}
    return base, new, delta


def write_corpus(rows: list[dict], out_dir: str, num_files: int = 4) -> str:
    """Write rows as a directory of Parquet shards, the layout the program
    reads."""
    os.makedirs(out_dir)
    table = pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)
    per = -(-len(rows) // num_files)
    for k in range(num_files):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(out_dir, f"part-{k:05d}.parquet"))
    return out_dir


def lookup_mix(seed: int, subj_counts: dict[str, int], n: int) -> list[str]:
    """A seeded sequence of ``n`` lookup subjects drawn from the store's
    subjects (``subj -> triple count``) by ``LOOKUP_MIX``. Entity ids are
    16 hex characters; file_ref subjects are ``repo:path@commit``."""
    rng = random.Random(f"{seed}|lookup")
    entities = sorted(s for s in subj_counts if "@" not in s)
    entities.sort(key=lambda s: -subj_counts[s])
    n_hot = max(1, int(len(entities) * HOT_SHARE))
    pools = {
        "hot": entities[:n_hot],
        "cold": entities[n_hot:],
        "file_ref": sorted(s for s in subj_counts if "@" in s),
    }
    kinds = [k for k, _share in LOOKUP_MIX]
    weights = [share for _k, share in LOOKUP_MIX]
    out = []
    for kind in rng.choices(kinds, weights, k=n):
        if kind == "miss":
            # same shape as an entity id, absent from the store
            out.append(hashlib.sha256(f"{seed}|miss|{rng.random()}".encode())
                       .hexdigest()[:16])
        else:
            out.append(rng.choice(pools[kind]))
    return out
