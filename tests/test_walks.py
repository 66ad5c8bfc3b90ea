"""ops/walks.py: deterministic random walks, multi-source BFS hop
distances, common-neighbor link prediction. Each op is pinned against an
independent pure-python reference on a micro graph (the reference
re-derives adjacency and the sha256 choice key itself — no shared code),
plus partitioning-invariance and hub/empty/int-key edge cases."""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pytest

from ccnerx_ray.ops.walks import (bfs_distances, common_neighbor_pairs,
                                  random_walks)

EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "e"),
         ("e", "f"), ("b", "f"), ("g", "h")]


def _edges_ds(rows, parallelism=1):
    import ray.data
    t = pa.table({"u": [r[0] for r in rows], "v": [r[1] for r in rows]})
    ds = ray.data.from_arrow(t)
    return ds.repartition(parallelism) if parallelism > 1 else ds


def _adj(rows):
    adj: dict = {}
    for u, v in rows:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _ref_walks(rows, length, salt="walk"):
    adj = _adj(rows)

    def key(wid, t, n):
        return (hashlib.sha256(
            f"{salt}:{wid}:{t}:{n}".encode()).hexdigest()[:15] + str(n))

    out = []
    for start in sorted(adj):
        cur = start
        out.append((start, 0, start))
        for t in range(1, length + 1):
            cur = min(adj[cur], key=lambda n: key(start, t, n))
            out.append((start, t, cur))
    return sorted(out)


def _ref_bfs(rows, seeds, max_depth):
    adj = _adj(rows)
    dist = {s: 0 for s in seeds}
    frontier = set(seeds)
    for d in range(1, max_depth + 1):
        nxt = set()
        for node in frontier:
            for n in adj.get(node, ()):
                if n not in dist:
                    dist[n] = d
                    nxt.add(n)
        frontier = nxt
    return sorted(dist.items())


def _ref_cn(rows, top_n):
    adj = _adj(rows)
    edges = {tuple(sorted(e)) for e in rows}
    from collections import Counter
    cn: Counter = Counter()
    for m, ns in adj.items():
        ns = sorted(ns)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                cn[(ns[i], ns[j])] += 1
    cand = [(x, y, c) for (x, y), c in cn.items()
            if (x, y) not in edges]
    cand.sort(key=lambda r: (-r[2], r[0], r[1]))
    return cand[:top_n]


def test_walks_match_reference(ray_session):
    got = random_walks(_edges_ds(EDGES), length=4).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_walks(EDGES, 4)


def test_walks_partitioning_invariance(ray_session):
    a = random_walks(_edges_ds(EDGES, 1), length=3).to_pandas()
    b = random_walks(_edges_ds(EDGES * 2, 5), length=3).to_pandas()
    key = ["walk_id", "step"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True))


def test_walks_never_dead_end_and_stay_adjacent(ray_session):
    got = random_walks(_edges_ds(EDGES), length=5).to_pandas()
    adj = _adj(EDGES)
    n_nodes = len(adj)
    assert len(got) == n_nodes * 6          # every walk runs full length
    bywalk = got.sort_values("step").groupby("walk_id")["node"]
    for wid, nodes in bywalk:
        seq = nodes.tolist()
        assert seq[0] == wid
        for a, b in zip(seq, seq[1:]):
            assert b in adj[a]


def test_walks_int_keys(ray_session):
    rows = [(1, 2), (2, 3), (1, 3), (3, 4)]
    got = random_walks(_edges_ds(rows), length=3).to_pandas()
    assert got["node"].dtype == "int64" and got["walk_id"].dtype == "int64"
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_walks(rows, 3)


def test_walks_empty(ray_session):
    import ray.data
    empty = ray.data.from_arrow(pa.table(
        {"u": pa.array([], pa.string()), "v": pa.array([], pa.string())}))
    got = random_walks(empty, length=3)
    assert got.count() == 0
    assert set(got.schema().names) == {"walk_id", "step", "node"}


def test_bfs_matches_reference(ray_session):
    import ray.data
    seeds = ["a", "g"]
    got = bfs_distances(
        _edges_ds(EDGES),
        ray.data.from_arrow(pa.table({"entity": seeds})),
        max_depth=3).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_bfs(EDGES, seeds, 3)


def test_bfs_early_stop_and_unreachable(ray_session):
    import ray.data
    # component {g,h} unreachable from a; frontier empties before depth 9
    got = bfs_distances(
        _edges_ds(EDGES),
        ray.data.from_arrow(pa.table({"entity": ["a"]})),
        max_depth=9).to_pandas()
    d = dict(zip(got.entity, got.dist))
    assert "g" not in d and "h" not in d
    assert d == dict(_ref_bfs(EDGES, ["a"], 9))


def test_bfs_seed_not_in_graph(ray_session):
    import ray.data
    got = bfs_distances(
        _edges_ds(EDGES),
        ray.data.from_arrow(pa.table({"entity": ["zzz"]})),
        max_depth=2).to_pandas()
    # set semantics match the SQL anchor: the seed appears at dist 0
    assert sorted(map(tuple, got.itertuples(index=False))) == [("zzz", 0)]


def test_bfs_partitioning_invariance(ray_session):
    import ray.data
    seeds = ray.data.from_arrow(pa.table({"entity": ["a", "a", "g"]}))
    a = bfs_distances(_edges_ds(EDGES, 1), seeds, max_depth=3).to_pandas()
    b = bfs_distances(_edges_ds(EDGES * 3, 6), seeds,
                      max_depth=3).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("entity").reset_index(drop=True),
        b.sort_values("entity").reset_index(drop=True))


def test_bfs_empty_keeps_seed_dtype(ray_session):
    import ray.data
    empty = ray.data.from_arrow(pa.table(
        {"u": pa.array([], pa.string()), "v": pa.array([], pa.string())}))
    seeds = ray.data.from_arrow(pa.table({"entity": pa.array([], pa.int64())}))
    got = bfs_distances(empty, seeds, max_depth=2)
    assert got.count() == 0
    assert got.schema().base_schema.field("entity").type == pa.int64()


def test_cn_matches_reference(ray_session):
    got = common_neighbor_pairs(_edges_ds(EDGES), top_n=25).to_pandas()
    assert list(map(tuple, got.itertuples(index=False))) == \
        _ref_cn(EDGES, 25)


def test_cn_top_n_cut_deterministic(ray_session):
    full = _ref_cn(EDGES, 100)
    assert len(full) > 2
    got = common_neighbor_pairs(_edges_ds(EDGES), top_n=2).to_pandas()
    assert list(map(tuple, got.itertuples(index=False))) == full[:2]


def test_cn_hub_cap_bounds_wedges(ray_session):
    # planted star: hub h connected to 40 spokes → exact wedges C(40,2);
    # max_degree=5 keeps only C(5,2) per the explicit-truncation contract
    rows = [("h", f"s{i:02d}") for i in range(40)]
    exact = common_neighbor_pairs(_edges_ds(rows), top_n=1000).to_pandas()
    assert len(exact) == 40 * 39 // 2
    capped = common_neighbor_pairs(_edges_ds(rows), top_n=1000,
                                   max_degree=5).to_pandas()
    assert len(capped) == 5 * 4 // 2
    # the kept pairs are among the smallest spoke ids (deterministic cut)
    assert set(capped["x"]).union(capped["y"]) <= {f"s{i:02d}"
                                                   for i in range(5)}


def test_cn_empty(ray_session):
    import ray.data
    empty = ray.data.from_arrow(pa.table(
        {"u": pa.array([], pa.string()), "v": pa.array([], pa.string())}))
    got = common_neighbor_pairs(empty, top_n=5)
    assert got.count() == 0


def test_cn_reversed_edges_stay_adjacent(ray_session):
    """An edge listed as (v, u) with v > u is still an edge: its pair must
    not leak into the non-adjacent ranking."""
    rev = [(v, u) for u, v in EDGES]
    got = common_neighbor_pairs(_edges_ds(rev), top_n=25).to_pandas()
    assert list(map(tuple, got.itertuples(index=False))) == _ref_cn(EDGES, 25)


@pytest.mark.parametrize("dup", [1, 3])
def test_cn_duplicate_edges_ignored(ray_session, dup):
    a = common_neighbor_pairs(_edges_ds(EDGES * dup), top_n=25).to_pandas()
    assert list(map(tuple, a.itertuples(index=False))) == _ref_cn(EDGES, 25)


def _ref_skipgram(rows, length, window):
    from collections import Counter
    walks = _ref_walks(rows, length)
    bywalk: dict = {}
    for wid, step, node in walks:
        bywalk.setdefault(wid, {})[step] = node
    cnt: Counter = Counter()
    for wid, steps in bywalk.items():
        for i, a in steps.items():
            for j, b in steps.items():
                if i != j and abs(i - j) <= window:
                    cnt[(a, b)] += 1
    return sorted((c, x, n) for (c, x), n in cnt.items())


def test_skipgram_matches_reference(ray_session):
    from ccnerx_ray.ops.walks import skipgram_pairs
    w = random_walks(_edges_ds(EDGES), length=4)
    got = skipgram_pairs(w, window=2).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_skipgram(EDGES, 4, 2)


def test_skipgram_partitioning_invariance(ray_session):
    from ccnerx_ray.ops.walks import skipgram_pairs
    a = skipgram_pairs(random_walks(_edges_ds(EDGES, 1), length=3),
                       window=2).to_pandas()
    b = skipgram_pairs(
        random_walks(_edges_ds(EDGES * 2, 5), length=3).repartition(7),
        window=2).to_pandas()
    key = ["center", "context"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True))


def test_skipgram_window_one_is_adjacent_transitions(ray_session):
    from ccnerx_ray.ops.walks import skipgram_pairs
    w = random_walks(_edges_ds(EDGES), length=4)
    got = skipgram_pairs(w, window=1).to_pandas()
    # window-1 totals = 2 pairs per step transition = 2·L per walk
    n_nodes = len(_adj(EDGES))
    assert got["n_pairs"].sum() == 2 * 4 * n_nodes
    assert got.equals(got.drop_duplicates(["center", "context"]))


# --- ppr_int / node_triangle_counts (ops/graph.py additions living with
# the traversal family's fixtures) ---

def _ref_ppr(rows, seeds, iterations):
    adj = _adj(rows)
    deg = {n: len(adj[n]) for n in adj}
    pr = {n: (1_000_000 if n in seeds else 0) for n in adj}
    for _ in range(iterations):
        s = {n: 0 for n in adj}
        for u in adj:
            c = pr[u] // deg[u]
            for v in adj[u]:
                s[v] += c
        pr = {n: (150_000 if n in seeds else 0) + (17 * s[n]) // 20
              for n in adj}
    return sorted((n, deg[n], pr[n]) for n in adj)


def _ref_node_triangles(rows):
    adj = _adj(rows)
    out = []
    for v in adj:
        ns = sorted(adj[v])
        t = sum(1 for i in range(len(ns)) for j in range(i + 1, len(ns))
                if ns[j] in adj[ns[i]])
        out.append((v, len(adj[v]), t))
    return sorted(out)


def test_ppr_matches_integer_reference(ray_session):
    import ray.data
    from ccnerx_ray.ops.graph import ppr_int
    seeds = ray.data.from_arrow(pa.table({"entity": ["a", "g", "zzz"]}))
    got = ppr_int(_edges_ds(EDGES), seeds, iterations=3).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_ppr(EDGES, {"a", "g", "zzz"}, 3)


def test_ppr_zero_rows_are_meaningful(ray_session):
    import ray.data
    from ccnerx_ray.ops.graph import ppr_int
    # seed in {g,h}: the other component gets rows with ppr_micro == 0
    seeds = ray.data.from_arrow(pa.table({"entity": ["g"]}))
    got = ppr_int(_edges_ds(EDGES), seeds, iterations=2).to_pandas()
    d = dict(zip(got.node, got.ppr_micro))
    assert d["a"] == 0 and d["g"] > 0 and d["h"] > 0
    assert len(got) == len(_adj(EDGES))


def test_ppr_partitioning_invariance(ray_session):
    import ray.data
    from ccnerx_ray.ops.graph import ppr_int
    seeds = ray.data.from_arrow(pa.table({"entity": ["b", "b", "e"]}))
    a = ppr_int(_edges_ds(EDGES, 1), seeds, iterations=3).to_pandas()
    b = ppr_int(_edges_ds(EDGES, 5), seeds, iterations=3).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("node").reset_index(drop=True),
        b.sort_values("node").reset_index(drop=True))


def test_ppr_oracle_sql_parity(ray_session):
    import duckdb
    import ray.data
    from ccnerx_ray.ops.graph import ppr_int, ppr_oracle_sql
    con = duckdb.connect()
    vals = ", ".join(f"('{u}', '{v}')" for u, v in EDGES)
    edge_sql = f"SELECT u, v FROM (VALUES {vals}) AS t(u, v)"
    seeds_sql = "SELECT 'a' AS node UNION ALL SELECT 'g'"
    exp = con.execute(ppr_oracle_sql(edge_sql, seeds_sql, 3)).df()
    seeds = ray.data.from_arrow(pa.table({"entity": ["a", "g"]}))
    got = ppr_int(_edges_ds(EDGES), seeds, iterations=3).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True),
        exp.sort_values("node").reset_index(drop=True))


def test_node_triangles_match_reference(ray_session):
    from ccnerx_ray.ops.graph import node_triangle_counts
    got = node_triangle_counts(_edges_ds(EDGES)).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_node_triangles(EDGES)


def test_node_triangles_clique_and_dups(ray_session):
    from ccnerx_ray.ops.graph import node_triangle_counts
    k5 = [(f"n{i}", f"n{j}") for i in range(5) for j in range(i + 1, 5)]
    got = node_triangle_counts(_edges_ds(k5 * 3, 4)).to_pandas()
    # K5: every node sits in C(4,2) = 6 triangles, degree 4
    assert set(got.n_triangles) == {6} and set(got.degree) == {4}
    assert len(got) == 5


def test_node_triangles_global_consistency(ray_session):
    from ccnerx_ray.ops.graph import node_triangle_counts, triangle_count
    got = node_triangle_counts(_edges_ds(EDGES)).to_pandas()
    total = triangle_count(_edges_ds(EDGES))
    assert got.n_triangles.sum() == 3 * total   # each tri has 3 corners


def test_node_triangles_int_keys(ray_session):
    from ccnerx_ray.ops.graph import node_triangle_counts
    rows = [(1, 2), (2, 3), (1, 3), (3, 4)]
    got = node_triangle_counts(_edges_ds(rows)).to_pandas()
    assert got["entity"].dtype == "int64"
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_node_triangles(rows)


def test_walks_scale_shape(ray_session):
    """Scale evidence (the 1.2M-node CC test's sibling): a 40k-node /
    120k-edge random graph walks to completion with the walk corpus
    exactly |V|·(L+1) rows — no dead ends, no dropped walks, every
    step present for every start (checked via a distributed per-step
    group count, never a driver collect); edge-adjacency of every
    transition is pinned by the micro-graph reference tests above."""
    import numpy as np
    import ray.data
    from ccnerx_ray.ops.walks import random_walks

    rng = np.random.default_rng(11)
    n, m = 40_000, 120_000
    u = rng.integers(0, n, m, dtype=np.int64)
    v = (u + 1 + rng.integers(0, n - 1, m, dtype=np.int64)) % n
    # ring edges guarantee every node appears
    ring_u = np.arange(n, dtype=np.int64)
    ring_v = (ring_u + 1) % n
    edges = ray.data.from_arrow(pa.table({
        "u": np.concatenate([u, ring_u]),
        "v": np.concatenate([v, ring_v])})).repartition(16)
    L = 3
    walks = random_walks(edges, length=L).materialize()
    assert walks.count() == n * (L + 1)
    # per-step completeness without collecting the corpus: group sizes
    per_step = walks.groupby("step").count().to_pandas()
    assert sorted(per_step["count()"]) == [n] * (L + 1)


def _ref_weighted_walks(rows, length, salt="wwalk"):
    adj: dict = {}
    for u, v, w in rows:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    for k in adj:
        adj[k] = sorted(adj[k])

    def nxt(wid, t, cur):
        ns = adj[cur]
        tot = sum(w for _, w in ns)
        r = (int.from_bytes(hashlib.sha256(
            f"{salt}:{wid}:{t}".encode()).digest()[:8], "big") >> 4) % tot
        cum = 0
        for n, w in ns:
            cum += w
            if cum > r:
                return n
        raise AssertionError("unreachable")

    out = []
    for s0 in sorted(adj):
        cur = s0
        out.append((s0, 0, s0))
        for t in range(1, length + 1):
            cur = nxt(s0, t, cur)
            out.append((s0, t, cur))
    return sorted(out)


WEDGES = [("a", "b", 3), ("b", "c", 1), ("a", "c", 5), ("c", "d", 2),
          ("d", "e", 7), ("b", "e", 4)]


def _wedges_ds(rows, parallelism=1):
    import ray.data
    t = pa.table({"u": [r[0] for r in rows], "v": [r[1] for r in rows],
                  "w": [r[2] for r in rows]})
    ds = ray.data.from_arrow(t)
    return ds.repartition(parallelism) if parallelism > 1 else ds


def test_weighted_walks_match_reference(ray_session):
    got = random_walks(_wedges_ds(WEDGES), length=4, salt="wwalk",
                       weight_col="w").to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_weighted_walks(WEDGES, 4)


def test_weighted_walks_duplicate_rows_sum(ray_session):
    # (a,b,2)+(a,b,1) must equal (a,b,3): duplicates aggregate by SUM
    split = [("a", "b", 2), ("a", "b", 1)] + WEDGES[1:]
    a = random_walks(_wedges_ds(WEDGES), length=3, salt="wwalk",
                     weight_col="w").to_pandas()
    b = random_walks(_wedges_ds(split, 4), length=3, salt="wwalk",
                     weight_col="w").to_pandas()
    key = ["walk_id", "step"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True))


def test_weighted_walks_heavy_edge_dominates(ray_session):
    # star with one overwhelming edge: h—big has weight 10_000, the
    # 9 others weight 1 → the step-1 hop from h lands on 'big' unless
    # the 60-bit draw falls in the tiny 9/10009 tail; check the exact
    # inverse-CDF choice matches the reference (which may BE the tail)
    rows = [("h", "big", 10_000)] + [("h", f"s{i}", 1) for i in range(9)]
    got = random_walks(_wedges_ds(rows), length=1, salt="wwalk",
                       weight_col="w").to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_weighted_walks(rows, 1)
    step1 = got[(got.walk_id == "h") & (got.step == 1)]["node"].iloc[0]
    assert step1 == "big"     # deterministic for this salt/graph


def test_weighted_walks_rejects_nonpositive(ray_session):
    import pytest as _pytest
    rows = [("a", "b", 0), ("b", "c", 1)]
    with _pytest.raises(Exception):
        random_walks(_wedges_ds(rows), length=1,
                     weight_col="w").materialize()


def _ref_node2vec(rows, length, wp, w1, wq, salt="n2v"):
    adj: dict = {}
    E = set()
    for u, v in rows:
        E.add((min(u, v), max(u, v)))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def nxt(wid, t, prev, cur):
        ns = sorted(adj[cur])
        ws = []
        for n in ns:
            if prev is None:
                w = 1
            elif n == prev:
                w = wp
            elif (min(prev, n), max(prev, n)) in E:
                w = w1
            else:
                w = wq
            ws.append(w)
        tot = sum(ws)
        r = (int.from_bytes(hashlib.sha256(
            f"{salt}:{wid}:{t}".encode()).digest()[:8], "big") >> 4) % tot
        cum = 0
        for n, w in zip(ns, ws):
            cum += w
            if cum > r:
                return n
        raise AssertionError("unreachable")

    out = []
    for s0 in sorted(adj):
        prev, cur = None, s0
        out.append((s0, 0, s0))
        for t in range(1, length + 1):
            nn = nxt(s0, t, prev, cur)
            out.append((s0, t, nn))
            prev, cur = cur, nn
    return sorted(out)


N2V_EDGES = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"),
             ("b", "e")]


def test_node2vec_matches_reference(ray_session):
    from ccnerx_ray.ops.walks import node2vec_walks
    got = node2vec_walks(_edges_ds(N2V_EDGES), length=4, w_return=1,
                         w_common=4, w_far=2).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == \
        _ref_node2vec(N2V_EDGES, 4, 1, 4, 2)


def test_node2vec_weights_change_paths(ray_session):
    from ccnerx_ray.ops.walks import node2vec_walks
    a = node2vec_walks(_edges_ds(N2V_EDGES), length=4, w_return=1,
                       w_common=4, w_far=2).to_pandas()
    b = node2vec_walks(_edges_ds(N2V_EDGES), length=4, w_return=9,
                       w_common=1, w_far=1).to_pandas()
    # strongly-returning walks differ from exploring ones somewhere,
    # and BOTH match their own exact references
    assert sorted(map(tuple, b.itertuples(index=False))) == \
        _ref_node2vec(N2V_EDGES, 4, 9, 1, 1)
    assert not a.sort_values(["walk_id", "step"]).reset_index(drop=True) \
        .equals(b.sort_values(["walk_id", "step"]).reset_index(drop=True))


def test_node2vec_partitioning_invariance(ray_session):
    from ccnerx_ray.ops.walks import node2vec_walks
    a = node2vec_walks(_edges_ds(N2V_EDGES, 1), length=3).to_pandas()
    b = node2vec_walks(_edges_ds(N2V_EDGES * 3, 5), length=3).to_pandas()
    key = ["walk_id", "step"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True))


def test_node2vec_rejects_bad_weights(ray_session):
    from ccnerx_ray.ops.walks import node2vec_walks
    with pytest.raises(ValueError):
        node2vec_walks(_edges_ds(N2V_EDGES), w_return=0)
    with pytest.raises(ValueError):
        node2vec_walks(_edges_ds(N2V_EDGES), w_far=-1)
