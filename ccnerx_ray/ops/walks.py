"""Graph traversal primitives over an undirected edge Dataset: seeded
deterministic random walks (the DeepWalk/node2vec training-corpus
generator — the skip-gram-over-walks prep that pairs with
``ops/negatives.py``'s TransE-style negative sampling to complete the
KG-embedding data story), multi-source BFS hop distances (the
"neighborhood radius" query a KG store serves), and common-neighbor
link prediction (the classic KG-completion candidate scorer).

Every op is built from the proven distributed pieces — ``adaptive_join``
(broadcast under the byte bound, hash-partitioned beyond),
``coarse_grouped`` / ``grouped_reduce`` keyed shuffles, per-block
lossless top-n partials — and every choice is derandomized through the
repo's sha256-prefix arithmetic so the SQL oracle can replicate it
EXACTLY (the ``hash_split`` / ``kg_negatives`` contract: the hex prefix
of ``sha256(salt:…)`` compares identically as a string in Python and
DuckDB).

Scale notes (100 TB framing):
* walk state is ``|V| × (walk_id, node)`` — node-scale, never
  corpus-scale; each step is ONE join against the symmetrized edge
  table (probe side, streaming) with the frontier as the build side
  (broadcast under the byte bound, hash join beyond) plus one keyed
  argmin shuffle whose volume is Σ deg(frontier) rows of small ids.
* BFS frontiers shrink monotonically (visited anti-join); rounds are
  capped by ``max_depth``, and the per-round ``count()`` is a scalar on
  an already-materialized node-scale Dataset, not a corpus collect.
* common-neighbor wedge volume is Σ deg(m)² — the same explicit-skew
  surface as ``two_hop_counts``; the ``max_degree`` hub cap (counted
  into the run metrics, never silent) bounds it on hub-heavy graphs.

Reference anchor: the reference repo has no graph ops at all (a PyTorch
NER codebase); these exist because the north star is a KG store and
walks/distances/link-prediction are the downstream workloads such a
store feeds (DeepWalk: Perozzi et al. 2014; common-neighbors:
Liben-Nowell & Kleinberg 2007 baseline).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ccnerx_ray.ops.graph import encode_pair_key, symmetrize


def _node_dtype(ds, col: str) -> str:
    sch = ds.schema()
    t = dict(zip(sch.names, sch.types)).get(col)
    if isinstance(t, pa.DataType):
        return "int64" if pa.types.is_integer(t) else "string"
    try:
        return ("int64" if t is not None
                and np.issubdtype(t, np.integer) else "string")
    except TypeError:
        return "string"


def _typed_empty_ds(cols: dict[str, str]):
    import ray.data
    arrow = {n: pa.array([], pa.int64() if d == "int64" else pa.string())
             for n, d in cols.items()}
    return ray.data.from_arrow(pa.table(arrow))


def _dedup_sym(edges, src_col: str, dst_col: str, num_buckets: int):
    """Shared prologue: dedup the edge list, detect emptiness/dtype,
    return ``(deduped_edges, sym, node_dtype, edge_bytes)`` with the
    deduped edges materialized (they are reused as anti-join sides and
    as the symmetrize input)."""
    from ccnerx_ray.functions.grouping import drop_duplicate_rows

    dt = _node_dtype(edges, src_col)
    ded = drop_duplicate_rows(edges, [src_col, dst_col],
                              num_buckets=num_buckets).materialize()
    if ded.schema() is None:        # empty graph
        return ded, None, dt, 0
    ebytes = ded.size_bytes() or 0
    return ded, symmetrize(ded, src_col, dst_col), dt, ebytes


def _hex15_plus(salt: str, wids, steps: int, nbrs) -> list[str]:
    """Per-row deterministic choice key: ``sha256hex(f"{salt}:{wid}:
    {step}:{nbr}")[:15] + str(nbr)`` — the 60-bit hex prefix compares
    identically as a string in Python and DuckDB (same fixed length,
    same alphabet), and the node suffix makes the min an argmin.
    One C-speed hashlib call per candidate row remains (the hash_split
    compromise, accepted in ADVICE r4: inputs are unique per row, so
    no cache applies and the sha256 itself must match the SQL oracle)."""
    t = str(steps)
    return [
        hashlib.sha256(
            f"{salt}:{w}:{t}:{n}".encode("utf-8")).hexdigest()[:15]
        + str(n)
        for w, n in zip(wids, nbrs)
    ]


def symmetrize_weighted(edges, src_col: str, dst_col: str,
                        weight_col: str):
    """Weighted sibling of :func:`ccnerx_ray.ops.graph.symmetrize`:
    each (u, v, w) also emitted as (v, u, w)."""
    def both(batch: pa.Table) -> pa.Table:
        u, v = batch.column(src_col), batch.column(dst_col)
        w = batch.column(weight_col)
        return pa.concat_tables([
            pa.table({src_col: u, dst_col: v, weight_col: w}),
            pa.table({src_col: v, dst_col: u, weight_col: w})])

    return edges.map_batches(both, batch_format="pyarrow")


def random_walks(edges, *, length: int = 4, salt: str = "walk",
                 src_col: str = "u", dst_col: str = "v",
                 weight_col: str | None = None,
                 num_buckets: int = 64):
    """One deterministic walk of ``length`` steps from EVERY node of the
    undirected graph (the standard DeepWalk corpus: walks-per-node × 1,
    extendable by varying ``salt``).

    UNWEIGHTED (``weight_col=None``): step ``t`` moves from ``cur`` to
    the neighbor ``n`` minimizing ``sha256(f"{salt}:{walk_id}:{t}:{n}")
    [:15] + str(n)`` — uniform-ish over neighbors, independent across
    steps/walks, and EXACTLY reproducible in SQL (recursive CTE +
    ``arg_min`` over the same concat; see the ``kg_walks`` oracle).

    WEIGHTED (``weight_col`` names a positive-int64 edge column): the
    next hop is drawn ∝ edge weight by exact integer inverse-CDF —
    ``r = sha256(f"{salt}:{walk_id}:{t}")[:15-hex] % Σw(cur)``, then the
    first neighbor (ordered by id) whose cumulative weight exceeds
    ``r``. One hash per (walk, step) — not per candidate — and every
    operation is integer, so the SQL mirror (window cumsum in a
    correlated subquery; see the ``kg_walks_weighted`` oracle) is
    bit-exact. Duplicate (u, v) rows are aggregated by SUMMING weights
    (the natural construction when weight = co-occurrence support
    count); weights must be ≥ 1 — a zero-total node would make the
    modulus undefined (asserted loudly).

    Returns ``(walk_id, step, node)`` rows, ``step ∈ [0, length]``,
    ``walk_id`` = the start node. Symmetrized-graph guarantee: every
    node that appears in an edge has ≥1 neighbor, so walks never
    dead-end; isolated nodes don't appear (they have no edge row).

    Distributed shape per step: ``sym ⋈ frontier`` (edge table is the
    streaming probe side; the node-scale frontier is the build side —
    broadcast under ``adaptive_join``'s byte bound, hash join beyond),
    then ONE keyed choice shuffle over Σ deg(frontier) candidate rows.
    The frontier is materialized per step (node-scale by construction —
    |V| rows of two ids; never corpus-scale)."""
    from ccnerx_ray.functions.grouping import (coarse_grouped,
                                               drop_duplicate_rows,
                                               grouped_reduce)
    from ccnerx_ray.ops.join import adaptive_join

    out_d = {"walk_id": None, "step": "int64", "node": None}
    if weight_col is None:
        ded, sym, node_dt, ebytes = _dedup_sym(edges, src_col, dst_col,
                                               num_buckets)
    else:
        node_dt = _node_dtype(edges, src_col)
        ded = grouped_reduce(
            edges.select_columns([src_col, dst_col, weight_col]),
            [src_col, dst_col], {weight_col: "sum"},
            num_buckets=num_buckets,
            out_dtypes={src_col: node_dt, dst_col: node_dt,
                        weight_col: "int64"},
            pre_combine=True).materialize()
        sym = (None if ded.schema() is None
               else symmetrize_weighted(ded, src_col, dst_col,
                                        weight_col))
        ebytes = 0 if sym is None else (ded.size_bytes() or 0)
    out_d["walk_id"] = out_d["node"] = node_dt
    if sym is None:
        return _typed_empty_ds(out_d)
    sym = sym.materialize()          # reused `length` times

    def starts(batch: pa.Table) -> pa.Table:
        return pa.table({"walk_id": batch.column(src_col),
                         "node": batch.column(src_col)})

    frontier = drop_duplicate_rows(
        sym.map_batches(starts, batch_format="pyarrow"),
        ["walk_id", "node"], num_buckets=num_buckets).materialize()

    def emit(step: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "walk_id": batch.column("walk_id"),
                "step": pa.array(np.full(n, step, dtype=np.int64)),
                "node": batch.column("node")})
        return fn

    steps_out = [frontier.map_batches(emit(0), batch_format="pyarrow")]

    def edge_view(batch: pa.Table) -> pa.Table:
        cols = {"node": batch.column(src_col),
                "nbr": batch.column(dst_col)}
        if weight_col is not None:
            cols["w"] = batch.column(weight_col)
        return pa.table(cols)

    width = int(min(max(ebytes // (64 << 20), 8), num_buckets))
    for t in range(1, length + 1):
        cand = adaptive_join(
            sym.map_batches(edge_view, batch_format="pyarrow"),
            frontier, on="node", build_bytes_hint=frontier.size_bytes())

        def pick(g, _t=t):
            import pandas as pd
            best = _hex15_plus(salt, g["walk_id"].tolist(), _t,
                               g["nbr"].tolist())
            key = pd.Series(best, index=g.index)
            best = key.groupby(g["walk_id"], sort=False).min()
            nodes = best.str.slice(15)
            if node_dt == "int64":
                nodes = nodes.astype("int64")
            return pd.DataFrame({"walk_id": best.index.to_numpy(),
                                 "node": nodes.to_numpy()})

        def pick_weighted(g, _t=t):
            import pandas as pd
            g = g.sort_values(["walk_id", "nbr"], kind="mergesort")
            w = g["w"].to_numpy(np.int64)
            assert (w >= 1).all(), \
                "weighted walks require positive integer edge weights"
            grp = g.groupby("walk_id", sort=False)
            cum = grp["w"].cumsum().to_numpy(np.int64)
            tot = grp["w"].transform("sum").to_numpy(np.int64)
            # one 60-bit draw per (walk, step) — not per candidate
            wids = grp.size().index
            t_s = str(_t)
            rs = {wid: (int.from_bytes(
                hashlib.sha256(
                    f"{salt}:{wid}:{t_s}".encode("utf-8")).digest()[:8],
                "big") >> 4) for wid in wids}
            r = g["walk_id"].map(rs).to_numpy(np.int64) % tot
            hit = g[cum > r]
            first = hit.groupby("walk_id", sort=False).head(1)
            return pd.DataFrame({"walk_id": first["walk_id"].to_numpy(),
                                 "node": first["nbr"].to_numpy()})

        frontier = coarse_grouped(
            cand, ["walk_id"],
            pick if weight_col is None else pick_weighted,
            num_buckets=width,
            out_dtypes={"walk_id": node_dt, "node": node_dt},
        ).materialize()
        steps_out.append(
            frontier.map_batches(emit(t), batch_format="pyarrow"))

    return steps_out[0].union(*steps_out[1:])


def bfs_distances(edges, seeds, *, max_depth: int = 3,
                  src_col: str = "u", dst_col: str = "v",
                  seed_col: str = "entity", num_buckets: int = 64):
    """Multi-source BFS hop distance over the undirected graph: every
    node reachable from ``seeds`` within ``max_depth`` hops, with its
    exact minimum distance → ``(entity, dist)``. Seeds not present in
    the graph still appear at dist 0 (set semantics match the SQL
    recursive CTE: the anchor rows ARE the seed set).

    Distributed shape: per round, ``sym ⋈ frontier`` (edge table as the
    streaming probe, node-scale frontier as the build side), neighbor
    dedup, then ONE anti-join against the visited set — frontiers can
    only shrink, rounds are capped at ``max_depth``, and the per-round
    emptiness check is a ``count()`` on an already-materialized
    node-scale Dataset. ``seeds`` is a Dataset (single ``seed_col``
    column); duplicates tolerated."""
    from ccnerx_ray.functions.grouping import drop_duplicate_rows
    from ccnerx_ray.ops.join import adaptive_join

    out_d = {"entity": _node_dtype(seeds, seed_col), "dist": "int64"}
    ded, sym, node_dt, ebytes = _dedup_sym(edges, src_col, dst_col,
                                           num_buckets)
    if sym is not None:
        out_d["entity"] = node_dt   # graph dtype wins when edges exist

    def as_entity(batch: pa.Table) -> pa.Table:
        return pa.table({"entity": batch.column(seed_col)})

    frontier = drop_duplicate_rows(
        seeds.map_batches(as_entity, batch_format="pyarrow"),
        ["entity"], num_buckets=num_buckets).materialize()

    def with_dist(d: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "entity": batch.column("entity"),
                "dist": pa.array(np.full(n, d, dtype=np.int64))})
        return fn

    rounds = [frontier.map_batches(with_dist(0), batch_format="pyarrow")]
    if sym is None or frontier.schema() is None:
        return (rounds[0] if frontier.schema() is not None
                else _typed_empty_ds(out_d))
    sym = sym.materialize()
    visited = frontier

    for t in range(1, max_depth + 1):
        nbrs = adaptive_join(
            sym.map_batches(
                lambda b: pa.table({"entity": b.column(src_col),
                                    "nbr": b.column(dst_col)}),
                batch_format="pyarrow"),
            frontier, on="entity",
            build_bytes_hint=frontier.size_bytes())
        nxt = drop_duplicate_rows(
            nbrs.map_batches(
                lambda b: pa.table({"entity": b.column("nbr")}),
                batch_format="pyarrow"),
            ["entity"], num_buckets=num_buckets)
        new = adaptive_join(
            nxt, visited, on="entity", join_type="left_anti",
            build_bytes_hint=visited.size_bytes()).materialize()
        if new.count() == 0:
            break
        rounds.append(
            new.map_batches(with_dist(t), batch_format="pyarrow"))
        visited = visited.union(new).materialize()
        frontier = new

    out = rounds[0].union(*rounds[1:]) if len(rounds) > 1 else rounds[0]
    # pin the result schema: an int-keyed graph must emit int64 entities
    # even when a round produced empty blocks (the out_dtypes contract)
    import ray.data
    return out.union(ray.data.from_arrow(pa.table({
        "entity": pa.array([], pa.int64() if out_d["entity"] == "int64"
                           else pa.string()),
        "dist": pa.array([], pa.int64())})))


def common_neighbor_pairs(edges, *, top_n: int = 25,
                          max_degree: int | None = None,
                          src_col: str = "u", dst_col: str = "v",
                          num_buckets: int = 64):
    """Link prediction by common-neighbor count (Liben-Nowell &
    Kleinberg's strongest simple baseline): the ``top_n`` NON-adjacent
    node pairs sharing the most neighbors → ``(x, y, cn)``, ``x < y``,
    ordered by ``(cn DESC, x, y)`` — a total order, so the cut is
    deterministic. The exact-integer count needs no float anywhere.

    Distributed shape: wedge enumeration grouped by the middle node
    (``two_hop_counts``' stage) emits one ``(x, y)`` row per middle —
    rows per pair = distinct middles by construction, so a keyed SUM of
    ones is the exact common-neighbor count; an anti-join against the
    direct edges (collision-free length-prefixed pair key) removes
    adjacent pairs; per-block lossless top-n partials merge in one
    final blocks-scale cut (the ``assoc_top_pairs`` pattern — scoring
    is per-row, so the global top-n is a subset of the union of block
    top-ns). ``max_degree`` bounds hub wedge volume explicitly (counted
    into ``cn_wedges_truncated``; result becomes a lower bound)."""
    import pandas as pd

    from ccnerx_ray.functions.grouping import (coarse_grouped,
                                               grouped_reduce)
    from ccnerx_ray.ops.join import adaptive_join

    ded, sym, node_dt, ebytes = _dedup_sym(edges, src_col, dst_col,
                                           num_buckets)
    out_d = {"x": node_dt, "y": node_dt, "cn": "int64"}
    if sym is None:
        return _typed_empty_ds(out_d)
    width = int(min(max(ebytes // (64 << 20), 8), num_buckets))

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        from ccnerx_ray.state import metrics
        xs, ys = [], []
        truncated = 0
        for _, grp in g.groupby(src_col, sort=False):
            ns = np.unique(grp[dst_col].to_numpy())
            k = len(ns)
            if max_degree is not None and k > max_degree:
                truncated += k - max_degree
                ns = ns[:max_degree]     # smallest ids — deterministic
                k = max_degree
            if k < 2:
                continue
            iu = np.triu_indices(k, 1)
            xs.append(ns[iu[0]])
            ys.append(ns[iu[1]])
        if truncated:
            metrics.incr("cn_wedges_truncated", truncated)
        pd_dt = "int64" if node_dt == "int64" else "string"
        if not xs:
            return pd.DataFrame({"x": pd.Series(dtype=pd_dt),
                                 "y": pd.Series(dtype=pd_dt)})
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys)})

    wedges = coarse_grouped(sym, [src_col], wedge_pairs,
                            num_buckets=width,
                            out_dtypes={"x": node_dt, "y": node_dt})

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "cn", pa.array(np.ones(batch.num_rows, dtype=np.int64)))

    counts = grouped_reduce(
        wedges.map_batches(ones, batch_format="pyarrow"),
        ["x", "y"], {"cn": "sum"}, num_buckets=width,
        out_dtypes=out_d, pre_combine=True)

    def add_pk(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "pk", encode_pair_key(batch.column("x"), batch.column("y")))

    def edge_pk(batch: pa.Table) -> pa.Table:
        # canonical (min, max) key: counts rows have x < y, and an edge
        # may be listed either way round
        u, v = batch.column(src_col), batch.column(dst_col)
        return pa.table({"pk": encode_pair_key(pc.min_element_wise(u, v),
                                               pc.max_element_wise(u, v))})

    cand = adaptive_join(
        counts.map_batches(add_pk, batch_format="pyarrow"),
        ded.map_batches(edge_pk, batch_format="pyarrow"),
        on="pk", join_type="left_anti", build_bytes_hint=ebytes)

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        if "pk" in df.columns:
            df = df.drop(columns=["pk"])
        if not len(df):
            pd_dt = "int64" if node_dt == "int64" else "string"
            return pd.DataFrame({"x": pd.Series(dtype=pd_dt),
                                 "y": pd.Series(dtype=pd_dt),
                                 "cn": pd.Series(dtype="int64")})
        out = df.sort_values(["cn", "x", "y"],
                             ascending=[False, True, True],
                             kind="mergesort").head(top_n)
        return out[["x", "y", "cn"]].astype({"cn": "int64"})

    partials = cand.map_batches(topn, batch_format="pandas")
    # final cut: blocks-scale rows (n_blocks × top_n) in ONE block
    return partials.repartition(1).map_batches(
        lambda df: topn(df).reset_index(drop=True),
        batch_format="pandas")


def skipgram_pairs(walks, *, window: int = 2, num_buckets: int = 64):
    """Skip-gram (center, context) training pairs from a walk corpus —
    the step that turns :func:`random_walks` output into what a
    word2vec-style node-embedding trainer actually consumes (DeepWalk
    §4.2: walks are sentences, nodes are words). For every walk, every
    ordered pair of positions within ``window`` steps of each other
    (excluding distance 0) contributes one count → aggregated
    ``(center, context, n_pairs)``.

    Distributed shape: ONE coarse co-group on ``walk_id`` (each walk is
    ``length+1`` rows — pairs are generated vectorized across the whole
    coarse frame via sorted shift-compare, never a per-walk python
    loop), then the standard combiner-backed keyed count. Pair volume
    is ``≤ 2·window·Σ|walk|`` rows of two ids — linear in the walk
    corpus, never quadratic."""
    import pandas as pd

    from ccnerx_ray.functions.grouping import (coarse_grouped,
                                               grouped_reduce)

    sch = walks.schema()
    t = dict(zip(sch.names, sch.types)).get("node")
    node_dt = ("int64" if isinstance(t, pa.DataType)
               and pa.types.is_integer(t) else "string")
    out_d = {"center": node_dt, "context": node_dt, "n_pairs": "int64"}

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["walk_id", "step"], kind="mergesort")
        wid = g["walk_id"].to_numpy()
        node = g["node"].to_numpy()
        cs, xs = [], []
        for d in range(1, window + 1):
            same = wid[d:] == wid[:-d]
            # within one walk, steps are consecutive after the sort, so
            # a row and its d-th successor are exactly d steps apart
            a, b = node[:-d][same], node[d:][same]
            cs.append(a)
            xs.append(b)     # forward context
            cs.append(b)
            xs.append(a)     # backward context
        pd_dt = "int64" if node_dt == "int64" else "string"
        if not cs or not sum(len(c) for c in cs):
            return pd.DataFrame({"center": pd.Series(dtype=pd_dt),
                                 "context": pd.Series(dtype=pd_dt),
                                 "n_pairs": pd.Series(dtype="int64")})
        df = pd.DataFrame({"center": np.concatenate(cs),
                           "context": np.concatenate(xs)})
        return (df.groupby(["center", "context"], sort=False)
                .size().rename("n_pairs").reset_index())

    partials = coarse_grouped(walks, ["walk_id"], pairs,
                              num_buckets=num_buckets,
                              out_dtypes=out_d)
    return grouped_reduce(partials, ["center", "context"],
                          {"n_pairs": "sum"}, num_buckets=num_buckets,
                          out_dtypes=out_d, pre_combine=True)


def node2vec_walks(edges, *, length: int = 4, w_return: int = 1,
                   w_common: int = 4, w_far: int = 2,
                   salt: str = "n2v", src_col: str = "u",
                   dst_col: str = "v", num_buckets: int = 64):
    """SECOND-ORDER biased walks (node2vec, Grover & Leskovec 2016):
    the transition out of ``cur`` depends on the PREVIOUS node — each
    candidate neighbor is classed by its distance to ``prev`` (0 →
    ``w_return`` ≙ 1/p, 1 → ``w_common``, 2 → ``w_far`` ≙ 1/q; pass
    positive INTEGER class weights — any rational p/q scales to one)
    and drawn by the same exact integer inverse-CDF as the weighted
    first-order walk: ONE sha256 draw per (walk, step), id-ordered
    cumulative sum. Step 1 has no ``prev`` — every neighbor weighs 1
    (uniform, same rule as the SQL mirror's ``prev IS NULL`` branch).
    Edges must be canonical (``u < v``); duplicates tolerated.

    Distributed shape per step: the weighted walk's join + keyed choice
    shuffle, plus TWO membership joins (semi / anti against the
    canonical edge-pair keys) that class each candidate by whether
    ``(prev, nbr)`` is an edge — all on Σ deg(frontier) candidate rows,
    node-scale. Walk state carries ``(walk_id, prev, cur)``."""
    from ccnerx_ray.functions.grouping import (coarse_grouped,
                                               drop_duplicate_rows)
    from ccnerx_ray.ops.join import adaptive_join

    for name, w in (("w_return", w_return), ("w_common", w_common),
                    ("w_far", w_far)):
        if not (isinstance(w, int) and w >= 1):
            raise ValueError(f"{name} must be a positive integer")

    out_d = {"walk_id": None, "step": "int64", "node": None}
    ded, sym, node_dt, ebytes = _dedup_sym(edges, src_col, dst_col,
                                           num_buckets)
    out_d["walk_id"] = out_d["node"] = node_dt
    if sym is None:
        return _typed_empty_ds(out_d)
    sym = sym.materialize()
    pa_node = pa.int64() if node_dt == "int64" else pa.string()

    def canon_pk(x, y) -> pa.Array:
        xs = pc.cast(x, pa.string())
        ys = pc.cast(y, pa.string())
        return encode_pair_key(pc.min_element_wise(xs, ys),
                               pc.max_element_wise(xs, ys))

    edge_pks = ded.map_batches(
        lambda b: pa.table({"pk": canon_pk(b.column(src_col),
                                           b.column(dst_col))}),
        batch_format="pyarrow").materialize()
    pkbytes = edge_pks.size_bytes()

    def starts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"walk_id": batch.column(src_col),
                         "prev": pa.nulls(n, pa_node),
                         "node": batch.column(src_col)})

    frontier = drop_duplicate_rows(
        sym.map_batches(starts, batch_format="pyarrow"),
        ["walk_id", "node"], num_buckets=num_buckets).materialize()

    def emit(step: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "walk_id": batch.column("walk_id"),
                "step": pa.array(np.full(n, step, dtype=np.int64)),
                "node": batch.column("node")})
        return fn

    steps_out = [frontier.map_batches(emit(0), batch_format="pyarrow")]
    width = int(min(max(ebytes // (64 << 20), 8), num_buckets))

    def with_w(w: int, drop_pk: bool = False):
        def fn(batch: pa.Table) -> pa.Table:
            if drop_pk and "pk" in batch.column_names:
                batch = batch.drop_columns(["pk"])
            return batch.append_column(
                "w", pa.array(np.full(batch.num_rows, w,
                                      dtype=np.int64)))
        return fn

    for t in range(1, length + 1):
        cand = adaptive_join(
            sym.map_batches(
                lambda b: pa.table({"node": b.column(src_col),
                                    "nbr": b.column(dst_col)}),
                batch_format="pyarrow"),
            frontier, on="node", build_bytes_hint=frontier.size_bytes())

        def split_null(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_null(batch.column("prev")))

        def split_ret(batch: pa.Table) -> pa.Table:
            keep = pc.fill_null(pc.equal(batch.column("nbr"),
                                         batch.column("prev")), False)
            return batch.filter(keep)

        def split_rest(batch: pa.Table) -> pa.Table:
            keep = pc.and_(pc.is_valid(batch.column("prev")),
                           pc.fill_null(pc.not_equal(
                               batch.column("nbr"),
                               batch.column("prev")), True))
            b = batch.filter(keep)
            return b.append_column(
                "pk", canon_pk(b.column("prev"), b.column("nbr")))

        rest = cand.map_batches(split_rest, batch_format="pyarrow")
        weighted = (
            cand.map_batches(split_null, batch_format="pyarrow")
            .map_batches(with_w(1), batch_format="pyarrow")
            .union(
                cand.map_batches(split_ret, batch_format="pyarrow")
                .map_batches(with_w(w_return), batch_format="pyarrow"),
                adaptive_join(rest, edge_pks, on="pk",
                              join_type="left_semi",
                              build_bytes_hint=pkbytes)
                .map_batches(with_w(w_common, drop_pk=True),
                             batch_format="pyarrow"),
                adaptive_join(rest, edge_pks, on="pk",
                              join_type="left_anti",
                              build_bytes_hint=pkbytes)
                .map_batches(with_w(w_far, drop_pk=True),
                             batch_format="pyarrow")))

        def pick(g, _t=t):
            import pandas as pd
            g = g.sort_values(["walk_id", "nbr"], kind="mergesort")
            grp = g.groupby("walk_id", sort=False)
            cum = grp["w"].cumsum().to_numpy(np.int64)
            tot = grp["w"].transform("sum").to_numpy(np.int64)
            t_s = str(_t)
            rs = {wid: (int.from_bytes(
                hashlib.sha256(
                    f"{salt}:{wid}:{t_s}".encode("utf-8")).digest()[:8],
                "big") >> 4) for wid in grp.size().index}
            r = g["walk_id"].map(rs).to_numpy(np.int64) % tot
            first = g[cum > r].groupby("walk_id", sort=False).head(1)
            return pd.DataFrame({
                "walk_id": first["walk_id"].to_numpy(),
                "prev": first["node"].to_numpy(),    # cur becomes prev
                "node": first["nbr"].to_numpy()})

        frontier = coarse_grouped(
            weighted, ["walk_id"], pick, num_buckets=width,
            out_dtypes={"walk_id": node_dt, "prev": node_dt,
                        "node": node_dt},
        ).materialize()
        steps_out.append(
            frontier.map_batches(emit(t), batch_format="pyarrow"))

    return steps_out[0].union(*steps_out[1:])
