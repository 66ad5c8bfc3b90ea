"""Coarse hash-partitioned groupby — the scale workhorse for high-cardinality
grouped computation.

``Dataset.groupby(key).map_groups(fn)`` invokes ``fn`` once per DISTINCT
key; with millions of tiny groups the per-call overhead (a table slice + a
Python call each) dominates the useful work by 10-100×. The classic fix is
two-level grouping: shuffle on ``hash(key) % num_buckets`` (bounded,
balanced partition count) and run a VECTORIZED local groupby (pandas C
engine) inside each coarse group. Exactness is preserved — every row of a
true group lands in the same coarse group. Measured on the LSH bucket
stage: 16s → 1.6s at sf0.1 (identical output).

Fan-out comes from the data (:func:`derive_hash_partitions`): one coarse
group per 256 MiB of input, clamped to ``[cpus, 4*cpus]`` — on one CPU a
small input is one group and the shuffle degenerates to a single coalesce.

Skew note: a single hot TRUE key still lands in one coarse group; stages
with adversarial key skew (canonicalization) pre-combine per batch before
coarse grouping (see stages/canonical.py).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ccnerx_ray.functions.hashing import stable_hash64

COARSE_COL = "_coarse"

# shuffle sizing: one partition per this many input bytes, clamped to
# [cpus, 4*cpus] — enough to keep every core busy, never so many that
# per-partition overhead dominates
PARTITION_BYTES = 256 << 20


def derive_hash_partitions(size_bytes: int | None,
                           cpus: int | None = None) -> int:
    """The fan-out rule for every shuffle sized from its data:
    ``clamp(size_bytes / 256 MiB, cpus, 4*cpus)`` (VERDICT r2 #4 — a
    constant under-partitions a fact-scale input on a real cluster and
    over-partitions a small one). Unknown size falls back to the CPU
    count (every core busy)."""
    if cpus is None:
        import ray
        cpus = (int(ray.cluster_resources().get("CPU", 8))
                if ray.is_initialized() else 8)
    cpus = max(1, cpus)
    if size_bytes is None:
        return cpus
    return int(min(max(size_bytes / PARTITION_BYTES, cpus), 4 * cpus))


def add_coarse_column(key_cols: Sequence[str], num_buckets: int):
    """map_batches fn factory: append ``_coarse = H(keys) % num_buckets``.
    Integer keys mix via numpy (vectorized); otherwise stable string hash."""

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [batch.column(c) for c in key_cols]
        if all(pa.types.is_integer(c.type) for c in cols):
            acc = np.zeros(n, dtype=np.uint64)
            for c in cols:
                v = np.asarray(c.to_pylist(), dtype=np.uint64)
                acc = acc * np.uint64(0x9E3779B97F4A7C15) + v + np.uint64(1)
            acc ^= acc >> np.uint64(33)
            coarse = (acc % np.uint64(num_buckets)).astype(np.int64)
        else:
            vals = zip(*[c.to_pylist() for c in cols])
            coarse = np.fromiter(
                (stable_hash64("|".join(map(str, v))) % num_buckets
                 for v in vals), dtype=np.int64, count=n)
        return batch.append_column(COARSE_COL, pa.array(coarse, pa.int64()))

    return fn


_ARROW_TYPES = {"string": pa.string(), "int64": pa.int64(),
                "int32": pa.int32(), "float64": pa.float64(),
                "bool": pa.bool_()}


def typed_empty(dtypes: dict[str, str]) -> pa.Table:
    """Zero-row ARROW table with explicit column types. Must be Arrow, not
    pandas: a zero-row ``object`` column converts to Arrow ``null`` and a
    pandas ``string`` extension column fails Ray's block conversion —
    either way schema unification downstream warns or breaks."""
    return pa.table({c: pa.array([], _ARROW_TYPES[t])
                     for c, t in dtypes.items()})


def _normalize_blocks(out_dtypes: dict[str, str]):
    """map_batches fn factory: coerce every block to ONE Arrow schema.

    ``map_groups(batch_format="pandas")`` leaves two hazards in its output
    Dataset: (a) blocks are PANDAS while ``Dataset.schema()`` can still
    report Arrow, so ``to_arrow_refs()`` takes the zero-copy path and hands
    consumers raw DataFrames; (b) EMPTY shuffle partitions bypass the UDF
    entirely and surface as zero-column blocks ("new schema: ." RefBundle
    warnings). Running every block through an Arrow-format identity-with-
    cast pass removes both: pandas→Arrow conversion happens here, and
    zero-column / mistyped empties are rebuilt from ``out_dtypes``."""
    target = pa.schema([(c, _ARROW_TYPES[t]) for c, t in out_dtypes.items()])
    cols = list(out_dtypes)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or (batch.num_rows == 0
                                      and set(batch.column_names) != set(cols)):
            return typed_empty(out_dtypes)
        if set(batch.column_names) == set(cols):
            return batch.select(cols).cast(target)
        return batch  # caller emitted extra columns — leave untouched

    return fn


def coarse_grouped(ds, key_cols: Sequence[str],
                   local_fn: Callable[[pd.DataFrame], pd.DataFrame],
                   num_buckets: int | None = None,
                   out_dtypes: dict[str, str] | None = None):
    """Apply ``local_fn`` to each COARSE group (a pandas frame containing
    whole true groups; ``local_fn`` must group by ``key_cols`` itself,
    vectorized). Output frames are concatenated into the result Dataset.

    ``num_buckets=None`` (default) takes the fan-out from
    :func:`derive_hash_partitions` with no size hint (the CPU count);
    callers that hold a size pass ``derive_hash_partitions(size)``.

    ``out_dtypes`` (column → pandas dtype) pins the output schema for
    EMPTY results: a group that yields zero rows (or an empty input block
    the shuffle hands us) otherwise loses column names/types and triggers
    RefBundle schema-mismatch unification downstream (VERDICT r1 #5)."""
    if num_buckets is None:
        num_buckets = derive_hash_partitions(None)
    if num_buckets > 1:
        keyed = ds.map_batches(add_coarse_column(key_cols, num_buckets),
                               batch_format="pyarrow")
        key = COARSE_COL
    else:
        # one coarse group: groupby(None) coalesces the input into ONE
        # block. Sorting on a constant _coarse instead keeps one output
        # partition per input block, and every partition but one would
        # leave the shuffle as a schema-less empty block that no map sees.
        keyed, key = ds, None

    def run(g: pd.DataFrame) -> pd.DataFrame:
        if COARSE_COL in g.columns:
            g = g.drop(columns=[COARSE_COL])
        elif out_dtypes is not None and g.empty and len(g.columns) == 0:
            return typed_empty(out_dtypes)
        out = local_fn(g)
        if out_dtypes is not None and len(out) == 0:
            return typed_empty(out_dtypes)
        return out

    out = keyed.groupby(key).map_groups(run, batch_format="pandas")
    if out_dtypes is not None:
        out = out.map_batches(_normalize_blocks(out_dtypes),
                              batch_format="pyarrow")
        # map_batches never sees 0-row blocks (the batch iterator yields no
        # batches for them), so an ALL-empty result would surface only
        # schema-less empty blocks and Dataset.schema() would be None.
        # Union one zero-row typed block so the declared schema is always
        # present; adds no rows and no shuffle.
        import ray.data
        out = out.union(ray.data.from_arrow(typed_empty(out_dtypes)))
    return out


_ASSOCIATIVE = ("sum", "min", "max")


def grouped_reduce(ds, key_cols: Sequence[str],
                   agg: dict[str, str | Callable],
                   num_buckets: int = 1024,
                   out_dtypes: dict[str, str] | None = None,
                   pre_combine: bool = False):
    """Convenience: coarse-grouped ``groupby(key_cols).agg(agg)``.

    ``pre_combine=True`` runs the same groupby INSIDE each input batch
    before the coarse shuffle (classic combiner). Only valid when every
    aggregate is associative (sum/min/max — combining partials equals
    aggregating raw rows); cuts shuffle volume from input-scale rows to
    ~distinct-keys-per-batch, which is the difference between shipping an
    edge-scale table and a node-scale table on iterative graph workloads."""

    def local(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(list(key_cols), sort=False).agg(agg).reset_index()

    if pre_combine:
        bad = {c: a for c, a in agg.items()
               if not (isinstance(a, str) and a in _ASSOCIATIVE)}
        if bad:
            raise ValueError(f"pre_combine requires associative string "
                             f"aggs {_ASSOCIATIVE}, got {bad}")
        ds = ds.map_batches(local, batch_format="pandas")

    return coarse_grouped(ds, key_cols, local, num_buckets,
                          out_dtypes=out_dtypes)


def semi_join_on(ds, key_col: str, keys_ds, keys_col: str | None = None,
                 num_buckets: int = 256,
                 out_dtypes: dict[str, str] | None = None):
    """Rows of ``ds`` whose ``key_col`` value appears anywhere in
    ``keys_ds[keys_col]`` — a hash-partitioned SEMI JOIN realized as one
    coarse co-group (tag provenance, union, per-key membership test).
    Neither side materializes on the driver and nothing broadcasts, so it
    holds at fact-scale on BOTH sides (contrast ``adaptive_join``'s
    broadcast membership, which requires a small build side)."""
    keys_col = keys_col or key_col
    sch = ds.schema()
    names, types = list(sch.names), list(sch.types)

    def mark_rows(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_semi", pa.array(np.zeros(batch.num_rows, dtype=np.int8)))

    def key_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for nm, tp in zip(names, types):
            cols[nm] = (batch.column(keys_col).cast(tp) if nm == key_col
                        else pa.nulls(n, tp))
        return pa.table(cols).append_column(
            "_semi", pa.array(np.ones(n, dtype=np.int8)))

    both = ds.map_batches(mark_rows, batch_format="pyarrow").union(
        keys_ds.map_batches(key_rows, batch_format="pyarrow"))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        mem = g.groupby(key_col, sort=False)["_semi"].transform("max")
        return g[(g["_semi"] == 0) & (mem == 1)].drop(columns=["_semi"])

    return coarse_grouped(both, [key_col], local, num_buckets,
                          out_dtypes=out_dtypes)


def lookup_join_on(ds, key_col: str, lut_ds, value_col: str,
                   lut_key_col: str | None = None,
                   num_buckets: int = 256,
                   out_dtypes: dict[str, str] | None = None):
    """Hash-partitioned LEFT OUTER lookup: append ``lut_ds[value_col]``
    to every row of ``ds`` by key equality (null where no match) — the
    fact-scale shape of a dimension lookup when the lookup side is too
    big to broadcast. One coarse co-group (the :func:`semi_join_on`
    pattern with a carried value): both sides stay distributed, nothing
    lands on the driver, and — unlike ``Dataset.join`` — the machinery
    tolerates the schema-less empty blocks a grouped upstream leaves
    behind. The lookup side must be UNIQUE per key (the aggregated
    one-row-per-key shape); duplicates raise rather than silently
    multiplying probe rows."""
    lut_key_col = lut_key_col or key_col
    sch = ds.schema()
    names, types = list(sch.names), list(sch.types)
    if value_col in names:
        raise ValueError(f"probe side already has column {value_col!r}")
    if out_dtypes is None:
        # derive the empty-block schema pin from the probe schema when
        # every column type has a dtype-string name; else leave unpinned
        rev = {v: k for k, v in _ARROW_TYPES.items()}
        derived = {nm: rev.get(tp) for nm, tp in zip(names, types)}
        if all(v is not None for v in derived.values()):
            out_dtypes = derived

    def mark_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return (batch
                .append_column(value_col, pa.nulls(n, pa.string()))
                .append_column("_lu",
                               pa.array(np.zeros(n, dtype=np.int8))))

    def lut_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for nm, tp in zip(names, types):
            cols[nm] = (batch.column(lut_key_col).cast(tp)
                        if nm == key_col else pa.nulls(n, tp))
        cols[value_col] = batch.column(value_col).cast(pa.string())
        return pa.table(cols).append_column(
            "_lu", pa.array(np.ones(n, dtype=np.int8)))

    both = ds.map_batches(mark_rows, batch_format="pyarrow").union(
        lut_ds.map_batches(lut_rows, batch_format="pyarrow"))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        lut = g[g["_lu"] == 1]
        probe = g[g["_lu"] == 0].drop(columns=["_lu"])
        if len(lut):
            if not lut[key_col].is_unique:
                dup = lut[key_col][lut[key_col].duplicated()].iloc[0]
                raise ValueError(
                    f"lookup side has duplicate key {dup!r} — aggregate "
                    "it to one row per key first")
            mapping = pd.Series(lut[value_col].to_numpy(),
                                index=lut[key_col])
            probe = probe.assign(
                **{value_col: probe[key_col].map(mapping)})
        return probe

    dt = dict(out_dtypes) if out_dtypes else None
    if dt is not None:
        dt[value_col] = "string"
    return coarse_grouped(both, [key_col], local, num_buckets,
                          out_dtypes=dt)


def drop_duplicate_rows(ds, key_cols: Sequence[str], num_buckets: int = 256):
    """Distributed exact row-dedup on ``key_cols`` (keeps an arbitrary but
    deterministic-per-content first row: rows are sorted by keys locally)."""

    def local(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(list(key_cols))
                 .drop_duplicates(subset=list(key_cols)))

    return coarse_grouped(ds, key_cols, local, num_buckets)


def grouped_argextreme(ds, key_cols: Sequence[str],
                       order_cols: Sequence[str],
                       ascending: Sequence[bool],
                       num_buckets: int = 256,
                       out_dtypes: dict[str, str] | None = None):
    """Per-group extreme ROW (``SELECT DISTINCT ON`` / argmax / argmin):
    the first row of each key group under ``order_cols``/``ascending``.

    The order columns must induce a deterministic total order within a
    key (include a unique tiebreak column), or the winner is partition-
    dependent and oracle parity breaks.

    Argextreme with a total order is ASSOCIATIVE: the winner of winners
    is the winner. So each input batch is reduced to its per-key winners
    BEFORE the shuffle (classic combiner) — the exchange carries at most
    distinct-keys-per-batch rows, never input-scale rows, which is what
    makes a per-entity "best mention" pick viable on a 100 TB corpus."""

    def local(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(list(order_cols), ascending=list(ascending),
                              kind="mergesort")
                 .drop_duplicates(subset=list(key_cols)))

    pre = ds.map_batches(local, batch_format="pandas")
    return coarse_grouped(pre, key_cols, local, num_buckets,
                          out_dtypes=out_dtypes)


def lookup_join_on_keys(ds, key_cols: Sequence[str], lut_ds, value_col: str,
                        lut_key_cols: Sequence[str] | None = None,
                        num_buckets: int = 256,
                        out_dtypes: dict[str, str] | None = None):
    """Multi-key generalization of :func:`lookup_join_on` (kept separate
    so the heavily-used single-key path stays untouched): hash-partition
    LEFT OUTER lookup on a COMPOSITE key — the keys stay separate
    columns end to end (the delimiter-collision hazard class never gets
    a chance), one coarse co-group on all of them, value as string (null
    where no match). Lookup side must be unique per key tuple."""
    key_cols = list(key_cols)
    lut_key_cols = list(lut_key_cols) if lut_key_cols else key_cols
    if len(lut_key_cols) != len(key_cols):
        raise ValueError("lut_key_cols must pair with key_cols")
    sch = ds.schema()
    names, types = list(sch.names), list(sch.types)
    if value_col in names:
        raise ValueError(f"probe side already has column {value_col!r}")
    if out_dtypes is None:
        rev = {v: k for k, v in _ARROW_TYPES.items()}
        derived = {nm: rev.get(tp) for nm, tp in zip(names, types)}
        if all(v is not None for v in derived.values()):
            out_dtypes = derived
    k2lut = dict(zip(key_cols, lut_key_cols))

    def mark_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return (batch
                .append_column(value_col, pa.nulls(n, pa.string()))
                .append_column("_lu",
                               pa.array(np.zeros(n, dtype=np.int8))))

    def lut_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for nm, tp in zip(names, types):
            cols[nm] = (batch.column(k2lut[nm]).cast(tp)
                        if nm in k2lut else pa.nulls(n, tp))
        cols[value_col] = batch.column(value_col).cast(pa.string())
        return pa.table(cols).append_column(
            "_lu", pa.array(np.ones(n, dtype=np.int8)))

    both = ds.map_batches(mark_rows, batch_format="pyarrow").union(
        lut_ds.map_batches(lut_rows, batch_format="pyarrow"))

    def local(g: pd.DataFrame) -> pd.DataFrame:
        lut = g[g["_lu"] == 1]
        probe = g[g["_lu"] == 0].drop(columns=["_lu"])
        if len(lut):
            if lut.duplicated(subset=key_cols).any():
                dup = lut[lut.duplicated(subset=key_cols)].iloc[0]
                raise ValueError(
                    f"lookup side has duplicate key "
                    f"{tuple(dup[k] for k in key_cols)!r} — aggregate it "
                    "to one row per key first")
            mapping = pd.Series(
                lut[value_col].to_numpy(),
                index=pd.MultiIndex.from_frame(lut[key_cols]))
            looked = (pd.MultiIndex.from_frame(probe[key_cols])
                      .map(mapping))
            probe = probe.assign(**{value_col: looked})
        return probe

    dt = dict(out_dtypes) if out_dtypes else None
    if dt is not None:
        dt[value_col] = "string"
    return coarse_grouped(both, key_cols, local, num_buckets,
                          out_dtypes=dt)
