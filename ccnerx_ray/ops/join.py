"""Stats-adaptive distributed joins.

Every production engine picks a join strategy from statistics (Spark's
``autoBroadcastJoinThreshold``, Presto's ``join_distribution_type``):

* **broadcast** when the build side provably fits in a worker heap — the
  build table is materialized ONCE, put in the object store, and every
  probe task joins its Arrow batch against the shared (zero-copy) table
  with an acero hash join. No shuffle at all; the probe side streams.
* **hash-partitioned** (``Dataset.join``) otherwise — both sides
  hash-shuffle on the key. This is the only correct shape when both
  sides are fact-scale (a 100 TB probe against a fact-scale build).

The selection is *asserted, not assumed*: the caller supplies a byte
estimate for the build side (normally ``read_parquet(...).size_bytes()``
on the pre-filter source — a metadata-cheap upper bound, since filters
and projections only shrink it), and after materializing we re-check the
ACTUAL in-memory size against a slack factor; if the estimate lied, the
materialized table is dropped and the hash-partitioned path runs
instead. This addresses the round-1 finding (unbounded driver broadcast
of a fact table) while keeping the small-side case shuffle-free.

No reference counterpart (the reference joins everything in-process
against Python dicts, e.g. ``CC/loaders/utils/vocab.py`` lookups); the
strategy split is what those dict joins become at cluster scale.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc

# the hash path's shuffle width follows the repo-wide fan-out rule
from ccnerx_ray.functions.grouping import derive_hash_partitions

logger = logging.getLogger(__name__)

# Spark's default autoBroadcastJoinThreshold is 10 MB and is widely seen
# as too conservative on modern RAM; 64 MiB of Arrow build table per
# worker is comfortably inside this repo's per-task heap budget.
BROADCAST_BYTES_DEFAULT = 64 << 20

# the metadata estimate is an upper bound on file bytes, but Arrow
# in-memory can exceed on-disk parquet (no encodings); re-check with slack
_ACTUAL_SLACK = 4


def _materialize_build(build, broadcast_bytes: int,
                       estimate_bytes: int | None) -> pa.Table | None:
    """Build-side table when the broadcast path is safe, else ``None``
    (also for a build side without rows: it has no schema to join on)."""
    tbl = _broadcast_build(build, broadcast_bytes, estimate_bytes)
    return tbl if tbl is not None and tbl.num_columns else None


def _broadcast_build(build, broadcast_bytes: int,
                     estimate_bytes: int | None) -> pa.Table | None:
    """Build-side table when the broadcast path is safe, else ``None``.
    A build side without rows comes back as a column-less empty table.

    ``estimate_bytes`` is checked BEFORE any execution (a lying-high
    estimate costs only a missed fast path); the materialized size is
    re-checked AFTER, so a lying-low estimate cannot smuggle a fact
    table into the object-store broadcast."""
    if estimate_bytes is None:
        estimate_bytes = build.size_bytes()  # may execute derived plans
    if estimate_bytes is None or estimate_bytes > broadcast_bytes:
        return None
    import ray
    from ray.data.dataset import MaterializedDataset

    # to_arrow_refs on a lazy Dataset asks for its schema after the run
    # and executes part of the plan again: run it once, into the store
    if not isinstance(build, MaterializedDataset):
        build = build.materialize()
    # pull INCREMENTALLY with a running-size abort: a lying-LOW estimate
    # must not be allowed to pull an entire fact table into the driver
    # heap before the re-check fires — the cap is enforced block by
    # block, so peak driver memory is bound + one block
    bound = broadcast_bytes * _ACTUAL_SLACK
    blocks, total = [], 0
    for ref in build.to_arrow_refs():
        blk = ray.get(ref)
        if blk.num_rows == 0:
            # a shuffle can emit schema-less empty blocks (Ray passes
            # them through without calling the UDF); concat would fail
            # on the zero-column schema — drop them, they carry no rows
            continue
        total += blk.nbytes
        if total > bound:
            logger.warning(
                "adaptive_join: build side estimate %d B but materialized "
                "size exceeded %d B after %d blocks — falling back to "
                "hash-partitioned join", estimate_bytes, bound,
                len(blocks) + 1)
            return None
        blocks.append(blk)
    if not blocks:
        return pa.table({})  # no rows, and no schema to join against
    return pa.concat_tables(blocks).combine_chunks()


def adaptive_join(probe, build, *, on: str, right_on: str | None = None,
                  join_type: str = "inner",
                  broadcast_bytes: int = BROADCAST_BYTES_DEFAULT,
                  build_bytes_hint: int | None = None,
                  num_partitions: int | None = None,
                  probe_bytes_hint: int | None = None):
    """``probe ⋈ build`` with stats-based strategy selection.

    Parameters
    ----------
    on / right_on : join key column on probe / build (default: same).
    join_type : ``"inner"``, ``"left_semi"`` (probe rows with a match,
        probe columns only) or ``"left_anti"`` (probe rows with none).
    broadcast_bytes : build sides estimated under this go shuffle-free.
    build_bytes_hint : byte estimate for the build side; pass the
        pre-filter ``read_parquet(...).size_bytes()`` so derived plans
        are not executed twice. ``None`` falls back to
        ``build.size_bytes()`` (which executes derived plans).
    num_partitions : hash-path shuffle width; ``None`` (default) derives
        it from the probe size and cluster CPUs
        (:func:`derive_hash_partitions`).
    probe_bytes_hint : byte estimate for the probe side, used only to
        size the hash path. ``None`` tries the probe's metadata size
        (cheap for reads; may execute derived plans — pass the hint on
        derived probes that reach the hash path).
    """
    right_on = right_on or on
    if join_type not in ("inner", "left_semi", "left_anti", "left_outer"):
        raise ValueError(f"unsupported join_type: {join_type}")

    tbl = _broadcast_build(build, broadcast_bytes, build_bytes_hint)
    if tbl is not None and tbl.num_columns == 0:
        # an empty build side: semi keeps no probe row, anti keeps them
        # all; inner / outer need the build schema, so they hash-join
        if join_type == "left_anti":
            return probe
        if join_type == "left_semi":
            return probe.map_batches(lambda b: b.slice(0, 0),
                                     batch_format="pyarrow")
        tbl = None
    if tbl is None:
        if num_partitions is None:
            if probe_bytes_hint is None:
                try:
                    probe_bytes_hint = probe.size_bytes()
                except Exception:  # noqa: BLE001 — sizing is best-effort
                    probe_bytes_hint = None
            num_partitions = derive_hash_partitions(probe_bytes_hint)
        return probe.join(build, join_type=join_type,
                          num_partitions=num_partitions,
                          on=(on,), right_on=(right_on,))

    import ray
    ref = ray.put(tbl)

    if join_type in ("left_semi", "left_anti"):
        keep_hits = join_type == "left_semi"

        def _membership(batch: pa.Table) -> pa.Table:
            keys = _prepared_build(ref, right_on)[1]
            # null probe keys never match (SQL semantics): is_in yields
            # null there — semi drops those rows, anti keeps them
            hit = pc.fill_null(pc.is_in(batch.column(on), value_set=keys),
                               False)
            return batch.filter(hit if keep_hits else pc.invert(hit))
        return probe.map_batches(_membership, batch_format="pyarrow")

    if join_type == "left_outer":
        # per-batch left outer is safe under broadcast (each probe row is
        # joined independently; only FULL outer would need cross-batch
        # knowledge of unmatched build keys)
        def _louter(batch: pa.Table) -> pa.Table:
            import numpy as np
            b, keys, idx = _prepared_build(ref, right_on)
            if idx is None:
                # duplicate (or null) build keys: acero hash join per batch
                return batch.join(b, keys=[on], right_keys=[right_on],
                                  join_type="left outer")
            indexer = idx.get_indexer(batch.column(on).to_pandas())
            matched = indexer >= 0
            # null indices gather null rows — unmatched probe rows get
            # null build columns, matching SQL LEFT OUTER semantics
            picked = b.take(pa.array(np.where(matched, indexer, 0),
                                     type=pa.int64(),
                                     mask=~matched))
            out = batch
            for name in b.column_names:
                if name != right_on:
                    out = out.append_column(name, picked.column(name))
            return out
        return probe.map_batches(_louter, batch_format="pyarrow")

    def _inner(batch: pa.Table) -> pa.Table:
        b, keys, idx = _prepared_build(ref, right_on)
        if idx is None:
            # duplicate (or null) build keys: acero hash join per batch
            return batch.join(b, keys=[on], right_keys=[right_on],
                              join_type="inner")
        # unique build keys (the common dimension-table case): one cached
        # pandas Index per worker process -> vectorized gather per batch,
        # no per-batch hash-table rebuild. Output columns match acero's
        # inner join: probe columns + build columns minus the build key.
        indexer = idx.get_indexer(batch.column(on).to_pandas())
        matched = indexer >= 0
        out = batch.filter(pa.array(matched))
        picked = b.take(pa.array(indexer[matched], type=pa.int64()))
        for name in b.column_names:
            if name != right_on:
                out = out.append_column(name, picked.column(name))
        return out

    return probe.map_batches(_inner, batch_format="pyarrow")


# per-worker-process cache of prepared build-side probe structures
# (same singleton shape as stages/tag.py's _PROCESS_MODELS): plasma gets
# are zero-copy, but the pandas Index / value set are built once per
# process instead of once per batch
_PROCESS_BUILDS: dict = {}


def _prepared_build(ref, right_on: str):
    key = (ref.hex(), right_on)
    got = _PROCESS_BUILDS.get(key)
    if got is None:
        import pandas as pd
        import ray
        if len(_PROCESS_BUILDS) > 8:    # bound per-process cache growth
            _PROCESS_BUILDS.clear()
        tbl = ray.get(ref)
        raw = tbl.column(right_on).combine_chunks()
        # anti value set: null build keys never match under SQL semantics
        # (pyarrow's is_in would match probe nulls against a set null)
        keys = pc.drop_null(raw)
        # inner gather index: positions must align with tbl ROWS, so it
        # is built from the RAW column and only when keys are unique and
        # non-null; otherwise the acero fallback preserves exact SQL
        # duplicate/null semantics
        kser = raw.to_pandas()
        idx = (pd.Index(kser)
               if kser.notna().all() and kser.is_unique else None)
        got = (tbl, keys, idx)
        _PROCESS_BUILDS[key] = got
    return got
