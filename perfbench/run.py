"""KG benchmark: ``build`` / ``update`` / ``lookup`` workloads over a seeded
synthetic source-code corpus, run against the public entry points
``pipelines.kg.run_kg``, ``pipelines.kg.update_kg`` and
``io.store.lookup_subject``.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it). The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the machine and input sizes.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass that calls each layer's public function
with the inputs materialized in between, and writes its spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.

The run is confined to the CPUs ``nproc`` reports and Ray is sized to
them. Times exclude the time the hypervisor gives those CPUs to other
guests (see ``busy_clock``); a single lookup is timed by this process's
CPU time (``lookup_clock``).

Every workload reports every metric, so the end-to-end names are generic:

* ``op_p50_ms`` — median time of the workload's operation: one ``run_kg``
  (build), one ``update_kg`` (update), one ``lookup_subject`` (lookup);
* ``op_tail_ms`` — lookup: p99 over >= 1100 lookups; build/update run too
  few operations (one run_kg or update_kg takes longer than a run
  measures) for a percentile and report the slowest one;
* ``items_per_s`` — build: docs / median run_kg time; update: docs in the
  new corpus / median update_kg time; lookup: lookups per second of lookup
  time (one client, closed loop);
* ``store_mb`` — bytes on disk of the store plus entity table written
  (build, update) or of the store read (lookup);
* ``peak_rss_mb`` — summed ``VmHWM`` of the driver and every Ray process
  alive at the end of the measurement (lookup: the client alone);
* ``ok_ratio`` — checks passed / checks attempted (1 - failed ratio);
* ``setup_s`` — Ray start and, for build and update, a tiny warm-up
  run_kg right before the measurement, plus the median of three set-ups:
  corpus generation and, for update and lookup, the base-store build.

Per-layer metric → end-to-end metric it should move:

* ``read.*``, ``segment.*``, ``tag.*`` (split by ``model.tag_segments.s``,
  ``link.s``, ``triples.emit.s``) → build ``items_per_s``; barely update,
  not lookup;
* ``store.write.s``, ``store.bytes``, ``canonical.*`` → build and update;
  ``store.files`` (per partition) → lookup latencies;
* ``update.*`` → update ``op_p50_ms`` only;
* ``lookup.*`` → lookup latencies;
* ``trace.overhead_s`` — traced total minus the untraced wall of the same
  work.

A layer a workload never calls reports zero time and zero work in its
traced run: that zero is the prediction for that workload (a tagger change
must not move ``lookup``).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("build", "update", "lookup")
SETUP_REPS = 3          # set-up is repeated and its median reported
WARMUP_DOCS = 4         # one tiny run_kg warms Ray workers before timing
LOOKUP_MIX_LEN = 4000   # seeded subject sequence the lookup client cycles
LOOKUP_MIN_SAMPLES = 1100   # 11 samples beyond p99
TRACE_LOOKUPS = 400     # lookups in each of the traced/untraced passes
SAMPLE_SEGMENTS = 256   # driver-side segment sample for the model layers
OBJECT_STORE_BYTES = 256 * 1024 * 1024
RAY_TEMP_DIR = os.path.join(ROOT, ".rt")   # short: Ray's sockets live under it
RAY_TEMP_MAX_LEN = 43   # Ray appends up to 64 chars; AF_UNIX paths stop at 107

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "items_per_s": "1/s", "store_mb": "MB",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "read.s": "s", "read.rows": "count",
    "segment.s": "s", "segment.segments": "count",
    "tag.s": "s", "tag.triples": "count",
    "model.tag_segments.s": "s", "link.s": "s", "triples.emit.s": "s",
    "store.write.s": "s", "store.files": "count", "store.bytes": "bytes",
    "canonical.s": "s", "canonical.entities": "count",
    "update.semi_join.s": "s", "update.rows_carried": "count",
    "update.distinct_keys.s": "s", "update.anti_join.s": "s",
    "update.docs_retagged": "count", "update.retag_ratio": "ratio",
    "lookup.files_per_lookup": "count", "lookup.rows_per_lookup": "count",
    "lookup.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}
TRIPLE_COLS = ("subj", "pred", "obj", "repo", "path", "commit",
               "content_sha256", "surface", "norm_key", "label")


# --------------------------------------------------------------------------
# clocks
# --------------------------------------------------------------------------

_TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds the hypervisor ran other guests instead of this machine,
    per CPU this run uses (``steal`` in ``/proc/stat``; 0 where the
    kernel does not account it)."""
    cpus = os.sched_getaffinity(0)   # pin_cpus narrows it
    ticks = 0
    with open("/proc/stat") as fh:
        for line in fh:
            name, *fields = line.split()
            if not name.startswith("cpu"):
                break
            if name[3:].isdigit() and int(name[3:]) in cpus and len(fields) > 7:
                ticks += int(fields[7])
    return ticks * _TICK_S / len(cpus)


def busy_clock() -> float:
    """Wall clock minus steal: on a shared virtual machine the time other
    guests take varies from minute to minute by more than any change worth
    measuring, so every timing of more than one Ray task excludes it. It is
    the wall time the same work takes on CPUs of its own."""
    return time.perf_counter() - steal_s()


# a single lookup takes a few milliseconds, below the 10 ms resolution of
# steal: its latency is the CPU time of this process (all its threads),
# which the kernel already counts without steal. No Ray task runs then.
lookup_clock = time.process_time


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory — name, start, end, parent span, run id and
    the counts recorded at that boundary — and written out at exit."""

    def __init__(self, clock=busy_clock):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = None
        self.clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": self.clock(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# --------------------------------------------------------------------------
# store inspection (pyarrow only — independent of the program's read path)
# --------------------------------------------------------------------------

def store_files(store_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(store_dir, "part=*", "*.parquet")))


def read_store(store_dir: str, columns=TRIPLE_COLS):
    import pyarrow.dataset as pds

    return pds.dataset(store_files(store_dir)).to_table(columns=list(columns))


def tree_bytes(*dirs: str) -> int:
    total = 0
    for d in dirs:
        for base, _subdirs, files in os.walk(d):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def triple_multiset(table):
    """Canonical form of a triple multiset: distinct rows with counts,
    sorted, so two stores compare with ``Table.equals``."""
    cols = list(TRIPLE_COLS)
    g = table.select(cols).group_by(cols).aggregate([([], "count_all")])
    return g.sort_by([(c, "ascending") for c in cols + ["count_all"]])


def remove_store(store_dir: str) -> None:
    shutil.rmtree(store_dir, ignore_errors=True)
    shutil.rmtree(store_dir.rstrip("/") + "_entities", ignore_errors=True)


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

def _descendants(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        for c in children.get(pid, []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` (peak resident set) over this driver and every
    process Ray started for it."""
    total_kb = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def wait_for_children(timeout_s: float = 60.0) -> None:
    """Block until every process started by this run has exited."""
    deadline = time.monotonic() + timeout_s
    while True:
        live = []
        for pid in _descendants(os.getpid()):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state == "Z":
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
            else:
                live.append(pid)
        if not live:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes still running after shutdown: {live}")
        time.sleep(0.2)


def pin_cpus() -> int:
    """Confine this process, and so every process it starts, to the CPUs
    ``nproc`` reports: the affinity set, capped by ``OMP_NUM_THREADS``.
    The run then uses the machine it was sized for, and ``busy_clock``
    subtracts the steal of exactly those CPUs. Returns their number."""
    cpus = sorted(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        cpus = cpus[-int(omp):]
    os.sched_setaffinity(0, cpus)
    return len(cpus)


def start_ray() -> None:
    """Start a local Ray on the pinned CPUs. Workers import the package
    from this checkout whatever their working directory is, and temporary
    files stay inside the checkout."""
    import logging
    import tempfile

    tmp = os.path.join(STATE_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None   # drop a cached gettempdir()

    import ray
    from ray.data import DataContext

    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    kwargs = {}
    temp_dir = RAY_TEMP_DIR
    if len(temp_dir) <= RAY_TEMP_MAX_LEN:
        kwargs["_temp_dir"] = temp_dir
    else:
        print("checkout path too long for Ray sockets; Ray keeps its "
              "session files in its default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    import ray   # only after start_ray: importing ray probes the temp dir

    ray.shutdown()
    wait_for_children()


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """One workload: seeded set-up, the timed operation, its checks and
    the traced layer-by-layer pass. Build and update time an ``op`` that
    returns ``(wall_s, ok, store_bytes)``; its wall time excludes the
    checks."""

    needs_ray = True   # for the measurement, after set-up

    def __init__(self, seed: int, work: str, n_docs: int):
        from inputs import catalog_pairs

        from ccnerx_ray.config import PipelineConfig

        self.seed = seed
        self.work = work
        self.n_docs = n_docs
        self.cfg = PipelineConfig()
        self.catalog = catalog_pairs(seed)
        self.info: dict = {}

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def base_store(self, rows, rep: int) -> tuple[str, str]:
        """Corpus + triple store without an entity table: what ``update``
        refreshes and ``lookup`` reads."""
        from inputs import write_corpus

        from ccnerx_ray.pipelines.kg import run_kg

        corpus = write_corpus(rows, self.path(f"base-corpus-{rep}"))
        store = self.path(f"base-store-{rep}")
        run_kg(corpus, self.catalog, store, self.cfg, build_entities=False)
        return corpus, store


class Build(Workload):
    """Full ``run_kg``: fresh corpus → fresh store + entity table. Bound by
    the tagger; exercises every write-side layer."""

    n_docs = 300

    def setup(self, rep: int) -> None:
        from inputs import RowSource, write_corpus

        rows = RowSource(self.seed, self.n_docs).take_mix(self.n_docs)
        self.corpus = write_corpus(rows, self.path(f"corpus-{rep}"))
        self.info["docs"] = len(rows)

    def prepare_checks(self) -> None:
        import pyarrow.parquet as pq

        from ccnerx_ray.pipelines.oracle import oracle_triples

        self.oracle = oracle_triples(pq.read_table(self.corpus), self.catalog,
                                     self.cfg)
        self.info["oracle_triples"] = len(self.oracle)

    def op(self, k: int) -> tuple[float, bool, int]:
        from ccnerx_ray.pipelines.kg import run_kg

        out = self.path(f"store-{k}")
        t0 = busy_clock()
        summary = run_kg(self.corpus, self.catalog, out, self.cfg)
        wall = busy_clock() - t0
        ok = self.check(out, summary["rows"])
        nbytes = tree_bytes(out, out + "_entities")
        remove_store(out)
        return wall, ok, nbytes

    def check(self, out: str, rows: int) -> bool:
        """Distinct triples equal the single-process oracle (P = R = 1.0),
        and the entity table holds exactly the mentioned entities."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        t = read_store(out, ("subj", "pred", "obj"))
        got = set(zip(*(t.column(c).to_pylist() for c in ("subj", "pred", "obj"))))
        mentioned = set(pc.filter(t.column("subj"),
                                  pc.equal(t.column("pred"), "mentioned_in")).to_pylist())
        ents = pq.read_table(out + "_entities", columns=["entity_id"])
        ent_ids = ents.column("entity_id").to_pylist()
        return (got == self.oracle and t.num_rows == rows
                and len(ent_ids) == len(set(ent_ids)) and set(ent_ids) == mentioned)

    def items_done(self) -> int:
        return self.n_docs

    def trace(self, tr: Tracer) -> tuple[dict, bool]:
        from ccnerx_ray.pipelines.kg import input_fingerprint, read_corpus

        out = self.path("traced")
        with tr.span("build"):
            with tr.span("read") as c:
                corpus = read_corpus(self.corpus, self.cfg).materialize()
                c["rows"] = corpus.count()
            segs, rows = traced_segment_tag(tr, corpus, self, out,
                                            input_fingerprint(self.corpus))
        sample_model_layers(tr, segs, self)
        ok = self.check(out, rows)
        layers = layer_metrics(tr, out)
        remove_store(out)
        return layers, ok


class Update(Workload):
    """``update_kg`` of a base store built in set-up: ~5% changed, 2%
    removed and 3% added docs, so the carried, dropped and fresh branches
    all run. The tagger sees only the delta; the time goes to the
    carry-forward joins, the store write and the entity rebuild."""

    n_docs = 200   # the op is three shuffles and the entity rebuild

    def setup(self, rep: int) -> None:
        from inputs import make_corpora, write_corpus

        base, new, delta = make_corpora(self.seed, self.n_docs)
        self.base_corpus, self.base = self.base_store(base, rep)
        self.new_corpus = write_corpus(new, self.path(f"new-corpus-{rep}"))
        self.delta = delta
        self.info.update(delta, docs=len(base), new_docs=len(new))

    def prepare_checks(self) -> None:
        """``update_kg``'s contract: the same triple multiset as a fresh
        full ``run_kg`` over the new corpus."""
        from ccnerx_ray.pipelines.kg import run_kg

        fresh = self.path("expected")
        run_kg(self.new_corpus, self.catalog, fresh, self.cfg,
               build_entities=False)
        self.expected = triple_multiset(read_store(fresh))
        remove_store(fresh)

    def check(self, out: str, docs_retagged: int, docs_total: int) -> bool:
        import pyarrow.parquet as pq

        d = self.delta
        ents = pq.read_table(out + "_entities", columns=["entity_id"])
        return (triple_multiset(read_store(out)).equals(self.expected)
                and docs_retagged == d["docs_changed"] + d["docs_added"]
                and docs_total == self.info["new_docs"]
                and ents.num_rows > 0)

    def op(self, k: int) -> tuple[float, bool, int]:
        from ccnerx_ray.pipelines.kg import update_kg

        out = self.path(f"store-{k}")
        t0 = busy_clock()
        s = update_kg(self.new_corpus, self.catalog, self.base, out, self.cfg)
        wall = busy_clock() - t0
        ok = self.check(out, s["docs_retagged"], s["docs_total"])
        nbytes = tree_bytes(out, out + "_entities")
        remove_store(out)
        return wall, ok, nbytes

    def items_done(self) -> int:
        return self.info["new_docs"]

    def trace(self, tr: Tracer) -> tuple[dict, bool]:
        """``update_kg``'s composition, one layer at a time."""
        import pyarrow as pa

        from ccnerx_ray.functions.grouping import (drop_duplicate_rows,
                                                   semi_join_on)
        from ccnerx_ray.io.store import read_triple_store
        from ccnerx_ray.ops.join import adaptive_join
        from ccnerx_ray.pipelines.kg import (_doc_key_batch, input_fingerprint,
                                             read_corpus)
        from ccnerx_ray.stages.triples import TRIPLE_SCHEMA

        key_cols = ["repo", "path", "commit"]
        tcols = [f.name for f in TRIPLE_SCHEMA]
        out = self.path("traced")
        with tr.span("update"):
            with tr.span("read") as c:
                corpus = read_corpus(self.new_corpus, self.cfg).materialize()
                docs_total = c["rows"] = corpus.count()
            with tr.span("update.doc_keys"):
                corpus = corpus.map_batches(_doc_key_batch(key_cols),
                                            batch_format="pyarrow").materialize()
                old = read_triple_store(self.base).map_batches(
                    _doc_key_batch(key_cols, sha_col="content_sha256"),
                    batch_format="pyarrow").materialize()
            with tr.span("update.semi_join") as c:
                kept = semi_join_on(
                    old, "_doc_key", corpus.select_columns(["_doc_key"]),
                    num_buckets=256,
                    out_dtypes={col: "string" for col in tcols + ["_doc_key"]},
                ).map_batches(lambda b: b.select(tcols).cast(pa.schema(TRIPLE_SCHEMA)),
                              batch_format="pyarrow").materialize()
                c["rows_carried"] = kept.count()
            with tr.span("update.distinct_keys"):
                old_keys = drop_duplicate_rows(old.select_columns(["_doc_key"]),
                                               ["_doc_key"], num_buckets=64).materialize()
            with tr.span("update.anti_join") as c:
                fresh_corpus = adaptive_join(
                    corpus, old_keys, on="_doc_key", join_type="left_anti",
                ).drop_columns(["_doc_key", "content_sha256"]).materialize()
                docs_retagged = c["docs_retagged"] = fresh_corpus.count()
            segs, _rows = traced_segment_tag(tr, fresh_corpus, self, out,
                                             input_fingerprint(self.new_corpus),
                                             carried=kept)
        sample_model_layers(tr, segs, self)
        ok = self.check(out, docs_retagged, docs_total)
        layers = layer_metrics(tr, out)
        layers["update.retag_ratio"] = docs_retagged / docs_total
        remove_store(out)
        return layers, ok


class Lookup(Workload):
    """Closed loop, one client: ``lookup_subject`` on the base store over a
    seeded mix of hot and cold entity ids, file_ref subjects and ~10%
    misses. No Ray tasks run, so Ray is stopped once the store is built;
    the store's file layout sets the cost."""

    n_docs = 300
    needs_ray = False

    def setup(self, rep: int) -> None:
        from inputs import RowSource

        rows = RowSource(self.seed, self.n_docs).take_mix(self.n_docs)
        _corpus, self.base = self.base_store(rows, rep)
        self.info["docs"] = len(rows)

    def prepare_checks(self) -> None:
        """Expected rows per subject from a pyarrow scan of the store."""
        import pyarrow.compute as pc
        from inputs import lookup_mix

        table = read_store(self.base)
        counts = table.group_by("subj").aggregate([([], "count_all")])
        subj_counts = dict(zip(counts.column("subj").to_pylist(),
                               counts.column("count_all").to_pylist()))
        self.mix = lookup_mix(self.seed, subj_counts, LOOKUP_MIX_LEN)
        wanted = table.filter(pc.is_in(table.column("subj"),
                                       value_set=pc.unique(self.mix_array())))
        self.expected: dict[str, list[tuple]] = {s: [] for s in self.mix}
        for row in zip(*(wanted.column(c).to_pylist() for c in TRIPLE_COLS)):
            self.expected[row[0]].append(row)
        for rows in self.expected.values():
            rows.sort()
        self.info["store_rows"] = table.num_rows
        self.info["distinct_subjects"] = len(subj_counts)

    def mix_array(self):
        import pyarrow as pa

        return pa.array(self.mix, pa.string())

    def check(self, subj: str, rows: list[dict]) -> bool:
        got = sorted(tuple(r[c] for c in TRIPLE_COLS) for r in rows)
        return got == self.expected[subj]

    def lookups(self, seconds: float, min_samples: int, tr: Tracer | None = None):
        """Closed loop: the next lookup starts when the previous one (and
        its untimed check) is done. Returns (latencies, failed)."""
        from ccnerx_ray.io.store import lookup_subject

        lat, failed = [], 0
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < min_samples:
            subj = self.mix[i % len(self.mix)]
            if tr is None:
                t0 = lookup_clock()
                rows = lookup_subject(self.base, subj)
                lat.append(lookup_clock() - t0)
            else:
                tr.run_id = f"lookup-{i}"
                with tr.span("lookup") as c:
                    rows = lookup_subject(self.base, subj)
                    c["rows"] = len(rows)
                    c["files"] = len(partition_files(self.base, subj))
                lat.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
            failed += not self.check(subj, rows)
            i += 1
        return lat, failed

    def trace(self, tr: Tracer) -> tuple[dict, bool]:
        tr.clock = lookup_clock
        untraced, failed = self.lookups(0, TRACE_LOOKUPS)
        traced, failed_t = self.lookups(0, TRACE_LOOKUPS, tr)
        n = len(traced)
        layers = {name: 0 for name in PER_LAYER_UNITS}
        files = store_files(self.base)
        layers.update({
            "store.files": len(files),
            "store.bytes": sum(os.path.getsize(f) for f in files),
            "lookup.files_per_lookup": tr.count("lookup", "files") / n,
            "lookup.rows_per_lookup": tr.count("lookup", "rows") / n,
            "lookup.hit_ratio": sum(1 for s in tr.spans
                                    if s["counts"].get("rows")) / n,
            "trace.overhead_s": sum(traced) - sum(untraced),
        })
        return layers, failed + failed_t == 0


def partition_files(store_dir: str, subj: str) -> list[str]:
    """The Parquet files ``lookup_subject`` opens for ``subj``: those of
    partition ``stable_hash64(subj) % num_partitions``."""
    from ccnerx_ray.functions.hashing import stable_hash64

    with open(os.path.join(store_dir, "_lineage", "_summary.json")) as fh:
        num_partitions = json.load(fh)["num_partitions"]
    part = stable_hash64(subj) % num_partitions
    return glob.glob(os.path.join(store_dir, f"part={part}", "*.parquet"))


def traced_segment_tag(tr: Tracer, corpus, wl: Workload, out: str,
                       lineage: dict, carried=None):
    """segment → fused tag/link/emit → store write (+ carried rows) →
    entity table, each stage materialized before the next. Returns the
    materialized segments and the number of rows stored."""
    import pyarrow.parquet as pq
    import ray

    from ccnerx_ray.io.store import read_triple_store, write_triple_store
    from ccnerx_ray.pipelines.kg import segments_dataset
    from ccnerx_ray.stages.canonical import entities_from_triples
    from ccnerx_ray.stages.tag import make_fused_tagger_fn

    cfg = wl.cfg
    with tr.span("segment") as c:
        segs = segments_dataset(corpus, cfg).materialize()
        c["segments"] = segs.count()
    with tr.span("tag") as c:
        ref = ray.put(list(wl.catalog))
        triples = segs.map_batches(make_fused_tagger_fn(ref, cfg),
                                   batch_format="pyarrow",
                                   batch_size=cfg.featurize_batch_size).materialize()
        c["triples"] = triples.count()
    if carried is not None:
        triples = carried.union(triples)
    with tr.span("store.write"):
        summary = write_triple_store(triples, out, cfg.output_partitions,
                                     lineage_extra=lineage)
    with tr.span("canonical") as c:
        store = read_triple_store(out, columns=["subj", "pred", "norm_key",
                                                "surface", "label"])
        entities_from_triples(store).write_parquet(out + "_entities")
        c["entities"] = sum(
            pq.read_metadata(f).num_rows
            for f in glob.glob(os.path.join(out + "_entities", "*.parquet")))
    return segs, summary["rows"]


def sample_model_layers(tr: Tracer, segs, wl: Workload) -> None:
    """Driver-side timing of the fused tag stage's three parts on a fixed
    seeded segment sample: the tagger model (trie + emissions + CRF
    decode), the link scorer and the triple emitter."""
    import random

    import pyarrow as pa
    import ray

    from ccnerx_ray.stages.link import LinkScorer
    from ccnerx_ray.stages.tag import MentionTagger
    from ccnerx_ray.stages.triples import make_triple_emitter

    table = pa.concat_tables(ray.get(segs.to_arrow_refs()))
    rng = random.Random(f"{wl.seed}|sample")
    idx = sorted(rng.sample(range(table.num_rows),
                            min(SAMPLE_SEGMENTS, table.num_rows)))
    sample = table.take(idx)
    tagger = MentionTagger(catalog_pairs=wl.catalog, cfg=wl.cfg)
    tokens = sorted(sample.column("tokens").to_pylist(), key=len)
    step = wl.cfg.tagger_batch_size
    with tr.span("model.tag_segments"):
        for off in range(0, len(tokens), step):
            tagger.model.tag_segments(tokens[off:off + step])
    nested = tagger(sample)
    linker = LinkScorer(catalog_pairs=wl.catalog)
    with tr.span("link"):
        linked = linker(nested)
    emit = make_triple_emitter(wl.cfg)
    with tr.span("triples.emit"):
        emit(linked)


def layer_metrics(tr: Tracer, out: str) -> dict:
    files = store_files(out)
    m = {name: 0 for name in PER_LAYER_UNITS}
    for layer in ("read", "segment", "tag", "model.tag_segments", "link",
                  "triples.emit", "store.write", "canonical",
                  "update.semi_join", "update.distinct_keys",
                  "update.anti_join"):
        m[f"{layer}.s"] = tr.seconds(layer)
    m.update({
        "read.rows": tr.count("read", "rows"),
        "segment.segments": tr.count("segment", "segments"),
        "tag.triples": tr.count("tag", "triples"),
        "store.files": len(files),
        "store.bytes": sum(os.path.getsize(f) for f in files),
        "canonical.entities": tr.count("canonical", "entities"),
        "update.rows_carried": tr.count("update.semi_join", "rows_carried"),
        "update.docs_retagged": tr.count("update.anti_join", "docs_retagged"),
    })
    return m


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def warm_up(work: str, seed: int) -> None:
    """One tiny full ``run_kg`` right before the measurement, so worker
    start-up and first-use imports (the entity step's pandas shuffle among
    them) are paid before anything is timed, and the workers Ray keeps are
    the same in every run whatever set-up did before."""
    from inputs import RowSource, catalog_pairs, write_corpus

    from ccnerx_ray.pipelines.kg import run_kg

    rows = RowSource(seed, WARMUP_DOCS).take_mix(WARMUP_DOCS)
    corpus = write_corpus(rows, os.path.join(work, "warmup-corpus"))
    store = os.path.join(work, "warmup-store")
    run_kg(corpus, catalog_pairs(seed), store)
    remove_store(store)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_docs: int | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload in this process (Ray must
    not be running yet). Returns (result, info)."""
    work = os.path.join(STATE_DIR, f"work-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    num_cpus = pin_cpus()
    stolen = steal_s()
    try:
        t0 = busy_clock()
        start_ray()
        init_s = busy_clock() - t0
        cls = {"build": Build, "update": Update, "lookup": Lookup}[name]
        wl = cls(seed, work, n_docs or cls.n_docs)
        reps = []
        for rep in range(SETUP_REPS):
            t0 = busy_clock()
            wl.setup(rep)
            reps.append(busy_clock() - t0)
        wl.prepare_checks()
        if wl.needs_ray:
            t0 = busy_clock()
            warm_up(work, seed)
            init_s += busy_clock() - t0
        else:
            stop_ray()
        info = dict(wl.info, workload=name, seed=seed, num_cpus=num_cpus,
                    trace=int(trace), setup_reps=[round(r, 3) for r in reps],
                    init_s=round(init_s, 3))
        if trace:
            result = traced_run(wl, name, seed)
        else:
            result = measured_run(wl, seconds, init_s + statistics.median(reps),
                                  info)
        info["steal_s"] = round(steal_s() - stolen, 2)
        return result, info
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP_DIR, ignore_errors=True)
        shutil.rmtree(os.path.join(STATE_DIR, "tmp"), ignore_errors=True)


def measured_run(wl: Workload, seconds: float, setup_s: float, info: dict) -> dict:
    if isinstance(wl, Lookup):
        lat, failed = wl.lookups(seconds, LOOKUP_MIN_SAMPLES)
        attempted = len(lat)
        # p99: the highest percentile with >= 10 samples beyond it
        tail = statistics.quantiles(lat, n=100)[98]
        items_per_s = len(lat) / sum(lat)
        store_bytes = tree_bytes(wl.base)
        info["tail"] = "p99"
    else:
        lat, oks, sizes = [], [], []
        deadline = time.perf_counter() + seconds
        k = 0
        while not lat or time.perf_counter() < deadline:
            wall, ok, nbytes = wl.op(k)
            lat.append(wall)
            oks.append(ok)
            sizes.append(nbytes)
            k += 1
        attempted, failed = len(oks), oks.count(False)
        # too few operations for a percentile: the slowest one
        tail = max(lat)
        items_per_s = wl.items_done() / statistics.median(lat)
        store_bytes = statistics.median(sizes)
        info["tail"] = "max"
    info["samples"] = len(lat)
    if len(lat) < 50:
        info["op_s"] = [round(x, 3) for x in lat]
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "items_per_s": items_per_s,
        "store_mb": store_bytes / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced_run(wl: Workload, name: str, seed: int) -> dict:
    tr = Tracer()
    if isinstance(wl, Lookup):
        layers, ok = wl.trace(tr)
    else:
        untraced, ok_untraced, _ = wl.op(0)
        tr.run_id = f"{name}-{seed}-traced"
        layers, ok = wl.trace(tr)
        ok = ok and ok_untraced
        root = tr.spans[0]
        layers["trace.overhead_s"] = (root["end"] - root["start"]) - untraced
    os.makedirs(STATE_DIR, exist_ok=True)
    tr.write(os.path.join(STATE_DIR, f"trace-{name}-{seed}.jsonl"))
    return {"correct": ok, "attempted": 1, "failed": 0 if ok else 1,
            "metrics": {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]}
                        for k in PER_LAYER_UNITS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "ccnerx_ray")):
        print(f"no ccnerx_ray package under {ROOT}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
