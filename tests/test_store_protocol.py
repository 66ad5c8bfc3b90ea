"""The store protocol: every store write is staged and published with one
rename, readers take only published stores, and counter reads never
start the counter actor (SURVEY.md §7 "checkpoint correctness")."""

from __future__ import annotations

import glob
import hashlib
import os
import pathlib
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.corpus import build_catalog, write_corpus

CFG = PipelineConfig(output_partitions=4)
SEED = 42


def _triples(names: list[str], blocks: int = 2):
    import ray.data

    return ray.data.from_items(
        [{"subj": f"{n}-s{j}", "pred": "p", "obj": f"o{j}"}
         for n in names for j in range(3)], override_num_blocks=blocks)


def _failing(ds):
    """``ds`` with a UDF that raises on the second of its two blocks (the
    one holding name ``f3``'s rows)."""

    def boom(batch: pa.Table) -> pa.Table:
        if any(s.startswith("f3-") for s in batch.column("subj").to_pylist()):
            raise RuntimeError("injected write failure")
        return batch

    return ds.map_batches(boom, batch_format="pyarrow")


def _stages(parent) -> list[str]:
    return [d for d in os.listdir(parent) if ".tmp-" in d]


def _spo(path) -> list[tuple]:
    from ccnerx_ray.io.store import read_triple_store

    rows = read_triple_store(path, columns=["subj", "pred", "obj"]).take_all()
    return sorted((r["subj"], r["pred"], r["obj"]) for r in rows)


def _tree_digest(path) -> dict[str, str]:
    return {f: hashlib.sha256(pathlib.Path(f).read_bytes()).hexdigest()
            for f in sorted(glob.glob(os.path.join(path, "**"), recursive=True))
            if os.path.isfile(f)}


@pytest.fixture(scope="module")
def small_kg(tmp_path_factory):
    d = tmp_path_factory.mktemp("kg")
    corpus = write_corpus(str(d / "corpus"), 16, seed=SEED, num_files=2)
    return corpus, sorted(build_catalog(SEED).surface2label.items())


def test_failed_write_leaves_no_store(ray_session, tmp_path):
    """A write whose UDF raises leaves neither the store nor its stage, and
    the same path then takes a clean write."""
    from ccnerx_ray.io.store import write_triple_store

    out = str(tmp_path / "store")
    bad = _failing(_triples(["f2", "f3"]))
    with pytest.raises(Exception, match="injected write failure"):
        write_triple_store(bad, out, num_partitions=4)
    assert not os.path.exists(out)
    assert _stages(tmp_path) == []

    summary = write_triple_store(_triples(["f2", "f3"]), out, num_partitions=4)
    assert summary["rows"] == 6 and summary["num_partitions"] == 4
    assert _spo(out) == sorted((f"{n}-s{j}", "p", f"o{j}")
                               for n in ("f2", "f3") for j in range(3))
    assert _stages(tmp_path) == []


def test_publish_sweeps_stages_of_dead_runs(tmp_path):
    """A stage left by a process that is gone is removed when the store is
    next published; the stage of a process still running is kept."""
    import subprocess
    import sys

    from ccnerx_ray.io.store import published

    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    live = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(60)"])
    try:
        for pid in (dead.pid, live.pid):
            os.makedirs(tmp_path / f".store.tmp-{pid}" / "part=0")
        os.makedirs(tmp_path / f".other.tmp-{dead.pid}")
        with published(str(tmp_path / "store")) as stage:
            pathlib.Path(stage, "x").write_text("x")
        assert sorted(os.listdir(tmp_path)) == sorted(
            [".other.tmp-%d" % dead.pid, ".store.tmp-%d" % live.pid, "store"])
    finally:
        live.kill()
        live.wait(timeout=10)


def test_resumable_rerun_after_chunk_crash(ray_session, tmp_path):
    """A chunk that dies mid-write is neither published nor left staged; the
    re-run runs only that chunk and the store equals an uninterrupted run."""
    from ccnerx_ray.io.store import run_resumable, write_triple_store

    files = ["f0", "f1", "f2", "f3"]
    failed = []

    def run_chunk(chunk, chunk_dir):
        ds = _triples(chunk)
        if chunk == ["f2", "f3"] and not failed:
            failed.append(chunk_dir)
            ds = _failing(ds)
        write_triple_store(ds, chunk_dir, num_partitions=4)

    out = str(tmp_path / "resume")
    with pytest.raises(Exception, match="injected write failure"):
        run_resumable(files, out, run_chunk, chunk_size=2)
    assert sorted(os.listdir(out)) == ["chunk=00000"]

    again = run_resumable(files, out, run_chunk, chunk_size=2)
    assert again["chunks_run"] == ["chunk=00001"]
    assert again["chunks_skipped"] == ["chunk=00000"]
    assert sorted(os.listdir(out)) == ["chunk=00000", "chunk=00001"]

    whole = str(tmp_path / "whole")
    run_resumable(files, whole, run_chunk, chunk_size=2)
    assert _spo(out) == _spo(whole)
    assert _stages(tmp_path) == []


def test_store_without_summary_is_refused(ray_session, small_kg, tmp_path):
    """A flat store whose run died before its lineage summary was written
    is refused by every reader, not served with a guessed modulus."""
    from ccnerx_ray.io.store import compact_store, lookup_subject
    from ccnerx_ray.pipelines.kg import run_kg, update_kg

    corpus, catalog = small_kg
    store = str(tmp_path / "store")
    run_kg(corpus, catalog, store, CFG, build_entities=False)
    subj = pq.read_table(glob.glob(os.path.join(store, "part=*", "*.parquet"))[0],
                         columns=["subj"]).column("subj")[0].as_py()
    assert lookup_subject(store, subj)
    os.remove(os.path.join(store, "_lineage", "_summary.json"))

    with pytest.raises(ValueError, match="num_partitions"):
        lookup_subject(store, subj)
    compacted = str(tmp_path / "compacted")
    with pytest.raises(ValueError, match="num_partitions"):
        compact_store(store, compacted)
    assert not os.path.exists(compacted)
    updated = str(tmp_path / "updated")
    with pytest.raises(ValueError, match="num_partitions"):
        update_kg(corpus, catalog, store, updated, CFG)
    assert not os.path.exists(updated)


def test_run_kg_refuses_existing_entities_first(ray_session, small_kg,
                                                tmp_path, monkeypatch):
    """An existing ``<out>_entities`` is refused before the corpus is read,
    and the old entity table stays byte-identical."""
    from ccnerx_ray.pipelines import kg

    corpus, catalog = small_kg
    out = str(tmp_path / "store")
    ents = out + "_entities"
    os.makedirs(ents)
    pq.write_table(pa.table({"entity_id": ["e1"], "n_mentions": [1]}),
                   os.path.join(ents, "old.parquet"))
    before = _tree_digest(ents)

    def no_ray_work(*args, **kwargs):
        raise AssertionError("run_kg started reading the corpus")

    monkeypatch.setattr(kg, "read_corpus", no_ray_work)
    with pytest.raises(FileExistsError, match="_entities"):
        kg.run_kg(corpus, catalog, out, CFG)
    assert _tree_digest(ents) == before
    assert not os.path.exists(out)


def test_counter_reads_do_not_start_the_actor(ray_session, tmp_path):
    """Writing a store, reading and resetting counters leave no counter
    actor behind; an increment still starts it and is read back."""
    import ray

    from ccnerx_ray.io.store import write_triple_store
    from ccnerx_ray.state import metrics

    def actor_alive() -> bool:
        return any(a["name"] == metrics.ACTOR_NAME for a in
                   ray.util.list_named_actors(all_namespaces=True))

    def poll(cond) -> bool:
        for _ in range(100):
            if cond():
                return True
            time.sleep(0.1)
        return False

    if actor_alive():
        ray.kill(ray.get_actor(metrics.ACTOR_NAME,
                               namespace=metrics.NAMESPACE))
        assert poll(lambda: not actor_alive())

    write_triple_store(_triples(["a"], blocks=1), str(tmp_path / "s"),
                       num_partitions=4)
    assert metrics.snapshot() == {}
    metrics.reset()
    assert not actor_alive()

    metrics.incr("x")
    assert poll(lambda: metrics.snapshot().get("x") == 1)
    metrics.reset()
