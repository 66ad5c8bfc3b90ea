"""Self-test of the KG benchmark on a tiny corpus: every workload runs clean
untraced and traced, and a deliberately corrupted store fails each
workload's checks.

    python3 perfbench/selftest.py

Exits 0 when every case holds; prints one line per case.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

TINY_DOCS = 40
SEED = 1


def corrupt_store(store_dir: str, subj: str | None = None) -> None:
    """Rewrite the first stored row (of ``subj``, if given) with a changed
    object — one wrong triple, same row count."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    for path in run.store_files(store_dir):
        table = pq.read_table(path)
        hits = (range(table.num_rows) if subj is None else
                pc.indices_nonzero(pc.equal(table.column("subj"), subj)).to_pylist())
        for i in hits:
            obj = table.column("obj").to_pylist()
            obj[i] = "corrupted"
            col = table.schema.get_field_index("obj")
            pq.write_table(table.set_column(col, "obj", pa.array(obj, pa.string())),
                           path)
            return
    raise AssertionError(f"no row to corrupt in {store_dir}")


def check_spec() -> None:
    """BENCHMARK.json names exactly the metrics, with the units, that the
    benchmark prints."""
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for kind, units in (("end_to_end", run.END_TO_END_UNITS),
                        ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == units, kind
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    print("ok  BENCHMARK.json matches the printed metrics")


def check_clean_runs() -> None:
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, _info = run.run_workload(name, SEED, 0.5, trace, TINY_DOCS)
            units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert set(result["metrics"]) == set(units), (name, trace)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok  {name} trace={int(trace)} runs clean")


def check_corruption_caught(work: str) -> None:
    from ccnerx_ray.pipelines.kg import run_kg, update_kg

    run.pin_cpus()
    run.start_ray()
    try:
        build = run.Build(SEED, os.path.join(work, "build"), TINY_DOCS)
        build.setup(0)
        build.prepare_checks()
        out = build.path("store")
        rows = run_kg(build.corpus, build.catalog, out, build.cfg)["rows"]
        assert build.check(out, rows)
        corrupt_store(out)
        assert not build.check(out, rows)
        print("ok  build check fails on a corrupted store")

        update = run.Update(SEED, os.path.join(work, "update"), TINY_DOCS)
        update.setup(0)
        update.prepare_checks()
        out = update.path("store")
        s = update_kg(update.new_corpus, update.catalog, update.base, out, update.cfg)
        assert update.check(out, s["docs_retagged"], s["docs_total"])
        corrupt_store(out)
        assert not update.check(out, s["docs_retagged"], s["docs_total"])
        print("ok  update check fails on a corrupted store")

        lookup = run.Lookup(SEED, os.path.join(work, "lookup"), TINY_DOCS)
        lookup.setup(0)
        lookup.prepare_checks()
        target = next(s for s in lookup.mix if lookup.expected[s])
        corrupt_store(lookup.base, target)
        _lat, failed = lookup.lookups(0, len(lookup.mix))
        assert failed >= lookup.mix.count(target), failed
        print("ok  lookup check fails on a corrupted store")
    finally:
        run.stop_ray()


def main() -> int:
    sys.path.insert(0, run.ROOT)
    check_spec()
    check_clean_runs()
    work = os.path.join(run.STATE_DIR, f"selftest-{os.getpid()}")
    try:
        check_corruption_caught(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
