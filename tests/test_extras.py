"""Sampling ops (T3-T6), grouping primitive."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_sampling_deterministic(ray_session):
    import ray.data
    from ccnerx_ray.ops.sampling import (few_shot_sample, sample_fraction,
                                         train_val_split)

    ds = ray.data.range(1000)
    a = sorted(r["id"] for r in sample_fraction(ds, 0.1, seed=7).take_all())
    b = sorted(r["id"] for r in sample_fraction(ray.data.range(1000), 0.1,
                                                seed=7).take_all())
    assert a == b and 40 < len(a) < 200
    fs = few_shot_sample(ray.data.range(1000), 25, seed=7).take_all()
    assert len(fs) == 25
    tr, va = train_val_split(ray.data.range(100), 0.2, seed=7)
    assert tr.count() == 80 and va.count() == 20


def test_grouped_reduce_and_drop_duplicates(ray_session):
    import ray.data
    from ccnerx_ray.functions.grouping import drop_duplicate_rows, grouped_reduce

    rows = [{"k": i % 7, "v": float(i)} for i in range(200)]
    ds = ray.data.from_items(rows)
    red = grouped_reduce(ds, ["k"], {"v": "sum"}, num_buckets=16).take_all()
    assert len(red) == 7
    want = {k: sum(float(i) for i in range(200) if i % 7 == k)
            for k in range(7)}
    for r in red:
        assert r["v"] == want[r["k"]]
    dd = drop_duplicate_rows(ds, ["k"], num_buckets=8).take_all()
    assert len(dd) == 7


def test_prompt_generation_and_mlm_labels():
    from ccnerx_ray.functions.prompt import (IGNORE, MASK, build_prompt,
                                             mlm_labels)

    p = build_prompt(["parse", "_", "foo"], "FUNC", label_text=["func"])
    assert p["prompt"] == ["parse", "_", "foo", "is", "a", MASK]
    assert p["origin"] == ["parse", "_", "foo", "is", "a", "func"]
    assert p["mlm_mask"] == [0, 0, 0, 0, 0, 1]
    assert p["tags"] == ["B-FUNC", "I-FUNC", "E-FUNC", "O", "O", "O"]
    labels = mlm_labels([10, 11, 12, 13, 14, 15], p["mlm_mask"])
    assert labels == [IGNORE] * 5 + [15]


def test_prompts_from_catalog_stage(ray_session):
    import ray.data
    import pyarrow as pa
    from ccnerx_ray.functions.prompt import prompts_from_catalog

    t = pa.table({"word": pa.array([["foo_fn"], ["Bar", "Cls"]],
                                   pa.list_(pa.string())),
                  "label": pa.array(["FUNC", "CLASS"], pa.string())})
    rows = (ray.data.from_arrow(t)
            .map_batches(prompts_from_catalog, batch_format="pyarrow")
            .take_all())
    assert rows[0]["prompt"][-1] == "[MASK]"
    assert rows[1]["tags"][:2] == ["B-CLASS", "E-CLASS"]


def test_hash_split_deterministic_partition(ray_session):
    """Every row gets exactly one split; assignment is a pure function of
    the id (partitioning-independent, rerun-stable) and matches the
    documented sha256 per-mille arithmetic."""
    import ray.data
    from ccnerx_ray.functions.hashing import sha256_hex
    from ccnerx_ray.ops.sampling import hash_split

    rows = [{"doc_id": i} for i in range(500)]
    a = hash_split(ray.data.from_items(rows)).take_all()
    b = hash_split(ray.data.from_items(rows).repartition(7)).take_all()
    assert sorted((r["doc_id"], r["split"]) for r in a) == \
        sorted((r["doc_id"], r["split"]) for r in b)
    for r in a:
        pm = int(sha256_hex(f"split:{r['doc_id']}")[:15], 16) % 1000
        assert r["bucket_pm"] == pm
        assert r["split"] == ("train" if pm < 900
                              else "val" if pm < 950 else "test")
    from collections import Counter
    c = Counter(r["split"] for r in a)
    assert set(c) == {"train", "val", "test"} and sum(c.values()) == 500
    assert c["train"] > c["val"] and c["train"] > c["test"]


def test_stratified_sample_deterministic(ray_session):
    import ray.data
    from ccnerx_ray.ops.sampling import stratified_sample

    rows = [{"k": f"c{i % 4}", "id": i} for i in range(200)]
    a = stratified_sample(ray.data.from_items(rows), "k", "id", 7).take_all()
    b = stratified_sample(ray.data.from_items(rows).repartition(9),
                          "k", "id", 7).take_all()
    ka = sorted((r["k"], r["id"]) for r in a)
    kb = sorted((r["k"], r["id"]) for r in b)
    assert ka == kb                           # partitioning-independent
    from collections import Counter
    assert all(v == 7 for v in Counter(r["k"] for r in a).values())
    # different seed → different draw
    c = stratified_sample(ray.data.from_items(rows), "k", "id", 7,
                          seed=9).take_all()
    assert sorted((r["k"], r["id"]) for r in c) != ka


def test_pii_scrub_contract_vs_duckdb():
    """The Python regexes and DuckDB's RE2 must agree match-for-match on
    adversarial inputs (boundaries at string edges, 11-digit runs that
    must NOT match, unicode digits that must NOT match under re.ASCII)."""
    import duckdb

    from ccnerx_ray.ops.text import (PII_EMAIL_RE, PII_IP_RE, PII_PHONE_RE,
                                     scrub_pii)

    cases = [
        "a.b+c%d@ex-1.co and x@y.io tail",
        "@nope no@tld x@.com trailing@dot.",
        "1234567890",                 # bare phone, string edges
        "x1234567890 12345678901 123456789",   # glued / 11 / 9 digits
        "ip 1.2.3.4, 255.255.255.255 and 1.2.3.4.5 chain",
        "mixed a@b.cc 10.0.0.1 0123456789 end",
        "phone then ip 9999999999 1.2.3.4",
        "١٢٣٤٥٦٧٨٩٠ unicode digits stay",      # Arabic-Indic digits
        "數字1234567890漢",                      # CJK-adjacent digit run
        "",
    ]
    con = duckdb.connect()
    for t in cases:
        got = scrub_pii(t)
        want = con.execute(
            """
            WITH e AS (SELECT regexp_replace(?, ?, '<EMAIL>', 'g') AS t,
                       len(regexp_extract_all(?, ?)) AS n),
            i AS (SELECT regexp_replace(t, ?, '<IP>', 'g') AS t, n,
                  len(regexp_extract_all(t, ?)) AS ni FROM e)
            SELECT regexp_replace(t, ?, '<PHONE>', 'g'), n, ni,
                   len(regexp_extract_all(t, ?)) FROM i
            """,
            [t, PII_EMAIL_RE, t, PII_EMAIL_RE, PII_IP_RE, PII_IP_RE,
             PII_PHONE_RE, PII_PHONE_RE]).fetchone()
    # DuckDB returns counts as int; align tuple shapes
        assert got == (want[0], int(want[1]), int(want[2]), int(want[3])), \
            (t, got, want)
    con.close()


def test_pack_documents_chunk_boundary_invariance(ray_session):
    """Pack assignment must not depend on the chunking width: a pack that
    straddles chunk boundaries (chunk=3 forces many) aggregates to the
    same result as one big chunk."""
    import ray.data

    from ccnerx_ray.ops.text import pack_documents

    rows = [{"doc_id": i, "source": f"s{i % 2}",
             "text": " ".join(["w"] * (5 + (i * 7) % 11))}
            for i in range(40)]
    ds = ray.data.from_items(rows)
    small = pack_documents(ds, budget=20, chunk=3).take_all()
    big = pack_documents(ray.data.from_items(rows), budget=20,
                         chunk=4096).take_all()
    key = lambda r: (r["source"], r["pack_id"])
    assert sorted(map(dict, small), key=key) == \
           sorted(map(dict, big), key=key)
    # every pack except possibly each source's last holds ≥ budget-worth
    # of doc prefixes: total tokens per source == sum over its packs
    tot = {}
    for r in small:
        tot[r["source"]] = tot.get(r["source"], 0) + r["pack_tokens"]
    want = {}
    for r in rows:
        want[r["source"]] = want.get(r["source"], 0) + len(r["text"].split())
    assert tot == want


def test_corr_cents_exact_and_sign(ray_session):
    """corr_cents must match numpy's float corr to ~1e-6 and flip sign
    with the relationship; the int64-overflow regime (price²-scale
    values) must still merge exactly via the string partials."""
    import ray.data

    from ccnerx_ray.ops.profile import corr_cents

    n = 5000
    rng = np.random.default_rng(3)
    x = rng.uniform(1, 50, n).round(2)
    y = (3.5 * x + rng.normal(0, 5, n)).round(2)
    ds = ray.data.from_items(
        [{"x": float(a), "y": float(b)} for a, b in zip(x, y)])
    out = corr_cents(ds, "x", "y", batch_size=256)
    xc = np.floor(x * 100 + 0.5)
    yc = np.floor(y * 100 + 0.5)
    want = np.corrcoef(xc, yc)[0, 1]
    assert abs(out["corr_micro"].iloc[0] / 1e6 - want) < 1e-5
    assert out["n_rows"].iloc[0] == n
    assert out["sum_x_cents"].iloc[0] == int(xc.sum())

    neg = corr_cents(
        ray.data.from_items(
            [{"x": float(a), "y": float(1e5 - 3 * a)} for a in x]),
        "x", "y", batch_size=256)
    assert neg["corr_micro"].iloc[0] < -999_000   # ≈ -1
