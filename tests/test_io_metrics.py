"""Readers (S1/S2/S7) and distributed seqeval metrics."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest

from ccnerx_ray.functions.metrics import (classification_report, finalize,
                                          partial_counts, seqeval_metrics)
from ccnerx_ray.io.readers import (parse_conll, parse_enamex, read_conll,
                                   read_jsonl_corpus, read_tags_list)


@pytest.fixture()
def jsonl_file(tmp_path):
    p = tmp_path / "corpus.jsonl"
    rows = [{"text": ["a", "b"], "label": ["O", "S-PER"]},
            {"text": ["c"], "label": ["O"]},
            {"bad": True},                       # quarantined (M12)
            {"text": ["x", "y"], "label": ["O"]}]  # length mismatch → quarantined
    p.write_text("\n".join(json.dumps(r) for r in rows))
    return str(p)


def test_read_jsonl_corpus(ray_session, jsonl_file):
    rows = read_jsonl_corpus(jsonl_file).take_all()
    assert len(rows) == 2
    assert rows[0]["label"] == ["O", "S-PER"]


def test_read_jsonl_strict_raises(ray_session, jsonl_file):
    import ray
    with pytest.raises(Exception):
        read_jsonl_corpus(jsonl_file, strict=True).take_all()


def test_parse_conll_and_reader(ray_session, tmp_path):
    payload = "I O\nlike O\nParis S-LOC\n\nBye O\n"
    assert parse_conll(payload) == [
        (["I", "like", "Paris"], ["O", "O", "S-LOC"]), (["Bye"], ["O"])]
    p = tmp_path / "x.conll"
    p.write_text(payload)
    rows = read_conll(str(p)).take_all()
    assert len(rows) == 2
    assert rows[0]["text"] == ["I", "like", "Paris"]


def test_parse_enamex():
    chars, tags = parse_enamex(
        'go to <ENAMEX TYPE="GPE">北京</ENAMEX> now <ENAMEX TYPE="PER">张</ENAMEX>')
    assert "".join(chars) == "goto北京now张"
    assert tags[chars.index("北")] == "B-GPE"
    assert tags[chars.index("京")] == "E-GPE"
    assert tags[chars.index("张")] == "S-PER"
    assert tags[0] == "O"


def test_tags_list_roundtrip(tmp_path):
    p = tmp_path / "tags.txt"
    p.write_text("O\nB-PER\nE-PER\n")
    assert read_tags_list(str(p)) == ["O", "B-PER", "E-PER"]


# ----------------------------------------------------------------- metrics

def test_partial_counts_and_finalize():
    batch = pa.table({
        "pred": [["O", "B-PER", "E-PER"], ["S-LOC"]],
        "label": [["O", "B-PER", "E-PER"], ["O"]],
    })
    t = partial_counts(batch).to_pylist()[0]
    assert t["tp"] == 1 and t["n_pred"] == 2 and t["n_gold"] == 1
    m = finalize(t["tp"], t["n_pred"], t["n_gold"],
                 t["correct_tokens"], t["n_tokens"])
    assert m["precision"] == 0.5 and m["recall"] == 1.0


def test_m_tag_normalization_in_metrics():
    # M- (BMES) and I- (BIOES) must score identically (trainer.py:211-214)
    batch = pa.table({
        "pred": [["B-PER", "M-PER", "E-PER"]],
        "label": [["B-PER", "I-PER", "E-PER"]],
    })
    t = partial_counts(batch).to_pylist()[0]
    assert t["tp"] == 1 and t["correct_tokens"] == 3


def test_seqeval_metrics_distributed(ray_session):
    import ray.data
    rows = [{"pred": ["B-PER", "E-PER", "O"], "label": ["B-PER", "E-PER", "O"]}
            for _ in range(50)]
    rows += [{"pred": ["S-LOC"], "label": ["O"]} for _ in range(10)]
    ds = ray.data.from_items(rows).repartition(5)
    m = seqeval_metrics(ds)
    assert m["tp"] == 50 and m["n_pred"] == 60 and m["n_gold"] == 50
    assert abs(m["precision"] - 50 / 60) < 1e-12 and m["recall"] == 1.0
    rep = classification_report(ds)
    assert rep["PER"]["f1"] == 1.0
    assert rep["LOC"]["precision"] == 0.0
