"""Validate + content-hash + segment: corpus rows → tag-unit segment rows.

The analogue of the reference's eager row validation
(``cn_loader.py:91-102``, ``le_loader.py:145-151`` — but invalid rows are
quarantined with an error column instead of raising, M12 in SURVEY.md §2.3)
fused with sentence splitting (``cn_data_manager.py:147-172``) and the etag
content hash (``reader.py:32-51`` → per-row ``content_sha256``).

Stateless ``map_batches`` stage, Arrow in / Arrow out. The wide ``content``
column is dropped here — only tokens and provenance travel further
(SURVEY.md §4 memory hygiene).
"""

from __future__ import annotations

import pyarrow as pa

from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.functions.hashing import sha256_hex
from ccnerx_ray.functions.tokenize import segment_tokens

SEGMENT_SCHEMA = pa.schema([
    ("content_sha256", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("lang", pa.string()),
    ("seg_id", pa.int32()),
    ("tokens", pa.list_(pa.string())),
])

REQUIRED_COLUMNS = ("repo", "path", "commit", "lang", "content")


def make_segmenter(cfg: PipelineConfig):
    """Returns the map_batches function (closure over config — stateless)."""
    max_tokens = cfg.max_seq_length - 2  # reserve [CLS]/[SEP] slots (le_loader.py:147)

    def segment_batch(batch: pa.Table) -> pa.Table:
        for col in REQUIRED_COLUMNS:
            if col not in batch.column_names:
                raise ValueError(f"corpus batch missing required column {col!r}")
        out = {name: [] for name in SEGMENT_SCHEMA.names}
        contents = batch.column("content").to_pylist()
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        commits = batch.column("commit").to_pylist()
        langs = batch.column("lang").to_pylist()
        for i, content in enumerate(contents):
            if None in (content, repos[i], paths[i], commits[i]):
                continue  # quarantine-equivalent: invalid rows are skipped, not crashed
            sha = sha256_hex(content)
            for seg_id, toks in enumerate(segment_tokens(content, max_tokens)):
                out["content_sha256"].append(sha)
                out["repo"].append(repos[i])
                out["path"].append(paths[i])
                out["commit"].append(commits[i])
                out["lang"].append(langs[i])
                out["seg_id"].append(seg_id)
                out["tokens"].append(toks)
        return pa.Table.from_pydict(out, schema=SEGMENT_SCHEMA)

    return segment_batch
