"""Guard: every ``PipelineConfig`` field is read by the package.

A field counts as read when some module of ``ccnerx_ray`` other than
``config.py`` names it as an attribute (``cfg.<field>``). Docstrings and
comments do not count, so a knob that only documentation mentions fails
here and is deleted rather than kept as a setting that does nothing.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import ccnerx_ray
from ccnerx_ray.config import PipelineConfig

PKG = pathlib.Path(ccnerx_ray.__file__).parent


def _attributes_read() -> set[str]:
    names = set()
    for path in PKG.rglob("*.py"):
        if path == PKG / "config.py":
            continue
        names.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute))
    return names


def test_every_config_field_is_read():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    unread = fields - _attributes_read()
    assert not unread, f"PipelineConfig fields no code reads: {sorted(unread)}"
