"""Guards: every ``PipelineConfig`` field is read by the package, and
every ``MentionTagger`` keyword is passed by some caller.

A field counts as read when some module of ``ccnerx_ray`` other than
``config.py`` names it as an attribute (``cfg.<field>``). Docstrings and
comments do not count, so a knob that only documentation mentions fails
here and is deleted rather than kept as a setting that does nothing.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

import ccnerx_ray
from ccnerx_ray.config import PipelineConfig
from ccnerx_ray.stages.tag import MentionTagger

PKG = pathlib.Path(ccnerx_ray.__file__).parent
REPO = PKG.parent
CALLER_GLOBS = ("ccnerx_ray/**/*.py", "jobs/*.py", "perfbench/*.py",
                "bench.py", "__ray_entry__.py")


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


def _keywords_passed() -> set[str]:
    """Names passed as ``f(name=...)`` or as a string key of a dict
    literal (the ``fn_constructor_kwargs={...}`` form), outside
    ``stages/tag.py``."""
    names = set()
    for pattern in CALLER_GLOBS:
        for path in REPO.glob(pattern):
            if path == PKG / "stages" / "tag.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(k.value for k in node.keys
                                 if isinstance(k, ast.Constant)
                                 and isinstance(k.value, str))
    return names


def test_every_tagger_parameter_is_passed():
    params = set(inspect.signature(MentionTagger.__init__).parameters) - {"self"}
    unpassed = params - _keywords_passed()
    assert not unpassed, f"MentionTagger parameters no caller passes: {sorted(unpassed)}"
