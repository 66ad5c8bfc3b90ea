"""Guard: every module of the package is reached by an entry point.

The roots are the KG pipeline, oracle, store and corpus modules plus the
package imports of every entry point (``jobs/*.py``, ``perfbench/*.py``,
``bench.py``, ``__ray_entry__.py``). A module outside their import
closure is code no caller needs; this test names it so it is deleted,
not kept.

``TEST_ONLY`` lists the modules that today are imported by tests alone.
They are the next deletion candidates. The list must stay exact: a new
orphan fails the test, and so does a listed module that was deleted or
gained a caller (then drop it from the list).
"""

from __future__ import annotations

import ast
import pathlib

import ccnerx_ray

PKG = pathlib.Path(ccnerx_ray.__file__).parent
REPO = PKG.parent
ROOT_MODULES = ("ccnerx_ray.pipelines.kg", "ccnerx_ray.pipelines.oracle",
                "ccnerx_ray.io.store", "ccnerx_ray.corpus")
ENTRY_POINTS = ("jobs/*.py", "perfbench/*.py", "bench.py",
                "__ray_entry__.py")
TEST_ONLY = frozenset({
    "ccnerx_ray.functions.metrics", "ccnerx_ray.io.readers",
    "ccnerx_ray.stages.featurize",
})


def _modules() -> dict[str, pathlib.Path]:
    out = {}
    for path in PKG.rglob("*.py"):
        parts = list(path.relative_to(REPO).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _imports(path: pathlib.Path, module: str | None) -> set[str]:
    """Fully qualified names a file imports (``from a import b`` yields
    both ``a`` and ``a.b``; relative imports resolve against ``module``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module:
                pkg = module.split(".")
                if path.name != "__init__.py":
                    pkg = pkg[:-1]
                pkg = pkg[:len(pkg) - node.level + 1]
                base = ".".join(pkg + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def _reached(names: set[str], modules: dict) -> set[str]:
    """Package modules a set of imported names loads, parents included."""
    out = set()
    for name in names:
        parts = name.split(".")
        out.update(m for m in (".".join(parts[:i])
                               for i in range(1, len(parts) + 1))
                   if m in modules)
    return out


def test_every_module_is_reached_by_an_entry_point():
    modules = _modules()
    todo = _reached(set(ROOT_MODULES), modules)
    for pattern in ENTRY_POINTS:
        for path in REPO.glob(pattern):
            todo |= _reached(_imports(path, None), modules)
    seen: set[str] = set()
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        todo |= _reached(_imports(modules[mod], mod), modules) - seen
    orphans = set(modules) - seen
    assert not orphans - TEST_ONLY, \
        f"modules no entry point imports: {sorted(orphans - TEST_ONLY)}"
    assert not TEST_ONLY - orphans, \
        f"no longer test-only, drop from TEST_ONLY: {sorted(TEST_ONLY - orphans)}"
