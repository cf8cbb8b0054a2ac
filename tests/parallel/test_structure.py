"""One pooled fan-out, checked on the syntax tree.

``ChunkWorkPool`` is the only code in ``src/`` allowed to construct a
``ProcessPoolExecutor`` or create a :class:`~repro.parallel.slab.Slab`
(DESIGN.md §7, §13).  A second pool or a second slab owner is exactly
the duplication this layout removed, so both are pinned here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent.parent / "src" / "repro"


def calls(tree, parents=()):
    """Yield ``(call node, enclosing class names)`` for every call."""
    for node in ast.iter_child_nodes(tree):
        inner = parents
        if isinstance(node, ast.ClassDef):
            inner = parents + (node.name,)
        if isinstance(node, ast.Call):
            yield node, parents
        yield from calls(node, inner)


def call_sites(match):
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, classes in calls(tree):
            if match(node.func):
                sites.append((path.relative_to(SRC).as_posix(), classes))
    return sites


def test_process_pools_are_built_only_inside_chunkworkpool():
    sites = call_sites(
        lambda f: (isinstance(f, ast.Name) and f.id == "ProcessPoolExecutor")
        or (isinstance(f, ast.Attribute) and f.attr == "ProcessPoolExecutor")
    )
    assert sites, "the check no longer sees the pool being built"
    assert all(
        path == "parallel/executor.py" and classes == ("ChunkWorkPool",)
        for path, classes in sites
    ), sites


def test_slabs_are_created_only_under_parallel():
    sites = call_sites(
        lambda f: isinstance(f, ast.Attribute)
        and f.attr == "create"
        and isinstance(f.value, ast.Name)
        and "Slab" in f.value.id
    )
    assert sites, "the check no longer sees a slab being created"
    assert all(path.startswith("parallel/") for path, _ in sites), sites


def test_the_scheduler_does_not_import_the_slab_module():
    tree = ast.parse((SRC / "service" / "scheduler.py").read_text())
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert "repro.parallel.slab" not in imported
