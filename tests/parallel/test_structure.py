"""One pooled fan-out and one front door, checked on the syntax tree.

``ChunkWorkPool`` is the only code in ``src/`` allowed to construct a
``ProcessPoolExecutor`` or create a :class:`~repro.parallel.slab.Slab`,
and the library's one is built by ``kept_pool`` alone
(DESIGN.md §7, §13); every compress route is the same admit ->
derive -> execute (§4): ``Compressor`` owns the plan contract, one
function makes a relative bound absolute, and the scheduler borrows the
library's ``CompressJob`` instead of rebuilding its walk.  A second
pool, slab owner, plan probe, bound resolver or container walk is
exactly the duplication this layout removed, so each is pinned here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent.parent / "src" / "repro"


def calls(tree, parents=()):
    """Yield ``(call node, enclosing class / function names)`` for every
    call."""
    for node in ast.iter_child_nodes(tree):
        inner = parents
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
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
        path == "parallel/executor.py" and scope[0] == "ChunkWorkPool"
        for path, scope in sites
    ), sites


def test_the_library_borrows_the_kept_pool_and_builds_none():
    # one ChunkWorkPool per process behind every ``processes=`` call: the
    # registry builds it, the service owns its own, nothing else does
    sites = call_sites(
        lambda f: isinstance(f, ast.Name) and f.id == "ChunkWorkPool"
    )
    assert sorted(sites) == [
        ("parallel/executor.py", ("kept_pool",)),
        ("service/scheduler.py", ("CompressionService", "__init__")),
    ]


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


def test_nothing_probes_a_codec_for_plan_support():
    # Compressor.derives_plan answers it; duck-typing probes are how the
    # routes used to disagree about which codecs plan
    def is_probe(node):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in ("hasattr", "getattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in ("derive_plan", "compress_with_plan")
        )

    sites = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node, _ in calls(ast.parse(path.read_text()))
        if is_probe(node)
    ]
    assert sites == []


def test_the_constant_field_fallback_is_written_once():
    # ``abs(first value) or 1.0``: the scale a relative bound falls back
    # to when the value range is zero
    def is_fallback(node):
        return (
            isinstance(node, ast.BoolOp)
            and isinstance(node.op, ast.Or)
            and isinstance(node.values[0], ast.Call)
            and isinstance(node.values[0].func, ast.Name)
            and node.values[0].func.id == "abs"
            and isinstance(node.values[-1], ast.Constant)
            and node.values[-1].value == 1.0
        )

    sites = [
        (path.relative_to(SRC).as_posix(), func.name)
        for path in sorted(SRC.rglob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if is_fallback(node)
    ]
    assert sites == [("utils.py", "resolve_error_bound")]


def test_the_scheduler_borrows_the_library_walk():
    tree = ast.parse((SRC / "service" / "scheduler.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.chunked")
        for alias in node.names
    }
    assert "CompressJob" in names
    assert not {n for n in names if n.startswith("_")}, names
    assert not names & {"ChunkedWriter", "grid_for"}, names


def test_each_codec_module_builds_its_plan_in_one_place():
    modules = [*sorted((SRC / "compressors").glob("*.py")), SRC / "core" / "qoz.py"]
    for path in modules:
        built = [
            node for node, _ in calls(ast.parse(path.read_text()))
            if isinstance(node.func, ast.Name) and node.func.id == "FrozenPlan"
        ]
        assert len(built) <= 1, path.name


def test_the_shard_supervisor_is_not_on_the_data_path():
    # one accept path: shards listen on the public port themselves
    # (SO_REUSEPORT); the supervisor listens for STATS/PING only and
    # never dials a shard — a router in front of them was measured and
    # removed (EXPERIMENTS.md §10)
    tree = ast.parse((SRC / "service" / "sharding.py").read_text())
    listens = [
        scope for node, scope in calls(tree)
        if isinstance(node.func, ast.Attribute)
        and node.func.attr == "start_server"
    ]
    assert listens and all(s[0] == "_AdminServer" for s in listens), listens
    assert "open_connection" not in {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_tuning_trial_is_one_evaluator():
    # the inline runner and a pool worker both reach the engine through
    # _evaluate_candidate; a second caller would be a second trial kernel
    sites = [
        scope for path, scope in call_sites(
            lambda f: isinstance(f, ast.Name) and f.id == "interp_compress"
        )
        if path == "core/tuning.py"
    ]
    assert sites == [("_evaluate_candidate",)]


def test_core_does_not_import_the_pool():
    # derivation takes a trial runner as an argument; it never reaches
    # for a pool itself, so a worker that derives cannot fan out again
    for path in sorted((SRC / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = []
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            assert not [m for m in modules if m.startswith("repro.parallel")], path


def test_a_library_compress_call_borrows_the_kept_pool_once():
    # one ``with kept_pool(...)`` around derive + execute, not one each
    sites = [
        scope for path, scope in call_sites(
            lambda f: isinstance(f, ast.Name) and f.id == "kept_pool"
        )
        if path == "chunked/api.py"
    ]
    assert sorted(sites) == [
        ("ChunkedFile", "read"), ("CompressJob", "compress_to"),
    ]
