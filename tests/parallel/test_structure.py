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

The second half holds the eight invariants that were reprolint rules
until PR 23 (DESIGN.md §11): the same checks, a few asserts each.
"""

import ast
import fnmatch
import pathlib
import textwrap

import pytest

from rule_fixtures import FIXTURES

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


def test_the_ac_score_calls_no_blas_routine():
    # a tuning decision must not hang on the host's BLAS: its thread
    # count changes the sum order, and its threads in forked workers
    # made 'ac' the one metric that could not fan out (EXPERIMENTS.md §14)
    tree = ast.parse((SRC / "metrics" / "autocorr.py").read_text())
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "correlate", "MatMult"}
    used = {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    } | {type(node).__name__ for node in ast.walk(tree)}
    assert not used & blas, used & blas
    (tuner,) = [
        node for node in ast.walk(ast.parse((SRC / "core" / "tuning.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "tune_parameters"
    ]
    per_metric_fan_out = [
        node for node in ast.walk(tuner)
        if isinstance(node, ast.If)
        and "fan_out" in ast.dump(node.test) and "metric" in ast.dump(node.test)
    ]
    assert not per_metric_fan_out


def test_the_scheduler_has_one_dispatch_path():
    # every admitted job is its own task in one of S slots; the collect ->
    # group-by-codec -> await-in-turn loop was measured (fill 0.125, a
    # second worker worth 1.0x) and removed (EXPERIMENTS.md §10)
    tree = ast.parse((SRC / "service" / "scheduler.py").read_text())
    (service,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "CompressionService"
    ]
    methods = {
        node.name for node in service.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "_run_job" in methods and "_fill_slots" in methods
    assert not methods & {
        "_collect_batch", "_run", "_run_batch", "_run_compress_group", "_run_single",
    }
    starts = [
        scope for node, scope in calls(service)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "create_task"
    ]
    assert starts == [("_fill_slots",)], starts


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


# ---------------------------------------------------------------------------
# The retired rules (DESIGN.md §11 maps each rule id to its pin).  A pin
# yields the lines that break its invariant in one module; RETIRED_RULES
# names the modules it guards, and ``rule_fixtures.py`` keeps the deleted
# rule's own good/bad snippets.
# ---------------------------------------------------------------------------

def tail(node):
    """Last identifier of a name or dotted name, ``''`` for anything else."""
    return getattr(node, "attr", None) or getattr(node, "id", "")


def blocking_calls_in_async_defs(tree):
    # the loop never blocks (§9): inside ``async def`` only a call that is
    # awaited may wait
    blocking = {"time.sleep", "os.system", "os.popen", "os.wait",
                "os.waitpid", "socket.create_connection", "open"}
    sockets = {"recv", "recv_into", "recvfrom", "sendall", "accept", "connect"}
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        awaited = {
            id(n.value) for n in ast.walk(func) if isinstance(n, ast.Await)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            name = ast.unparse(node.func)
            if (
                name in blocking
                or name.startswith("subprocess.")
                or ("." in name and tail(node.func) in sockets)
                or (name.endswith(".result") and not node.args
                    and not node.keywords)
            ):
                yield node.lineno


def attribute_stores_on_a_plan(tree):
    # plans stay frozen (§4): outside construction, nothing assigns an
    # attribute on a name annotated FrozenPlan or bound from a plan source
    sources = ("FrozenPlan", "derive_plan", "get_or_derive")
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name in ("__init__", "__post_init__", "derive_plan"):
            continue
        nodes = list(ast.walk(func))
        plans = {
            n.arg for n in nodes
            if isinstance(n, ast.arg) and n.annotation
            and "FrozenPlan" in ast.unparse(n.annotation)
        } | {
            target.id for n in nodes
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
            and tail(n.value.func) in sources
            for target in n.targets if isinstance(target, ast.Name)
        }
        for n in nodes:
            if (
                isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name)
                and n.value.id in plans
            ):
                yield n.lineno


def stores_into_service_state(tree):
    # counters and admission state have one writer, their own class (§10):
    # everyone else spells them ``x.metrics`` / ``x.admission`` and calls
    for n in ast.walk(tree):
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store)
            and tail(n.value).lstrip("_") in ("metrics", "admission")
        ):
            yield n.lineno


def handlers_that_drop(tree, catches, routes, typed=None):
    """``except`` clauses that catch one of ``catches`` (``None``: a bare
    ``except``) and neither call one of ``routes`` nor raise — with
    ``typed``, raise one of those classes; a bare re-raise does not count."""
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        if not {t and tail(t) for t in types} & catches:
            continue
        body = list(ast.walk(handler))
        routed = any(
            isinstance(n, ast.Call) and tail(n.func) in routes for n in body
        )
        raised = any(
            isinstance(n, ast.Raise)
            and (typed is None or tail(getattr(n.exc, "func", n.exc)) in typed)
            for n in body
        )
        if not (routed or raised):
            yield handler.lineno


RESOLVES_THE_JOB = {"encode_error", "encode_retry", "set_exception"}


def swallowed_broad_excepts(tree):
    # the error-mapping boundary (§9): a broad except converts or re-raises
    return handlers_that_drop(
        tree, {None, "Exception", "BaseException"}, RESOLVES_THE_JOB
    )


def untyped_fault_handlers(tree):
    # the recovery state machine (§12): a pool break or a timeout feeds the
    # supervisor, resolves the job, or leaves as a ReproError
    from repro import errors

    typed = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.ReproError)
    }
    return handlers_that_drop(
        tree,
        {"BrokenProcessPool", "BrokenExecutor", "TimeoutError"},
        RESOLVES_THE_JOB | {"_note_crash", "_dispatch", "_probe_failed"},
        typed,
    )


def native_byte_order_on_the_wire(tree):
    # serialized multi-byte dtypes say their byte order (§6): a literal
    # dtype is a "<..." string or one byte wide; a runtime dtype was
    # parsed from the stream and checked there
    one_byte = {"uint8", "int8", "bool_", "byte", "ubyte"}

    def argument(call, position, keyword):
        named = [k.value for k in call.keywords if k.arg == keyword]
        return (call.args[position:position + 1] + named + [None])[0]

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        inner = node.func.value
        if node.func.attr == "frombuffer":
            dtype = argument(node, 1, "dtype")
        elif (node.func.attr == "tobytes" and isinstance(inner, ast.Call)
                and tail(inner.func) == "astype"):
            dtype = argument(inner, 0, "dtype")
        else:
            continue
        if isinstance(dtype, ast.Constant) and isinstance(dtype.value, str):
            bad = (not dtype.value.startswith(("<", ">", "=", "|"))
                   and dtype.value not in one_byte)
        else:
            bad = (isinstance(dtype, ast.Attribute)
                   and tail(dtype.value) in ("np", "numpy")
                   and dtype.attr not in one_byte)
        if bad:
            yield dtype.lineno


def unpickling(tree):
    # pickle reads only bytes this program wrote (§7): the pool's own
    # channel and the private inter-shard bus
    picklers = {"pickle", "cPickle", "_pickle", "dill", "cloudpickle"}
    loaders = {"loads", "load", "Unpickler"}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            if n.module in picklers and {a.name for a in n.names} & loaders:
                yield n.lineno
        elif (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in loaders
            and tail(n.func.value) in picklers
        ):
            yield n.lineno


def shard_state_leaving_the_process(tree):
    # admission, metrics and the plan LRU are shard-private (§14): no
    # Process argument, pickle or pipe / queue write names one of them
    writes = {"send", "send_bytes", "put", "put_nowait"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if not (
            name.endswith("Process")
            or name in ("pickle.dumps", "pickle.dump")
            or ("." in name and tail(node.func) in writes)
        ):
            continue
        if any(
            tail(sub).lstrip("_") in ("plans", "metrics", "admission")
            for arg in [*node.args, *(k.value for k in node.keywords)]
            for sub in ast.walk(arg)
        ):
            yield node.lineno


WIRE_MODULES = ("encoding/*", "compressors/*", "core/stream.py",
                "core/header.py", "chunked/*", "service/protocol.py")

#: rule id -> (pin, globs under src/repro it guards, modules exempt)
RETIRED_RULES = {
    "RL002": (blocking_calls_in_async_defs, ("service/*",), ()),
    "RL004": (attribute_stores_on_a_plan, ("*",), ()),
    "RL005": (stores_into_service_state, ("service/*",), ()),
    "RL006": (swallowed_broad_excepts, ("*",), ()),
    "RL007": (native_byte_order_on_the_wire, WIRE_MODULES, ()),
    "RL008": (unpickling, ("*",),
              ("parallel/executor.py", "service/planbus.py")),
    "RL009": (untyped_fault_handlers, ("service/*", "parallel/*"), ()),
    "RL011": (shard_state_leaving_the_process,
              ("service/*", "core/plan_cache.py"), ("service/planbus.py",)),
}


def flagged(rule, relpath, source):
    pin, scope, exempt = RETIRED_RULES[rule]
    if relpath in exempt or not any(fnmatch.fnmatch(relpath, g) for g in scope):
        return []
    return sorted(pin(ast.parse(source)))


@pytest.mark.parametrize("rule", sorted(RETIRED_RULES))
def test_a_retired_rules_invariant_holds_in_src(rule):
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        relpath = path.relative_to(SRC).as_posix()
        sites += [
            (relpath, line) for line in flagged(rule, relpath, path.read_text())
        ]
    assert sites == []


@pytest.mark.parametrize(
    "rule, relpath, source, lines", FIXTURES,
    ids=[f"{f[0]}-{'bad' if f[3] else 'good'}-{i}"
         for i, f in enumerate(FIXTURES)],
)
def test_a_pin_flags_what_its_rule_flagged(rule, relpath, source, lines):
    assert flagged(rule, relpath, textwrap.dedent(source)) == lines
