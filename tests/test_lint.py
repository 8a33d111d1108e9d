"""A stdlib lint gate for the package sources: no unused imports, no stale exports, no dead public names."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import sqfdepth

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqfdepth"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))  # a name listed in __all__ is re-exported
    return [f"{path.name}:{line} {name}" for name, line in imported if name not in used]


def test_module_level_imports_are_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_package_all_entries_resolve():
    assert [name for name in sqfdepth.__all__ if not hasattr(sqfdepth, name)] == []
    assert len(set(sqfdepth.__all__)) == len(sqfdepth.__all__)


def _referenced(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_public_names_have_a_caller():
    # A public top-level function or class of a package module must be used by
    # the package or the benchmark somewhere outside its own definition.
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    refs = [(node, _referenced(node)) for tree in trees.values() for node in tree.body]
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == SRC and path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for other, names in refs if other is not node)
    ]
    assert unused == []


def test_scan_builds_on_analyze_alone():
    # A scan reads each record off an analyze report; importing a stage of its
    # own would grow a second pipeline that no cross-check covers.
    names = set()
    for node in ast.walk(ast.parse((SRC / "scan.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    stages = {"strands", "stanley", "poset", "enumerate_quotient", "exact_depth_multi", "stanley_depth"}
    assert sorted(name for name in names if name in stages or name.startswith("check_")) == []


def test_certificates_only_conclude():
    # Checkers return conclusions and analyze alone judges them; a raise in a
    # checker would be a second judge whose verdict never reaches the report.
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)] == []


def test_the_package_raises_one_type_for_bad_input():
    # Bad input raises InputError, a bug InternalConsistencyError, and an
    # unreachable branch AssertionError.  A second bad-input type, or a bare
    # ValueError, would split one contract across types that no caller tells
    # apart.
    allowed = {"InputError", "InternalConsistencyError", "AssertionError"}
    raised, named = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name not in allowed:
                    raised.append(f"{path.name}:{node.lineno} {name}")
        if "ValidationError" in text:
            named.append(path.name)
    assert raised == []
    assert named == []


def test_the_cli_is_the_one_json_writer():
    # cli.py shapes every document the package prints, and instancefile.py
    # reads and writes the instance file format.  A JSON method on a report
    # type, or an asdict call elsewhere, would be a second writer of a shape.
    importers, writers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and "json" in {a.name for a in node.names} or (
                isinstance(node, ast.ImportFrom) and node.module == "json"
            ):
                importers.append(path.name)
            if path.name != "cli.py" and (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("to_json")
                or isinstance(node, ast.Call) and "asdict" in _referenced(node.func)
                or isinstance(node, ast.alias) and node.name == "asdict"
            ):
                writers.append(f"{path.name}:{node.lineno} {getattr(node, 'name', 'asdict')}")
    assert importers == ["cli.py", "instancefile.py"]
    assert writers == []


def test_benchmark_coverage_spans_name_traced_functions(monkeypatch):
    # The benchmark's traced runs require a span for each name in REQUIRED_SPANS,
    # and its tracer wraps exactly the public functions defined in each module;
    # a renamed or moved function would turn a traced run incorrect unnoticed.
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    names = sorted({name for spans in run.REQUIRED_SPANS.values() for name in spans})
    assert names
    untraced = []
    for name in names:
        mod, _, func = name.partition(".")
        module = importlib.import_module(f"sqfdepth.{mod}")
        fn = getattr(module, func, None)
        if func.startswith("_") or isinstance(fn, type) or not callable(fn) or fn.__module__ != module.__name__:
            untraced.append(name)
    assert untraced == []


def test_the_variable_limit_has_one_home():
    # monomials.check_variable_count is the one rule for the ambient n.  A copy
    # of the limit in another module, or a range check in the CLI, would be a
    # second rule that the library path does not share.
    assigned, named = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign) and "MAX_VARIABLES" in {getattr(t, "id", None) for t in node.targets}:
                assigned.append(path.name)
        if path.name != "monomials.py" and "MAX_VARIABLES" in text:
            named.append(path.name)
    assert assigned == ["monomials.py"]
    assert named == []
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    checks = [
        node.lineno
        for node in ast.walk(cli)
        if isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)
    ]
    assert checks == []


def test_the_rank_memo_has_one_owner():
    # Strand ranks are memoized on the poset they were computed from, and
    # build_strand hands that memo to each strand.  A rank cache taken as a
    # parameter, or a strand built elsewhere, could pair a memo with the
    # strands of another instance.
    params, builders = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
                if "ranks" in names:
                    params.append(f"{path.name}:{node.lineno}")
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "StrandComplex" in _referenced(node.func):
                    builders.append(f"{path.name}:{owner}")
    assert params == []
    assert builders == ["strands.py:build_strand"]


def test_sources_parse_at_the_python_floor():
    # The package and its tests must parse on the oldest Python that
    # pyproject.toml admits: syntax newer than that floor (except*, type
    # aliases, PEP 695 generics) would break an install the metadata allows.
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, int(floor[1])))
        except SyntaxError as exc:
            failures.append(f"{path.name}:{exc.lineno} {exc.msg}")
    assert failures == []


def test_only_the_cli_writes_instance_documents():
    # Library results hold library values (a scan record holds its
    # QuotientInstance); cli.py turns them into instance documents at the edge.
    callers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "instance_to_json" in _referenced(node.func)
    }
    assert callers == {"cli.py"}


def test_main_is_the_one_stdout_writer():
    # Command handlers return their document and main prints it, compact or
    # indented; a print elsewhere would be a second output path that --pretty
    # and the exit-code handling never see.
    prints, stdout = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                    prints.append(path.name)
                    if not any(k.arg == "file" for k in node.keywords):
                        stdout.append(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert set(prints) == {"cli.py"}
    assert stdout == ["cli.py:main"]
