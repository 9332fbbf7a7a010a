"""The traced benchmark rebinds despeckle functions by (module, name); a
refactor that drops or renames one of those names must fail here, not
only in the slow benchmark smoke test."""

import ast
import importlib
from pathlib import Path

import pytest

from despeckle import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture()
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers").targets()


def test_every_traced_target_resolves(targets):
    assert targets
    for module, attr, name, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_reads(targets):
    # __init__ imports to re-export, and the traced names stay bound where
    # perfbench rebinds them, whether or not the module itself reads them
    traced = {(module.__name__, attr) for module, attr, _, _ in targets}
    unused = []
    for path in sorted((ROOT / "src" / "despeckle").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        module = f"despeckle.{path.stem}"
        unused += [f"{module}.{name}" for name in _imported_names(tree)
                   if name not in read and (module, name) not in traced]
    assert unused == []


def _fork_sites(tree):
    """The name of the innermost function around each .fork attribute (None
    at module level)."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr == "fork":
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(tree, None)


def test_no_parallel_library_and_one_fork_site():
    # forks._forked_spans is the one parallel layer: it alone calls
    # os.fork, and no module loads a pool or thread library
    parallel = {"concurrent", "threading", "multiprocessing"}
    imports, forks = [], []
    for path in sorted((ROOT / "src" / "despeckle").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [(path.stem, a.name) for a in node.names
                            if a.name.partition(".")[0] in parallel]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.partition(".")[0] in parallel or node.module == "os" and any(
                        a.name == "fork" for a in node.names):
                    imports.append((path.stem, node.module))
        forks += [(path.stem, function) for function in _fork_sites(tree)]
    assert imports == []
    assert forks == [("forks", "_forked_spans")]


def test_montecarlo_passes_threads_by_keyword(targets, monkeypatch, tmp_path):
    # the traced wrapper reads threads from the keywords, else from argument
    # position 2, which run_protocol(plan, threads=1) does not have
    threads_of = importlib.import_module("layers")._threads
    real, calls = cli.run_protocol, []

    def spy(*args, **kwargs):
        calls.append((len(args), sorted(kwargs), threads_of(args, kwargs, 2)))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", spy)
    argv = ["montecarlo", "--fast", "--replicates", "1", "--situations", "1,2",
            "--filters", "input", "--threads", "2", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert calls == [(1, ["threads"], 2)]
