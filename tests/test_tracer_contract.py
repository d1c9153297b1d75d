"""The benchmark tracer in perfbench/tracing.py wraps vconway module
attributes by name; a name that moves breaks every traced benchmark run."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_traced_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = list(tracing.WRAPPED) + [("verify", name) for name in tracing.CAMPAIGN_CHECKS]
    missing = [(mod, attr) for mod, attr in targets
               if not hasattr(importlib.import_module(f"vconway.{mod}"), attr)]
    assert missing == []


def test_every_module_import_is_used(monkeypatch):
    """A module-level import nobody in its module reads is dead code, unless
    it is one of the `# noqa: F401` imports that exist for the tracer to wrap."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wrapped = set(importlib.import_module("tracing").WRAPPED)
    unused, for_tracer = [], []
    for path in sorted((ROOT / "src" / "vconway").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        lines = text.splitlines()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    (for_tracer if noqa else unused).append((path.stem, name))
    assert unused == []
    assert for_tracer == [("cli", "z_polynomial"), ("invariants", "build_P"), ("moves", "validate")]
    assert set(for_tracer) <= wrapped


def test_every_private_definition_is_named():
    """A private function or class that no code of the package names, by a
    name or an attribute, is a dead helper."""
    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "vconway").glob("*.py")]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    named = ({n.id for n in nodes if isinstance(n, ast.Name)}
             | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
    private = {n.name for n in nodes
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and n.name.startswith("_") and not n.name.endswith("__")}
    assert sorted(private - named) == []
