"""What the package ships: only code that a verb, the verifier or a
library entry point runs, importing only the standard library."""

import ast
import sys
from pathlib import Path

import zonocert

# public functions that nothing in the package calls, kept as library
# entry points: the benchmark harness calls both
ENTRY_POINTS = {"delone_duality_check", "parse_certificate"}

# every module of the package, parsed once
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(zonocert.__file__).parent.glob("*.py"))}
# the modules other than __init__.py, which only re-exports names
MODULES = {name: tree for name, tree in TREES.items() if name != "__init__.py"}


def test_every_public_function_is_run_by_the_package():
    # a public top-level function that no name or attribute in the package
    # refers to runs only in tests; such oracles live in tests/oracles.py
    trees = MODULES.values()
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    referred = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
    assert public - referred == ENTRY_POINTS
    names = zonocert.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(zonocert, n)] == []


def test_the_package_imports_only_the_standard_library():
    bad = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            bad += [f"{name}:{node.lineno}: {module}" for module in modules
                    if module.partition(".")[0] not in sys.stdlib_module_names]
    assert bad == []


def test_every_name_a_module_imports_is_used():
    bad = []
    for name, tree in MODULES.items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = (alias.asname or alias.name).partition(".")[0]
                    imported.setdefault(local, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{name}:{line}: {local} is imported but never used"
                for local, line in imported.items()
                if local not in used and local != "annotations"]
    assert bad == []


def test_no_module_writes_a_cache_into_another_object():
    # a class owns its state: no assignment stores into vars(obj)[...], so
    # every cached form is computed by the object that holds it
    bad = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            bad += [f"{name}:{sub.lineno}" for target in targets
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)
                    and sub.value.func.id == "vars"]
    assert bad == []
