"""What the package ships: only code that a verb, the verifier or a
library entry point runs."""

import ast
from pathlib import Path

import zonocert

# public functions that nothing in the package calls, kept as library
# entry points: the benchmark harness calls both
ENTRY_POINTS = {"delone_duality_check", "parse_certificate"}


def test_every_public_function_is_run_by_the_package():
    # a public top-level function that no name or attribute in the package
    # refers to runs only in tests; such oracles live in tests/oracles.py
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(zonocert.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
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
