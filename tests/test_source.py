"""`src/knowspan/` holds only what the program runs: every public function and
class a module defines is referenced from the package itself, from the
README's library example, or from the benchmark."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "knowspan", "*.py")))


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the code loads, reads as an attribute or imports; names in
    strings, comments and docstrings are not references."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def parsed(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def registered_command(node: ast.AST) -> bool:
    """A subcommand body, which `cli._command` registers on `main` by its name."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in getattr(node, "decorator_list", ())
    )


def test_every_public_definition_has_a_caller_outside_the_tests():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    users = [parsed(path) for path in SOURCES]
    users += [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)]
    users += [parsed(path) for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))]
    referenced = set().union(*map(referenced_names, users))
    unused = [
        f"{os.path.basename(path)[:-3]}.{node.name}"
        for path in SOURCES
        for node in parsed(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and not registered_command(node)
    ]
    assert unused == [], f"public definitions with no caller outside tests/: {unused}"
