"""`src/knowspan/` holds only what the program runs: every public function and
class a module defines is referenced from the package itself, from the
README's library example, or from the benchmark."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "knowspan", "*.py")))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def body_of(function: ast.AST) -> list[ast.AST]:
    """A function's statements; a lambda's body is one expression."""
    return function.body if isinstance(function.body, list) else [function.body]


def local_names(function: ast.AST) -> set[str]:
    """The names a function binds in its own scope: its parameters and every
    name its body assigns, imports or defines outside nested functions, less
    those it declares global or nonlocal."""
    arguments = function.args
    names = {
        arg.arg
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                    arguments.vararg, arguments.kwarg)
        if arg
    }
    declared = set()
    stack = list(body_of(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the code loads, reads as an attribute or imports; names in
    strings, comments and docstrings are not references, and neither is a
    name loaded where an enclosing function binds it, such as a local
    variable that shares a module-level function's name."""
    names = set()

    def visit(node: ast.AST, bound: frozenset) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        if isinstance(node, FUNCTIONS):
            inner, body = bound | local_names(node), body_of(node)
            for child in ast.iter_child_nodes(node):
                # its defaults and decorators are read where it is defined
                visit(child, inner if any(child is part for part in body) else bound)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, bound)

    visit(tree, frozenset())
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


def test_a_name_an_enclosing_function_binds_is_no_reference():
    code = (
        "def f(a, *rest):\n"
        "    ingest = a\n"
        "    def g():\n"
        "        return ingest + train\n"
        "    global metrics\n"
        "    metrics = 1\n"
        "    return g, metrics, rest, lambda disrupt: disrupt + correlate\n"
        "def h(x=parse_corpus):\n"
        "    return x\n"
    )
    assert referenced_names(ast.parse(code)) == {"train", "metrics", "correlate", "parse_corpus"}


def test_only_update_manifest_writes_the_manifest_or_removes_a_file():
    """`cli._update_manifest` is the one writer of manifest.json and the one
    remover of an artifact, so one function orders each removal before the
    manifest stops recording the file; `_replacing` removes only its own
    partial file."""
    module = parsed(os.path.join(ROOT, "src", "knowspan", "cli.py"))
    writers, removers = [], []
    for owner in module.body:  # a module-level call is owned by its statement
        name = getattr(owner, "name", type(owner).__name__)
        for call in (node for node in ast.walk(owner) if isinstance(node, ast.Call)):
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            named = {getattr(node, "id", getattr(node, "value", None))  # names and constants
                     for arg in call.args for node in ast.walk(arg)}
            writes = callee in ("_write_json", "_replacing", "open")
            if writes and named & {"manifest.json", "MANIFEST"}:
                writers.append(name)
            if callee in ("remove", "unlink", "rmtree", "rmdir"):
                removers.append(name)
    assert writers == ["_update_manifest"]
    assert sorted(removers) == ["_replacing", "_update_manifest"]
