"""No function in the package calls itself, directly or through others.

Each module of ``src/cftweave`` is parsed with :mod:`ast` into a call
graph.  A call by bare name goes to the function of that name in the
nearest enclosing scope (a nested function, then a module-level one), and
``self.<method>(...)`` inside a class goes to that class's method.  Any
cycle in the graph is a walker whose depth the interpreter's recursion
limit would bound, so the test fails on it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cftweave"
MODULES = sorted(PACKAGE.glob("*.py"))


def own_nodes(func):
    """The nodes of a function's body, outside the functions and classes
    nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                               ast.ClassDef)))


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Edges from each function's dotted name to the functions it calls."""
    edges: dict[str, set[str]] = {}

    def functions(body, prefix: str) -> dict[str, str]:
        return {node.name: prefix + node.name for node in body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def visit_function(func, name: str, scopes: list, methods: dict) -> None:
        local = functions(func.body, name + ".")
        inner = [local, *scopes]
        calls = edges.setdefault(name, set())
        for node in own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Name):
                callee = next((scope[target.id] for scope in inner if target.id in scope),
                              None)
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name) and target.value.id == "self"):
                callee = methods.get(target.attr)
            else:
                callee = None
            if callee is not None:
                calls.add(callee)
        for child in func.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(child, local[child.name], inner, methods)

    module_scope = functions(tree.body, "")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(node, node.name, [module_scope], {})
        elif isinstance(node, ast.ClassDef):
            methods = functions(node.body, node.name + ".")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_function(item, methods[item.name], [module_scope], methods)
    return edges


def find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a list of names, or None."""
    state: dict[str, int] = {}  # 1 while on the path, 2 when finished
    for start in sorted(edges):
        if start in state:
            continue
        path = [start]
        stack = [iter(sorted(edges.get(start, ())))]
        state[start] = 1
        while stack:
            for callee in stack[-1]:
                if state.get(callee) == 1:
                    return path[path.index(callee):] + [callee]
                if callee not in state:
                    state[callee] = 1
                    path.append(callee)
                    stack.append(iter(sorted(edges.get(callee, ()))))
                    break
            else:
                state[path.pop()] = 2
                stack.pop()
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_recursive_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert find_cycle(call_graph(tree)) is None


@pytest.mark.parametrize("source, cycle", [
    ("def f(n):\n    return f(n - 1)\n", ["f", "f"]),
    ("def f():\n    g()\n\ndef g():\n    f()\n", ["f", "g", "f"]),
    ("class C:\n    def a(self):\n        self.b()\n\n    def b(self):\n        self.a()\n",
     ["C.a", "C.b", "C.a"]),
    ("def f():\n    def walk(n):\n        walk(n)\n    walk(1)\n",
     ["f.walk", "f.walk"]),
])
def test_guard_finds_recursion(source, cycle):
    assert find_cycle(call_graph(ast.parse(source))) == cycle


def test_guard_ignores_calls_it_cannot_resolve():
    source = ("def f(items):\n    items.f()\n    other.f()\n\n"
              "class C:\n    def f(self):\n        f(self)\n")
    assert find_cycle(call_graph(ast.parse(source))) is None
