"""The package computes in exact arithmetic only.  Every module of `rzero`
is scanned for float literals, `float(...)` calls, `math.sqrt` and `** 0.5`,
with no exemption."""

import ast
import pathlib

import rzero

PACKAGE = pathlib.Path(rzero.__file__).resolve().parent


def _violations(tree):
    """(line, description) of every inexact construct."""
    found = []

    def visit(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float(...)"))
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, "math.sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "sqrt" for alias in node.names):
            found.append((node.lineno, "from math import sqrt"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and isinstance(node.right, ast.Constant) and node.right.value == 0.5:
            found.append((node.lineno, "** 0.5"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_package_has_no_inexact_arithmetic():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = [f"{path.name}:{line}: {what}"
           for path in modules
           for line, what in _violations(ast.parse(path.read_text(), str(path)))]
    assert not bad, "inexact arithmetic in rzero:\n" + "\n".join(bad)


def test_scan_finds_each_construct():
    source = (
        "import math\n"
        "from math import sqrt\n"
        "def f(p):\n"
        "    return math.sqrt(p) + float(p) + p ** 0.5 + 1.5\n"
        "class ExactRadius:\n"
        "    def approx(self):\n"
        "        return math.sqrt(2.0)\n"
    )
    lines = [line for line, _ in _violations(ast.parse(source))]
    assert lines == [2, 4, 4, 4, 4, 4, 7, 7]
