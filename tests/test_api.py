"""The public API: every exported name serves the library itself."""

import ast
import contextlib
import io
import re
from pathlib import Path

import toepnorm

ROOT = Path(__file__).resolve().parent.parent


def program_texts() -> list[str]:
    """The sources of the package."""
    return [p.read_text() for p in
            sorted((ROOT / "src" / "toepnorm").glob("*.py"))]


def test_every_export_has_a_library_caller():
    # A name exported from toepnorm must be used somewhere in the package
    # other than __init__.py and its own module; names that only tests use
    # belong in tests/reference.py.
    pkg = ROOT / "src" / "toepnorm"
    sources = {p: p.read_text() for p in pkg.glob("*.py")}
    uncalled = []
    for name in toepnorm.__all__:
        home = pkg / (getattr(toepnorm, name).__module__.split(".")[-1] + ".py")
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, text in sources.items()
                   if p not in (pkg / "__init__.py", home)):
            uncalled.append(name)
    assert uncalled == []


def test_every_public_function_has_a_caller():
    # A public module-level function must be named in the package somewhere
    # besides its own def; a helper that nothing calls is deleted, and one
    # that only tests use goes to tests/reference.py.
    pkg = ROOT / "src" / "toepnorm"
    texts = program_texts()
    uncalled = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if sum(len(word.findall(text)) for text in texts) < 2:
                    uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []


def test_every_public_method_has_a_caller():
    # A public method or property must be read as ``.name`` in the package:
    # attribute access, since a bare word would also match help text.  One
    # that only tests use goes to tests/reference.py.
    pkg = ROOT / "src" / "toepnorm"
    texts = program_texts()
    uncalled = []
    for path in sorted(pkg.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    attr = re.compile(rf"\.{re.escape(node.name)}\b")
                    if not any(attr.search(text) for text in texts):
                        uncalled.append(f"{path.name}:{cls.name}.{node.name}")
    assert uncalled == []


def test_one_toeplitz_layout():
    # every Toeplitz matrix is laid out by operators._toeplitz; no other
    # module or function of the package makes sliding windows, so a second
    # layout of a coefficient run cannot come back unnoticed
    word = "sliding_window_view"
    src = ROOT / "src"
    assert [p.name for p in sorted(src.rglob("*.py"))
            if word in p.read_text()] == ["operators.py"]
    users = [fn.name for fn in ast.walk(ast.parse(
                 (src / "toepnorm" / "operators.py").read_text()))
             if isinstance(fn, ast.FunctionDef)
             and any(getattr(n, "id", getattr(n, "attr", None)) == word
                     for n in ast.walk(fn))]
    assert users == ["_toeplitz"]


def test_one_shift_order():
    # n = max(0, -lo) is written once, in operators.shift_order, which every
    # other reader of a symbol's shift calls: nothing else in the package
    # negates a ``.lo``, so a second rule for n cannot come back unnoticed
    def negates_lo(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and getattr(node.operand, "attr", None) == "lo")

    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src").rglob("*.py"))}
    assert sum(map(negates_lo, (node for tree in trees.values()
                                for node in ast.walk(tree)))) == 1
    assert [f"{name}:{fn.name}" for name, tree in trees.items()
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(map(negates_lo, ast.walk(fn)))] == [
        "operators.py:shift_order"]


def test_readme_library_tour_runs():
    # the tour's python block runs as written and prints the identity
    # residual of the exact pair, then the bracket of e_{-1}, sup|a| = 1
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour.split("```", 1)[0], "README.md", "exec"), {})
    residual, bracket = out.getvalue().splitlines()
    assert float(residual) <= 1e-14
    assert all(abs(float(x) - 1.0) <= 1e-3 for x in bracket.split())
