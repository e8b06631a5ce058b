"""The public API: every exported name serves the library itself."""

import ast
import re
from pathlib import Path

import toepnorm

ROOT = Path(__file__).resolve().parent.parent


def program_texts() -> list[str]:
    """The sources of the package and of the study scripts."""
    return [p.read_text() for p in
            sorted((ROOT / "src" / "toepnorm").glob("*.py"))
            + sorted((ROOT / "scripts").glob("*.py"))]


def test_every_export_has_a_library_caller():
    # A name exported from toepnorm must be used somewhere in the package
    # other than __init__.py and its own module, or by a study script;
    # names that only tests use belong in tests/reference.py.
    pkg = ROOT / "src" / "toepnorm"
    sources = {p: p.read_text() for p in
               list(pkg.glob("*.py")) + list((ROOT / "scripts").glob("*.py"))}
    uncalled = []
    for name in toepnorm.__all__:
        home = pkg / (getattr(toepnorm, name).__module__.split(".")[-1] + ".py")
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, text in sources.items()
                   if p not in (pkg / "__init__.py", home)):
            uncalled.append(name)
    assert uncalled == []


def test_every_public_function_has_a_caller():
    # A public module-level function must be named in the package or a
    # study script somewhere besides its own def; a helper that nothing
    # calls is deleted, and one that only tests use goes to
    # tests/reference.py.
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
    # A public method or property must be read as ``.name`` in the package
    # or a study script: attribute access, since a bare word would also
    # match help text.  One that only tests use goes to tests/reference.py.
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
