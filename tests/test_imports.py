"""
Every module of the package (except the re-exporting __init__), the tests
and the scripts reads each name it imports.
"""
from __future__ import annotations

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in [*(ROOT / "src" / "grjkit").glob("*.py"),
                                   *(ROOT / "tests").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py")]
                 if path.name != "__init__.py")


def unread_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            # a quoted annotation such as -> "Subspace" reads its names too
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]
    assert unread_imports("from x import Y\ndef f() -> 'Y': pass\n") == []


def test_every_module_reads_every_name_it_imports():
    unread = {str(path.relative_to(ROOT)): unread_imports(path.read_text(encoding="utf-8"))
              for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}
