"""
Every module of the package (except the re-exporting __init__), the tests
and the scripts reads each name it imports; every public top-level
function or class of every package module, re-exported by grjkit or not,
and every public method or class-level name of such a class, is read by
the package, the scripts or the benchmark, with no exception for a name
only the tests read (an oracle or fixture belongs in a tests helper
module); every public function or class of a tests helper module is read
by the tests; the package reads no environment variable; no package
function takes a tolerance; and no package module but numfield names a
cut-off constant, compares with a float literal or calls allclose or
isclose (numpy's or math's, whose default tolerances are cut-offs too),
since every cut-off is an entry of the one table numfield.CUTOFFS.
"""
from __future__ import annotations

import ast
from pathlib import Path

import grjkit


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in [*(ROOT / "src" / "grjkit").glob("*.py"),
                                   *(ROOT / "tests").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py")]
                 if path.name != "__init__.py")
# where a public name must be read for it to stay public
CALLERS = sorted(path for path in [*(ROOT / "src" / "grjkit").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py"),
                                   *(ROOT / "perfbench").glob("*.py")]
                 if path.name != "__init__.py")
# the tests' oracles and fixtures: tests modules that hold no test
HELPERS = sorted(path for path in (ROOT / "tests").glob("*.py")
                 if not path.name.startswith("test_") and path.name != "conftest.py")


def quoted_names(node) -> set:
    """Names read by a quoted annotation such as -> "ArPencil" on node."""
    names = set()
    for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


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
        read |= quoted_names(node)
    return sorted(imported - read)


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]
    assert unread_imports("from x import Y\ndef f() -> 'Y': pass\n") == []


def test_every_module_reads_every_name_it_imports():
    unread = {str(path.relative_to(ROOT)): unread_imports(path.read_text(encoding="utf-8"))
              for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def environment_reads(source: str) -> list:
    """Lines of a module that read os.environ or call os.getenv."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                  and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_the_scan_finds_an_environment_read():
    source = "import os\na = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.sep\n"
    assert environment_reads(source) == [2, 3]


def test_the_package_reads_no_environment_variable():
    reads = {path.name: environment_reads(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "grjkit").glob("*.py")}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def names_read(source: str) -> set:
    """Names and attributes a module reads, outside the top-level
    definition of the same name (so recursion or a class naming itself
    does not count)."""
    read = set()
    for top in ast.parse(source).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            names |= quoted_names(node)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        read |= names
    return read


def test_the_scan_finds_an_unread_public_name():
    source = "def f():\n    return f()\nclass C:\n    x: 'C'\ng = h.k\ndef e() -> 'C':\n    pass\n"
    assert names_read(source) == {"h", "k", "C"}


def public_definitions(source: str) -> set:
    """Public functions and classes a module defines at its top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_the_scan_finds_a_public_definition():
    source = "def f():\n    def g(): pass\nclass C:\n    def m(self): pass\n" \
             "def _h(): pass\nclass _D: pass\nx = f\n"
    assert public_definitions(source) == {"f", "C"}


def public_members(source: str) -> set:
    """Public methods and class-level names of the public top-level classes
    of a module, as "Class.name"."""
    members = set()
    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
            continue
        for node in top.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            members |= {f"{top.name}.{name}" for name in names if not name.startswith("_")}
    return members


def test_the_scan_finds_a_public_member():
    source = ("class C:\n    x: int\n    y = z = 1\n    _p = 2\n    def m(self): pass\n"
              "    @property\n    def q(self): pass\n    def _h(self): pass\n"
              "    def __init__(self): pass\nclass _D:\n    def n(self): pass\n"
              "def f():\n    pass\n")
    assert public_members(source) == {"C.x", "C.y", "C.z", "C.m", "C.q"}


def package_sources() -> list:
    return [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "grjkit").glob("*.py")
            if path.name != "__init__.py"]


def package_public() -> set:
    return set().union(*map(public_definitions, package_sources()))


def test_the_scan_sees_names_grjkit_does_not_reexport():
    public = package_public()
    assert set(grjkit.__all__) < public
    assert "random_walk_model" in public and "random_walk_model" not in grjkit.__all__


def test_every_public_callable_has_a_caller_outside_the_tests():
    """Top-level names must be read by name, class members as an attribute
    (or, for a dataclass field, by the class's own methods)."""
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in CALLERS))
    members = set().union(*map(public_members, package_sources()))
    unread = (package_public() - read) | {m for m in members if m.split(".")[1] not in read}
    assert sorted(unread) == []


def test_every_tests_helper_is_read_by_the_tests():
    assert {path.name for path in HELPERS} >= {"oblique.py", "reference.py"}
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in (ROOT / "tests").glob("*.py")))
    unread = {path.name: sorted(public_definitions(path.read_text(encoding="utf-8")) - read)
              for path in HELPERS}
    assert {name: names for name, names in unread.items() if names} == {}


def tol_parameters(source: str) -> list:
    """Functions of a module that take a parameter named tol."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "tol" in {a.arg for a in (node.args.posonlyargs + node.args.args
                                                + node.args.kwonlyargs)})


def test_the_scan_finds_a_tol_parameter():
    source = ("def f(a, tol=1e-8):\n    pass\nclass C:\n    def m(self, *, tol):\n"
              "        pass\ndef g(atol, rtol):\n    pass\n")
    assert tol_parameters(source) == ["f", "m"]


def test_no_package_function_takes_tol():
    found = {path.name: tol_parameters(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "grjkit").glob("*.py")}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}


# the cut-off constants the table holds or replaced: only numfield may name them
CUTOFF_NAMES = ("RANK_REL", "RESIDUAL_ABS", "QUADRATURE_CONV_TOL", "ETA",
                "UNIT_CLUSTER_SCATTER", "_VERIFY_BOUNDS")
# (module, comparison) -> why its float literal is no cut-off
LITERAL_COMPARISONS = {
    ("pencil", "np.abs(others) <= 1.0 + CUTOFFS['isolation']"):
        "1.0 is the unit circle; the isolation margin eta is the table's",
    ("simkit", "slope == 0.0"):
        "an exact zero: with no scatter about the fit, only a flat slope is stationary",
}


# calls that decide with default tolerances of their own
TOLERANCE_CALLS = ("allclose", "isclose")


def cutoff_leaks(source: str) -> list:
    """A cut-off constant a module names, each comparison with a float
    literal anywhere in its operands and each allclose or isclose call, as
    (line, name, comparison or call)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) in CUTOFF_NAMES:
            found.append((node.lineno, getattr(node, field)))
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in TOLERANCE_CALLS
                or getattr(node.func, "attr", None) in TOLERANCE_CALLS):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and isinstance(leaf.value, float)
                for operand in (node.left, *node.comparators) for leaf in ast.walk(operand)):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_scan_finds_a_cutoff_outside_the_table():
    source = ("from .numfield import RESIDUAL_ABS\nimport pencil\n"
              "if r > 10 * RESIDUAL_ABS or s <= 1e-8:\n    pass\n"
              "ok = x < y and n == 0 and -t >= -(0.5 * u)\nz = pencil.ETA * 2.0\n")
    assert cutoff_leaks(source) == [(1, "RESIDUAL_ABS"), (3, "RESIDUAL_ABS"), (3, "s <= 1e-08"),
                                    (5, "-t >= -(0.5 * u)"), (6, "ETA")]


def test_the_scan_finds_a_tolerance_call():
    source = ("import math\nimport numpy as np\nfrom numpy import isclose\n"
              "ok = np.allclose(a, 0) or math.isclose(x, y)\nif isclose(u, v):\n    pass\n"
              "same = np.array_equal(a, b) and not c.any()\n")
    assert cutoff_leaks(source) == [(4, "math.isclose(x, y)"), (4, "np.allclose(a, 0)"),
                                    (5, "isclose(u, v)")]


def test_only_numfield_knows_a_cutoff():
    found = {}
    for path in (ROOT / "src" / "grjkit").glob("*.py"):
        if path.stem != "numfield":
            leaks = [leak for leak in cutoff_leaks(path.read_text(encoding="utf-8"))
                     if (path.stem, leak[1]) not in LITERAL_COMPARISONS]
            if leaks:
                found[path.name] = leaks
    assert found == {}
