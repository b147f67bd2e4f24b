"""Source hygiene, checked on the ``ast`` of each module.

* No imported name goes unused in ``src/`` or ``tests/`` (a stand-in for a
  linter's unused-import rule): a name bound by ``import`` or
  ``from ... import`` counts as used when it appears as a ``Name`` anywhere
  in the module, as the base of an attribute access, or as a string in
  ``__all__``.  ``from __future__`` imports are exempt.
* No module in ``src/`` builds a ``Fraction`` behind its constructor's back:
  no assignment to a ``_numerator`` or ``_denominator`` attribute and no
  call of ``Fraction.__new__``.  Fast paths come from better
  representations, not from writes to private attributes.
* Every top-level function and class in ``src/`` is used by ``src/``: its
  name appears as a ``Name`` outside its own definition, or some module
  imports it by name.  Code only the tests reach belongs in the test
  oracles.  Two functions the interpreter calls count as used: the console
  entry point ``v2lam.cli:main``, and the module ``__getattr__`` of
  ``v2lam.dynamics`` (PEP 562), which loads the array kernels on first use.
* Every method and property defined in a class body in ``src/`` is used by
  ``src/``: its name appears as a ``Name`` or an attribute outside its own
  definition.  Dunder methods and the override of standard-library API
  ``_Parser.error`` (``argparse``) are exempt.
* The modules of ``src/`` are layered: each imports, at module level or
  inside a function, only the ``v2lam`` modules that ``LAYERS`` admits.
  The exact layers stand on ``angles`` alone, the combinatorial ones on
  the exact layers below them, and only ``checks`` and ``cli`` may import
  any module.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC_FILES = [p for p in FILES if p.is_relative_to(ROOT / "src")]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def fraction_internals(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += ["%s (line %d)" % (t.attr, node.lineno) for t in targets
                      if isinstance(t, ast.Attribute) and t.attr in ("_numerator", "_denominator")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "Fraction"):
            found.append("Fraction.__new__ (line %d)" % node.lineno)
    return sorted(found)


def test_scan_finds_fraction_internals():
    src = ("f = Fraction.__new__(Fraction)\nf._numerator = 1\nf._denominator: int = 2\n"
           "g = Fraction(1, 2)\nn = g._numerator\nsetattr(g, 'x', 1)\n")
    assert fraction_internals(src) == [
        "Fraction.__new__ (line 1)", "_denominator (line 3)", "_numerator (line 2)"]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_fraction_internals(path):
    assert fraction_internals(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules ``sources`` (name
    -> source text) that no module names outside the definition itself."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                own.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and own.get(id(node)) != node.id:
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted("%s:%s" % d for d in defined if d[1] not in used)


def test_scan_finds_an_unreferenced_definition():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    return 1\n\nclass C:\n    pass\n",
               "b": "from a import g\nprint(g())\n",
               "c": "def h(x):\n    return x.f\n\nh(C)\n"}
    # f is named only inside its own definition, and the attribute x.f is not
    # a use of it; g is imported by name, and C is named in module c
    assert unreferenced_definitions(sources) == ["a:f"]


def test_every_definition_in_src_is_used_by_src():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_FILES}
    called_by_the_interpreter = {"src/v2lam/cli.py:main",
                                 "src/v2lam/dynamics/__init__.py:__getattr__"}
    assert [d for d in unreferenced_definitions(sources)
            if d not in called_by_the_interpreter] == []


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """The non-dunder methods and properties of the classes in the modules
    ``sources`` whose name no module mentions, as a ``Name`` or an
    attribute, outside the method itself."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    defined.append((module, cls.name, node.name))
                    own.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and own.get(id(node)) != name:
                used.add(name)
    return sorted("%s:%s.%s" % d for d in defined if d[2] not in used)


def test_scan_finds_an_unused_method():
    sources = {"a": ("class C:\n    def __init__(self):\n        self.f()\n\n"
                     "    def f(self):\n        return self.g\n\n"
                     "    @property\n    def g(self):\n        return 1\n\n"
                     "    def h(self):\n        return self.h()\n"),
               "b": "def k(x):\n    return x.i\n\nclass D:\n    def i(self):\n        pass\n"}
    # f and the property g are used inside C's other methods, i by module b;
    # h is named only inside its own definition, and __init__ is a dunder
    assert unreferenced_methods(sources) == ["a:C.h"]


def test_every_method_in_src_is_used_by_src():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_FILES}
    argparse_override = "src/v2lam/cli.py:_Parser.error"
    assert [m for m in unreferenced_methods(sources) if m != argparse_override] == []


def test_the_exact_layers_and_the_cli_import_no_numpy():
    # every CLI handler imports its engine on demand, and both error types
    # live in v2lam.angles
    code = ("import sys, v2lam.cli, v2lam.checks, v2lam.measure, v2lam.laminations, "
            "v2lam.symbolic, v2lam.svg; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('v2lam.dynamics')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_both_error_types_are_one_class_everywhere():
    from v2lam import angles, dynamics
    from v2lam.dynamics import core

    assert dynamics.NumericError is core.NumericError is angles.NumericError
    assert core.DomainError is angles.DomainError


#: The v2lam modules each module of src/ may import.  A name ending in
#: ".*" stands for a package and its modules, "*" for any module.
LAYERS = {
    "v2lam": (),
    "v2lam.angles": (),
    "v2lam.measure": ("v2lam.angles",),
    "v2lam.laminations": ("v2lam.angles",),
    "v2lam.symbolic": ("v2lam.angles", "v2lam.laminations"),
    "v2lam.svg": ("v2lam.laminations",),
    "v2lam.dynamics.*": ("v2lam.angles", "v2lam.dynamics.*"),
    "v2lam.checks": ("*",),
    "v2lam.cli": ("*",),
}


def _matches(module: str, pattern: str) -> bool:
    if pattern == "*":
        return True
    if pattern.endswith(".*"):
        return module == pattern[:-2] or module.startswith(pattern[:-1])
    return module == pattern


def v2lam_imports(module: str, is_package: bool, source: str) -> list[str]:
    """The v2lam modules that ``module`` imports anywhere in ``source``.

    Relative imports are resolved against the module's package; ``from . import
    x`` counts as an import of the module ``x`` of that package.
    """
    package = module if is_package else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = parent + ("." + node.module if node.module else "")
            if node.module is None:
                found.update("%s.%s" % (base, alias.name) for alias in node.names)
            else:
                found.add(base)
    return sorted(m for m in found if _matches(m, "v2lam.*"))


def test_scan_finds_every_v2lam_import():
    src = ("import os\nimport v2lam.svg\nfrom .core import f\nfrom . import rays\n"
           "def g():\n    from ..angles import angle\n    from v2lam import cli\n")
    assert v2lam_imports("v2lam.dynamics.raster", False, src) == [
        "v2lam", "v2lam.angles", "v2lam.dynamics.core", "v2lam.dynamics.rays", "v2lam.svg"]
    assert v2lam_imports("v2lam.dynamics", True, "from .core import f\n") == [
        "v2lam.dynamics.core"]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_modules_import_only_the_layers_below_them(path):
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    is_package = parts[-1] == "__init__"
    module = ".".join(parts[:-1] if is_package else parts)
    admitted = [allowed for pattern, allowed in LAYERS.items() if _matches(module, pattern)]
    assert len(admitted) == 1, "%s needs exactly one LAYERS entry" % module
    source = path.read_text(encoding="utf-8")
    assert [m for m in v2lam_imports(module, is_package, source)
            if not any(_matches(m, a) for a in admitted[0])] == []
