"""Source hygiene checks over the library modules."""

import ast
import importlib
import os
from pathlib import Path
from types import ModuleType

import pytest

import svbackend

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "svbackend").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never mentions again."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names used only inside string annotations (``from __future__ import annotations``)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from typing import Sequence\nx: 'Sequence[int]'\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``, not dunder) that no module of
    ``sources`` (file name to source) reads, by name or as an attribute."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(module, node.lineno, n) for n in private]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in read]


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_N = 1\n_M: int = 2\ndef _f():\n    return _N\ndef __dir__():\n    pass\n",
        "b.py": "from . import a\nclass _C:\n    pass\nx = a._M\n",
    }
    assert unreferenced_private_names(sources) == ["a.py line 3: _f", "b.py line 2: _C"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def scipy_imports(source: str) -> list[str]:
    """Imports of ``scipy`` or a submodule anywhere in the module: at module
    level, in a class, a ``try`` or a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] == "scipy"]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_a_scipy_import_anywhere():
    source = (
        "import scipy.linalg\nfrom scipy.sparse import csr_matrix\nimport scipyx\n"
        "def f():\n    import scipy.linalg\nclass C:\n    from scipy import linalg\n"
        "    def g(self):\n        import scipy\ntry:\n    import numpy, scipy as sp\n"
        "except ImportError:\n    pass\nfrom . import scipy\n"
    )
    assert scipy_imports(source) == [
        "line 1: scipy.linalg", "line 2: scipy.sparse", "line 5: scipy.linalg", "line 7: scipy",
        "line 9: scipy", "line 11: scipy",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    """The package runs on numpy alone; scipy is a test dependency."""
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Private names (``_x``, not dunder) a module imports from a module of
    its own package, relatively or as ``svbackend.<module>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "svbackend"
        ):
            found += [
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    return found


def test_checker_flags_a_private_import():
    source = (
        "from .gplda import _rows, pair_llr\nfrom os import _exit\n"
        "from svbackend.dataset import _seed\nfrom . import __version__\n"
    )
    assert private_imports(source) == ["line 1: _rows", "line 3: _seed"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def text_mode_opens(source: str) -> list[str]:
    """Calls of ``open`` (a function or a method), ``read_text`` and
    ``write_text`` that neither use a binary mode nor pass ``encoding=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        if any(kw.arg == "encoding" for kw in node.keywords):
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        if name == "open":  # open(path, mode) or path.open(mode)
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
        if not any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_a_text_mode_open():
    source = (
        'open(p)\nopen(p, "rb")\nopen(p, "w", encoding="utf-8")\nopen(p, mode="wb")\n'
        'Path(p).read_text()\nPath(p).write_text(s, encoding="utf-8")\np.open("r")\n'
        'p.open("rb")\nPath(p).write_text(s)\n'
    )
    assert text_mode_opens(source) == [
        "line 1: open", "line 5: read_text", "line 7: open", "line 9: write_text"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_text_file_names_its_encoding(path):
    assert text_mode_opens(path.read_text(encoding="utf-8")) == []


def ownership_bypasses(source: str, exempt: str = "") -> list[str]:
    """Assignments to an array's ``flags.writeable`` outside the body of the
    module-level function ``exempt``, and ``copy=True`` arguments: a
    container takes its arrays by ``owned``, and the library hands over an
    array it made only through ``dataset.read_only``."""
    tree = ast.parse(source)
    skip = {
        id(n) for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, "flags.writeable")
                for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and t.attr == "writeable"
                and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
            ]
        elif isinstance(node, ast.Call):
            found += [
                (node.lineno, "copy=True") for kw in node.keywords
                if kw.arg == "copy" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_an_ownership_bypass():
    source = (
        "def read_only(a):\n    a.flags.writeable = False\n    return a\n"
        "x.flags.writeable = False\na.flags.writeable = b.flags.writeable = False\n"
        "y = np.array(x, copy=True)\nz = np.array(x, copy=False)\nprint(x.flags.writeable)\n"
        "def f(a):\n    a.flags.writeable = True\nflags.writeable = 1\n"
    )
    found = [
        "line 4: flags.writeable", "line 5: flags.writeable", "line 5: flags.writeable",
        "line 6: copy=True", "line 10: flags.writeable",
    ]
    assert ownership_bypasses(source, "read_only") == found
    assert ownership_bypasses(source) == ["line 2: flags.writeable"] + found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_arrays_change_hands_only_through_owned_and_read_only(path):
    exempt = "read_only" if path.name == "dataset.py" else ""
    assert ownership_bypasses(path.read_text(encoding="utf-8"), exempt) == []


def all_mismatches(namespace: dict) -> list[str]:
    """Public non-module names of a package namespace that its ``__all__``
    leaves out, and ``__all__`` entries it does not bind or lists twice."""
    public = {
        n for n, v in namespace.items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    listed = list(namespace.get("__all__", ()))
    found = [f"not in __all__: {n}" for n in sorted(public - set(listed))]
    found += [f"not bound: {n}" for n in sorted(set(listed) - public)]
    return found + [f"repeated: {n}" for n in sorted({n for n in listed if listed.count(n) > 1})]


def test_checker_flags_an_all_mismatch():
    namespace = {"__all__": ["f", "g", "f"], "f": len, "h": len, "os": os, "_p": len}
    assert all_mismatches(namespace) == ["not in __all__: h", "not bound: g", "repeated: f"]


def test_all_lists_the_public_bindings():
    assert all_mismatches(vars(svbackend)) == []


#: Traced names the package no longer has; their benchmark layers read 0
#: until the tracer's table drops them.
RETIRED_TRACED = {
    "dataset.synth_dataset", "idv.estimate_original_idv", "idv.estimate_modified_idv",
    "metrics.eer", "metrics.min_dcf",
}


def test_every_traced_function_exists():
    """The benchmark tracer wraps svbackend functions by (module, name) and
    skips a missing one with a note, so a rename would zero its layer.  Its
    ``TRACED`` keys are read from the source, which is not run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    )
    traced = [ast.literal_eval(key) for key in table.keys]
    assert traced
    missing = {
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"svbackend.{module}"), name, None))
    }
    assert missing <= RETIRED_TRACED
    for retired in RETIRED_TRACED:  # a stale entry or a returning function fails
        module, name = retired.split(".")
        assert not hasattr(importlib.import_module(f"svbackend.{module}"), name), retired
