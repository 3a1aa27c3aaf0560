"""The package namespace is lazy: a name loads its module on first use.

Each check runs in a fresh interpreter, because the test session itself
has long since imported every module.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import substrqa

ENV = {**os.environ, "PYTHONPATH": str(Path(substrqa.__file__).parents[1])}
LAYERS = ("asymptotics", "densities", "errors", "recognizability", "recplot", "rqa", "substitution")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120
    )


def _check(code: str) -> None:
    proc = _run("-c", "import sys\nimport substrqa\n" + code)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule_and_no_numpy():
    _check(
        "loaded = [m for m in sys.modules if m.startswith('substrqa.') or m == 'numpy']\n"
        "assert not loaded, loaded\n"
    )


def test_a_name_loads_only_its_module_and_what_that_imports():
    _check(
        "substrqa.histogram\n"
        "assert 'substrqa.recplot' in sys.modules\n"
        "for name in ('densities', 'asymptotics', 'recognizability'):\n"
        "    assert 'substrqa.' + name not in sys.modules, name\n"
    )


def test_every_exported_name_is_its_modules_object():
    _check(
        "import importlib\n"
        f"layers = {LAYERS!r}\n"
        "for layer in layers:\n"
        "    module = importlib.import_module('substrqa.' + layer)\n"
        "    assert getattr(substrqa, layer) is module\n"
        "for name in substrqa.__all__:\n"
        "    module = sys.modules['substrqa.' + substrqa._OWNER[name]]\n"
        "    assert getattr(substrqa, name) is getattr(module, name), name\n"
        "assert set(substrqa.__all__) <= set(dir(substrqa))\n"
        "assert set(layers) <= set(dir(substrqa))\n"
    )


def _top_level_bindings(path: Path) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_exports_are_the_only_list_and_each_owner_defines_its_names():
    # An owner that merely imports a name would pass the identity check.
    package = Path(substrqa.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            assert "__all__" not in _top_level_bindings(path), path.name
    for layer, names in substrqa._EXPORTS.items():
        missing = set(names) - _top_level_bindings(package / f"{layer}.py")
        assert not missing, (layer, sorted(missing))


def _read_names(path: Path) -> set[str]:
    """Names a module reads, bare or as an attribute, leaving out each
    top-level definition's reads of its own name."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        nodes = list(ast.walk(node))
        found = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= found - {getattr(node, "name", None)}
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    # A public name serves program code, a README example, the benchmark or
    # an acceptance criterion; one that only the tests read belongs in
    # tests/oracles.py.
    root = Path(__file__).parents[1]
    read = set().union(
        *(_read_names(p) for p in (root / "src" / "substrqa").glob("*.py") if p.name != "__init__.py")
    )
    texts = [root / "README.md", root / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text() for p in [*texts, *(root / "benchmarks").rglob("*.py")])
    unused = [n for n in substrqa.__all__ if n not in read and not re.search(rf"\b{n}\b", text)]
    assert not unused, unused


def test_star_import_binds_every_exported_name():
    _check(
        "scope = {}\n"
        "exec('from substrqa import *', scope)\n"
        "missing = [name for name in substrqa.__all__ if name not in scope]\n"
        "assert not missing, missing\n"
    )


def test_unknown_name_raises_attribute_error():
    _check(
        "try:\n"
        "    substrqa.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(substrqa, 'cli_main')\n"
    )


def test_cli_runs_clean_with_warnings_as_errors():
    proc = _run("-W", "error", "-m", "substrqa.cli", "classify", "01,10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


# -- numpy loads on the first array operation --------------------------------

# Commands that never touch an array, with their exit codes.
NO_ARRAYS = {
    ("classify", "01,10"): 0,
    ("--help",): 0,
    ("classify", "1x,01"): 2,
    ("analyze", "00,11", "--asymptotic"): 0,
    ("analyze", "010,101", "--asymptotic"): 0,
    ("analyze", "101,010", "--asymptotic"): 0,
}


def _run_cli(*args: str) -> tuple[int, list[str], str]:
    """Run the CLI in a fresh interpreter: its exit code, the numpy
    submodules loaded by then, and its standard output.  Every layer must
    bind the numpy that sys.modules holds."""
    code = (
        "import sys\n"
        "from substrqa.cli import main\n"
        "code = 0\n"
        "try:\n"
        f"    main({list(args)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "for layer in ('recplot', 'rqa', 'substitution'):\n"
        "    assert sys.modules['substrqa.' + layer].np is sys.modules['numpy'], layer\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('numpy.')), file=sys.stderr)\n"
    )
    proc = _run("-c", code)
    last = proc.stderr.splitlines()[-1].split() if proc.stderr else ["no output"]
    assert last[0].isdigit(), proc.stderr
    return int(last[0]), last[1:], proc.stdout


def test_integer_commands_never_load_numpy():
    for args, expected in NO_ARRAYS.items():
        code, loaded, _ = _run_cli(*args)
        assert code == expected, args
        assert not loaded, (args, loaded[:5])


def test_array_commands_load_numpy():
    code, loaded, stdout = _run_cli("analyze", "01,10", "--n", "64")
    assert code == 0
    assert loaded
    assert "RR" in stdout


def test_a_loaded_numpy_is_reused():
    _check(
        "import numpy\n"
        "import substrqa.substitution\n"
        "assert substrqa.substitution.np is numpy\n"
        "assert type(numpy) is type(sys)\n"
    )


def test_only_the_binding_module_imports_numpy():
    # A direct import anywhere else would load numpy with the package again.
    offenders = []
    for path in sorted(Path(substrqa.__file__).parent.glob("*.py")):
        if path.name == "_numpy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "numpy"
            ]
    assert not offenders, offenders
