"""The library has no runtime dependencies: it imports only the standard
library and its own modules, by relative import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagcert"


def _absolute_imports(path: Path):
    """(line, top-level module) of every non-relative import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_library_imports_only_stdlib_or_relative():
    modules = sorted(SRC.rglob("*.py"))
    assert {"cli.py", "exactmath.py", "flags.py"} <= {p.name for p in modules}
    outside = [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def _package_imports(path: Path) -> set[str]:
    """The package modules the file imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("flagcert."):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("flagcert.")}
    return {name.removeprefix("flagcert.").partition(".")[0] for name in found}


# every import edge inside the package; a new edge updates this table
IMPORT_LAYERS = {
    "_frozen": set(),
    "graphs": {"_frozen"},
    "exactmath": {"_frozen"},
    "flags": {"_frozen", "graphs"},
    "oracle": {"_frozen", "graphs"},
    "constructions": {"_frozen", "exactmath", "graphs"},
    "certificates": {"exactmath", "flags", "graphs"},
    "cli": {"certificates", "constructions", "exactmath", "graphs", "oracle"},
    "__init__": {"certificates", "constructions", "exactmath", "flags", "graphs", "oracle"},
}


def test_package_import_layers():
    # _frozen, the one immutable value base, is the bottom layer; graphs and
    # exactmath stand on it alone, flags and the oracle on it and graphs,
    # and only the certificates reach flags
    layers = {path.stem: _package_imports(path) for path in sorted(SRC.rglob("*.py"))}
    assert layers == IMPORT_LAYERS


def test_no_module_imports_a_process_pool():
    # the scan and the search run in the calling process
    pools = [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _absolute_imports(path)
        if name in ("concurrent", "multiprocessing")
    ]
    assert pools == []


def _loaded_after_cli_import(names, *options) -> list[str]:
    """Those of ``names`` a fresh interpreter, started with the interpreter
    ``options``, holds after ``import flagcert.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, flagcert.cli; "
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, *options, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_cli_import_leaves_the_process_pool_out():
    # no command starts worker processes, so none should pay their import
    assert _loaded_after_cli_import(("concurrent.futures", "multiprocessing")) == []


def test_cli_import_builds_no_dataclass():
    # every command is a fresh process: building a dataclass compiles its
    # methods at import, and the module pulls in inspect
    assert _loaded_after_cli_import(("dataclasses", "inspect")) == []


def test_cli_import_leaves_importlib_resources_out():
    # -S: no site hook (a .pth file, say) loads the module first; only a
    # command that reads a bundled file needs it, and it pulls in tempfile
    assert _loaded_after_cli_import(("importlib.resources", "tempfile"), "-S") == []


def test_only_graphs_reaches_the_canonicity_search():
    # one child step, graphs._canonical_children: a second orderly-generation
    # loop elsewhere would need the minimal-code search or the column sets
    names = {"_search", "_column_sets"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in names:
                found.append(f"{path.relative_to(SRC)}:{node.lineno} references {name}")
    assert found == []


def test_only_the_frozen_base_sets_fields_or_defines_identity():
    # one immutable value base, _frozen._Frozen: a value type that wrote its
    # own field setter, pickling or key would be a second copy of that job
    names = {"__setattr__", "__delattr__", "__reduce__", "_key"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_frozen.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{where} calls object.__setattr__")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
                found.append(f"{where} defines {node.name}")
            elif isinstance(node, ast.Assign):
                found += [
                    f"{where} defines {t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id in names
                ]
    assert found == []
