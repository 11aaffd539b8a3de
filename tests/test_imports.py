"""The library has no runtime dependencies: it imports only the standard
library and its own modules, by relative import.  The package registers its
modules lazily, so each command runs only the modules it reaches.  Every
top-level name is reachable from the command or the public names, or waits
on a ROADMAP item."""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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


# every import edge inside the package; a new edge updates this table.  The
# verdict layer (verdict.py, everything a PASS depends on) imports only
# exactmath, flags and graphs: no parser, golden, report or writer code
IMPORT_LAYERS = {
    "_frozen": set(),
    "graphs": {"_frozen"},
    "exactmath": {"_frozen"},
    "flags": {"_frozen", "graphs"},
    "oracle": {"_frozen", "graphs"},
    "constructions": {"_frozen", "exactmath", "graphs"},
    "verdict": {"exactmath", "flags", "graphs"},
    "certificates": {"exactmath", "flags", "graphs", "verdict"},
    "cli": {"certificates", "constructions", "exactmath", "graphs", "oracle"},
    "__init__": {
        "certificates", "constructions", "exactmath", "flags", "graphs", "oracle", "verdict",
    },
}


def _export_table() -> dict[str, str]:
    """The package's table of each public name and its module, read from source."""
    defs, _ = _top_level_definitions()
    return ast.literal_eval(defs["__init__", "_EXPORTS"].value)


def test_package_import_layers():
    # _frozen, the one immutable value base, is the bottom layer; graphs and
    # exactmath stand on it alone, flags and the oracle on it and graphs,
    # and only the verdict and the certificates reach flags.  The package
    # itself imports no submodule: it registers them lazily, and its edges
    # are the modules its export table names
    layers = {path.stem: _package_imports(path) for path in sorted(SRC.rglob("*.py"))}
    layers["__init__"] |= set(_export_table().values())
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


def _probe(source: str, *options):
    """The literal that ``source``, run by a fresh interpreter started with
    the interpreter ``options``, prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *options, "-c", source], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _loaded_after_cli_import(names, *options) -> list[str]:
    """Those of ``names`` a fresh interpreter, started with the interpreter
    ``options``, holds after ``import flagcert.cli``."""
    probe = (
        "import sys, flagcert.cli; "
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
    )
    return _probe(probe, *options)


def test_cli_import_leaves_the_process_pool_out():
    # no command starts worker processes, so none should pay their import
    assert _loaded_after_cli_import(("concurrent.futures", "multiprocessing")) == []


def test_cli_import_builds_no_dataclass():
    # every command is a fresh process: building a dataclass compiles its
    # methods at import, and the module pulls in inspect
    assert _loaded_after_cli_import(("dataclasses", "inspect")) == []


def test_cli_import_leaves_importlib_resources_out():
    # -S: no site hook (a .pth file, say) loads the module first; only a
    # command that reads a bundled file needs it, and it pulls in tempfile.
    # No library module runs at import, so neither do the number modules,
    # and the CLI writes its one file without pathlib (urllib, ipaddress)
    names = ("importlib.resources", "tempfile", "pathlib", "fractions", "decimal")
    assert _loaded_after_cli_import(names, "-S") == []


# the library modules that each command runs; the others stay registered
# in sys.modules but are never compiled
COMMAND_MODULES = {
    ("enumerate", "--order", "3"): {"graphs", "_frozen"},
    ("density", "--h", "2", "--g", "2 2 2"): {"graphs", "_frozen"},
    ("oracle", "--h", "2", "--n", "4"): {"oracle", "graphs", "_frozen"},
    ("scan", "--k", "3,7/2", "--nmax", "8"): {"oracle", "graphs", "_frozen", "exactmath"},
    ("profile", "--from", "0", "--to", "1", "--step", "1/4"): {
        "constructions", "exactmath", "graphs", "_frozen",
    },
    ("verify", "--cert", "k4.cert"): {
        "certificates", "verdict", "flags", "exactmath", "graphs", "_frozen",
    },
}

# the library modules a fresh interpreter has run: a registered module that
# still waits is not yet a plain module object
_RUN_MODULES = (
    "print(sorted(name.partition('.')[2] for name, module in sys.modules.items()"
    " if name.startswith('flagcert.') and name != 'flagcert.cli'"
    " and type(module) is types.ModuleType))"
)


@pytest.mark.parametrize("argv", COMMAND_MODULES, ids=[argv[0] for argv in COMMAND_MODULES])
def test_each_command_runs_only_its_modules(argv):
    probe = (
        "import contextlib, io, sys, types\n"
        "from flagcert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n" + _RUN_MODULES
    )
    assert set(_probe(probe)) == COMMAND_MODULES[argv]


def test_cli_import_runs_no_library_module():
    registered = _probe(
        "import sys, flagcert.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('flagcert.')))"
    )
    assert registered == sorted(
        f"flagcert.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"
    )
    assert _probe("import sys, types, flagcert.cli; " + _RUN_MODULES) == []


def test_star_import_and_dir_give_every_public_name():
    names = sorted(_export_table())
    assert _probe("import flagcert; print(flagcert.__all__)") == names
    bound = _probe(
        "from flagcert import *; "
        f"print(sorted(n for n in {names!r} if n in globals()))"
    )
    assert bound == names
    listed = _probe("import flagcert; print(dir(flagcert))")
    assert set(names) <= set(listed) and listed == sorted(listed)


def test_unknown_public_name_raises_attribute_error():
    message = _probe(
        "import flagcert\n"
        "try:\n"
        "    flagcert.x\n"
        "except AttributeError as exc:\n"
        "    print(repr(str(exc)))"
    )
    assert message == "module 'flagcert' has no attribute 'x'"


def test_values_pickled_in_one_process_unpickle_in_another():
    from flagcert.exactmath import KPolynomial
    from flagcert.graphs import SmallGraph

    values = (SmallGraph(4, 0b101101), KPolynomial([1, -3, 2]))
    blob = pickle.dumps(values)
    shown = _probe(f"import pickle; print(repr(repr(pickle.loads({blob!r}))))")
    assert shown == repr(values)


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


# top-level names that nothing reachable uses yet, each with the ROADMAP item
# that gives it a caller; a new dead name fails, and so does a stale entry
UNREACHABLE = {
    "exactmath.count_real_roots": "item 5",
    "flags.flag_basis": "item 13",
    "graphs._enumerate_unchecked": "item 3, which deletes it with perfbench/shim.py",
    "oracle.target_graph": "item 1",
}


def _top_level_definitions():
    """{(module, name): the statement defining it} over the package, and the
    other statements that run at import (imports left out)."""
    defs, loose = {}, []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defs.update(((path.stem, name), node) for name in names)
            if not names:
                loose.append(node)
    return defs, loose


def _used_names(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_top_level_name_is_reachable():
    # walk from the console script (cli.main), the public names (the
    # package's export table) and the import-time statements through every
    # Name or Attribute use.  A use reaches every definition of that name in
    # any module, so the walk errs towards reachable and never fails a live
    # name
    defs, loose = _top_level_definitions()
    frontier = {"main", *_export_table()}
    frontier = frontier.union(*map(_used_names, loose))
    reached = set()
    while frontier:
        reached |= frontier
        uses = [_used_names(node) for (_, name), node in defs.items() if name in frontier]
        frontier = set().union(*uses) - reached
    dead = [f"{m}.{name}" for m, name in defs if name not in reached and not name.startswith("__")]
    assert sorted(dead) == sorted(UNREACHABLE)
