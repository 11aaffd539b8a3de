"""The library names that the benchmark in ``perfbench/`` pins still resolve.

``perfbench/shim.py`` rebinds every function named in its ``BOUNDARY`` by
name, and ``perfbench/run.py`` reads ``cache_info()`` of named caches.
The default test run does not collect ``perfbench/``, so without these
checks a renamed library function would only show when the benchmark runs.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _library_attr(module: str, name: str):
    return getattr(importlib.import_module(f"flagcert.{module}"), name, None)


def _shim_namespace() -> dict:
    """shim.py's top level, run from its source: no bytecode is written."""
    path = PERFBENCH / "shim.py"
    namespace = {"__name__": "perfbench_shim"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_shim_boundary_names_are_library_callables():
    boundary = _shim_namespace()["BOUNDARY"]
    assert "sturm_chain" in boundary["exactmath"]
    missing = [
        f"{module}.{name}"
        for module, names in boundary.items()
        for name in names
        if not callable(_library_attr(module, name))
    ]
    assert missing == []


def test_caches_read_by_the_runner_are_lru_caches():
    keys = re.findall(r'caches\["([^"]+)"\]', (PERFBENCH / "run.py").read_text())
    assert "graphs._min_code_cached" in keys
    for key in keys:
        module, _, name = key.partition(".")
        cache = _library_attr(module, name)
        assert callable(getattr(cache, "cache_info", None)), key
        assert callable(getattr(cache, "cache_parameters", None)), key


def test_importing_the_cli_loads_every_module_the_shim_wraps():
    # the shim wraps the modules that ``import flagcert.cli`` leaves in
    # sys.modules, so each must be registered there, though none need have
    # run: the shim's vars() of a lazily registered module runs it
    probe = (
        "import json, sys, flagcert.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('flagcert.'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = {name.removeprefix("flagcert.") for name in json.loads(out)}
    assert set(_shim_namespace()["BOUNDARY"]) - loaded == set()
