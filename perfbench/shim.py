"""Run one flagcert CLI command with spans recorded at the layer boundaries.

    python3 perfbench/shim.py DUMP -- CLI-ARGS...

Run with ``src`` on ``PYTHONPATH``.  The shim times ``import flagcert.cli``,
then replaces every function named in ``BOUNDARY`` by a recording wrapper in
each flagcert module namespace that binds it, so calls from other modules
and from inside the defining module are both seen.  ``cli.main`` runs under
a root span.  Spans stay in memory as ``[name id, start, end, parent]``;
at exit the shim writes them to DUMP as JSON together with a few counters
read from arguments and results, and ``cache_info()`` of every
``lru_cache`` in the package.  Stdout and the exit status are the
command's own.
"""

from __future__ import annotations

import json
import sys
import time

# Per module: the names other flagcert modules import from it, the public
# functions the CLI calls, and the internal entry points of the costly
# kernels (canonical codes, Sturm chains, root counting, the expansion).
# Tiny helpers (``frac``, ``_rows``, ``_code_to_mask``) stay unwrapped: a
# span costs more than their body and would measure the shim instead.
BOUNDARY = {
    "graphs": (
        "_min_code", "enumerate_graphs", "_enumerate_unchecked",
        "count_induced", "induced_density", "automorphism_count",
        "parse_graph", "parse_paircode", "emit_paircode", "to_graph6",
    ),
    "exactmath": (
        "sturm_chain", "count_real_roots", "isolate_largest_real_root",
        "nonneg_on_ray", "positive_on_ray", "rf_nonneg_on_ray", "psd_check",
    ),
    "flags": ("lift", "expand_quadratic_form", "bilinear_expansion"),
    "certificates": (
        "load_certificate", "parse_certificate", "load_golden",
        "compare_with_golden", "verify_certificate",
        "verify_density_certificate", "verify_parametric_certificate",
        "certificate_expansion",
    ),
    "oracle": (
        "want_inequality_scan", "max_density_search", "max_density_table",
        "_induced_counts",
    ),
    "constructions": ("profile_table", "profile_csv"),
}


def _add(counters: dict, key: str, n: int) -> None:
    counters[key] = counters.get(key, 0) + n


# counters read from a boundary call's (counters, args, result)
HOOKS = {
    "flags.lift": lambda c, a, r: _add(c, "flags.lift_identity", a[0].order == a[1]),
    "oracle.want_inequality_scan": lambda c, a, r: _add(c, "oracle.scan_triples", r.triples_checked),
    "oracle._induced_counts": lambda c, a, r: _add(c, "oracle.search_hosts", len(a[2])),
    "constructions.profile_table": lambda c, a, r: _add(c, "constructions.points", len(r)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind each boundary function in every namespace holding it."""
        for short, names in BOUNDARY.items():
            home = modules[short]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def lru_caches(modules: dict) -> dict:
    """Every lru_cache defined at module level in the package."""
    return {
        f"{short}.{attr}": value
        for short, mod in modules.items()
        for attr, value in vars(mod).items()
        if hasattr(value, "cache_info") and value.__module__ == mod.__name__
    }


def main() -> None:
    dump, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: shim.py DUMP -- CLI-ARGS...")
    t0 = time.perf_counter()
    import flagcert.cli as cli

    import_s = time.perf_counter() - t0
    modules = {
        name.partition(".")[2] or "flagcert": mod
        for name, mod in sys.modules.items()
        if name == "flagcert" or name.startswith("flagcert.")
    }
    caches = lru_caches(modules)
    tracer = Tracer()
    tracer.install(modules)
    root = tracer.wrap("cli.main", cli.main)
    try:
        sys.exit(root(argv))
    finally:
        sys.stdout.flush()
        record = {
            "import_s": import_s,
            "names": tracer.names,
            "spans": tracer.spans,
            "counters": tracer.counters,
            "caches": {k: list(c.cache_info()) for k, c in caches.items()},
        }
        with open(dump, "w", encoding="ascii") as f:
            f.write(json.dumps(record))  # one C-encoder call, unlike json.dump


if __name__ == "__main__":
    main()
