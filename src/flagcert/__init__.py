"""Exact verification of induced-density certificates and bounds.

The package proves finite statements by exhaustion and exact arithmetic:
rational (and quadratic-irrational) numbers everywhere, no floating point
in any verdict.  See the module docstrings for the individual pieces:

* ``graphs``: small graphs, canonical forms, induced counting, graph6.
* ``exactmath``: polynomials in one variable, Sturm root isolation,
  rational functions, exact LDL^T positive-semidefiniteness checks.
* ``flags``: labelled-graph algebras, products, unlabelling, lifting.
* ``verdict``: everything a certificate's PASS depends on: the
  expansion, the sign and PSD checks, the verification report.
* ``certificates``: the certificate file format, the verifiers' entry
  points, and reference-table comparison.
* ``constructions``: weighted blowups and the lower-bound profile curve.
* ``oracle``: brute-force searches and the counting-identity checks.
* ``cli``: the ``flagcert`` command.

Importing the package runs none of them.  Each library module is
registered lazily (``importlib.util.LazyLoader``): it is in ``sys.modules``
and on the package at once, and its source is compiled and run on its
first attribute access.  So a command runs only the modules it reaches:
``enumerate`` runs ``graphs`` alone, and ``verify`` never runs ``oracle``
or ``constructions``.  A public name such as ``flagcert.SmallGraph`` is
found through the export table ``_EXPORTS``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# each public name and the module that defines it; ``__getattr__`` and
# ``__dir__`` read this table, and ``__all__`` is its keys
_EXPORTS = {
    "Certificate": "certificates",
    "Golden": "certificates",
    "compare_with_golden": "certificates",
    "load_certificate": "certificates",
    "load_golden": "certificates",
    "parse_certificate": "certificates",
    "parse_golden": "certificates",
    "verify_certificate": "certificates",
    "verify_density_certificate": "certificates",
    "verify_parametric_certificate": "certificates",
    "BlowupModel": "constructions",
    "ProfilePoint": "constructions",
    "QuadExt": "constructions",
    "blowup_density": "constructions",
    "conjecture_value": "constructions",
    "model_value": "constructions",
    "piece_model": "constructions",
    "profile_csv": "constructions",
    "profile_table": "constructions",
    "turan_bound": "constructions",
    "KPolynomial": "exactmath",
    "RationalFunction": "exactmath",
    "SymMatrix": "exactmath",
    "isolate_largest_real_root": "exactmath",
    "nonneg_on_ray": "exactmath",
    "psd_check": "exactmath",
    "Flag": "flags",
    "FlagVector": "flags",
    "bilinear_expansion": "flags",
    "expand_quadratic_form": "flags",
    "flag_product": "flags",
    "lift": "flags",
    "unlabel": "flags",
    "SmallGraph": "graphs",
    "automorphism_count": "graphs",
    "blowup_graph": "graphs",
    "complete": "graphs",
    "count_induced": "graphs",
    "emit_paircode": "graphs",
    "empty": "graphs",
    "enumerate_graphs": "graphs",
    "from_graph6": "graphs",
    "induced_density": "graphs",
    "join": "graphs",
    "parse_graph": "graphs",
    "parse_paircode": "graphs",
    "to_graph6": "graphs",
    "turan": "graphs",
    "union": "graphs",
    "DegreeLocalData": "oracle",
    "IdentityCheckReport": "oracle",
    "SEARCH_CSV_HEADER": "oracle",
    "ScanReport": "oracle",
    "SearchResult": "oracle",
    "counting_identity_check": "oracle",
    "degree_local_data": "oracle",
    "edge_local_count": "oracle",
    "max_density_search": "oracle",
    "max_density_table": "oracle",
    "want_inequality_scan": "oracle",
    "VerificationReport": "verdict",
}


def _register(name: str) -> None:
    """Put the submodule ``name`` into ``sys.modules`` and onto the package
    without running it: its source is compiled and run on the first
    attribute access (the ``importlib`` recipe for lazy imports)."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("_frozen", *dict.fromkeys(_EXPORTS.values())):
    _register(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)
