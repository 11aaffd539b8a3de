"""Exact verification of induced-density certificates and bounds.

The package proves finite statements by exhaustion and exact arithmetic:
rational (and quadratic-irrational) numbers everywhere, no floating point
in any verdict.  See the module docstrings for the individual pieces:

* ``graphs``: small graphs, canonical forms, induced counting, graph6.
* ``exactmath``: polynomials in one variable, Sturm root isolation,
  rational functions, exact LDL^T positive-semidefiniteness checks.
* ``flags``: labelled-graph algebras, products, unlabelling, lifting.
* ``certificates``: the certificate file format, its verifiers, and
  reference-table comparison.
* ``constructions``: weighted blowups and the lower-bound profile curve.
* ``oracle``: brute-force searches and the counting-identity checks.
* ``cli``: the ``flagcert`` command.
"""

from .certificates import (
    Certificate,
    Golden,
    VerificationReport,
    compare_with_golden,
    load_certificate,
    load_golden,
    parse_certificate,
    parse_golden,
    verify_certificate,
    verify_density_certificate,
    verify_parametric_certificate,
)
from .constructions import (
    BlowupModel,
    ProfilePoint,
    QuadExt,
    blowup_density,
    conjecture_value,
    model_value,
    piece_model,
    profile_csv,
    profile_table,
    turan_bound,
)
from .exactmath import (
    KPolynomial,
    RationalFunction,
    SymMatrix,
    isolate_largest_real_root,
    nonneg_on_ray,
    psd_check,
)
from .flags import Flag, FlagVector, bilinear_expansion, expand_quadratic_form, flag_product, lift, unlabel
from .graphs import (
    SmallGraph,
    automorphism_count,
    blowup_graph,
    complete,
    count_induced,
    empty,
    emit_paircode,
    enumerate_graphs,
    from_graph6,
    induced_density,
    join,
    parse_graph,
    parse_paircode,
    to_graph6,
    turan,
    union,
)
from .oracle import (
    SEARCH_CSV_HEADER,
    DegreeLocalData,
    IdentityCheckReport,
    ScanReport,
    SearchResult,
    counting_identity_check,
    degree_local_data,
    edge_local_count,
    max_density_search,
    max_density_table,
    want_inequality_scan,
)

__version__ = "1.0.0"

__all__ = [
    "BlowupModel",
    "Certificate",
    "DegreeLocalData",
    "Flag",
    "FlagVector",
    "Golden",
    "IdentityCheckReport",
    "KPolynomial",
    "ProfilePoint",
    "QuadExt",
    "RationalFunction",
    "SEARCH_CSV_HEADER",
    "ScanReport",
    "SearchResult",
    "SmallGraph",
    "SymMatrix",
    "VerificationReport",
    "automorphism_count",
    "bilinear_expansion",
    "blowup_density",
    "blowup_graph",
    "compare_with_golden",
    "complete",
    "conjecture_value",
    "count_induced",
    "counting_identity_check",
    "degree_local_data",
    "edge_local_count",
    "emit_paircode",
    "empty",
    "enumerate_graphs",
    "expand_quadratic_form",
    "flag_product",
    "from_graph6",
    "induced_density",
    "isolate_largest_real_root",
    "join",
    "lift",
    "load_certificate",
    "load_golden",
    "max_density_search",
    "max_density_table",
    "model_value",
    "nonneg_on_ray",
    "parse_certificate",
    "parse_golden",
    "parse_graph",
    "parse_paircode",
    "piece_model",
    "profile_csv",
    "profile_table",
    "psd_check",
    "to_graph6",
    "turan",
    "turan_bound",
    "union",
    "unlabel",
    "verify_certificate",
    "verify_density_certificate",
    "verify_parametric_certificate",
    "want_inequality_scan",
]
