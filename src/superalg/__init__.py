"""Exact verification engine for a catalog of graded algebra families.

The ``families`` re-exports resolve on first access (PEP 562), so importing
the package, or ``superalg.cli``, does not run the family registry.
"""

from importlib import import_module

from .core import (Fingerprint, GradedSubspace, GradedVector, Residual,
                   SuperAlgebra, char_sequence, charseq_bound, charseq_note,
                   check_leibniz, check_lie, derived_series, fingerprint,
                   is_nilpotent, is_solvable, lower_central_series,
                   make_superalgebra, nilindex, right_annihilator,
                   right_mul_cells, sdf_dump, sdf_dumps, sdf_load, sdf_loads,
                   subspace_product)
from .errors import (DegenerateSamplingError, InputError,
                     InternalInconsistencyError, NotNilpotentError,
                     SuperalgError, UnsupportedShapeError)
from .exactmath import (Polynomial, RatMatrix, nilpotent_jordan_type,
                        parse_coefficient, parse_rational)

_FAMILIES_EXPORTS = frozenset({
    "CORRECTED", "FAMILY_IDS", "VERBATIM", "ErrataEntry", "build",
    "errata_for", "errata_ledger", "family_info", "list_families",
    "nilradical_spec", "parameter_names"})

__version__ = "1.0.0"


def __getattr__(name: str):
    if name in _FAMILIES_EXPORTS:
        return getattr(import_module(".families", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
