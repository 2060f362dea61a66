"""Orders modulo powers of two and exact root-of-unity orbit sums.

Library layout:

* ``core_arith``   -- canonical residues, modular powers, 2-adic valuation,
                      odd parts, the base threshold exponent
* ``order_engine`` -- multiplicative orders by two independent routes,
                      order tables, the doubling and scaling checkers
* ``half_order``   -- half-order residues g^(omega/2) and their involution
                      classification
* ``exp_sum``      -- exact orbit-sum representation, zero certificates,
                      vanishing bound and its checkers
* ``sweep``        -- exhaustive claim sweeps with machine-readable reports
* ``cli``          -- the ``pow2sums`` command-line tool
"""
from types import ModuleType as _ModuleType

from .core_arith import (
    MAX_EXPONENT,
    DomainError,
    ValuationDecomposition,
    canonical_residue,
    mod_pow,
    odd_part,
    threshold_exponent,
    two_adic_valuation,
)
from .exp_sum import (
    FLOAT_EXPONENT_CAP,
    LITERAL_EXPONENT_CAP,
    FloatPrecisionError,
    MinVanishing,
    OrbitCertificate,
    ResidueMultiset,
    ZeroCertificate,
    check_antipodal_shift,
    check_orbit_vanishing,
    float_sum,
    is_exact_zero,
    min_vanishing_n,
    orbit_certificate,
    residue_orbit,
    vanishing_bound,
)
from .half_order import (
    HalfOrderResult,
    InvolutionClass,
    check_half_order_classification,
    check_involution_membership,
    check_minus_one_case,
    classify_involution,
    half_order_exponent,
    half_order_residue,
)
from .order_engine import (
    NAIVE_SCAN_CAP,
    OrderRecord,
    ScanBudgetExceeded,
    check_order_doubling,
    check_order_scaling,
    order_fast,
    order_naive,
    order_table,
)
from .sweep import (
    CLAIMS,
    Claim,
    SweepException,
    SweepReport,
    SweepSpec,
    UsageError,
    canonical_json,
    format_report,
    run_sweep,
)
from .verdict import Verdict

__version__ = "0.1.0"

# the public names are the ones imported above, without the submodules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
