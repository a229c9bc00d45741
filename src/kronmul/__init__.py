"""Dense polynomial multiplication via multipoint Kronecker substitution.

The integer path packs coefficient vectors into big integers at one, two or
four carefully chosen evaluation points (powers and reciprocals of 2**N,
with and without negation), multiplies those ints, and unpacks; the
narrower the packing, the less zero-padding is multiplied.  An uncounted
product is CPython's multiply, split by Toom-4 on large balanced operands;
a counted one is Karatsuba over schoolbook leaves.  Only the product is
counted, because the paper's cost model counts word products.  A
ring-generic bivariate reduction, a (Z/nZ)[x] front end and a benchmark CLI
sit on top.
"""

from .bignat import (DEFAULT_MUL_CONFIG, LIMB_BITS, MulConfig, MulStats,
                     mul, mul_classical, mul_karatsuba, mul_signed)
from .bipoly import (BiPoly, MissingHalveError, RingOps, bks_four,
                     bks_negated, bks_reciprocal, bks_standard, ring_z,
                     ring_zmod)
from .ksint import (KsParams, ReconstructionError, derive_params, ks1_mul,
                    ks2_mul, ks3_mul, ks4_mul)
from .modpoly import ModPoly, Variant, choose_variant, mod_mul
from .oracle import schoolbook_bivar, schoolbook_mod, schoolbook_z, \
    uni_schoolbook
from .pack import CoeffVec, from_digits, to_digits

__version__ = "0.1.0"

__all__ = [
    "MulStats", "MulConfig", "DEFAULT_MUL_CONFIG", "LIMB_BITS",
    "mul", "mul_classical", "mul_karatsuba", "mul_signed", "to_digits",
    "from_digits",
    "CoeffVec",
    "KsParams", "ReconstructionError", "derive_params",
    "ks1_mul", "ks2_mul", "ks3_mul", "ks4_mul",
    "BiPoly", "RingOps", "MissingHalveError", "ring_z", "ring_zmod",
    "bks_standard", "bks_reciprocal", "bks_negated", "bks_four",
    "ModPoly", "Variant", "mod_mul", "choose_variant",
    "schoolbook_z", "schoolbook_bivar", "schoolbook_mod", "uni_schoolbook",
    "__version__",
]
