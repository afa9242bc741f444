"""MDS array codes whose single-node rebuild reads only a 1/r fraction of the
surviving data, with exact-arithmetic encoding, decoding and verification."""

from .analysis import (RatioReport, asymptotic_ratio, lower_bound_ratio,
                       measure_rebuild, measured_ratio, predicted_is_bound,
                       predicted_ratio, ratio_formula_terms, ratio_report)
from .codec import (CodecError, ErrorScan, RebuildPlan, decode_erasures,
                    decode_error, encode, rebuild_one, syndrome)
from .construct import (CodeSpec, CodeSpecError, MdsReport, build_code,
                        default_field, verify_mds)
from .gf import Field, FieldError, field_create, field_from_token, gf9, is_prime
from .perms import (OrthogonalityReport, RVector, VectorFamily, access_set,
                    access_union, intersection_size, make_family,
                    orthogonality_check, perm_apply, perm_unapply,
                    rebuild_overlap, standard_basis_family, weight_w_family)
from .plan import SingularMatrixError

__version__ = "0.1.0"
