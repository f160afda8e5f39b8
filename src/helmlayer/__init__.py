"""2-D Helmholtz Green's functions in horizontally layered media.

Sommerfeld-integral evaluation of the layered Green's function with
surface-wave-pole handling, multipole/local expansions whose convergence
is governed by the polarized distance to source images, and a quadtree
FMM driven by equivalent polarization sources.
"""

__version__ = "0.1.0"

from .medium import (
    Dir,
    InterfaceRow,
    LayeredMedium,
    PolarizedPair,
    ReactionComponentId,
    acoustic,
    admissible_components,
    layer_of,
    polarization_image,
    polarized_distance,
    relevant_interface,
    sound_soft_halfspace,
)
from .sigma import (
    PoleInfo,
    SigmaValues,
    assemble,
    find_real_poles,
    sigma_growth_probe,
    solve_sigma,
)
from .quadrature import (
    CdHMap,
    ContourSpec,
    cdh_phi,
    cdh_phi_inv,
    evaluate_component,
    free_space_green,
    green,
    integrate_with_pole,
    sommerfeld_identity_check,
    tail_integral_cdh,
)
from .expansions import (
    LocalExpansion,
    MultipoleExpansion,
    TranslationMatrix,
    choose_truncation,
    fs_me,
    fs_me_eval,
    l2l,
    le_coeffs_direct,
    le_eval,
    m2l,
    m2l_apply,
    m2m,
    me_coeffs,
    me_eval,
)
from .fmm import FmmConfig, FmmPlan, SourceSet, direct_sum, evaluate_all

__all__ = [
    "Dir",
    "InterfaceRow",
    "LayeredMedium",
    "PolarizedPair",
    "ReactionComponentId",
    "acoustic",
    "admissible_components",
    "layer_of",
    "polarization_image",
    "polarized_distance",
    "relevant_interface",
    "sound_soft_halfspace",
    "PoleInfo",
    "SigmaValues",
    "assemble",
    "find_real_poles",
    "sigma_growth_probe",
    "solve_sigma",
    "CdHMap",
    "ContourSpec",
    "cdh_phi",
    "cdh_phi_inv",
    "evaluate_component",
    "free_space_green",
    "green",
    "integrate_with_pole",
    "sommerfeld_identity_check",
    "tail_integral_cdh",
    "LocalExpansion",
    "MultipoleExpansion",
    "TranslationMatrix",
    "choose_truncation",
    "fs_me",
    "fs_me_eval",
    "l2l",
    "le_coeffs_direct",
    "le_eval",
    "m2l",
    "m2l_apply",
    "m2m",
    "me_coeffs",
    "me_eval",
    "FmmConfig",
    "FmmPlan",
    "SourceSet",
    "direct_sum",
    "evaluate_all",
    "__version__",
]
