"""Representation theory of acyclic Nakayama algebras: Kupisch series,
Auslander-Reiten combinatorics, gluing, fractures and the verification
and construction of n-cluster-tilting subcategories."""

from .kupisch import (
    ZERO,
    KupischError,
    KupischSeries,
    format_series,
    lambda_mh,
    linear_quiver_algebra,
    parse_series,
    validate,
)
from .ar import (
    ARQuiver,
    ar_quiver,
    cosyzygy,
    gldim,
    idim,
    pd,
    syzygy,
    tau,
    tau_inv,
    tau_n,
    tau_n_inv,
)
from .abutments import (
    foundation,
    footing_to_ka,
    left_abutment_heights,
    right_abutment_heights,
)
from .gluing import Glued, check_glue, glue
from .tilting import (
    Fracture,
    Fracturing,
    enumerate_tilting,
    iR_category,
    injective_fracture,
    is_fracture,
    is_slice,
    is_tilting,
    pL_category,
    projective_fracture,
    projective_injective_fracturing,
)
from .cluster import (
    Verdict,
    check_fractured,
    check_nct,
    classify_sides,
    compatibility_check,
    complete_slice,
    glue_fractured,
)
from .ndgen import (
    NdCertificate,
    base_family_even,
    base_family_odd,
    construct,
    supported,
)
from .render import RenderSpec, render

__all__ = [name for name in dir() if not name.startswith("_")]
