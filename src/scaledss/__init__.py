"""Finite combinatorics of scaled simplicial sets, with a certificate
kernel that replays inclusions as explicit pushouts of generators."""

from .complexes import (
    ComplexMap,
    FinitePoset,
    IsoResult,
    OrderedComplex,
    build_poset,
    chain_count,
    delta_poset,
    find_isomorphism,
    glue_pushout,
    horn,
    inclusion_map,
    nerve,
    opposite,
    ordinal_sum,
    poset_product,
    poset_reverse,
    quotient_vertex_map,
    simplex_complex,
    span,
)
from .errors import (
    AmbientMismatch,
    AuditFailure,
    CertifyFailure,
    GlueConflict,
    InputError,
    IrregularCollapse,
)
from .generators import Admissible, GeneratorInstance, NotAdmissible, gen_horn_admissible, instantiate
from .grid import omega
from .scaling import ScaledComplex, ScaledMap, Violation, add_thin, check_scaled_map, restrict_scaling, scale
from .certificates import (
    BatchPushout,
    Certificate,
    GeneratorPushout,
    ScalingExtension,
    Transport,
    VerifyReport,
    verify_certificate,
)
from .search import search_decomposition
from .proofs import (
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
    d_iso_check,
)
from .tower import (
    CosimplicialLevel,
    boundary_face,
    check_cosimplicial_identities,
    coface,
    codegeneracy,
    cosegal_source,
    cosimplicial_level,
    fsr,
    horn_variants,
    latching,
    oplax_square,
    rev_duality_check,
    theta_complexes,
    thin_audit,
    tilde_ts1,
    ts,
    ts_glued,
    ts_minus,
    ts_plus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
