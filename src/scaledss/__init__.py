"""Finite combinatorics of scaled simplicial sets, with a certificate
kernel that replays inclusions as explicit pushouts of generators.

The package namespace is lazy (PEP 562): ``import scaledss`` loads no
submodule, and each name below imports its module on first access, so a
command pays only for the modules it runs.
"""

_EXPORTS = {
    "complexes": (
        "ComplexMap", "FinitePoset", "IsoResult", "OrderedComplex", "build_poset",
        "chain_count", "delta_poset", "find_isomorphism", "glue_pushout", "horn",
        "inclusion_map", "nerve", "opposite", "ordinal_sum", "poset_product",
        "poset_reverse", "quotient_vertex_map", "simplex_complex", "span",
    ),
    "errors": (
        "AmbientMismatch", "AuditFailure", "CertifyFailure", "GlueConflict",
        "InputError", "IrregularCollapse",
    ),
    "generators": (
        "Admissible", "GeneratorInstance", "NotAdmissible", "gen_horn_admissible",
        "instantiate",
    ),
    "grid": ("omega",),
    "scaling": (
        "ScaledComplex", "ScaledMap", "Violation", "add_thin", "check_scaled_map",
        "restrict_scaling", "scale",
    ),
    "certificates": (
        "BatchPushout", "Certificate", "GeneratorPushout", "ScalingExtension",
        "Transport", "VerifyReport", "verify_certificate",
    ),
    "search": ("search_decomposition",),
    "proofs": (
        "certify_cosegal", "certify_inner_horn", "certify_lemma_minus",
        "certify_lemma_plus", "certify_theta", "d_iso_check",
    ),
    "tower": (
        "CosimplicialLevel", "boundary_face", "check_cosimplicial_identities",
        "coface", "codegeneracy", "cosegal_source", "cosimplicial_level", "fsr",
        "horn_variants", "latching", "oplax_square", "rev_duality_check",
        "theta_complexes", "thin_audit", "tilde_ts1", "ts", "ts_glued",
        "ts_minus", "ts_plus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
