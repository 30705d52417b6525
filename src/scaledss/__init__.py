"""Finite combinatorics of scaled simplicial sets, with a certificate
kernel that replays inclusions as explicit pushouts of generators.

The package namespace is lazy (PEP 562): ``import scaledss`` loads no
submodule, and each name below imports its module on first access, so a
command pays only for the modules it runs.
"""

_EXPORTS = {
    "complexes": ("ComplexMap", "OrderedComplex"),
    "errors": (
        "AmbientMismatch", "AuditFailure", "CertifyFailure", "InputError",
        "IrregularCollapse",
    ),
    "generators": (
        "Admissible", "GeneratorInstance", "NotAdmissible", "gen_horn_admissible",
        "instantiate",
    ),
    "grid": (),
    "scaling": ("ScaledComplex",),
    "certificates": (
        "BatchPushout", "Certificate", "GeneratorPushout", "ScalingExtension",
        "VerifyReport", "verify_certificate",
    ),
    "search": ("search_decomposition",),
    "proofs": (
        "certify_cosegal", "certify_inner_horn", "certify_lemma_minus",
        "certify_lemma_plus", "certify_theta",
    ),
    "tower": (
        "cosegal_source", "fsr", "horn", "horn_variants", "restrict_scaling", "simplex_complex",
        "theta_complexes", "tilde_ts1", "ts", "ts_minus", "ts_plus",
    ),
    "checks": (
        "ScaledMap", "boundary_face", "check_cosimplicial_identities", "coface", "codegeneracy",
        "d_iso_check", "latching", "oplax_square", "opposite", "rev_duality_check", "thin_audit",
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
