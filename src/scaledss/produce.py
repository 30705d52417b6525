"""The producer side of the command line: the verbs that build, certify,
search and check, and the canonical JSON encoders they write with.

`cli.main` imports this module only when one of these verbs runs, so a
cold `verify` compiles none of it.  Each verb imports what it runs on
first use: `search` loads no tower, `build` no certificate kernel, and
only the check verbs and `build --object face|oplax-square` load the
tower's checks.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .cli import EXIT_FAIL, EXIT_OK, _emit, _log, _read_json
from .complexes import label_key
from .errors import AuditFailure, InputError
from .serialize import canonical_dumps, scaled_from_json

if TYPE_CHECKING:
    from .certificates import Certificate, Step
    from .complexes import OrderedComplex
    from .scaling import ScaledComplex


# ---------------------------------------------------------------------------
# Canonical JSON encoders; `serialize` holds their decoders


def complex_to_json(k: OrderedComplex) -> dict:
    return {
        "vertices": sorted(k.vertices, key=label_key),
        "maximal_simplices": [list(t) for t in k.maximal()],
    }


def scaled_to_json(s: ScaledComplex) -> dict:
    out = complex_to_json(s.complex)
    out["thin"] = [list(t) for t in s.thin_sorted()]
    return out


def step_to_json(step: Step) -> dict:
    from .certificates import GeneratorPushout, ScalingExtension

    if isinstance(step, GeneratorPushout):
        return {"kind": step.kind, "attach": {str(j): v for j, v in enumerate(step.cell)}}
    if isinstance(step, ScalingExtension):
        return {"kind": "an2_marks", "attach": {str(j): v for j, v in enumerate(step.word)}}
    raise InputError(f"unknown step type {type(step).__name__}")


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "class": cert.claimed_class,
        "start": scaled_to_json(cert.start),
        "target": scaled_to_json(cert.target),
        "steps": [step_to_json(s) for s in cert.steps],
        "metadata": dict(cert.metadata),
    }


# ---------------------------------------------------------------------------
# The verbs other than verify


def _max_n(args) -> int:
    """The highest level a check runs to: --max-n, else 4."""
    max_n = 4 if args.max_n is None else args.max_n
    if max_n < 0:
        raise InputError("n must be >= 0")
    return max_n


def _write(path: str, obj) -> None:
    text = canonical_dumps(obj)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _build_object(args) -> ScaledComplex:
    from . import tower

    name = args.object
    if name == "ts":
        return tower.ts(args.n)
    if name == "ts-plus":
        return tower.ts_plus(args.n)
    if name == "ts-minus":
        return tower.ts_minus(args.n)
    if name == "face":
        if not args.face:
            raise InputError("--face T|F|R|B is required for face objects")
        from .checks import boundary_face

        return boundary_face(args.n, args.face)
    if name == "horn":
        if args.i is None:
            raise InputError("--i is required for horn objects")
        return tower.horn_variants(args.n, args.i, args.variant)
    if name == "fsr":
        if args.i is None:
            raise InputError("--i is required for fsr objects")
        return tower.fsr(args.i)
    if name == "tilde-ts1":
        return tower.tilde_ts1()
    if name == "oplax-square":
        from .checks import oplax_square

        return oplax_square()
    raise InputError(f"unknown object {name!r}")


def cmd_build(args) -> int:
    payload = scaled_to_json(_build_object(args))
    if args.out:
        _write(args.out, payload)
        _log(f"wrote {args.out}")
    else:
        _emit(payload)
    return EXIT_OK


def cmd_audit(args) -> int:
    from .checks import thin_audit

    if args.what != "thin":
        raise InputError(f"unknown audit {args.what!r}")
    try:
        report = thin_audit(args.n, args.part)
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit(report)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import proofs
    from .certificates import verify_certificate

    if args.lemma in ("plus", "minus", "inner") and args.i is None:
        raise InputError(f"--i is required for the {args.lemma} lemma")
    if args.lemma == "plus":
        cert = proofs.certify_lemma_plus(args.n, args.i)
    elif args.lemma == "minus":
        cert = proofs.certify_lemma_minus(args.n, args.i)
    elif args.lemma == "inner":
        cert = proofs.certify_inner_horn(args.n, args.i)
    elif args.lemma == "cosegal":
        cert = proofs.certify_cosegal(args.n)
    elif args.lemma == "theta":
        cert = proofs.certify_theta(args.i)
    else:
        raise InputError(f"unknown lemma {args.lemma!r}")
    report = verify_certificate(cert)
    if args.out:
        _write(args.out, certificate_to_json(cert))
        _log(f"wrote {args.out}")
    _emit({"ok": report.ok, "steps": report.steps, "stats": dict(report.stats)})
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_search(args) -> int:
    from .search import search_decomposition

    if args.budget < 0:
        raise InputError("budget must be >= 0")
    src = scaled_from_json(_read_json(args.src))
    dst = scaled_from_json(_read_json(args.dst))
    cert = search_decomposition(src, dst, args.budget)
    if cert is None:
        _emit({"found": False})
        return EXIT_FAIL
    if args.out:
        _write(args.out, certificate_to_json(cert))
        _log(f"wrote {args.out}")
    _emit({"found": True, "steps": len(cert.steps)})
    return EXIT_OK


def cmd_cosimplicial_check(args) -> int:
    from .checks import check_cosimplicial_identities

    max_n = _max_n(args)
    try:
        report = check_cosimplicial_identities(max_n)
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit(report)
    return EXIT_OK


def cmd_rev_check(args) -> int:
    from .checks import rev_duality_check

    max_n = _max_n(args)
    reports = []
    try:
        for n in range(max_n + 1):
            reports.append(rev_duality_check(n))
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit({"ok": True, "levels": reports})
    return EXIT_OK
