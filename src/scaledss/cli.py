"""Batch command-line surface.

Machine-readable JSON goes to stdout, human logs to stderr.  Exit codes:
0 success, 1 verification or audit failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import AuditFailure, CertifyFailure, InputError

if TYPE_CHECKING:
    from .scaling import ScaledComplex

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def default_nmax(kind: str) -> int:
    env = os.environ.get("SCALEDSS_NMAX")
    if env is not None:
        return int(env)
    return 5 if kind == "audit" else 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    from .serialize import canonical_dumps

    sys.stdout.write(canonical_dumps(obj))


def _write(path: str, obj) -> None:
    from .serialize import canonical_dumps

    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


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
        return tower.boundary_face(args.n, args.face)[0]
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
        return tower.oplax_square()
    raise InputError(f"unknown object {name!r}")


def cmd_build(args) -> int:
    from .serialize import scaled_to_json

    obj = _build_object(args)
    payload = scaled_to_json(obj)
    if args.out:
        _write(args.out, payload)
        _log(f"wrote {args.out}")
    else:
        _emit(payload)
    return EXIT_OK


def cmd_audit(args) -> int:
    from . import tower

    if args.what != "thin":
        raise InputError(f"unknown audit {args.what!r}")
    try:
        report = tower.thin_audit(args.n, args.part)
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit(report)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import proofs
    from .certificates import verify_certificate
    from .serialize import certificate_to_json

    budget = args.budget
    if args.lemma == "plus":
        cert = proofs.certify_lemma_plus(args.n, args.i, budget)
    elif args.lemma == "minus":
        cert = proofs.certify_lemma_minus(args.n, args.i, budget)
    elif args.lemma == "inner":
        cert = proofs.certify_inner_horn(args.n, args.i, budget)
    elif args.lemma == "cosegal":
        cert = proofs.certify_cosegal(args.n, budget)
    elif args.lemma == "theta":
        cert = proofs.certify_theta(args.i, budget)
    else:
        raise InputError(f"unknown lemma {args.lemma!r}")
    report = verify_certificate(cert)
    if args.out:
        _write(args.out, certificate_to_json(cert))
        _log(f"wrote {args.out}")
    _emit({"ok": report.ok, "steps": report.steps, "stats": dict(report.stats)})
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify(args) -> int:
    from .certificates import verify_certificate
    from .serialize import certificate_from_json

    cert = certificate_from_json(_read_json(args.cert))
    report = verify_certificate(cert, audit=args.audit)
    _emit({
        "ok": report.ok,
        "first_failure": list(report.first_failure) if report.first_failure else None,
        "stats": dict(report.stats),
        "steps": report.steps,
    })
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_search(args) -> int:
    from .search import search_decomposition
    from .serialize import certificate_to_json, scaled_from_json

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
    from . import tower

    max_n = args.max_n if args.max_n is not None else default_nmax("certify")
    try:
        report = tower.check_cosimplicial_identities(max_n)
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit(report)
    return EXIT_OK


def cmd_rev_check(args) -> int:
    from . import tower

    max_n = args.max_n if args.max_n is not None else default_nmax("certify")
    reports = []
    try:
        for n in range(max_n + 1):
            reports.append(tower.rev_duality_check(n))
    except AuditFailure as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_FAIL
    _emit({"ok": True, "levels": reports})
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scaledss")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for harness compatibility; all algorithms are deterministic")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="write a scaled-complex JSON file")
    p.add_argument("--object", required=True,
                   choices=["ts", "ts-plus", "ts-minus", "face", "horn", "fsr",
                            "tilde-ts1", "oplax-square"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--face", choices=["T", "F", "R", "B"], default=None)
    p.add_argument("--variant", default="full",
                   choices=["full", "plus", "hat_minus", "bar_plus", "bar_minus"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("audit", help="run a recomputation audit")
    p.add_argument("what", choices=["thin"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--part", required=True, choices=["plus", "minus", "full"])
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("certify", help="produce a certificate")
    p.add_argument("--lemma", required=True,
                   choices=["plus", "minus", "inner", "cosegal", "theta"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="replay and check a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--audit", action="store_true",
                   help="also recompute every state from raw tuple sets")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search a decomposition between two complexes")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cosimplicial-check", help="verify structure-map identities")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_cosimplicial_check)

    p = sub.add_parser("rev-check", help="verify the B/R face duality")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_rev_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _log(f"input error: {exc}")
        return EXIT_INPUT
    except (AuditFailure, CertifyFailure) as exc:
        _log(f"failure: {exc}")
        return EXIT_FAIL
    except FileNotFoundError as exc:
        _log(f"input error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
