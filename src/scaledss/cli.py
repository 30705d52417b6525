"""Batch command-line surface.

Machine-readable JSON goes to stdout, human logs to stderr.  Exit codes:
0 success, 1 verification or audit failure, 2 input error.  This module
holds the parser and `verify`; the other verbs live in `produce`, which
`main` imports only when one of them runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AuditFailure, CertifyFailure, InputError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    from .serialize import canonical_dumps

    sys.stdout.write(canonical_dumps(obj))


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


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

    p = sub.add_parser("audit", help="run a recomputation audit")
    p.add_argument("what", choices=["thin"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--part", required=True, choices=["plus", "minus", "full"])

    p = sub.add_parser("certify", help="produce a certificate")
    p.add_argument("--lemma", required=True,
                   choices=["plus", "minus", "inner", "cosegal", "theta"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="replay and check a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--audit", action="store_true",
                   help="also check every step's added tuples and marks on a second record of the state")

    p = sub.add_parser("search", help="search a decomposition between two complexes")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--out", default=None)

    p = sub.add_parser("cosimplicial-check", help="verify structure-map identities")
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("rev-check", help="verify the B/R face duality")
    p.add_argument("--max-n", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            return cmd_verify(args)
        from . import produce

        return getattr(produce, "cmd_" + args.verb.replace("-", "_"))(args)
    except InputError as exc:
        _log(f"input error: {exc}")
        return EXIT_INPUT
    except (AuditFailure, CertifyFailure) as exc:
        _log(f"failure: {exc}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
