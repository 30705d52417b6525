"""The command-line surface: the option table, `main` and `verify`; the
other verbs live in `produce`, which `main` imports only when one runs.
Machine-readable JSON goes to stdout, human logs to stderr.  Exit codes:
0 success, 1 verification or audit failure, 2 input error."""

from __future__ import annotations

import atexit
import gc
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import AuditFailure, CertifyFailure, InputError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# The option before the verb, then each verb's help and arguments in parser order, as a flag or
# name and argparse's `add_argument` keywords.  `main` reads a well-formed argv off this table
# and leaves the rest (help, errors) to the argparse parser that `make_parser` builds from it.
SEED = ("--seed", {"type": int, "help": "accepted for harness compatibility; all algorithms are deterministic"})
VERBS = {
    "build": ("write a scaled-complex JSON file", (
        ("--object", {"required": True, "choices": ["ts", "ts-plus", "ts-minus", "face", "horn", "fsr",
                                                     "tilde-ts1", "oplax-square"]}),
        ("--n", {"type": int, "default": 0}), ("--i", {"type": int}),
        ("--face", {"choices": ["T", "F", "R", "B"]}),
        ("--variant", {"default": "full", "choices": ["full", "plus", "hat_minus", "bar_plus", "bar_minus"]}),
        ("--out", {}))),
    "audit": ("run a recomputation audit", (
        ("what", {"choices": ["thin"]}), ("--n", {"type": int, "required": True}),
        ("--part", {"required": True, "choices": ["plus", "minus", "full"]}))),
    "certify": ("produce a certificate", (
        ("--lemma", {"required": True, "choices": ["plus", "minus", "inner", "cosegal", "theta"]}),
        ("--n", {"type": int, "default": 0}), ("--i", {"type": int}),
        ("--budget", {"type": int, "help": "accepted and ignored: each search runs until it stops"}), ("--out", {}))),
    "verify": ("replay and check a certificate file", (
        ("--cert", {"required": True}),
        ("--audit", {"action": "store_true", "default": False, "help": "also check every step's added "
                     "tuples and marks on a second record of the state"}))),
    "search": ("search a decomposition between two complexes", (
        ("--from", {"dest": "src", "required": True}), ("--to", {"dest": "dst", "required": True}),
        ("--budget", {"type": int, "default": 256}), ("--out", {}))),
    "cosimplicial-check": ("verify structure-map identities", (("--max-n", {"type": int}),)),
    "rev-check": ("verify the B/R face duality", (("--max-n", {"type": int}),)),
}


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


def make_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="scaledss")
    parser.add_argument(SEED[0], **SEED[1])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, arguments) in VERBS.items():
        p = sub.add_parser(verb, help=text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
    return parser


def _store(values: dict, dest: str, spec: dict, token: str) -> bool:
    """Store a value as argparse would; False where argparse may read it otherwise or reject it
    (the caller then drops `values`)."""
    try:
        values[dest] = value = spec.get("type", str)(token)
    except ValueError:
        return False
    return not token.startswith("-") and value in spec.get("choices", (value,))


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed argv, else None: each token an exact option of
    the verb (or `--seed` before it), no value starting with `-`, no option twice, each value
    converting and within its choices, and every required argument present."""
    tokens, values, seen = iter(argv), {"seed": None}, set()
    verb = next(tokens, None)
    if verb == SEED[0] and _store(values, "seed", SEED[1], next(tokens, "-")):
        verb = next(tokens, None)
    if verb not in VERBS:
        return None
    arguments = {name: (spec.get("dest", name.lstrip("-").replace("-", "_")), spec)
                 for name, spec in VERBS[verb][1]}
    positionals = [name for name in arguments if not name.startswith("-")]
    values.update(((dest, spec.get("default")) for dest, spec in arguments.values()), verb=verb)
    for token in tokens:
        is_option = token.startswith("-")
        name = token if is_option else positionals.pop(0) if positionals else None
        if name not in arguments or name in seen:
            return None
        seen.add(name)
        dest, spec = arguments[name]
        if "action" in spec:  # store_true
            values[dest] = True
        elif not _store(values, dest, spec, next(tokens, "-") if is_option else token):
            return None
    required = {name for name, (_, spec) in arguments.items() if spec.get("required")}
    return None if positionals or not required <= seen else SimpleNamespace(**values)


def main(argv=None) -> int:
    # at exit, freeze the heap so that the shutdown collections walk none of it: Python promises
    # no finalizer to an object alive at exit, and every file a command writes is closed by then
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or make_parser().parse_args(argv)
    # a command's objects live until it ends: cyclic GC would only rescan them
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
