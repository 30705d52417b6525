"""Run one timed operation of scaledss in this fresh interpreter.

    python3 child.py CMD_ID SPANS cli ARGV...     # scaledss.cli.main(ARGV)
    python3 child.py CMD_ID SPANS search PAIRS    # one search_random pass

SPANS is ``-`` for an untraced run, which never imports the layer tracer;
otherwise the tracer wraps scaledss before the operation starts and writes
its spans to that path at exit.  The last line on stderr is a guard record
that the parent checks: which operation ran, in which process, whether the
tracer was loaded, and how long writing its spans took.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

T_ENTRY = time.perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GUARD_PREFIX = "PERFBENCH-GUARD "
TRACER_MODULE = "layertrace"


def search_pass(pairs_path: str) -> int:
    """Search every pair and verify each certificate found, plain and
    audited; print one result record per pair."""
    from scaledss.certificates import verify_certificate
    from scaledss.search import search_decomposition
    from scaledss.serialize import scaled_from_json

    with open(pairs_path, encoding="utf-8") as fh:
        pairs = json.load(fh)
    results = []
    for pair in pairs:
        a, b = scaled_from_json(pair["a"]), scaled_from_json(pair["b"])
        cert = search_decomposition(a, b, pair["budget"])
        if cert is None:
            results.append({"found": False})
            continue
        plain = verify_certificate(cert)
        audited = verify_certificate(cert, audit=True)
        results.append({
            "found": True,
            "steps": len(cert.steps),
            "plain_ok": plain.ok,
            "audit_ok": audited.ok,
            "stats_agree": plain.stats == audited.stats,
        })
    sys.stdout.write(json.dumps(results) + "\n")
    return 0


def main() -> int:
    cmd_id, spans_path, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, SRC)
    tracer = None
    if spans_path != "-":
        import layertrace

        tracer = layertrace.install()
    t_install = time.perf_counter()
    rc, crashed = 1, False
    t_run = t_install
    try:
        if mode == "cli":
            from scaledss.cli import main as cli_main

            t_run = time.perf_counter()
            rc = cli_main(rest)
        elif mode == "search":
            t_run = time.perf_counter()
            rc = search_pass(rest[0])
        else:
            raise ValueError(f"unknown child mode {mode!r}")
    except SystemExit as exc:  # argparse exits for --help and bad arguments
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        crashed = True
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.dump(spans_path, cmd_id, install_s=t_install - T_ENTRY - tracer.import_s,
                    run=(t_run, t_end))
    # writing the spans is the tracer's own cost, not start-up
    dump_s = time.perf_counter() - t_end
    sys.stdout.flush()
    guard = {
        "cmd": cmd_id,
        "pid": os.getpid(),
        "traced": tracer is not None,
        "tracer_loaded": TRACER_MODULE in sys.modules,
        "crashed": crashed,
        "dump_s": dump_s,
    }
    sys.stderr.write("\n" + GUARD_PREFIX + json.dumps(guard) + "\n")
    return 1 if crashed else int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
