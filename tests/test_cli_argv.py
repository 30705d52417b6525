"""The command line's option table: `main` reads a well-formed argv off it,
and argparse, built from the same table, reads every other one."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scaledss.cli import VERBS, _read_argv, make_parser

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _pre_table_parser() -> argparse.ArgumentParser:
    """The parser as it was written out by hand before the table: the
    oracle for every help text."""
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
    p.add_argument("--budget", type=int, default=None, help="accepted and ignored: each search runs until it stops")
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


def _run(argv):
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "scaledss", *argv], capture_output=True, env=env)


@pytest.mark.parametrize("verb", [None, "build", "audit", "certify", "verify", "search", "cosimplicial-check",
                                  "rev-check"])
def test_help_bytes_are_the_hand_written_parsers(verb, monkeypatch):
    """`--help` of the program and of each verb, at 80 columns, is byte for
    byte the help of the parser written out by hand."""
    argv = ["--help"] if verb is None else [verb, "--help"]
    proc = _run(argv)
    assert proc.returncode == 0 and not proc.stderr
    monkeypatch.setenv("COLUMNS", "80")
    oracle = _pre_table_parser()
    if verb is not None:
        oracle = next(a for a in oracle._actions if isinstance(a, argparse._SubParsersAction)).choices[verb]
    assert proc.stdout == oracle.format_help().encode()


def test_a_malformed_argv_exits_2_with_argparse_usage():
    proc = _run(["certify", "--lemma", "plus", "--budget=-1x"])
    assert proc.returncode == 2 and not proc.stdout
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith("usage: scaledss certify [-h] --lemma")
    assert lines[-1] == "scaledss certify: error: argument --budget: invalid int value: '-1x'"


@pytest.mark.parametrize("argv", [
    ["build", "--object", "ts", "--n", "2"],
    ["--seed", "7", "build", "--out", "x.json", "--face", "T", "--object", "face", "--n", "3"],
    ["audit", "thin", "--n", "1", "--part", "plus"],
    ["audit", "--n", "1", "thin", "--part", "full"],
    ["audit", "--part", "minus", "--n", "0", "thin"],
    ["certify", "--lemma", "cosegal", "--n", "7", "--budget", "20000"],
    ["verify", "--audit", "--cert", "c.json"],
    ["verify", "--cert", ""],
    ["search", "--to", "b.json", "--from", "a.json", "--budget", "0"],
    ["cosimplicial-check"],
    ["rev-check", "--max-n", "3"],
])
def test_the_table_reads_well_formed_argv_as_argparse(argv):
    ns = _read_argv(argv)
    assert ns is not None
    assert vars(ns) == vars(make_parser().parse_args(argv))


SPECIAL = ["-1", "-", "", "--", "-h", "1x", "bogus"]


def _good_value(spec: dict):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.integers(0, 12).map(str)
    return st.sampled_from(["a.json", "out/x.json", "verify"])


@st.composite
def argvs(draw):
    """A verb's arguments, in any order, each option exact, abbreviated,
    `=`-joined or bare, maybe one repeated or a required one missing, with
    well-formed values and the values argparse reads otherwise or rejects."""
    def value(good):
        return draw(good if draw(st.integers(0, 7)) else st.sampled_from(SPECIAL))

    argv = []
    if draw(st.booleans()):
        argv += ["--seed", value(st.integers(0, 12).map(str))]
    verb = draw(st.sampled_from([*VERBS, "bogus", "--help"]))
    argv.append(verb)
    arguments = list(VERBS.get(verb, ("", [("--n", {"type": int})]))[1])
    chosen = draw(st.permutations(arguments))[:draw(st.integers(0, len(arguments)))]
    chosen += [a for a in arguments if a not in chosen and (a[1].get("required") or a[0][0] != "-")
               and draw(st.integers(0, 7))]
    if not draw(st.integers(0, 4)):
        chosen.append(draw(st.sampled_from(arguments)))
    for name, spec in chosen:
        token = value(_good_value(spec))
        if not name.startswith("-"):
            argv.append(token)
        elif "action" in spec:
            argv.append(name)
        else:
            form = draw(st.sampled_from(["exact"] * 12 + ["abbreviated", "joined", "bare"]))
            if form == "abbreviated":
                name = name[:max(3, len(name) - 2)]
            argv += {"exact": [name, token], "abbreviated": [name, token], "joined": [f"{name}={token}"],
                     "bare": [name]}[form]
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_table_reader_declines_or_agrees_with_argparse(argv):
    """Whatever argv the table reader accepts, argparse parses to the same
    attributes; everything else is left to argparse."""
    ns = _read_argv(argv)
    if ns is not None:
        assert vars(ns) == vars(make_parser().parse_args(argv)), argv


def test_the_seed_is_read_only_before_the_verb():
    assert _read_argv(["--seed", "3", "rev-check"]).seed == 3
    assert _read_argv(["rev-check", "--seed", "3"]) is None
    assert _read_argv(["--seed", "3", "--seed", "4", "rev-check"]) is None
