"""The README's command-line block and its conversion lines for older
certificate files run as documented."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scaledss import Certificate, ScaledComplex, Step, certify_lemma_plus, generators, simplex_complex
from scaledss.cli import main
from scaledss.produce import certificate_to_json
from scaledss.serialize import canonical_dumps, certificate_from_json
from support import batched_cosegal, batched_half, batched_inner_horn, nested_theta, with_injective_transports
from test_serialize_cli import with_an2_steps, with_parameters

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    """The commands of the first `sh` block under "## Command line", one
    argv each, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [argv for line in block.splitlines() if (argv := shlex.split(line, comments=True))]


def test_the_readme_command_block_runs_in_an_empty_directory(tmp_path: Path):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["scaledss"] * len(commands)
    assert ["scaledss", "search", "--from", "a.json", "--to", "b.json", "--budget", "128",
            "--out", "found.json"] in commands
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "scaledss", *argv[1:]], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)


def readme_jq_blocks() -> list[str]:
    """The `sh` blocks of "File formats", each a line that converts an
    older file: the first drops recorded parameters, the second renames
    `an2` steps, the third splices every transport and flattens every
    batch."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```sh\n")[1:]]
    for block in blocks:
        assert block.startswith("jq ") and block.rstrip().endswith("old.json > new.json")
    return blocks


@pytest.mark.skipif(shutil.which("jq") is None, reason="jq is not on PATH")
@pytest.mark.parametrize("argv", [
    ["--lemma", "plus", "--n", "2", "--i", "1"],
    ["--lemma", "theta", "--i", "0"],
    ["--lemma", "cosegal", "--n", "3"],
], ids=["plus21", "theta0", "cosegal3"])
def test_the_readme_jq_line_converts_an_older_file_byte_for_byte(tmp_path: Path, argv):
    written = tmp_path / "certified.json"
    assert main(["certify", *argv, "--out", str(written)]) == 0
    new = written.read_bytes()
    old = canonical_dumps(with_parameters(certificate_from_json(json.loads(new))))
    assert old.encode() != new  # the file records parameters
    (tmp_path / "old.json").write_text(old, encoding="utf-8")
    proc = subprocess.run(["sh", "-c", readme_jq_blocks()[0]], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "new.json").read_bytes() == new


@pytest.mark.skipif(shutil.which("jq") is None, reason="jq is not on PATH")
def test_the_readme_jq_line_turns_an2_steps_into_scaling_extensions(tmp_path: Path, capsys):
    """A file with an `an2` generator step, the literal match on Delta^4 that
    search once wrote, exits 2 naming the an2_marks form; the README's line
    converts it, byte for byte, into the file search writes now, which
    verifies."""
    word = tuple(f"x{j}" for j in range(5))
    source_thin = [tuple(word[j] for j in t) for t in generators.AN2_SOURCE_THIN]
    marks = [tuple(word[j] for j in t) for t in generators.AN2_EXTRA_THIN]
    start = ScaledComplex(simplex_complex(word), source_thin)
    cert = Certificate("scaled_anodyne", start, ScaledComplex(start.complex, source_thin + marks),
                       (Step("an2_marks", word),))
    new = canonical_dumps(certificate_to_json(cert))
    (tmp_path / "old.json").write_text(canonical_dumps(with_an2_steps(json.loads(new))), encoding="utf-8")
    assert main(["verify", "--cert", str(tmp_path / "old.json")]) == 2
    assert "an2_marks" in capsys.readouterr().err
    proc = subprocess.run(["sh", "-c", readme_jq_blocks()[1]], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "new.json").read_text(encoding="utf-8") == new
    assert main(["verify", "--cert", str(tmp_path / "new.json")]) == 0


# theta(0) and theta(1) as `certify` wrote them while it spliced the two
# chains of the nested files, relabelled through the edge collapse, before
# it searched theta on the collapsed level: the README's line converts the
# nested files to these bytes.
SPLICED_THETA_GOLDEN = {
    "0": "44a587019f6bc52feb9f5efed630a159a5fd03adb2c8775f25772704d700354b",
    "1": "1ce17ccba67a764be91b7b0d8869eccdc45555fa70feaf41d962b899ec656977",
}


def _converts_to_what_certify_writes(tmp_path: Path, old: dict, argv: list[str]) -> None:
    """The README's third line turns `old` into the file `certify` writes
    now, byte for byte, or for theta into the spliced file it wrote before
    (`SPLICED_THETA_GOLDEN`), and that file verifies plain and audited."""
    (tmp_path / "old.json").write_text(canonical_dumps(old), encoding="utf-8")
    proc = subprocess.run(["sh", "-c", readme_jq_blocks()[2]], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    new = (tmp_path / "new.json").read_bytes()
    if argv[1] == "theta":
        assert hashlib.sha256(new).hexdigest() == SPLICED_THETA_GOLDEN[argv[-1]]
    else:
        written = tmp_path / "certified.json"
        assert main(["certify", *argv, "--out", str(written)]) == 0
        assert new == written.read_bytes()
    for flags in ([], ["--audit"]):
        assert main(["verify", *flags, "--cert", str(tmp_path / "new.json")]) == 0


@pytest.mark.skipif(shutil.which("jq") is None, reason="jq is not on PATH")
@pytest.mark.parametrize("build, argv", [
    (lambda: with_injective_transports(batched_inner_horn(2, 1, nest=True)),
     ["--lemma", "inner", "--n", "2", "--i", "1"]),
    (lambda: with_injective_transports(batched_cosegal(3, nest=True)), ["--lemma", "cosegal", "--n", "3"]),
    (lambda: batched_cosegal(3, nest=True), ["--lemma", "cosegal", "--n", "3"]),
    (lambda: nested_theta(0), ["--lemma", "theta", "--i", "0"]),
    (lambda: nested_theta(1), ["--lemma", "theta", "--i", "1"]),
], ids=["inner21", "cosegal3", "cosegal3_quotient", "theta0", "theta1"])
def test_the_readme_jq_line_splices_every_transport(tmp_path: Path, capsys, build, argv):
    """An older file whose halves, previous level or theta chains sit whole
    in transport steps, of either `map_kind`, exits 2 naming the spliced
    form; the README's line converts it, byte for byte, into the file
    `certify` writes now, or for theta, whose `along` map identifies
    vertices, into the spliced file it wrote before; that file verifies
    plain and audited.  The halves inside the transports hold batches, as
    the older files did."""
    old = build()
    (tmp_path / "old.json").write_text(canonical_dumps(old), encoding="utf-8")
    assert main(["verify", "--cert", str(tmp_path / "old.json")]) == 2
    assert "unknown step kind 'transport': in this certificate format a transport is spliced" \
        in capsys.readouterr().err
    assert ('"kind":"batch"' in canonical_dumps(old)) == (argv[1] != "theta")
    _converts_to_what_certify_writes(tmp_path, old, argv)


@pytest.mark.skipif(shutil.which("jq") is None, reason="jq is not on PATH")
@pytest.mark.parametrize("build, argv", [
    (lambda: batched_half(certify_lemma_plus, 3, 1), ["--lemma", "plus", "--n", "3", "--i", "1"]),
    (lambda: batched_inner_horn(2, 1), ["--lemma", "inner", "--n", "2", "--i", "1"]),
    (lambda: batched_cosegal(3), ["--lemma", "cosegal", "--n", "3"]),
], ids=["plus31", "inner21", "cosegal3"])
def test_the_readme_jq_line_flattens_every_batch(tmp_path: Path, capsys, build, argv):
    """An older file that attaches a stage's cells as one batch step exits
    2, plain and audited, naming the flat form; the README's line converts
    it, byte for byte, into the file `certify` writes now, which verifies
    plain and audited."""
    old = build()
    (tmp_path / "old.json").write_text(canonical_dumps(old), encoding="utf-8")
    for flags in ([], ["--audit"]):
        assert main(["verify", *flags, "--cert", str(tmp_path / "old.json")]) == 2
        assert capsys.readouterr().err.strip() == (
            "input error: unknown step kind 'batch': in this certificate format a batch is flattened: its items, "
            "in order, stand in its place")
    _converts_to_what_certify_writes(tmp_path, old, argv)
