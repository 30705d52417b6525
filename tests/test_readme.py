"""The README's command-line block and its conversion line for older
certificate files run as documented."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scaledss.cli import main
from scaledss.serialize import canonical_dumps, certificate_from_json
from test_serialize_cli import with_parameters

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


def readme_jq_block() -> str:
    """The `sh` block of "File formats" that converts an older file."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## File formats\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert block.startswith("jq ") and block.rstrip().endswith("old.json > new.json")
    return block


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
    proc = subprocess.run(["sh", "-c", readme_jq_block()], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "new.json").read_bytes() == new
