"""The README's command-line block runs as documented."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

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
