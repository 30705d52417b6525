"""The lazy package namespace: a command imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scaledss
from scaledss import certify_lemma_plus
from scaledss.serialize import certificate_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")
PRODUCER_MODULES = ("scaledss.tower", "scaledss.proofs", "scaledss.search", "scaledss.grid")
KERNEL_MODULES = ("scaledss.certificates", "scaledss.complexes")


def _modules_after(argv) -> tuple[int, set[str]]:
    """Run scaledss.cli.main(argv) in a fresh interpreter; return its exit
    code and the scaledss modules it loaded."""
    code = (
        "import json, sys\n"
        "from scaledss.cli import main\n"
        "try:\n"
        "    rc = main(json.loads(sys.argv[1]))\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "mods = sorted(m for m in sys.modules if m.startswith('scaledss'))\n"
        "sys.stderr.write(json.dumps([rc, mods]) + '\\n')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    rc, mods = json.loads(proc.stderr.strip().splitlines()[-1])
    return rc, set(mods)


def test_verify_loads_no_producer_module(tmp_path: Path):
    path = tmp_path / "plus21.json"
    path.write_text(json.dumps(certificate_to_json(certify_lemma_plus(2, 1))))
    rc, mods = _modules_after(["verify", "--cert", str(path)])
    assert rc == 0
    assert "scaledss.certificates" in mods
    assert mods.isdisjoint(PRODUCER_MODULES), mods


def test_help_loads_no_kernel_module():
    rc, mods = _modules_after(["--help"])
    assert rc == 0
    assert mods.isdisjoint(KERNEL_MODULES), mods


def test_every_exported_name_is_its_module_attribute():
    assert len(scaledss.__all__) == len(set(scaledss.__all__))
    assert set(scaledss.__all__) <= set(dir(scaledss))
    for name in scaledss.__all__:
        value = getattr(scaledss, name)
        if name in scaledss._EXPORTS:
            assert value is importlib.import_module(f"scaledss.{name}")
        else:
            module = importlib.import_module(f"scaledss.{scaledss._MODULE_OF[name]}")
            assert value is getattr(module, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="bogus"):
        scaledss.bogus
    with pytest.raises(ImportError):
        from scaledss import bogus  # noqa: F401
