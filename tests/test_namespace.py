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
# the trusted base: every scaledss module a cold verify loads
VERIFY_MODULES = {
    "scaledss", "scaledss.certificates", "scaledss.cli", "scaledss.complexes", "scaledss.errors",
    "scaledss.generators", "scaledss.record", "scaledss.scaling", "scaledss.serialize",
}


def _modules_after(argv) -> tuple[int, set[str]]:
    """Run scaledss.cli.main(argv) in a fresh interpreter; return its exit
    code and every module it loaded."""
    code = (
        "import json, sys\n"
        "from scaledss.cli import main\n"
        "try:\n"
        "    rc = main(json.loads(sys.argv[1]))\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "mods = sorted(sys.modules)\n"
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
    assert {m for m in mods if m.split(".")[0] == "scaledss"} == VERIFY_MODULES


def test_complexes_holds_only_what_the_kernel_runs():
    from scaledss import complexes, errors

    gone = {"FinitePoset", "_poset_from_leq", "nerve", "glue_pushout", "quotient_vertex_map",
            "inclusion_map", "identity_map", "IsoResult", "find_isomorphism", "_search_iso",
            "opposite"}
    assert gone.isdisjoint(vars(complexes)), sorted(gone & set(vars(complexes)))
    assert not hasattr(complexes.OrderedComplex, "intersection")
    assert not hasattr(complexes.ComplexMap, "image_complex")
    assert not hasattr(errors, "GlueConflict")
    # `certificates.apply_step` is the one code that advances a state
    from scaledss import certificates, scaling

    assert not hasattr(complexes.OrderedComplex, "extended")
    assert not hasattr(scaling.ScaledComplex, "extended")
    assert not hasattr(certificates._State, "add")
    # a generator instance is its kind and parameters: no identity registry
    from scaledss import generators

    assert {"Genuine", "_GENUINE", "genuine"}.isdisjoint(vars(generators))
    assert not hasattr(generators.GeneratorInstance, "inclusion")
    assert not hasattr(complexes.ComplexMap, "is_injective")


def test_help_loads_no_kernel_module():
    rc, mods = _modules_after(["--help"])
    assert rc == 0
    assert mods.isdisjoint(KERNEL_MODULES), mods


@pytest.mark.parametrize("argv", [
    ["build", "--object", "ts", "--n", "2"],
    ["audit", "thin", "--n", "1", "--part", "plus"],
    ["cosimplicial-check", "--max-n", "1"],
    ["rev-check", "--max-n", "1"],
])
def test_tower_commands_load_no_certificate_module(argv):
    rc, mods = _modules_after(argv)
    assert rc == 0
    assert mods.isdisjoint(("scaledss.certificates", "scaledss.generators")), mods


@pytest.mark.parametrize("verb", ["verify", "certify", "build"])
def test_cold_commands_load_neither_dataclasses_nor_inspect(tmp_path: Path, verb):
    path = tmp_path / "plus21.json"
    argv = {
        "verify": ["verify", "--audit", "--cert", str(path)],
        "certify": ["certify", "--lemma", "plus", "--n", "2", "--i", "1", "--out", str(path)],
        "build": ["build", "--object", "ts", "--n", "2"],
    }[verb]
    if verb == "verify":
        path.write_text(json.dumps(certificate_to_json(certify_lemma_plus(2, 1))))
    rc, mods = _modules_after(argv)
    assert rc == 0
    assert "scaledss.cli" in mods
    assert mods.isdisjoint(("dataclasses", "inspect")), sorted(mods & {"dataclasses", "inspect"})


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
