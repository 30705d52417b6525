"""The lazy package namespace: a command imports only the modules it runs."""

import atexit
import gc
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scaledss
from scaledss import certify_lemma_plus, horn_variants, ts
from scaledss.produce import certificate_to_json, scaled_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")
PRODUCER_MODULES = ("scaledss.tower", "scaledss.proofs", "scaledss.search", "scaledss.grid")
# the trusted base: every scaledss module a cold verify loads
VERIFY_MODULES = {
    "scaledss", "scaledss.certificates", "scaledss.cli", "scaledss.complexes", "scaledss.errors",
    "scaledss.generators", "scaledss.record", "scaledss.scaling", "scaledss.serialize",
}
# the most lines of source a cold verify may compile
VERIFY_LINES = 1290
# the most lines of source a cold certify may compile
CERTIFY_LINES = 2249
# code that left a module, by the module it left: producer code that left
# the trusted base, and test-only code and checks that left the certify path
MOVED = {
    "scaledss.cli": ("cmd_build", "cmd_audit", "cmd_certify", "cmd_search", "cmd_cosimplicial_check",
                     "cmd_rev_check", "_write", "_build_object", "_max_n", "_budget", "default_nmax"),
    "scaledss.serialize": ("complex_to_json", "scaled_to_json", "step_to_json", "certificate_to_json",
                           "_attach_to_json"),
    "scaledss.scaling": ("ScaledMap", "scale", "restrict_scaling", "check_scaled_map", "Violation"),
    "scaledss.complexes": ("horn", "simplex_complex", "_index_vsets"),
    "scaledss.generators": ("_simplex", "_horn", "generator_complexes"),
    "scaledss.certificates": ("_Audit", "AuditRecord"),
    "scaledss.grid": ("omega", "join_sort", "join_position", "OMEGA_ROW"),
    "scaledss.proofs": ("d_iso_check", "_DOUBLE_COLLAPSE"),
}
# the modules a cold command loads only to print help or report a usage error
ARGPARSE_MODULES = ("argparse", "gettext", "locale")
# a cold `scaledss.cli.main(argv)`
CLI_RUN = (
    "from scaledss.cli import main\n"
    "try:\n"
    "    rc = main(json.loads(sys.argv[1]))\n"
    "except SystemExit as exc:\n"
    "    rc = exc.code\n"
)
# one search chunk as the benchmark runs it: decode, search, audited verify
SEARCH_CHUNK = (
    "from scaledss.certificates import verify_certificate\n"
    "from scaledss.search import search_decomposition\n"
    "from scaledss.serialize import scaled_from_json\n"
    "a, b = (scaled_from_json(json.loads(open(p).read())) for p in json.loads(sys.argv[1]))\n"
    "rc = int(not verify_certificate(search_decomposition(a, b, 64), audit=True).ok)\n"
)


def _python(code: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run `code` on argv in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def _modules_after(argv, run: str = CLI_RUN) -> tuple[int, set[str]]:
    """Run `run` on argv in a fresh interpreter; return its exit code and
    every module it loaded."""
    code = ("import json, sys\n" + run + "mods = sorted(sys.modules)\n"
            "sys.stderr.write(json.dumps([rc, mods]) + '\\n')\n")
    proc = _python(code, [json.dumps(argv)])
    rc, mods = json.loads(proc.stderr.strip().splitlines()[-1])
    return rc, set(mods)


def _scaledss(mods: set[str]) -> set[str]:
    return {m for m in mods if m.split(".")[0] == "scaledss"}


def test_verify_loads_no_producer_module(tmp_path: Path):
    path = tmp_path / "plus21.json"
    path.write_text(json.dumps(certificate_to_json(certify_lemma_plus(2, 1))))
    rc, mods = _modules_after(["verify", "--cert", str(path)])
    assert rc == 0
    assert "scaledss.certificates" in mods
    assert mods.isdisjoint(PRODUCER_MODULES), mods
    assert _scaledss(mods) == VERIFY_MODULES


def test_the_trusted_base_holds_no_producer_code():
    for name, moved in MOVED.items():
        left = set(moved) & set(vars(importlib.import_module(name)))
        assert not left, (name, sorted(left))
    lines = sum(len(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8").splitlines())
                for name in VERIFY_MODULES)
    assert lines <= VERIFY_LINES, lines


COLD_CASES = {
    "help": {"scaledss", "scaledss.cli", "scaledss.errors"},
    "build": {"scaledss", "scaledss.cli", "scaledss.complexes", "scaledss.errors", "scaledss.grid",
              "scaledss.produce", "scaledss.scaling", "scaledss.serialize", "scaledss.tower"},
    "search": VERIFY_MODULES | {"scaledss.produce", "scaledss.search"},
    "search_chunk": VERIFY_MODULES - {"scaledss.cli"} | {"scaledss.audit", "scaledss.search"},
    "certify": VERIFY_MODULES | {"scaledss.grid", "scaledss.produce", "scaledss.proofs", "scaledss.search",
                                 "scaledss.tower"},
    "cosimplicial-check": {"scaledss", "scaledss.checks", "scaledss.cli", "scaledss.complexes",
                           "scaledss.errors", "scaledss.grid", "scaledss.produce", "scaledss.scaling",
                           "scaledss.serialize", "scaledss.tower"},
}


def test_the_certify_set_holds_at_most_its_lines():
    lines = sum(len(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8").splitlines())
                for name in COLD_CASES["certify"])
    assert lines <= CERTIFY_LINES, lines


@pytest.mark.parametrize("case", COLD_CASES)
def test_cold_module_sets(tmp_path: Path, case):
    """The scaledss modules a cold command loads, exactly: `--help` only
    the parser, `build` no certificate kernel, `search` no tower, a search
    chunk the verify set without `cli`, plus `search` and the audit record,
    `certify` the tower's builders but not its checks, and
    `cosimplicial-check` the checks but no certificate kernel."""
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, sc in zip(paths, (horn_variants(2, 1, "full"), ts(2))):
        Path(path).write_text(json.dumps(scaled_to_json(sc)))
    argv, run = {
        "help": (["--help"], CLI_RUN),
        "build": (["build", "--object", "ts", "--n", "2"], CLI_RUN),
        "search": (["search", "--from", paths[0], "--to", paths[1],
                    "--out", str(tmp_path / "found.json")], CLI_RUN),
        "search_chunk": (paths, SEARCH_CHUNK),
        "certify": (["certify", "--lemma", "plus", "--n", "2", "--i", "1"], CLI_RUN),
        "cosimplicial-check": (["cosimplicial-check", "--max-n", "1"], CLI_RUN),
    }[case]
    rc, mods = _modules_after(argv, run)
    assert rc == 0
    assert _scaledss(mods) == COLD_CASES[case]


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
    # a step records no parameter: nothing decodes a step alone or reads a
    # parameter, a source or a target off an instance or a report's stat
    from scaledss import search, serialize

    assert not hasattr(serialize, "step_from_json") and not hasattr(search, "_thin_positions")
    assert {"source", "target", "param", "size"}.isdisjoint(dir(generators.GeneratorInstance))
    assert not hasattr(certificates.VerifyReport, "stat")
    assert not hasattr(complexes.ComplexMap, "is_injective")
    # no listing by dimension and no empty-complex maker: only tests used them
    for name in ("simplices", "_index", "_by_dim", "empty"):
        assert not hasattr(complexes.OrderedComplex, name), name
    # a pushout shape holds its target-only tuples, built with the shape
    assert "_added" not in scaling.PushoutShape.__slots__
    # a spliced step is a checked pushout: the kernel computes no image of
    # a complex, and no step records the collapsed horn
    for name in VERIFY_MODULES:
        module = importlib.import_module(name)
        assert {"vertex_image", "image_scaled"}.isdisjoint(vars(module)), name
    assert generators.KINDS == ("an1", "gen_horn")  # a scaling extension attaches an2
    assert "special_tc" not in generators.KINDS
    assert "an3" not in generators.KINDS
    # the kernel makes each instance from values it derived: no layer checks
    # parameter names or types, and search reads a failure off the memo
    gone = {"PARAMETERS", "_canonical_params", "_int", "_ints", "_instantiate", "_instance"}
    assert gone.isdisjoint(vars(generators)), sorted(gone & set(vars(generators)))
    assert not hasattr(search, "_has_instance")
    # a certificate is one flat list of generator steps: no step carries a
    # certificate or other steps, and no pushout shape is built from a whole
    # start and target
    gone = {"Transport", "_transport_delta", "_nesting_violation", "MAX_NESTING", "_identified",
            "BatchPushout", "_batch_delta"}
    assert gone.isdisjoint(vars(certificates)), sorted(gone & set(vars(certificates)))
    assert "pushout_shape" not in vars(scaling) and "must_miss" not in scaling.PushoutShape.__slots__
    assert gone.isdisjoint(scaledss.__all__), sorted(gone & set(scaledss.__all__))
    assert "params" not in dir(generators.GeneratorInstance)
    assert hasattr(generators.instantiate, "cache_info")


def test_a_step_holds_its_word_and_the_labels_live_in_the_file():
    """A generator step holds its kind and cell word, a scaling extension its
    word, and every pushout shape is stated in positions: the labels
    "0".."r" of an attach map exist only where `serialize` reads a file and
    `produce` writes one."""
    from scaledss import certificates, generators, scaling

    assert certificates.GeneratorPushout.__slots__ == ("kind", "cell")
    assert certificates.ScalingExtension.__slots__ == ("word",)
    gone = {"VertexMap", "_AN2_VERTICES", "_scaling_delta", "_generator_delta", "_covers"}
    assert gone.isdisjoint(vars(certificates)), sorted(gone & set(vars(certificates)))
    assert "_labels" not in vars(generators) and "vertices" not in scaling.PushoutShape.__slots__
    for name in ("certificates", "generators", "scaling", "search", "proofs"):
        source = Path(importlib.import_module(f"scaledss.{name}").__file__).read_text(encoding="utf-8")
        assert not re.search(r"str\(j\)|\.attach\b|_labels", source), name


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


def test_proofs_reads_each_horn_off_the_state():
    """`certify` attaches a sweep cell along the horn its missing faces
    leave (`search._try_attach`), so no horn table and no second stage path
    is left in `proofs`."""
    from scaledss import proofs, search

    gone = {"_positions", "plus_horn_positions", "minus_horn_positions", "_batch_item", "_sweep_stage"}
    assert gone.isdisjoint(vars(proofs)), sorted(gone & set(vars(proofs)))
    assert not hasattr(proofs._Builder, "fill_to")
    assert "instantiate" not in vars(proofs)
    assert "thin_positions" not in vars(search)


def test_tower_holds_no_isomorphism_search_and_no_test_only_builder():
    """Each isomorphism claim names its vertex map, which a test checks, so
    `tower` keeps no search for one; and no builder option that only tests
    set is left."""
    import inspect

    from scaledss import checks, complexes, tower

    gone = {"IsoResult", "find_isomorphism", "_search_iso", "scale"}
    assert gone.isdisjoint(vars(tower)), sorted(gone & set(vars(tower)))
    assert gone.isdisjoint(scaledss.__all__), sorted(gone & set(scaledss.__all__))
    assert "opposite" in vars(checks)  # `rev_duality_check` reverses the B face with it
    assert not hasattr(complexes.OrderedComplex, "dimension")
    assert list(inspect.signature(tower.horn).parameters) == ["s", "n"]


@pytest.mark.parametrize("verb", ["verify", "certify", "build", "help"])
def test_only_help_and_errors_load_argparse(tmp_path: Path, verb):
    """A well-formed argv is read off the option table, so a cold command
    loads no argparse; `--help` builds argparse's parser."""
    path = tmp_path / "plus21.json"
    path.write_text(json.dumps(certificate_to_json(certify_lemma_plus(2, 1))))
    argv = {
        "verify": ["verify", "--cert", str(path)],
        "certify": ["--seed", "3", "certify", "--lemma", "plus", "--n", "2", "--i", "1"],
        "build": ["build", "--object", "ts", "--n", "2"],
        "help": ["--help"],
    }[verb]
    rc, mods = _modules_after(argv)
    assert rc == 0
    loaded = mods & set(ARGPARSE_MODULES)
    assert loaded == (set(ARGPARSE_MODULES) if verb == "help" else set()), sorted(loaded)


def test_tower_checks_left_the_certify_path():
    """`tower` holds the builders `certify` runs; the checks live in
    `scaledss.checks`, and the lazy namespace names them there."""
    from scaledss import checks, tower

    moved = {"ScaledMap", "coface", "codegeneracy", "codegeneracy_vmap", "check_cosimplicial_identities",
             "_index_rule", "thin_audit", "boundary_face", "latching", "opposite", "rev_duality_vmap",
             "rev_duality_check", "segment_image", "oplax_square", "d_iso_check", "_DOUBLE_COLLAPSE"}
    assert moved.isdisjoint(vars(tower)), sorted(moved & set(vars(tower)))
    assert "omega" not in scaledss.__all__  # the grid-to-join relabelling is a test oracle
    assert moved <= set(vars(checks)), sorted(moved - set(vars(checks)))
    for name in moved & set(scaledss.__all__):
        assert scaledss._MODULE_OF[name] == "checks", name


def test_one_code_path_images_a_vertex_map():
    """The image of a tuple under a vertex map, and the scaled-map check,
    are the helpers in `complexes`: the kernel, `ComplexMap`, `ScaledMap`,
    the tower's images and the search's mark pass call them, and no second
    check or image is left."""
    from scaledss import certificates, checks, complexes, scaling, search, tower

    for name in ("check_scaled_map", "Violation"):
        assert name not in vars(checks) and name not in scaledss.__all__, name
    assert not hasattr(scaling.ScaledComplex, "is_thin")
    helpers = {"_image", "_named", "_carried", "_thin_image"}
    assert helpers <= set(vars(complexes))
    for module in (certificates, checks, search, tower):
        for name in helpers & set(vars(module)):
            assert getattr(module, name) is getattr(complexes, name), (module.__name__, name)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, rc", [
    (["rev-check", "--max-n", "0"], 0),
    (["build", "--object", "face", "--n", "1"], 2),  # InputError: --face is required
    (["build", "--object", "nothing"], None),  # argparse's SystemExit
], ids=["ok", "input-error", "usage-error"])
def test_main_restores_cyclic_gc(enabled, argv, rc, capsys):
    from scaledss.cli import main

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if rc is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == rc
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_main_runs_a_command_without_cyclic_gc(monkeypatch, tmp_path: Path):
    from scaledss import cli

    states = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: states.append(gc.isenabled()) or 0)
    was = gc.isenabled()
    gc.enable()
    try:
        assert cli.main(["verify", "--cert", str(tmp_path / "c.json")]) == 0
        assert states == [False] and gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_main_registers_one_exit_freeze_and_freezes_nothing(monkeypatch, capsys):
    from scaledss.cli import main

    # the exit handlers as `atexit` keeps them, one registered before `main`
    handlers = [print]

    def unregister(func):
        handlers[:] = [h for h in handlers if h != func]

    monkeypatch.setattr(atexit, "register", handlers.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    was = gc.isenabled()
    gc.enable()
    try:
        for _ in range(2):
            assert main(["rev-check", "--max-n", "0"]) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        assert handlers == [print, gc.freeze]
    finally:
        (gc.enable if was else gc.disable)()


# An exit handler registered before `main` runs after `main`'s (the last registered runs first)
# and reports on stderr whether the heap is frozen by then.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'\\nfrozen {gc.get_freeze_count() > 0}\\n'))\n"
    "from scaledss.cli import main\n"
)


def test_importing_the_cli_freezes_nothing_at_exit():
    proc = _python(FREEZE_PROBE, [])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "frozen False"


@pytest.mark.parametrize("case, rc", [
    ("ok", 0), ("tampered", 1), ("malformed", 2), ("help", 0), ("usage", 2),
])
def test_a_command_exits_frozen_with_its_output_and_code(tmp_path: Path, monkeypatch, capsys, case, rc):
    from scaledss.cli import main

    data = certificate_to_json(certify_lemma_plus(2, 1))
    if case == "tampered":
        data["steps"].pop()
    elif case == "malformed":
        del data["target"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    argv = {"help": ["--help"], "usage": ["verify"]}.get(case, ["verify", "--cert", str(path)])
    proc = _python(FREEZE_PROBE + "sys.exit(main(sys.argv[1:]))\n", argv)
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.splitlines()[-1] == "frozen True"
    # the stdout that `main` writes in process, flushed in full
    monkeypatch.setenv("COLUMNS", "80")
    try:
        assert main(argv) == rc
    except SystemExit as exc:
        assert exc.code == rc
    assert proc.stdout == capsys.readouterr().out
    assert (proc.stdout != "") == (case in ("ok", "tampered", "help"))
