"""Wire format round-trips and the command line."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scaledss import (
    AuditFailure,
    Certificate,
    InputError,
    ScaledComplex,
    Step,
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
    checks,
    horn,
    instantiate,
    simplex_complex,
    ts,
    verify_certificate,
)
from scaledss.cli import main
from scaledss.produce import certificate_to_json, scaled_to_json
from scaledss.serialize import (CLOSURE_CEILING, canonical_dumps, certificate_from_json, complex_from_json,
                                scaled_from_json)
from scaledss.tower import image_scaled
from support import generator_complexes, nested_theta, simplices
from test_acceptance import json_generator_steps, replayed_generators


def test_scaled_roundtrip_bytes():
    s = ts(1)
    blob = canonical_dumps(scaled_to_json(s))
    back = scaled_from_json(json.loads(blob))
    assert back == s
    assert canonical_dumps(scaled_to_json(back)) == blob


def test_loader_rejects_bad_tuples():
    with pytest.raises(InputError):
        complex_from_json({"vertices": ["a"], "maximal_simplices": [["a", "a"]]})
    with pytest.raises(InputError):
        complex_from_json({"vertices": ["a"], "maximal_simplices": [["a", "b"]]})
    with pytest.raises(InputError):
        complex_from_json({"vertices": ["a", "a"], "maximal_simplices": []})


def test_loader_names_a_tuple_with_a_repeated_vertex():
    """The loader names the tuple before the edge check would see the edge
    ("a", "a") it closes to."""
    with pytest.raises(InputError) as exc:
        complex_from_json({"vertices": ["a", "b"], "maximal_simplices": [["a", "b", "a"]]})
    assert str(exc.value) == "tuple ('a', 'b', 'a') has duplicate vertices"


def test_certificate_roundtrip_and_reverify():
    for cert in (certify_inner_horn(2, 1), certify_theta(0)):
        blob = canonical_dumps(certificate_to_json(cert))
        back = certificate_from_json(json.loads(blob))
        assert canonical_dumps(certificate_to_json(back)) == blob
        r1, r2 = verify_certificate(cert), verify_certificate(back)
        assert r1.ok and r2.ok and r1.stats == r2.stats


@pytest.mark.parametrize("kind, params", [
    ("an1", {"r": 3, "m": (2,)}),
    ("an2", {"r": 4, "m": ()}),
    ("gen_horn", {"r": 3, "m": (1,), "thin": ((0, 1, 2), (0, 1, 3))}),
    ("gen_horn", {"r": 4, "m": (1, 2), "thin": ((0, 2, 3), (1, 2, 3))}),
])
def test_generator_step_roundtrip(kind, params):
    """A generator step round-trips as its kind and attach map, and attached
    at the image of the generator's source it reaches the image of its
    target; an2 is attached by a scaling extension."""
    source, target = generator_complexes(instantiate(kind, params["r"], params["m"], params.get("thin", ())))
    vmap = {v: f"x{v}" for v in target.complex.vertices}
    word = tuple(vmap[str(j)] for j in range(len(vmap)))
    step = Step("an2_marks" if kind == "an2" else kind, word)
    cert = Certificate("scaled_anodyne", image_scaled(source, vmap), image_scaled(target, vmap), (step,))
    blob = canonical_dumps(certificate_to_json(cert))
    back = certificate_from_json(json.loads(blob))
    assert back == cert and back.steps == (step,)
    assert canonical_dumps(certificate_to_json(back)) == blob
    assert verify_certificate(back, audit=True).ok


def _parameters(gen) -> dict:
    """The parameters that the older format recorded for a generator step."""
    if gen.kind == "an1":
        return {"n": gen.r, "i": gen.m[0]}
    if gen.kind == "gen_horn":
        return {"r": gen.r, "m": gen.m, "thin": gen.thin, "witness_s": gen.witness_s}
    return {}


def with_parameters(cert) -> dict:
    """The JSON of `cert` with every generator step's parameters recorded
    beside its kind and attach map, as the kernel derives them: the file
    the older format held."""
    data = json.loads(json.dumps(certificate_to_json(cert)))
    derived = [_parameters(gen) for _, _, gen in replayed_generators(cert)]
    steps = list(json_generator_steps(data["steps"]))
    assert len(steps) == len(derived)
    for step, params in zip(steps, derived):
        step.update(params)
    return data


@pytest.fixture(scope="module")
def plus52_json():
    return with_parameters(certify_lemma_plus(5, 2))


@pytest.fixture(scope="module")
def plus21_json():
    return with_parameters(certify_lemma_plus(2, 1))


@pytest.mark.parametrize("name, forge", [
    ("r", lambda r: r + 0.5),
    ("r", str),
    ("m", lambda m: [float(j) for j in m]),
    ("witness_s", float),
], ids=["r_float", "r_str", "m_floats", "witness_s_float"])
def test_cli_rejects_coerced_generator_parameters(tmp_path: Path, capsys, plus52_json, name, forge):
    """A step records no parameter, so a coerced one is malformed twice over."""
    data = copy.deepcopy(plus52_json)
    step = next(s for s in data["steps"] if s["kind"] == "gen_horn")
    step[name] = forge(step[name])
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--cert", str(path)]) == 2
    assert "records only its kind and attach map" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "i", "r", "m", "thin", "witness_s"])
def test_a_file_that_records_a_generator_parameter_exits_2_and_names_the_format(
        tmp_path: Path, plus21_json, key):
    """A file that records any parameter of a generator step, at the value
    the kernel derives, is in no format the verifier reads: it exits 2,
    plain and audited, with one line that names the format."""
    data = copy.deepcopy(plus21_json)
    for step in json_generator_steps(data["steps"]):
        for name in ("n", "i", "r", "m", "thin", "witness_s"):
            if name != key:
                step.pop(name, None)
    assert any(key in step for step in json_generator_steps(data["steps"]))
    path = tmp_path / "recorded.json"
    path.write_text(canonical_dumps(data))
    for flags in ([], ["--audit"]):
        proc = _run_cli("verify", *flags, "--cert", str(path))
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1
        assert f"unknown key {key!r}: in this certificate format a generator step records only its kind and " \
               "attach map" in proc.stderr


def test_cli_build_roundtrip(tmp_path: Path):
    out = tmp_path / "ts1.json"
    assert main(["build", "--object", "ts", "--n", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 8
    assert len(data["thin"]) == 8
    loaded = scaled_from_json(data)
    assert len(simplices(loaded.complex, 2)) == 18
    # build -> load -> build is byte-identical
    out2 = tmp_path / "again.json"
    assert main(["build", "--object", "ts", "--n", "1", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cli_certify_verify_cycle(tmp_path: Path):
    cert_path = tmp_path / "c.json"
    assert main(["certify", "--lemma", "inner", "--n", "2", "--i", "1",
                 "--out", str(cert_path)]) == 0
    assert main(["verify", "--cert", str(cert_path)]) == 0
    assert main(["verify", "--cert", str(cert_path), "--audit"]) == 0
    data = json.loads(cert_path.read_text())
    data["steps"] = data["steps"][:1]
    bad = tmp_path / "truncated.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--cert", str(bad)]) == 1


def test_cli_audit_and_checks():
    assert main(["audit", "thin", "--n", "1", "--part", "plus"]) == 0
    assert main(["cosimplicial-check", "--max-n", "1"]) == 0
    assert main(["rev-check", "--max-n", "1"]) == 0


def _fails_at(level: int, message: str):
    """A check that passes below `level` and raises AuditFailure there."""
    def check(n, *rest):
        if n >= level:
            raise AuditFailure(message)
        return {"n": n}
    return check


@pytest.mark.parametrize("argv, check", [
    (["audit", "thin", "--n", "2", "--part", "full"], "thin_audit"),
    (["cosimplicial-check", "--max-n", "2"], "check_cosimplicial_identities"),
    (["rev-check", "--max-n", "2"], "rev_duality_check"),
])
def test_a_failed_check_prints_its_error_and_exits_1(monkeypatch, capsys, argv, check):
    """A check verb whose check raises AuditFailure prints the failure as
    its one stdout line, drops any levels it had checked, and exits 1."""
    monkeypatch.setattr(checks, check, _fails_at(1, "the level 1 sets differ"))
    assert main(argv) == 1
    assert capsys.readouterr() == ('{"error":"the level 1 sets differ","ok":false}\n', "")


@pytest.mark.parametrize("argv, message", [
    (["build", "--object", "face", "--n", "1"], "--face T|F|R|B is required for face objects"),
    (["build", "--object", "horn", "--n", "2"], "--i is required for horn objects"),
    (["build", "--object", "fsr"], "--i is required for fsr objects"),
])
def test_cli_build_without_its_index_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_cli_search(tmp_path: Path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "found.json"
    assert main(["build", "--object", "horn", "--n", "2", "--i", "1",
                 "--variant", "plus", "--out", str(a)]) == 0
    assert main(["build", "--object", "horn", "--n", "2", "--i", "1",
                 "--variant", "bar_plus", "--out", str(b)]) == 0
    assert main(["search", "--from", str(a), "--to", str(b),
                 "--budget", "128", "--out", str(out)]) == 0
    assert main(["verify", "--cert", str(out)]) == 0


_EDGE = {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]}
_TRIANGLE = {"vertices": ["a", "b", "c"], "maximal_simplices": [["a", "b", "c"]]}


@pytest.mark.parametrize("start, goal, code, out, err", [
    # a start with a tuple the goal lacks
    (_EDGE, {"vertices": ["a", "b"], "maximal_simplices": [["a"], ["b"]]}, 2, "",
     "input error: search source must be a subcomplex of the goal\n"),
    # a start that marks a triangle the goal leaves unmarked
    ({**_TRIANGLE, "thin": [["a", "b", "c"]]}, _TRIANGLE, 2, "",
     "input error: search source scaling must be compatible with the goal\n"),
    # a goal with a vertex the start lacks: no pushout creates a vertex
    ({"vertices": ["a"], "maximal_simplices": [["a"]]}, _EDGE, 1, '{"found":false}\n', ""),
    (_TRIANGLE, _TRIANGLE, 0, '{"found":true,"steps":0}\n', ""),
], ids=["not a subcomplex", "incompatible scaling", "missing vertex", "start is the goal"])
def test_cli_search_checks_its_inputs(tmp_path: Path, capsys, start, goal, code, out, err):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(start))
    b.write_text(json.dumps(goal))
    assert main(["search", "--from", str(a), "--to", str(b)]) == code
    assert capsys.readouterr() == (out, err)


def test_cli_input_errors():
    assert main(["build", "--object", "horn", "--n", "2"]) == 2
    assert main(["certify", "--lemma", "plus", "--n", "2", "--i", "0"]) == 2
    assert main(["verify", "--cert", "/nonexistent/file.json"]) == 2


@pytest.mark.parametrize("lemma", ["plus", "minus", "inner"])
def test_cli_certify_without_index_exits_2(lemma, capsys):
    assert main(["certify", "--lemma", lemma, "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "--i" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb, level", [("cosimplicial-check", "-2"), ("rev-check", "-1")])
def test_cli_negative_max_n_exits_2(verb, level, capsys):
    assert main([verb, "--max-n", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n must be >= 0" in captured.err


def test_cli_negative_budget_exits_2(tmp_path: Path, capsys):
    a = tmp_path / "a.json"
    assert main(["build", "--object", "ts", "--n", "1", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["search", "--from", str(a), "--to", str(a), "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget must be >= 0" in captured.err
    # a zero budget is valid: a search that needs no step succeeds with it
    assert main(["search", "--from", str(a), "--to", str(a), "--budget", "0"]) == 0


@pytest.mark.parametrize("budget", [[], ["--budget", "-1"], ["--budget", "0"], ["--budget", "1000000000"]])
def test_cli_certify_ignores_budget(tmp_path: Path, capsys, budget):
    """`certify --budget` still parses, as an int, and changes nothing: each
    stage searches until it stops."""
    out = tmp_path / "c.json"
    assert main(["certify", "--lemma", "cosegal", "--n", "3", *budget, "--out", str(out)]) == 0
    assert out.read_bytes() == canonical_dumps(certificate_to_json(certify_cosegal(3))).encode("utf-8")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_cli_unwritable_out_exits_2(tmp_path: Path, capsys, where):
    a = tmp_path / "a.json"
    assert main(["build", "--object", "ts", "--n", "1", "--out", str(a)]) == 0
    capsys.readouterr()
    out = str(tmp_path if where == "directory" else tmp_path / "missing" / "out.json")
    for argv in (["certify", "--lemma", "plus", "--n", "2", "--i", "1"],
                 ["build", "--object", "ts", "--n", "1"],
                 ["search", "--from", str(a), "--to", str(a), "--budget", "0"]):
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write {out}")
        assert len(captured.err.strip().splitlines()) == 1


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(*argv, module: str = "scaledss.cli"):
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=_cli_env())


def test_python_m_scaledss_runs_the_cli():
    proc = _run_cli("--help", module="scaledss")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _run_cli("--help").stdout


def _with_label(data: dict, key: str, value) -> dict:
    """`data` with one value of the first step's `key` map replaced."""
    step = next(step for step in data["steps"] if key in step)
    step[key][min(step[key])] = value
    return data


# A complex whose arrays are strings, which iterate as the 2-simplex (a, b, c)
# with (a, b, c) thin, and one whose simplex is an object, which iterates as
# its keys.
STRING_ARRAYS = {"vertices": "abc", "maximal_simplices": ["abc"], "thin": ["abc"]}
OBJECT_SIMPLEX = {"vertices": ["a", "b", "c"], "maximal_simplices": [{"a": 1, "b": 2, "c": 3}]}


def _with_key(data: dict, kind, key: str = "bogus") -> dict:
    """A copy of `data` with one more key in its first step of `kind`, or in
    the certificate itself for None."""
    data = copy.deepcopy(data)
    if kind is None:
        target = data
    else:
        target = next(s for s in data["steps"] if s["kind"] == kind)
    target[key] = 3
    return data


def with_an2_steps(data: dict) -> dict:
    """A copy of `data` whose an2_marks steps record the kind `an2`, as the
    generator step form that a scaling extension replaced did."""
    if isinstance(data, list):
        return [with_an2_steps(x) for x in data]
    if not isinstance(data, dict):
        return data
    out = {k: with_an2_steps(v) for k, v in data.items()}
    if out.get("kind") == "an2_marks":
        out["kind"] = "an2"
    return out


def test_cli_malformed_files_exit_2(tmp_path: Path):
    good = json.dumps(certificate_to_json(certify_inner_horn(2, 1)))
    data = json.loads(good)
    data["steps"] = 5
    int_labels = {"vertices": [0, 1], "maximal_simplices": [[0, 1]]}
    plus21 = certificate_to_json(certify_lemma_plus(2, 1))
    # a key the decoder does not read: such a file is not in canonical form
    extra_keys = {
        "an1_extra_key.json": _with_key(plus21, "an1"),
        "an1_witness_s.json": _with_key(plus21, "an1", "witness_s"),
        "marks_extra_key.json": _with_key(plus21, "an2_marks"),
        "gen_horn_extra_key.json": _with_key(plus21, "gen_horn"),
        "cert_extra_key.json": _with_key(plus21, None),
    }
    cases = {
        "truncated.json": good[: len(good) // 2],
        "steps_int.json": json.dumps(data),
        "top_array.json": "[]",
        # labels are strings: no coercion, and no crash in the label order
        "int_labels.json": json.dumps({"class": "trivial_cofibration", "start": int_labels,
                                       "target": int_labels, "steps": [], "metadata": {}}),
        "attach_int.json": json.dumps(
            _with_label(certificate_to_json(certify_lemma_plus(2, 1)), "attach", 7)),
        "theta_attach_null.json": json.dumps(
            _with_label(certificate_to_json(certify_theta(0)), "attach", None)),
        # a certificate is one flat list of steps
        "transport_step.json": json.dumps(nested_theta(0)),
        # arrays are JSON arrays: no string, object or other iterable
        "steps_object.json": json.dumps({**json.loads(good), "steps": {}}),
        "attach_array.json": json.dumps({**json.loads(good), "steps": [{"kind": "gen_horn", "attach": []}]}),
        "string_arrays.json": json.dumps({"class": "trivial_cofibration", "start": STRING_ARRAYS,
                                          "target": STRING_ARRAYS, "steps": [], "metadata": {}}),
        "object_simplex.json": json.dumps({"class": "trivial_cofibration", "start": OBJECT_SIMPLEX,
                                           "target": OBJECT_SIMPLEX, "steps": [], "metadata": {}}),
        **{name: json.dumps(bad) for name, bad in extra_keys.items()},
        # the an2 generator is attached by an an2_marks step only
        "an2_step.json": json.dumps(with_an2_steps(plus21)),
        # metadata is an object of strings: no value is converted
        **{f"metadata_{name}.json": json.dumps({**plus21, "metadata": {"n": value}})
           for name, value in (("int", 5), ("null", None), ("object", {"deep": [1, None]}))},
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        proc = _run_cli("verify", "--cert", str(path))
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr, name
        if name in extra_keys:
            assert proc.stderr.strip().splitlines() == [proc.stderr.strip()], name
            assert "unknown key" in proc.stderr, name
        if name.startswith("metadata_"):
            assert "metadata value" in proc.stderr and "is not a string" in proc.stderr, name
        if name == "an2_step.json":
            assert "unknown step kind 'an2'" in proc.stderr and "an2_marks step" in proc.stderr
        if name == "transport_step.json":
            assert proc.stderr.strip() == f"input error: unknown step kind 'transport'{SPLICED}"
    # a complex file handed to search goes through the same loader
    proc = _run_cli("search", "--from", str(tmp_path / "truncated.json"),
                    "--to", str(tmp_path / "top_array.json"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def _renamed(attach: dict, old: str, new: str) -> dict:
    return {(new if k == old else k): v for k, v in attach.items()}


# An attach map whose keys are not exactly "0".."r" (r = 4 for an an2_marks
# step), by the kind of step it is in, and what the message names
MALFORMED_ATTACH = {
    "gap": ("gen_horn", lambda a: {"0": a["0"], "2": a["2"]},
            "the attach map has the key '2': its keys must be \"0\"..\"1\""),
    "extra_key": ("gen_horn", lambda a: {**a, "9": "999"},
                  "the attach map has the key '9': its keys must be \"0\"..\"4\""),
    "non_numeric_key": ("an1", lambda a: _renamed(a, "1", "x"),
                        "the attach map has the key 'x': its keys must be \"0\"..\"2\""),
    "marks_4_keys": ("an2_marks", lambda a: {k: v for k, v in a.items() if k != "4"},
                     "the attach map lacks the key '4': its keys must be \"0\"..\"4\""),
    "marks_6_keys": ("an2_marks", lambda a: {**a, "5": a["4"]},
                     "the attach map has the key '5': its keys must be \"0\"..\"4\""),
    "array": ("gen_horn", lambda a: [a[str(j)] for j in range(len(a))], "an attach map is a JSON object, not list"),
}


@pytest.mark.parametrize("case", MALFORMED_ATTACH)
def test_a_malformed_attach_map_exits_2_naming_the_key(tmp_path: Path, capsys, case):
    """The decoder reads an attach map's values at the keys "0".."r" in
    position order; a map with other keys, or an array, is malformed input,
    plain and audited, and the message names the key."""
    kind, change, message = MALFORMED_ATTACH[case]
    data = certificate_to_json(certify_lemma_plus(2, 1))
    step = next(s for s in data["steps"] if s["kind"] == kind)
    step["attach"] = change(step["attach"])
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--audit"]):
        assert main(["verify", *flags, "--cert", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_an_11_vertex_attach_map_decodes_in_position_order(tmp_path: Path):
    """An an1 step on 11 vertices fills the horn on {1} of Delta^10, whose
    2045 tuples are the start.  Its attach keys sort "0", "1", "10", "2", ...
    in the file, and the decoder reads them in position order: the file
    verifies, plain and audited, and re-encodes byte for byte, and with the
    values at "2" and "10" swapped it fails at step 0."""
    labels = [chr(ord("a") + j) for j in range(11)]
    start = ScaledComplex(horn(labels, {"b"}), [("a", "b", "c")])
    assert len(start.complex.tuples) == 2045
    target = ScaledComplex(simplex_complex(labels), [("a", "b", "c")])
    cert = Certificate("scaled_anodyne", start, target, (Step("an1", tuple(labels)),))
    text = canonical_dumps(certificate_to_json(cert))
    assert '"attach":{"0":"a","1":"b","10":"k","2":"c",' in text
    assert canonical_dumps(certificate_to_json(certificate_from_json(json.loads(text)))) == text
    path = tmp_path / "an1_11.json"
    path.write_text(text)
    swapped = json.loads(text)
    attach = swapped["steps"][0]["attach"]
    attach["2"], attach["10"] = attach["10"], attach["2"]
    swapped_path = tmp_path / "an1_11_swapped.json"
    swapped_path.write_text(json.dumps(swapped))
    for flags in ([], ["--audit"]):
        assert main(["verify", *flags, "--cert", str(path)]) == 0
        assert main(["verify", *flags, "--cert", str(swapped_path)]) == 1
        assert verify_certificate(certificate_from_json(swapped), audit=bool(flags)).first_failure[0] == 0


def test_theta_with_a_special_step_exits_2(tmp_path: Path):
    """A theta file that records a collapsed-horn step after a step of its
    first chain, as files once did after its first quotient transport, is
    malformed: the kind is gone."""
    data = certificate_to_json(certify_theta(0))
    data["steps"].insert(1, {"attach": {"0": "000", "2": "110"}, "kind": "special_tc"})
    path = tmp_path / "theta0_special.json"
    path.write_text(canonical_dumps(data))
    for flags in ([], ["--audit"]):
        proc = _run_cli("verify", *flags, "--cert", str(path))
        assert proc.returncode == 2
        assert "unknown step kind 'special_tc'" in proc.stderr


FLATTENED = ": in this certificate format a batch is flattened: its items, in order, stand in its place"


def test_a_batch_step_exits_2_naming_the_flat_form(tmp_path: Path):
    """A file that attaches several generator steps as one batch step, as
    older files did, exits 2, plain and audited, naming the flat form."""
    data = certificate_to_json(certify_lemma_plus(2, 1))
    data["steps"][:2] = [{"kind": "batch", "items": data["steps"][:2]}]
    path = tmp_path / "batch.json"
    path.write_text(canonical_dumps(data))
    for flags in ([], ["--audit"]):
        proc = _run_cli("verify", *flags, "--cert", str(path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"input error: unknown step kind 'batch'{FLATTENED}"


SPLICED = (": in this certificate format a transport is spliced: its inner steps, relabelled through its map, "
           "stand in its place")


def _as_transport(map_kind):
    """Wrap the steps of the certificate in one identity transport of the
    given `map_kind`, as older files nested a certificate."""
    def tamper(data):
        inner = copy.deepcopy(data)
        along = {v: v for v in data["start"]["vertices"]}
        data["steps"] = [{"kind": "transport", "map_kind": map_kind, "along": along, "inner": inner}]
    return tamper


def _int_label_in_gen_horn(data):
    step = next(s for s in data["steps"] if s["kind"] == "gen_horn")
    step["attach"]["0"] = 7


@pytest.mark.parametrize("make, tamper, message", [
    (lambda: certify_theta(1), _as_transport("bogus"), "unknown step kind 'transport'" + SPLICED),
    (lambda: certify_theta(1), _as_transport(["x"]), "unknown step kind 'transport'" + SPLICED),
    (lambda: certify_lemma_plus(2, 1), _int_label_in_gen_horn, "attach value 7 is not a string"),
], ids=["map_kind_string", "map_kind_array", "gen_horn_label"])
def test_cli_step_checked_when_made_exits_2(tmp_path: Path, make, tamper, message):
    """A step's kind is checked when the step is decoded, whatever a
    transport's `map_kind`, and a generator step's labels when it is made,
    before any replay, so the file is malformed input."""
    data = certificate_to_json(make())
    tamper(data)
    path = tmp_path / "tampered.json"
    path.write_text(canonical_dumps(data))
    for flags in ([], ["--audit"]):
        proc = _run_cli("verify", *flags, "--cert", str(path))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"input error: {message}"


def test_cli_search_malformed_complex_files_exit_2(tmp_path: Path):
    cases = {
        "thin_int.json": {"vertices": ["a"], "maximal_simplices": [["a"]], "thin": 5},
        "list_label.json": {"vertices": [["a"]], "maximal_simplices": []},
        "int_labels.json": {"vertices": [0, 1, 2], "maximal_simplices": [[0, 1]]},
        "string_arrays.json": STRING_ARRAYS,
        "object_simplex.json": OBJECT_SIMPLEX,
        "string_thin_triple.json": {"vertices": ["a", "b", "c"], "maximal_simplices": [["a", "b", "c"]],
                                    "thin": ["abc"]},
        "object_thin.json": {"vertices": ["a"], "maximal_simplices": [["a"]], "thin": {}},
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        proc = _run_cli("search", "--from", str(path), "--to", str(path))
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr, name
        assert len(proc.stderr.strip().splitlines()) == 1, name


def test_cli_seed_accepted(tmp_path: Path):
    out = tmp_path / "sq.json"
    assert main(["--seed", "7", "build", "--object", "oplax-square", "--out", str(out)]) == 0


def test_certificates_deterministic_across_processes(tmp_path: Path):
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        proc = _run_cli("certify", "--lemma", "plus", "--n", "3", "--i", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# Deeper than the C recursion limit of any supported interpreter, which
# bounds the JSON decoder and `repr` alike
TOO_DEEP = 100_000


def test_cli_too_deep_file_exits_2(tmp_path: Path):
    """certify_theta(0) whose one step is an an1 step with `TOO_DEEP`
    arrays, each the one member of the next, as an attach value, built as
    text: json.dumps itself recurses once per level."""
    base = certificate_to_json(certify_theta(0))
    prefix, suffix = json.dumps(dict(base, steps=["@STEP@"])).split('"@STEP@"')
    step = '{"kind":"an1","attach":{"0":' + "[" * TOO_DEEP + "]" * TOO_DEEP + "}}"
    path = tmp_path / "deep.json"
    path.write_text(prefix + step + suffix)
    proc = _run_cli("verify", "--cert", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "maximum recursion depth" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_the_closure_ceiling_admits_ts_targets_to_n_10():
    """A complex's listed simplices bound its closure by the sum of 2^k - 1
    over their sizes k; a ts(n) target's bound is (n+1)(n+2)(2^(n+3) - 1),
    which the ceiling admits up to n = 10."""
    def bound(n):
        return (n + 1) * (n + 2) * (2 ** (n + 3) - 1)

    for n in range(1, 5):
        assert sum(2 ** len(t) - 1 for t in scaled_to_json(ts(n))["maximal_simplices"]) == bound(n)
    assert bound(10) <= CLOSURE_CEILING < bound(11)


def test_a_closure_over_the_ceiling_is_an_input_error():
    """Two 21-vertex simplices bound their closure at 2^22 - 2, over the
    ceiling, and are rejected before any face is built."""
    labels = [f"v{j}" for j in range(22)]
    data = {"vertices": labels, "maximal_simplices": [labels[:21], labels[1:]]}
    with pytest.raises(InputError, match=rf"the sum of 2\^k - 1 over the listed k-vertex simplices is "
                                         rf"{2 ** 22 - 2}, over {CLOSURE_CEILING}"):
        complex_from_json(data)


# Runs argv and prints its exit code, wall seconds and `ru_maxrss`.  A child
# counts in `ru_maxrss` the memory of the process it was started from, so a
# small launcher starts it rather than the test process.
LAUNCHER = (
    "import os, subprocess, sys, time\n"
    "began = time.perf_counter()\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), time.perf_counter() - began, usage.ru_maxrss)\n"
)


def _verify_child(path: Path, *flags: str) -> tuple[int, str, float, float]:
    """A cold `scaledss verify` of `path`: its exit code, stderr, wall
    seconds and peak RSS in MB (Linux reports `ru_maxrss` in KB)."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "scaledss", "verify",
                           "--cert", str(path), *flags], capture_output=True, text=True, env=_cli_env())
    rc, wall, peak_kb = proc.stdout.split()
    return int(rc), proc.stderr, float(wall), int(peak_kb) / 1024


@pytest.mark.parametrize("where", ["start", "target"])
def test_a_40_vertex_simplex_in_1kb_exits_at_once(tmp_path: Path, where):
    """A file of at most 1 KB that lists a 40-vertex simplex, whose closure
    has 2^40 - 1 tuples, exits 2, plain and audited, in under a second and
    50 MB: its bound is checked before the closure is built."""
    labels = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")
    big = {"vertices": labels, "maximal_simplices": [labels], "thin": []}
    small = {"vertices": ["a"], "maximal_simplices": [["a"]], "thin": []}
    data = {"class": "scaled_anodyne", "start": big if where == "start" else small, "target": big, "steps": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data, separators=(",", ":")))
    assert path.stat().st_size <= 1024
    for flags in ([], ["--audit"]):
        rc, err, wall, peak_mb = _verify_child(path, *flags)
        assert rc == 2, err
        assert f"is {2 ** 40 - 1}, over {CLOSURE_CEILING}" in err
        assert wall < 1.0 and peak_mb < 50, (wall, peak_mb)


def test_shape_errors_map_runaway_recursion():
    """A label too deep for its `repr` in the message that rejects it is
    malformed input too."""
    label = []
    for _ in range(TOO_DEEP):  # a Python object, not text: no JSON decoder limit
        label = [label]
    data = dict(certificate_to_json(certify_theta(0)), steps=[{"kind": "an1", "attach": {"0": label}}])
    with pytest.raises(InputError) as exc:
        certificate_from_json(data)
    assert str(exc.value) == ("malformed certificate JSON: maximum recursion depth exceeded while getting the "
                              "repr of an object")


# The values a tampered certificate may hold where the format holds another
TAMPER_MENU = [None, True, False, 0, -1, 2 ** 70, 1.5, "", "x", [], {}, [[1, 2]]]
TAMPERS = ("replace", "drop key", "add key", "drop step", "duplicate step", "swap attach")


@pytest.fixture(scope="module")
def tamper_sources(tmp_path_factory):
    """The serialized certificates the tamper property mutates, and a
    directory for the mutants."""
    certs = {"plus21": certify_lemma_plus(2, 1), "minus21": certify_lemma_minus(2, 1),
             "cosegal2": certify_cosegal(2), "theta0": certify_theta(0)}
    return {name: certificate_to_json(c) for name, c in certs.items()}, tmp_path_factory.mktemp("tamper")


def _slots(doc) -> list:
    """Every (container, key) in a JSON document, in a fixed order."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in (list(node) if isinstance(node, dict) else range(len(node))):
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def _tamper(doc, how: str, draw) -> None:
    """Apply one tamper of kind `how` to `doc` in place."""
    slots = _slots(doc)
    if how == "replace":
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(st.sampled_from(TAMPER_MENU))
    elif how == "drop key":
        node, key = draw(st.sampled_from([(n, k) for n, k in slots if isinstance(n, dict)]))
        del node[key]
    elif how == "add key":
        node = draw(st.sampled_from([n for n, _ in slots if isinstance(n, dict)]))
        key = draw(st.sampled_from(["bogus", "kind", "attach", "witness_s", "metadata", "n", "thin"]))
        node[key] = draw(st.sampled_from(TAMPER_MENU))
    elif how in ("drop step", "duplicate step"):
        lists = [n[k] for n, k in slots if k == "steps" and isinstance(n[k], list) and n[k]]
        steps = draw(st.sampled_from(lists))
        j = draw(st.integers(0, len(steps) - 1))
        if how == "drop step":
            del steps[j]
        else:
            steps.insert(j, copy.deepcopy(steps[j]))
    else:
        # every certificate here attaches along a map with two distinct values
        vmap = draw(st.sampled_from([n[k] for n, k in slots if k == "attach" and len(set(n[k].values())) > 1]))
        keys = sorted(vmap)
        a, b = draw(st.sampled_from([(a, b) for a in keys for b in keys if vmap[a] != vmap[b]]))
        vmap[a], vmap[b] = vmap[b], vmap[a]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["plus21", "minus21", "cosegal2", "theta0"]), st.sampled_from(TAMPERS), st.data())
def test_tampered_certificates_exit_alike_plain_and_audited(tamper_sources, name, how, data):
    """`verify` is total on a tampered certificate: it never raises, exits
    0, 1 or 2, and exits alike with and without --audit."""
    docs, folder = tamper_sources
    doc = copy.deepcopy(docs[name])
    _tamper(doc, how, data.draw)
    path = folder / "mutant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    plain = main(["verify", "--cert", str(path)])
    audited = main(["verify", "--audit", "--cert", str(path)])
    assert plain in (0, 1, 2)
    assert audited == plain
