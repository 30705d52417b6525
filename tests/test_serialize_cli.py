"""Wire format round-trips and the batch CLI."""

import json
from pathlib import Path

import pytest

from scaledss import InputError, certify_inner_horn, certify_theta, ts, verify_certificate
from scaledss.certificates import MAX_NESTING
from scaledss.cli import main
from scaledss.serialize import (
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    complex_from_json,
    scaled_from_json,
    scaled_to_json,
)


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


def test_certificate_roundtrip_and_reverify():
    for cert in (certify_inner_horn(2, 1), certify_theta(0)):
        blob = canonical_dumps(certificate_to_json(cert))
        back = certificate_from_json(json.loads(blob))
        assert canonical_dumps(certificate_to_json(back)) == blob
        r1, r2 = verify_certificate(cert), verify_certificate(back)
        assert r1.ok and r2.ok and r1.stats == r2.stats


def test_cli_build_roundtrip(tmp_path: Path):
    out = tmp_path / "ts1.json"
    assert main(["build", "--object", "ts", "--n", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 8
    assert len(data["thin"]) == 8
    loaded = scaled_from_json(data)
    assert len(loaded.complex.simplices(2)) == 18
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


def test_cli_input_errors():
    assert main(["build", "--object", "horn", "--n", "2"]) == 2
    assert main(["certify", "--lemma", "plus", "--n", "2", "--i", "0"]) == 2
    assert main(["verify", "--cert", "/nonexistent/file.json"]) == 2


def _run_cli(*argv):
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "scaledss.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_cli_malformed_files_exit_2(tmp_path: Path):
    good = json.dumps(certificate_to_json(certify_inner_horn(2, 1)))
    data = json.loads(good)
    data["steps"] = 5
    cases = {
        "truncated.json": good[: len(good) // 2],
        "steps_int.json": json.dumps(data),
        "top_array.json": "[]",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        proc = _run_cli("verify", "--cert", str(path))
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr, name
    # a complex file handed to search goes through the same loader
    proc = _run_cli("search", "--from", str(tmp_path / "truncated.json"),
                    "--to", str(tmp_path / "top_array.json"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def test_cli_search_malformed_complex_files_exit_2(tmp_path: Path):
    cases = {
        "thin_int.json": {"vertices": ["a"], "maximal_simplices": [["a"]], "thin": 5},
        "list_label.json": {"vertices": [["a"]], "maximal_simplices": []},
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


def _transport_chain_text(depth: int) -> str:
    """certify_theta(0) inside `depth` identity injective transports, each
    level claiming its start as its target (so every level fails)."""
    base = certificate_to_json(certify_theta(0))
    ident = {v: v for v in base["start"]["vertices"]}
    level = {"class": base["class"], "start": base["start"], "target": base["start"],
             "steps": [{"kind": "transport", "map_kind": "injective", "along": ident,
                        "inner": "@INNER@"}],
             "metadata": {}}
    # built as text: json.dumps itself recurses once per level
    prefix, suffix = json.dumps(level).split('"@INNER@"')
    return prefix * depth + json.dumps(base) + suffix * depth


def test_nested_transport_failure_grows_linearly(tmp_path: Path):
    path = tmp_path / "deep24.json"
    path.write_text(_transport_chain_text(24))
    proc = _run_cli("verify", "--cert", str(path))
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stdout) < 8192
    failure = json.loads(proc.stdout)["first_failure"]
    assert failure == [0, "inner step 0: " * 22 + "inner step 1: target complex not reached"]


def test_cli_too_deep_file_exits_2(tmp_path: Path):
    path = tmp_path / "deep400.json"
    path.write_text(_transport_chain_text(400))
    proc = _run_cli("verify", "--cert", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_nesting_past_the_limit_is_a_located_failure(tmp_path: Path):
    # deep enough to load, too deep to replay
    path = tmp_path / "deep100.json"
    path.write_text(_transport_chain_text(100))
    proc = _run_cli("verify", "--cert", str(path))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["first_failure"] == [0, f"transports nest deeper than {MAX_NESTING}"]


def test_shape_errors_map_runaway_recursion():
    base = certificate_to_json(certify_theta(0))
    data = base
    for _ in range(2000):  # a Python object, not text: no JSON decoder limit
        data = dict(base, target=base["start"], steps=[
            {"kind": "transport", "map_kind": "injective", "inner": data,
             "along": {v: v for v in base["start"]["vertices"]}}])
    with pytest.raises(InputError, match="recursion"):
        certificate_from_json(data)
