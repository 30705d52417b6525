"""Canonical JSON for complexes, scalings, and certificates.

One wire format: sorted keys, compact separators, canonical array orders.
Files round-trip byte-identically.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator

from .certificates import (
    BatchPushout,
    Certificate,
    GeneratorPushout,
    ScalingExtension,
    Step,
    Transport,
)
from .complexes import OrderedComplex, close_tuples, label_key
from .errors import InputError
from .generators import instantiate
from .scaling import ScaledComplex


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def complex_to_json(k: OrderedComplex) -> dict:
    return {
        "vertices": sorted(k.vertices, key=label_key),
        "maximal_simplices": [list(t) for t in k.maximal()],
    }


@contextmanager
def _shape_errors(what: str) -> Iterator[None]:
    """Report a JSON value of the wrong shape as an InputError."""
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"malformed {what} JSON: missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc


def complex_from_json(data: dict) -> OrderedComplex:
    with _shape_errors("complex"):
        vertices = list(data["vertices"])
        maximal = [tuple(t) for t in data["maximal_simplices"]]
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise InputError("duplicate vertex labels")
        for t in maximal:
            if len(set(t)) != len(t):
                raise InputError(f"tuple {t} has duplicate vertices")
            unknown = set(t) - vset
            if unknown:
                raise InputError(f"tuple {t} uses unknown vertices {sorted(unknown)}")
        tuples = close_tuples(maximal) | frozenset((v,) for v in vertices)
        return OrderedComplex(tuples, _validated=True)


def scaled_to_json(s: ScaledComplex) -> dict:
    out = complex_to_json(s.complex)
    out["thin"] = [list(t) for t in s.thin_sorted()]
    return out


def scaled_from_json(data: dict) -> ScaledComplex:
    cx = complex_from_json(data)
    with _shape_errors("scaled complex"):
        thin = [tuple(t) for t in data.get("thin", [])]
        return ScaledComplex(cx, thin)


def _attach_to_json(attach: tuple[tuple[str, str], ...]) -> dict:
    return dict(attach)


def _attach_from_json(data: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in data.items()))


def step_to_json(step: Step) -> dict:
    if isinstance(step, GeneratorPushout):
        params = dict(step.gen.params)
        out: dict[str, Any] = {"kind": step.gen.kind, "attach": _attach_to_json(step.attach)}
        if step.gen.kind == "an1":
            out["n"], out["i"] = params["n"], params["i"]
        elif step.gen.kind == "an3":
            out["n"] = params["n"]
        elif step.gen.kind == "gen_horn":
            out["r"] = params["r"]
            out["m"] = list(params["m"])
            out["thin"] = [list(t) for t in params["thin"]]
            out["witness_s"] = params["witness_s"]
        return out
    if isinstance(step, ScalingExtension):
        return {"kind": "an2_marks", "attach": _attach_to_json(step.attach)}
    if isinstance(step, BatchPushout):
        return {"kind": "batch", "items": [step_to_json(i) for i in step.items]}
    if isinstance(step, Transport):
        return {
            "kind": "transport",
            "map_kind": step.map_kind,
            "along": _attach_to_json(step.along),
            "inner": certificate_to_json(step.inner),
        }
    raise InputError(f"unknown step type {type(step).__name__}")


def step_from_json(data: dict) -> Step:
    kind = data.get("kind")
    if kind == "an2_marks":
        return ScalingExtension(_attach_from_json(data["attach"]))
    if kind == "batch":
        items = tuple(step_from_json(i) for i in data["items"])
        if not all(isinstance(i, GeneratorPushout) for i in items):
            raise InputError("batch items must be generator pushouts")
        return BatchPushout(items)  # type: ignore[arg-type]
    if kind == "transport":
        return Transport(
            certificate_from_json(data["inner"]),
            _attach_from_json(data["along"]),
            data["map_kind"],
        )
    attach = _attach_from_json(data["attach"])
    if kind == "an1":
        gen = instantiate("an1", n=int(data["n"]), i=int(data["i"]))
    elif kind == "an2":
        gen = instantiate("an2")
    elif kind == "an3":
        gen = instantiate("an3", n=int(data["n"]))
    elif kind == "gen_horn":
        gen = instantiate(
            "gen_horn",
            r=int(data["r"]),
            m=tuple(int(j) for j in data["m"]),
            thin=tuple(tuple(int(x) for x in t) for t in data["thin"]),
        )
        if gen.param("witness_s") != int(data["witness_s"]):
            raise InputError("recorded witness does not match the instance")
    elif kind == "special_tc":
        gen = instantiate("special_tc")
    else:
        raise InputError(f"unknown step kind {kind!r}")
    return GeneratorPushout(gen, attach)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "class": cert.claimed_class,
        "start": scaled_to_json(cert.start),
        "target": scaled_to_json(cert.target),
        "steps": [step_to_json(s) for s in cert.steps],
        "metadata": dict(cert.metadata),
    }


def certificate_from_json(data: dict) -> Certificate:
    with _shape_errors("certificate"):
        return Certificate(
            data["class"],
            scaled_from_json(data["start"]),
            scaled_from_json(data["target"]),
            tuple(step_from_json(s) for s in data["steps"]),
            metadata=tuple(sorted((str(k), str(v)) for k, v in data.get("metadata", {}).items())),
        )
